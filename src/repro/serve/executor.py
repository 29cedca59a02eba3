"""The shard executor: the one code path that applies ops to shards.

Both servers keep one writer per shard (§III.H): the event loop of
:class:`~repro.serve.server.McCuckooServer`, which applies writes inline
at admission (injected stalls hold the reply), and the FIFO loop of each
worker process in :class:`~repro.serve.workers.WorkerServer`.  Both call
a :class:`ShardExecutor`, the only code that applies a PUT or DELETE,
builds GET replies, heals an :class:`InjectedCrash` and ticks
maintenance; the servers keep only how they sleep, and the worker its
kill rule, migration phases and log files.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

from ..faults import InjectedCrash
from ..maintenance import MaintenanceDaemon
from .protocol import (
    DELETED,
    NOT_DELETED,
    NOT_FOUND,
    PUT_CREATED,
    PUT_UPDATED,
    ErrorCode,
    ErrorReply,
    PutRequest,
    SimpleReply,
    SimpleRequest,
    ValueReply,
)
from .stats import ServeStats
from .store import ShardedLogStore

if TYPE_CHECKING:  # pragma: no cover
    from .server import ServerConfig


def build_store(
    config: "ServerConfig", owned: Optional[Sequence[int]] = None
) -> ShardedLogStore:
    """The store for ``config``: every shard, or a worker's ``owned``
    slice.  A fault plan makes it durable, so crashes can be healed."""
    return ShardedLogStore(
        n_shards=config.n_shards,
        expected_items=config.expected_items,
        seed=config.seed,
        durable=config.durable,
        faults=config.fault_plan,
        owned=owned,
        engine=config.engine,
        kick_policy=config.kick_policy,
    )


class ShardExecutor:
    """Applies ops to a store slice, counting them in ``stats``, under
    the fault plan and maintenance policy of ``config``.

    Synchronous: the caller keeps one writer per shard.
    ``on_recover(shard)`` runs after a shard was rebuilt in place; the
    other keywords are :class:`MaintenanceDaemon` hooks.
    """

    def __init__(
        self,
        config: "ServerConfig",
        store: ShardedLogStore,
        stats: ServeStats,
        *,
        on_recover: Optional[Callable[[int], None]] = None,
        interrupt: Optional[Callable[[str, int], None]] = None,
        checkpoint_writer: Optional[Callable[[int, bytes], None]] = None,
        on_commit: Optional[Callable[[Any], None]] = None,
    ) -> None:
        self.store = store
        self.stats = stats
        self.faults = config.fault_plan
        self._on_recover = on_recover
        self.daemon: Optional[MaintenanceDaemon] = None
        maintenance = config.maintenance
        if maintenance is not None and maintenance.enabled:
            self.daemon = MaintenanceDaemon(
                maintenance, interrupt, checkpoint_writer)
            self.daemon.set_commit_hook(on_commit)

    def writer_delay(self, shard: int) -> float:
        """Seconds the ``delay_shard`` rule stalls ``shard``'s next run;
        each server sleeps them its own way."""
        if self.faults is None:
            return 0.0
        return self.faults.writer_delay(shard)

    def write(self, request: SimpleRequest) -> SimpleReply:
        """Apply one PUT or DELETE.  An injected crash answers INTERNAL —
        the write is not acknowledged — after the shard was rebuilt from
        its durable image, so no later op sees the poisoned index."""
        try:
            if isinstance(request, PutRequest):
                result = self.store.put(request.key, request.value)
                self.stats.note_put(
                    result.created, kicks=result.kicks, stashed=result.stashed
                )
                return PUT_CREATED if result.created else PUT_UPDATED
            deleted = self.store.delete(request.key)
            self.stats.note_delete(deleted)
            return DELETED if deleted else NOT_DELETED
        except InjectedCrash as error:
            self.stats.injected_crashes += 1
            self._recover(self.store.shard_index(request.key))
            return self.internal(error)
        except Exception as error:
            return self.internal(error)

    def get(self, key: Any) -> SimpleReply:
        try:
            value = self.store.get(key)
        except Exception as error:
            return self.internal(error)
        self.stats.note_get(hit=value is not None)
        if value is None:
            return NOT_FOUND
        return ValueReply(True, bytes(value))

    def get_run(self, keys: Sequence[Any]) -> List[SimpleReply]:
        """A GET run as one walk of the store, answered in one loop and
        counted once.  If the run fails as a whole, each key is retried
        alone, so only a failing GET answers INTERNAL."""
        try:
            values = self.store.get_many(keys)
        except Exception:
            if not isinstance(keys, list) and hasattr(keys, "tolist"):
                keys = keys.tolist()  # a uint64 array
            return [self.get(key) for key in keys]
        misses = values.count(None)
        stats = self.stats
        stats.gets += len(values)
        stats.get_hits += len(values) - misses
        stats.get_misses += misses
        return [NOT_FOUND if value is None else ValueReply(True, bytes(value))
                for value in values]

    def internal(self, error: Exception) -> ErrorReply:
        """Count and answer an op that failed inside the server."""
        self.stats.internal_errors += 1
        return ErrorReply(ErrorCode.INTERNAL, str(error))

    def _recover(self, shard: int) -> None:
        if self.store.durable:
            self.store.crash_and_recover(shard)
            self.stats.shard_recoveries += 1
            if self._on_recover is not None:
                self._on_recover(shard)

    def maintain(self, shard: int) -> None:
        """One maintenance tick after a write run was answered.  The
        run's writes are durable, so a crash inside maintenance is healed
        like a mid-write crash and never costs an acknowledged write."""
        if self.daemon is None:
            return
        try:
            self.daemon.maybe_run(self.store.shard(shard), shard)
        except InjectedCrash:
            self.stats.injected_crashes += 1
            self._recover(shard)
        except Exception:
            self.stats.internal_errors += 1
