"""Sharded log-structured store: the backend behind the TCP server.

Each shard is an independent :class:`~repro.apps.kvstore.LogStructuredStore`
(its own value log and resizable McCuckoo index), and keys are routed with
the same salt-keyed :class:`~repro.core.sharded.ShardRouter` the in-process
:class:`~repro.core.sharded.ShardedMcCuckoo` uses.  The server gives every
shard exactly one writer task, which is what makes this composition honor
the paper's one-writer-many-readers model (§III.H): mutations on a shard
are serialized through its queue while lookups on any shard run freely.

The store itself is synchronous and single-threaded; all concurrency
control lives in the server's queueing.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..apps.kvstore import LogStructuredStore, RecoveryReport
from ..core.engine import EngineConfig, EngineLike
from ..core.errors import ConfigurationError
from ..core.results import InsertStatus
from ..core.sharded import ShardRouter
from ..faults import FaultPlan
from ..hashing import KeyLike, canonical_key

_MISSING = object()


class ShardedLogStore:
    """N independent log-structured stores behind one key-routed facade.

    With ``durable=True`` each shard keeps a serialized log image (the
    crash-recovery source of truth) and, when a ``faults`` plan is given,
    consults it at every append/fsync boundary.  A shard that crashes can
    be rebuilt in place from its image via :meth:`crash_and_recover`.

    ``owned`` restricts the facade to a disjoint *slice* of the shard
    space: only the listed shard indices are instantiated, and routing a
    key owned by another slice raises.  Worker processes use this to host
    their shard group under the same ``(n_shards, seed)`` routing — and
    therefore the same per-shard seeds and capacities — as the
    whole-keyspace store they collectively replace.
    """

    def __init__(
        self,
        n_shards: int = 4,
        expected_items: int = 4096,
        seed: int = 0,
        durable: bool = False,
        faults: Optional[FaultPlan] = None,
        owned: Optional[List[int]] = None,
        engine: EngineLike = "auto",
        kick_policy: Optional[str] = None,
    ) -> None:
        if expected_items <= 0:
            raise ConfigurationError("expected_items must be positive")
        self._router = ShardRouter(n_shards, seed=seed)
        self._seed = seed
        self.kick_policy = kick_policy
        # The serving layer defaults to "auto": NumPy kernels when the
        # extra is installed, the pure-Python engine otherwise.  Library
        # tables keep "python" as their default; a server opts the whole
        # store in at one place.
        self.engine = EngineConfig.coerce(engine)
        self._engine_numpy = self.engine.resolve() == "numpy"
        self._engine_min_batch = self.engine.min_batch
        self._durable = durable or faults is not None
        self._faults = faults
        self._per_shard = max(64, expected_items // n_shards)
        self.recovery_reports: List[RecoveryReport] = []
        """One entry per completed :meth:`crash_and_recover`, oldest first."""
        if owned is None:
            self.owned = tuple(range(n_shards))
        else:
            self.owned = tuple(sorted(set(owned)))
            if self.owned and not (
                0 <= self.owned[0] and self.owned[-1] < n_shards
            ):
                raise ConfigurationError(
                    f"owned shards {owned} out of range for {n_shards} shards"
                )
        owned_set = set(self.owned)
        self._shards: List[Optional[LogStructuredStore]] = [
            self._make_shard(index) if index in owned_set else None
            for index in range(n_shards)
        ]

    def _make_shard(self, index: int) -> LogStructuredStore:
        return LogStructuredStore(
            expected_items=self._per_shard,
            seed=self._seed + 101 * index + 1,
            durable=self._durable,
            faults=self._faults,
            shard_id=index,
            engine=self.engine,
            kick_policy=self.kick_policy,
        )

    # ------------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self._router.n_shards

    @property
    def shards(self) -> List[LogStructuredStore]:
        """The owned shard stores (the full list when nothing is sliced)."""
        return [shard for shard in self._shards if shard is not None]

    def shard_index(self, key: KeyLike) -> int:
        return self._router.shard_of(canonical_key(key))

    def shard(self, index: int) -> LogStructuredStore:
        """The owned shard store at ``index``; raises for foreign shards."""
        store = self._shards[index]
        if store is None:
            raise ConfigurationError(
                f"shard {index} is not owned by this store slice"
            )
        return store

    def shard_for(self, key: KeyLike) -> LogStructuredStore:
        return self.shard(self.shard_index(key))

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    # ------------------------------------------------------------------
    # operations (synchronous; the server serializes writes per shard)
    # ------------------------------------------------------------------

    def get(self, key: KeyLike) -> Optional[Any]:
        """The stored value, or None if absent (empty values are `b""`)."""
        value = self.shard_for(key).get(key, _MISSING)
        return None if value is _MISSING else value

    def get_many(self, keys: List[KeyLike]) -> List[Optional[Any]]:
        """Batched :meth:`get`: group keys by shard, run each shard's run
        through its store's bulk kernel, and reassemble in input order."""
        positions: List[List[int]] = [[] for _ in self._shards]
        grouped: List[List[KeyLike]] = [[] for _ in self._shards]
        if self._engine_numpy and len(keys) >= self._engine_min_batch:
            ks = [canonical_key(key) for key in keys]
            shards = self._router.shard_of_many(ks, use_numpy=True)
            for pos, (k, shard) in enumerate(zip(ks, shards)):
                positions[shard].append(pos)
                grouped[shard].append(k)
        else:
            for pos, key in enumerate(keys):
                shard = self._router.shard_of(canonical_key(key))
                positions[shard].append(pos)
                grouped[shard].append(key)
        out: List[Optional[Any]] = [None] * len(keys)
        for shard, shard_keys in enumerate(grouped):
            if not shard_keys:
                continue
            values = self.shard(shard).get_many(shard_keys, default=_MISSING)
            for pos, value in zip(positions[shard], values):
                out[pos] = None if value is _MISSING else value
        return out

    def get_many_u64(self, keys_u64: Any) -> List[Optional[Any]]:
        """Batched get over an already-canonical ``uint64`` key array.

        The zero-copy transport path: a worker hands the BATCH key run
        here as a NumPy view straight over its shared-memory ring slot,
        the array is shard-routed with one vectorized pass
        (:meth:`~repro.core.sharded.ShardRouter.shard_of_array`), and the
        per-shard subarrays feed the index kernels without a list
        round-trip.  Callers must hold the NumPy engine (the worker gates
        on ``engine.use_numpy``).
        """
        from .._numpy import numpy_or_none

        np = numpy_or_none()
        shards = self._router.shard_of_array(keys_u64)
        out: List[Optional[Any]] = [None] * len(keys_u64)
        matched = 0
        for shard in self.owned:
            mask = shards == shard
            if not mask.any():
                continue
            idx = np.nonzero(mask)[0]
            matched += len(idx)
            values = self.shard(shard).get_many_u64(keys_u64[idx], default=_MISSING)
            for pos, value in zip(idx.tolist(), values):
                out[pos] = None if value is _MISSING else value
        if matched != len(out):
            raise ConfigurationError(
                "key run contains keys routed to shards outside this slice"
            )
        return out

    def put(self, key: KeyLike, value: Any) -> "PutResult":
        outcome = self.shard_for(key).put(key, value)
        return PutResult(
            created=outcome.status is not InsertStatus.UPDATED,
            kicks=outcome.kicks,
            stashed=outcome.stashed,
        )

    def delete(self, key: KeyLike) -> bool:
        return self.shard_for(key).delete(key)

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------

    @property
    def durable(self) -> bool:
        return self._durable

    def crash_and_recover(self, shard: int) -> RecoveryReport:
        """Rebuild one crashed shard from its durable log image, in place.

        The crashed store's in-memory index may be ahead of its log (the
        very thing an injected crash models), so it is discarded wholesale:
        a fresh store is recovered from the bytes that reached the image —
        truncating any torn tail — and swapped into the shard slot.  The
        dead incarnation's checkpoint slot rides along: when it validates
        against the image, recovery restores the checkpointed index and
        replays only the tail.  Only meaningful for durable stores.
        """
        crashed = self.shard(shard)
        return self.load_shard_from_bytes(
            shard, crashed.log_bytes, checkpoint=crashed.checkpoint_bytes
        )

    # ------------------------------------------------------------------
    # dynamic ownership (live resharding)
    # ------------------------------------------------------------------

    def adopt_shard(
        self, shard: int, data: bytes = b"", checkpoint: Optional[bytes] = None
    ) -> Optional[RecoveryReport]:
        """Take ownership of a previously-foreign shard slot.

        The migration target (and a lazily-promoted read replica) calls
        this to start hosting a shard mid-flight: with ``data`` the shard
        is recovered from the streamed log image exactly as a crashed
        shard would be; without it a fresh empty shard is instantiated.
        Adopting an already-owned shard is a :class:`ConfigurationError`
        — ownership is exclusive, and a double-adopt means two writers.
        """
        if not 0 <= shard < self.n_shards:
            raise ConfigurationError(
                f"shard {shard} out of range for {self.n_shards} shards"
            )
        if self._shards[shard] is not None:
            raise ConfigurationError(f"shard {shard} is already owned")
        self._shards[shard] = self._make_shard(shard)
        self.owned = tuple(sorted(set(self.owned) | {shard}))
        if data:
            return self.load_shard_from_bytes(shard, data, checkpoint=checkpoint)
        return None

    def release_shard(self, shard: int) -> None:
        """Drop ownership of a shard (the migration source, post-flip).

        The shard store is discarded wholesale; routing a key here
        afterwards raises, exactly as for any foreign shard.  Callers
        must have stopped directing traffic at this slice first (the
        coordinator flips routing before releasing).
        """
        self.shard(shard)  # ownership check
        self._shards[shard] = None
        self.owned = tuple(s for s in self.owned if s != shard)

    def load_shard_from_bytes(
        self, shard: int, data: bytes, checkpoint: Optional[bytes] = None
    ) -> RecoveryReport:
        """Replace an owned shard with one recovered from serialized log
        bytes: an empty shard built as :meth:`_make_shard` builds every
        shard, loaded by :meth:`LogStructuredStore.recover_with_checkpoint`.
        Worker processes use this after a *process* death, where the
        surviving bytes come from the shard's on-disk log file rather than
        the dead incarnation's in-memory image.  ``checkpoint`` is an
        optional checkpoint artifact; an invalid/torn/stale one is ignored
        (full replay) and flagged in the returned report."""
        self.shard(shard)  # ownership check
        recovered = self._make_shard(shard)
        report = recovered.recover_with_checkpoint(data, checkpoint)
        self._shards[shard] = recovered
        self.recovery_reports.append(report)
        return report

    # ------------------------------------------------------------------

    def stats_snapshot(self) -> Dict[str, float]:
        """Index- and log-level gauges for the STATS verb."""
        items = len(self)
        shards = self.shards
        log_records = sum(shard.log_records for shard in shards)
        stash = 0
        capacity = 0
        for shard in shards:
            index = shard.index
            capacity += index.capacity
            for table in (index.active_table, index.retiring_table):
                if table is not None and table.stash is not None:
                    stash += len(table.stash)
        loads = [shard.index.load_ratio for shard in shards]
        mean_load = sum(loads) / len(loads) if loads else 0.0
        log_bytes = sum(shard.log_size for shard in shards)
        ages = [shard.last_checkpoint_age_s for shard in shards]
        return {
            "store_items": items,
            "store_log_records": log_records,
            "store_garbage_ratio": round(
                1.0 - items / log_records if log_records else 0.0, 6
            ),
            "store_log_bytes": log_bytes,
            "store_dead_bytes": sum(shard.dead_bytes for shard in shards),
            "store_compactions": sum(shard.compactions for shard in shards),
            "store_checkpoints": sum(shard.checkpoints for shard in shards),
            "store_last_checkpoint_age_s": round(max(ages) if ages else -1.0, 6),
            "index_capacity": capacity,
            "index_load_ratio": round(mean_load, 6),
            "index_imbalance": round(
                max(loads) / mean_load if mean_load else 1.0, 6
            ),
            "index_stash_population": stash,
        }


class PutResult:
    """What the serving layer needs to know about one accepted write."""

    __slots__ = ("created", "kicks", "stashed")

    def __init__(self, created: bool, kicks: int, stashed: bool) -> None:
        self.created = created
        self.kicks = kicks
        self.stashed = stashed
