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

from typing import Any, Dict, List, Optional, Sequence

from .._numpy import numpy_or_none
from ..apps.kvstore import LogStructuredStore, RecoveryReport
from ..core.engine import EngineConfig, EngineLike
from ..core.errors import ConfigurationError
from ..core.results import InsertStatus
from ..core.sharded import ShardRouter
from ..faults import FaultPlan
from ..hashing import MASK64, KeyLike, canonical_key

_MISSING = object()


# The walk's constructors for McCuckoo._scan_lookups: a hit answers its
# stored log offset, a miss None.
def _offset_hit(offset: int, _reads: int) -> int:
    return offset


def _no_offset(_reads: int) -> None:
    return None


def _stash_offset(found: bool, offset: Optional[int], _reads: int) -> Optional[int]:
    return offset if found else None


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
        self.engine.resolve()  # backend="numpy" without NumPy fails here
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

    def get_many(self, keys: Sequence[KeyLike]) -> List[Optional[Any]]:
        """Batched :meth:`get` as one walk over the run: the shards are the
        pages of cuckoo hashing with pages.

        The run is routed and hashed once.  A run the engine sends to NumPy
        (:meth:`EngineConfig.use_numpy`), which may be a ``uint64`` array
        such as a view over a worker's ring slot, is routed, sorted by page
        and hashed in one pass over every page
        (:meth:`HashFamily.candidates_paged`); the page table is read per
        call, since a resize or an in-place REHASH changes a shard's active
        table.  A shorter run is routed in Python and each page's table
        hashes its own keys.

        Each touched page then takes one charged counter gather and the
        lookup rule's probe (:meth:`McCuckoo._scan_lookups`), which answers
        each hit's log offset; misses are retried on a retiring half.  Each
        hit is read with :meth:`ValueLog.value_at` straight from the page's
        log image and lands at its input slot; the page's value-log reads
        are charged in one call.  A key of a shard outside this slice
        raises :class:`ConfigurationError` before any lookup."""
        n_shards = self.n_shards
        np = numpy_or_none() if self.engine.use_numpy(len(keys)) else None
        if np is None:
            if not isinstance(keys, list) and hasattr(keys, "tolist"):
                keys = keys.tolist()  # a short uint64 array
            ks = [key & MASK64 if type(key) is int else canonical_key(key)
                  for key in keys]
            routes = self._router.shard_of_many(ks)
            counts = [0] * n_shards
            for shard in routes:
                counts[shard] += 1
            self._check_slice(counts)
            # page by page, input order within (sorted is stable)
            order = sorted(range(len(ks)), key=routes.__getitem__)
            ks = [ks[slot] for slot in order]
            rows = None
        else:
            if isinstance(keys, np.ndarray):
                arr = keys.astype(np.uint64, copy=False)
            else:
                arr = np.array(
                    [key & MASK64 if type(key) is int else canonical_key(key)
                     for key in keys],
                    dtype=np.uint64,
                )
            routes = self._router.shard_of_array(arr)
            counts = np.bincount(routes, minlength=n_shards).tolist()
            self._check_slice(counts)
            order = routes.argsort(kind="stable")  # page by page, input order within
            arr = arr[order]
            page_of = routes[order]
            owned = self.owned
            if len(owned) < n_shards:  # a slice: its shards are the pages
                slot = np.zeros(n_shards, dtype=np.int64)
                slot[list(owned)] = np.arange(len(owned))
                page_of = slot[page_of]
            tables = [self._shards[shard].index.active_table for shard in owned]
            rows = tables[0]._family.candidates_paged(
                [(table._functions, table.n_buckets) for table in tables],
                arr, page_of,
            )
            ks, order = arr.tolist(), order.tolist()
        values: List[Optional[Any]] = [None] * len(ks)
        stop = 0
        for shard, count in enumerate(counts):
            if not count:
                continue
            start, stop = stop, stop + count
            page_keys = ks[start:stop]
            store = self._shards[shard]
            index = store.index
            table = index.active_table
            ids = (table._candidate_ids(page_keys) if rows is None
                   else rows[start:stop].reshape(-1))
            offsets = table._scan_lookups(
                page_keys, *table._gather(ids), _offset_hit, _no_offset, _stash_offset
            )
            retiring = index.retiring_table
            if retiring is not None:
                missed = [i for i, offset in enumerate(offsets) if offset is None]
                if missed:
                    retried = retiring.lookup_many([page_keys[i] for i in missed])
                    for i, outcome in zip(missed, retried):
                        if outcome.found:
                            offsets[i] = outcome.value
            value_at = store._log.value_at
            hits = 0
            for slot, k, offset in zip(order[start:stop], page_keys, offsets):
                if offset is not None:
                    values[slot] = value_at(offset, k)
                    hits += 1
            if hits:
                store.mem.offchip_read("value-log", hits)
        return values

    def _check_slice(self, counts: Sequence[int]) -> None:
        """Raise unless every shard with a non-zero key count is owned by
        this slice."""
        if len(self.owned) < self.n_shards and any(
            count and self._shards[shard] is None
            for shard, count in enumerate(counts)
        ):
            raise ConfigurationError(
                "key run contains keys routed to shards outside this slice"
            )

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
        # The dead image is handed over as a view: recovery copies it once.
        with crashed.log_view as image:
            return self.load_shard_from_bytes(
                shard, image, checkpoint=crashed.checkpoint_bytes
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
        return merge_gauge_rows(self.gauge_rows())

    def gauge_rows(self) -> List[Dict[str, float]]:
        """One row of raw gauges per owned shard, the input of
        :func:`merge_gauge_rows`; a worker process answers its rows, so
        the frontend merges every worker's shards as one store would."""
        rows = []
        for shard in self.shards:
            index = shard.index
            tables = (index.active_table, index.retiring_table)
            rows.append({
                "shard": shard.shard_id,
                "store_items": len(shard),
                "store_log_records": shard.log_records,
                "store_log_bytes": shard.log_size,
                "store_dead_bytes": shard.dead_bytes,
                "store_compactions": shard.compactions,
                "store_checkpoints": shard.checkpoints,
                "index_capacity": index.capacity,
                "index_stash_population": sum(
                    len(table.stash) for table in tables
                    if table is not None and table.stash is not None
                ),
                "load": index.load_ratio,
                "checkpoint_age_s": shard.last_checkpoint_age_s,
            })
        return rows


_SUMMED_GAUGES = (
    "store_items", "store_log_records", "store_log_bytes", "store_dead_bytes",
    "store_compactions", "store_checkpoints", "index_capacity",
    "index_stash_population",
)


def merge_gauge_rows(rows: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """The STATS store gauges from per-shard rows, taken in shard order:
    sums for sizes, the unweighted mean shard load, the fullest shard's
    load over that mean as the imbalance, and the oldest checkpoint."""
    rows = sorted(rows, key=lambda row: row["shard"])
    gauges = {name: sum(row[name] for row in rows) for name in _SUMMED_GAUGES}
    items, records = gauges["store_items"], gauges["store_log_records"]
    loads = [row["load"] for row in rows]
    mean_load = sum(loads) / len(loads) if loads else 0.0
    ages = [row["checkpoint_age_s"] for row in rows]
    gauges.update({
        "store_garbage_ratio": round(1.0 - items / records if records else 0.0, 6),
        "store_last_checkpoint_age_s": round(max(ages) if ages else -1.0, 6),
        "index_load_ratio": round(mean_load, 6),
        "index_imbalance": round(max(loads) / mean_load if mean_load else 1.0, 6),
    })
    return gauges


class PutResult:
    """What the serving layer needs to know about one accepted write."""

    __slots__ = ("created", "kicks", "stashed")

    def __init__(self, created: bool, kicks: int, stashed: bool) -> None:
        self.created = created
        self.kicks = kicks
        self.stashed = stashed
