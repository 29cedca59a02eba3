"""Sharded McCuckoo: hash-partitioned tables for multi-writer scaling.

§III.H gives McCuckoo one-writer-many-readers concurrency.  The standard
way production systems scale *writers* is orthogonal sharding: partition
the key space across N independent tables, each with its own writer (and,
here, its own stash and counters).  Lookups hash to exactly one shard, so
the per-operation cost is unchanged; writers on different shards never
touch shared state.

The shard selector is drawn from a different hash stream than the
in-shard candidate functions, so sharding does not bias bucket choice.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from .._numpy import numpy_or_none
from ..hashing import Key, KeyLike
from ..hashing.splitmix import splitmix64, splitmix64_array
from ..memory.model import MemoryModel
from .config import DeletionMode, SiblingTracking
from .engine import EngineConfig, EngineLike
from .errors import ConfigurationError
from .interface import HashTable
from .mccuckoo import McCuckoo
from .results import DeleteOutcome, InsertOutcome, LookupOutcome


class ShardRouter:
    """Stable, salt-keyed key → shard mapping.

    The salt is drawn from a different hash stream than any in-shard
    candidate function, so routing never biases bucket choice.  Shared by
    :class:`ShardedMcCuckoo` and the serving layer's sharded store so both
    agree on ownership for the same ``(n_shards, seed)``.
    """

    def __init__(self, n_shards: int, seed: int = 0) -> None:
        if n_shards <= 0:
            raise ConfigurationError("n_shards must be positive")
        self.n_shards = n_shards
        self._salt = splitmix64(seed ^ 0x5AAD)
        # (salt, n_shards) as NumPy scalars, built on the first array
        # call instead of on every one
        self._array_constants: Optional[Tuple[Any, Any]] = None

    def shard_of(self, key: Key) -> int:
        """Which shard owns the canonical ``key``."""
        return splitmix64(key ^ self._salt) % self.n_shards

    def shard_of_many(
        self, keys: Sequence[Key], use_numpy: bool = False
    ) -> List[int]:
        """Shard owners for a batch of canonical keys.

        With ``use_numpy`` (and NumPy importable) the whole batch is one
        SplitMix64 array pass — bit-identical to the scalar mapping, since
        ``uint64`` wrap-around *is* the scalar path's ``& MASK64``.
        """
        if use_numpy:
            np = numpy_or_none()
            if np is not None:
                return self.shard_of_array(
                    np.array(keys, dtype=np.uint64)
                ).tolist()
        salt = self._salt
        n = self.n_shards
        return [splitmix64(k ^ salt) % n for k in keys]

    def shard_of_array(self, keys_u64):
        """Shard owners for an already-canonical ``uint64`` array.

        Array-in/array-out variant of :meth:`shard_of_many` for callers
        holding a NumPy key array (e.g. a zero-copy view over a
        shared-memory ring slot): no list hop on either side, and the
        ``int64`` result can be mask-compared per shard.  Bit-identical
        to the scalar mapping (``uint64`` wrap-around is the scalar
        path's ``& MASK64``).
        """
        np = numpy_or_none()
        if self._array_constants is None:
            self._array_constants = (
                np.uint64(self._salt), np.uint64(self.n_shards))
        salt, n_shards = self._array_constants
        return (splitmix64_array(keys_u64 ^ salt) % n_shards).astype(np.int64)

    def worker_of(self, key: Key, n_workers: int) -> int:
        """Which of ``n_workers`` worker processes owns ``key``.

        Workers own shards round-robin (``worker = shard % n_workers``),
        so worker ownership is a pure function of the router's
        ``(n_shards, seed)`` — stable across worker restarts and across
        frontend/worker process boundaries.
        """
        return worker_of_shard(self.shard_of(key), n_workers)


def worker_of_shard(shard: int, n_workers: int) -> int:
    """Round-robin shard → worker-process assignment (routing epoch 0)."""
    if n_workers <= 0:
        raise ConfigurationError("n_workers must be positive")
    return shard % n_workers


class RoutingTable:
    """Epoch-versioned shard → worker map for live resharding.

    Epoch 0 is exactly the static round-robin assignment
    (:func:`worker_of_shard`), so a table nobody reshards behaves
    bit-identically to the fixed map the worker pool has always used.
    A migration commits by calling :meth:`reassign`, which installs an
    overlay entry and bumps :attr:`epoch` — the version number the
    serving layer stamps into migration frames and the faultgen audit
    uses to attribute acknowledged writes to the right owner.

    Invariants (property-tested in ``tests/core``): every shard maps to
    exactly one worker at every epoch, and the per-worker groups remain
    a disjoint partition of the shard space after any reassignment
    sequence.
    """

    def __init__(self, n_shards: int, n_workers: int) -> None:
        if n_shards <= 0:
            raise ConfigurationError("n_shards must be positive")
        if n_workers <= 0:
            raise ConfigurationError("n_workers must be positive")
        self.n_shards = n_shards
        self.n_workers = n_workers
        self.epoch = 0
        self._overlay: dict = {}

    def worker_of_shard(self, shard: int) -> int:
        """The worker currently owning ``shard`` (overlay over the base)."""
        if not 0 <= shard < self.n_shards:
            raise ConfigurationError(
                f"shard {shard} out of range for {self.n_shards} shards"
            )
        worker = self._overlay.get(shard)
        if worker is not None:
            return worker
        return worker_of_shard(shard, self.n_workers)

    def shards_of_worker(self, worker: int) -> Tuple[int, ...]:
        """The shard group ``worker`` owns at the current epoch."""
        if not 0 <= worker < self.n_workers:
            raise ConfigurationError(
                f"worker {worker} out of range for {self.n_workers} workers"
            )
        return tuple(
            shard for shard in range(self.n_shards)
            if self.worker_of_shard(shard) == worker
        )

    def reassign(self, shard: int, worker: int) -> int:
        """Atomically move ``shard`` to ``worker``; returns the new epoch.

        This is the migration commit point: callers flip it only after
        the target holds every acknowledged write (fence + final delta).
        """
        self.worker_of_shard(shard)  # range check
        if not 0 <= worker < self.n_workers:
            raise ConfigurationError(
                f"worker {worker} out of range for {self.n_workers} workers"
            )
        self._overlay[shard] = worker
        self.epoch += 1
        return self.epoch

    def assignment(self) -> Tuple[int, ...]:
        """The full shard → worker vector at the current epoch."""
        return tuple(
            self.worker_of_shard(shard) for shard in range(self.n_shards)
        )


def shards_of_worker(worker: int, n_shards: int, n_workers: int) -> Tuple[int, ...]:
    """The disjoint shard group worker ``worker`` owns.

    Every shard is owned by exactly one worker; workers beyond
    ``n_shards`` own nothing (legal, if pointless).
    """
    if n_workers <= 0:
        raise ConfigurationError("n_workers must be positive")
    if not 0 <= worker < n_workers:
        raise ConfigurationError(
            f"worker {worker} out of range for {n_workers} workers"
        )
    return tuple(range(worker, n_shards, n_workers))


class ShardedMcCuckoo(HashTable):
    """N independent McCuckoo shards behind one HashTable facade."""

    name = "ShardedMcCuckoo"

    def __init__(
        self,
        n_shards: int,
        n_buckets_per_shard: int,
        d: int = 3,
        seed: int = 0,
        maxloop: int = 500,
        deletion_mode: DeletionMode = DeletionMode.DISABLED,
        sibling_tracking: SiblingTracking = SiblingTracking.READ,
        stash_buckets: int = 64,
        mem: Optional[MemoryModel] = None,
        shared_accounting: bool = True,
        engine: EngineLike = None,
        kick_policy: Optional[str] = None,
    ) -> None:
        super().__init__(mem)
        if n_buckets_per_shard <= 0:
            raise ConfigurationError("n_buckets_per_shard must be positive")
        if kick_policy is not None and not isinstance(kick_policy, str):
            raise ConfigurationError(
                "pass kick_policy by registry name (a string): each shard "
                "needs its own policy instance, so a shared instance cannot "
                "be attached to all of them"
            )
        self._router = ShardRouter(n_shards, seed=seed)
        self.n_shards = n_shards
        self.engine = EngineConfig.coerce(engine)
        self._engine_numpy = self.engine.resolve() == "numpy"
        self._engine_min_batch = self.engine.min_batch
        self._shards: List[McCuckoo] = [
            McCuckoo(
                n_buckets_per_shard,
                d=d,
                seed=seed + 101 * index + 1,
                maxloop=maxloop,
                deletion_mode=deletion_mode,
                sibling_tracking=sibling_tracking,
                stash_buckets=stash_buckets,
                mem=self.mem if shared_accounting else MemoryModel(),
                engine=self.engine,
                kick_policy=kick_policy,
            )
            for index in range(n_shards)
        ]

    # ------------------------------------------------------------------

    def shard_index(self, key: KeyLike) -> int:
        """Which shard owns ``key`` (stable, salt-keyed)."""
        return self._router.shard_of(self._canonical(key))

    def shard_for(self, key: KeyLike) -> McCuckoo:
        return self._shards[self.shard_index(key)]

    @property
    def shards(self) -> List[McCuckoo]:
        return list(self._shards)

    @property
    def capacity(self) -> int:
        return sum(shard.capacity for shard in self._shards)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    # ------------------------------------------------------------------

    def put(self, key: KeyLike, value: Any = None) -> InsertOutcome:
        return self.shard_for(key).put(key, value)

    def lookup(self, key: KeyLike) -> LookupOutcome:
        return self.shard_for(key).lookup(key)

    def delete(self, key: KeyLike) -> DeleteOutcome:
        return self.shard_for(key).delete(key)

    def try_update(self, key: KeyLike, value: Any) -> Optional[InsertOutcome]:
        return self.shard_for(key).try_update(key, value)

    def items(self) -> Iterator[Tuple[Key, Any]]:
        for shard in self._shards:
            yield from shard.items()

    # ------------------------------------------------------------------
    # batched operations: group by shard, one kernel call per shard
    # ------------------------------------------------------------------

    def _group_by_shard(
        self, keys: Sequence[KeyLike]
    ) -> Tuple[List[List[int]], List[List[Key]]]:
        """Input positions and canonical keys owned by each shard."""
        positions: List[List[int]] = [[] for _ in range(self.n_shards)]
        grouped: List[List[Key]] = [[] for _ in range(self.n_shards)]
        if self._engine_numpy and len(keys) >= self._engine_min_batch:
            ks = [self._canonical(key) for key in keys]
            shards = self._router.shard_of_many(ks, use_numpy=True)
            for pos, (k, shard) in enumerate(zip(ks, shards)):
                positions[shard].append(pos)
                grouped[shard].append(k)
            return positions, grouped
        shard_of = self._router.shard_of
        for pos, key in enumerate(keys):
            k = self._canonical(key)
            shard = shard_of(k)
            positions[shard].append(pos)
            grouped[shard].append(k)
        return positions, grouped

    def lookup_many(self, keys: Sequence[KeyLike]) -> List[LookupOutcome]:
        positions, grouped = self._group_by_shard(keys)
        outcomes: List[Optional[LookupOutcome]] = [None] * len(keys)
        for shard, table in enumerate(self._shards):
            if grouped[shard]:
                for pos, outcome in zip(
                    positions[shard], table.lookup_many(grouped[shard])
                ):
                    outcomes[pos] = outcome
        return outcomes  # type: ignore[return-value]

    def put_many(self, pairs: Iterable[Tuple[KeyLike, Any]]) -> List[InsertOutcome]:
        items = list(pairs)
        positions, grouped = self._group_by_shard([key for key, _ in items])
        outcomes: List[Optional[InsertOutcome]] = [None] * len(items)
        for shard, table in enumerate(self._shards):
            if grouped[shard]:
                shard_pairs = [
                    (k, items[pos][1])
                    for k, pos in zip(grouped[shard], positions[shard])
                ]
                for pos, outcome in zip(
                    positions[shard], table.put_many(shard_pairs)
                ):
                    outcomes[pos] = outcome
        return outcomes  # type: ignore[return-value]

    def delete_many(self, keys: Sequence[KeyLike]) -> List[DeleteOutcome]:
        positions, grouped = self._group_by_shard(keys)
        outcomes: List[Optional[DeleteOutcome]] = [None] * len(keys)
        for shard, table in enumerate(self._shards):
            if grouped[shard]:
                for pos, outcome in zip(
                    positions[shard], table.delete_many(grouped[shard])
                ):
                    outcomes[pos] = outcome
        return outcomes  # type: ignore[return-value]

    # ------------------------------------------------------------------

    def shard_loads(self) -> List[float]:
        """Per-shard load ratios (balance diagnostics)."""
        return [shard.load_ratio for shard in self._shards]

    def imbalance(self) -> float:
        """max/mean shard load; 1.0 is perfect balance."""
        loads = self.shard_loads()
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean else 1.0

    def stash_population(self) -> int:
        """Total items currently sitting in per-shard stashes."""
        return sum(
            len(shard.stash) for shard in self._shards if shard.stash is not None
        )

    @property
    def onchip_bytes(self) -> int:
        return sum(shard.onchip_bytes for shard in self._shards)
