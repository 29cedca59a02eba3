"""McCuckoo: single-slot multi-copy cuckoo hashing (the paper's §III).

A d-ary cuckoo table that stores an item in *all* of its free candidate
buckets and tracks the number of live copies per bucket in an on-chip
2-bit counter array.  The counters drive:

* the insertion principles (occupy every empty candidate; never overwrite a
  sole copy; overwrite redundant copies largest-first while it improves
  redundancy balance — Theorem 1);
* the lookup principles (a zero counter proves absence; candidate buckets
  partitioned by counter value; a partition of size S and value V needs at
  most S−V+1 probes — Theorem 3);
* write-free deletion (only counters are reset);
* stash pre-screening (an item can be in the off-chip stash only if all of
  its candidates still hold sole copies and all of its per-bucket flags are
  set).
"""

from __future__ import annotations

import random
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .._numpy import numpy_or_none
from ..hashing import DEFAULT_FAMILY, MASK64, HashFamily, Key, KeyLike, canonical_key
from ..memory.model import MemoryModel
from ..memory.wear import WearMeter
from .config import DeletionMode, FailurePolicy, SiblingTracking
from .counters import BitArray, PackedArray
from .engine import EngineConfig, EngineLike
from .errors import (
    ConfigurationError,
    InvariantViolationError,
    TableFullError,
    UnsupportedOperationError,
)
from .interface import HashTable
from .policies import KickPolicy, RandomWalkPolicy, make_policy
from .results import DeleteOutcome, InsertOutcome, InsertStatus, LookupOutcome
from .stash import OffChipStash


# A counter row holds values 0..d, so d=3 has at most 64 distinct rows; the
# cap on a table's plan memo only matters for a large d.
_PLAN_MEMO_CAP = 4096


def _stash_outcome(found: bool, value: Any, buckets_read: int) -> LookupOutcome:
    """The outcome of a lookup that went on to probe the stash."""
    return LookupOutcome(
        found=found,
        value=value if found else None,
        from_stash=found,
        checked_stash=True,
        buckets_read=buckets_read,
    )


def probe_plan(vals: Tuple[int, ...]) -> Tuple[int, ...]:
    """The lookup principles' probe order for one row of counter values.

    The candidates are grouped by non-zero counter value, largest value
    first; a group of ``S`` candidates with value ``V`` is probed at most
    ``S - V + 1`` times, in candidate order, and skipped when ``S < V``
    (Theorem 3).  The plan is the candidate columns in that order.
    """
    groups: Dict[int, List[int]] = {}
    for column, v in enumerate(vals):
        if v:
            groups.setdefault(v, []).append(column)
    return tuple(
        column
        for v in sorted(groups, reverse=True)
        if len(groups[v]) >= v
        for column in groups[v][: len(groups[v]) - v + 1]
    )


def _counter_bits(d: int) -> int:
    """Smallest packable width that can hold copy counts 0..d."""
    for bits in (1, 2, 4, 8):
        if d <= (1 << bits) - 1:
            return bits
    raise ConfigurationError(f"d={d} is too large for packed counters")


class McCuckoo(HashTable):
    """Multi-copy cuckoo hash table (d sub-tables, one slot per bucket).

    Parameters
    ----------
    n_buckets:
        Buckets per sub-table; total capacity is ``d * n_buckets`` items.
    d:
        Number of hash functions / sub-tables (the paper uses 3).
    maxloop:
        Kick-out budget before an insertion is declared failed.
    stash_buckets:
        Size of the off-chip stash's chained hash (ignored unless
        ``on_failure`` is ``FailurePolicy.STASH``).
    deletion_mode / sibling_tracking / on_failure:
        See :mod:`repro.core.config`.
    engine:
        Batch-kernel execution backend (:class:`~repro.core.engine.EngineConfig`,
        a backend name, or ``None`` for the pure-Python default).  Selecting
        NumPy changes host wall-clock only: outcomes and MemoryModel charges
        are identical by contract.
    """

    name = "McCuckoo"

    def __init__(
        self,
        n_buckets: int,
        d: int = 3,
        family: Optional[HashFamily] = None,
        seed: int = 0,
        maxloop: int = 500,
        kick_policy: Union[KickPolicy, str, None] = None,
        on_failure: FailurePolicy = FailurePolicy.STASH,
        stash_buckets: int = 64,
        deletion_mode: DeletionMode = DeletionMode.DISABLED,
        sibling_tracking: SiblingTracking = SiblingTracking.READ,
        growth_factor: float = 2.0,
        max_rehash_attempts: int = 8,
        mem: Optional[MemoryModel] = None,
        engine: EngineLike = None,
        wear_meter: Optional[WearMeter] = None,
    ) -> None:
        super().__init__(mem)
        if n_buckets <= 0:
            raise ConfigurationError("n_buckets must be positive")
        if d < 2:
            raise ConfigurationError("cuckoo hashing needs d >= 2")
        if maxloop < 0:
            raise ConfigurationError("maxloop must be non-negative")
        if growth_factor < 1.0:
            raise ConfigurationError("growth_factor must be >= 1.0")
        self.d = d
        self._ones = [1] * d  # the all-ones counter row: the update fast path
        # probe_plan by counter row, shared by every lookup path
        self._plans: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        self.n_buckets = n_buckets
        self.maxloop = maxloop
        self.deletion_mode = deletion_mode
        self.sibling_tracking = sibling_tracking
        self.on_failure = on_failure
        self._family = family or DEFAULT_FAMILY
        self._seed = seed
        self._growth_factor = growth_factor
        self._max_rehash_attempts = max_rehash_attempts
        self.engine = EngineConfig.coerce(engine)
        # Resolve once at construction: backend="numpy" without NumPy fails
        # here, not on the first batch.
        self._engine_numpy = self.engine.resolve() == "numpy"
        self._engine_min_batch = self.engine.min_batch
        self._rng = random.Random(seed ^ 0x5EED)
        if kick_policy is None:
            self._policy: KickPolicy = RandomWalkPolicy()
        elif isinstance(kick_policy, str):
            self._policy = make_policy(kick_policy)
        else:
            self._policy = kick_policy
        # A wear-aware policy needs a meter to read; give it one even if
        # the caller did not ask for wear accounting explicitly.
        if wear_meter is None and getattr(self._policy, "wants_wear", False):
            wear_meter = WearMeter()
        self._wear = wear_meter
        self._stash: Optional[OffChipStash] = None
        if on_failure is FailurePolicy.STASH:
            self._stash = OffChipStash(stash_buckets, self.mem, self._family)
        self._in_rehash = False
        self._rehash_overflow: List[Tuple[Key, Any]] = []
        self.rehash_count = 0
        self.total_kicks = 0
        self._init_storage()

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------

    def _init_storage(self) -> None:
        total = self.d * self.n_buckets
        self._functions = self._family.functions(self.d, self._seed)
        self._keys: List[Optional[Key]] = [None] * total
        self._values: List[Any] = [None] * total
        self._counters = PackedArray(
            total, bits=_counter_bits(self.d), mem=self.mem, label="copy-counter"
        )
        # Stash flags physically live with the off-chip buckets: reading one
        # is free alongside a bucket read, setting one is an off-chip write
        # (charged explicitly at the call sites).
        self._flags = BitArray(total, mem=None, label="stash-flag")
        if self.deletion_mode is DeletionMode.TOMBSTONE:
            self._tombstones: Optional[BitArray] = BitArray(
                total, mem=self.mem, label="tombstone"
            )
        else:
            self._tombstones = None
        if self.sibling_tracking is SiblingTracking.METADATA:
            self._masks: Optional[List[int]] = [0] * total
        else:
            self._masks = None
        self._policy.attach(total, self.mem)
        if self._wear is not None:
            self._wear.resize(total)
            attach_wear = getattr(self._policy, "attach_wear", None)
            if attach_wear is not None:
                attach_wear(self._wear)
        self._n_main = 0

    @property
    def capacity(self) -> int:
        return self.d * self.n_buckets

    def __len__(self) -> int:
        return self._n_main + (len(self._stash) if self._stash is not None else 0)

    @property
    def stash(self) -> Optional[OffChipStash]:
        return self._stash

    @property
    def wear_meter(self) -> Optional[WearMeter]:
        """Per-bucket write-wear counts, when wear accounting is attached."""
        return self._wear

    @property
    def main_items(self) -> int:
        """Distinct items living in the main table (excludes the stash)."""
        return self._n_main

    def _candidates(self, key: Key) -> List[int]:
        """Global bucket index of the key's candidate in each sub-table."""
        n = self.n_buckets
        raw = self._family.candidates(self._functions, key, n)
        return [table * n + raw[table] for table in range(self.d)]

    def _position_of(self, bucket: int) -> int:
        """Which sub-table a global bucket index belongs to."""
        return bucket // self.n_buckets

    # -- accounted off-chip bucket access ---------------------------------

    def _read_entry(self, bucket: int) -> Tuple[Optional[Key], Any, bool, int]:
        """Read a bucket: (key, value, stash flag, copy bitmap)."""
        self.mem.offchip_read("bucket")
        mask = self._masks[bucket] if self._masks is not None else 0
        return self._keys[bucket], self._values[bucket], self._flags.test(bucket), mask

    def _write_entry(self, bucket: int, key: Key, value: Any, mask: int) -> None:
        self.mem.offchip_write("bucket")
        if self._wear is not None:
            self._wear.note(bucket)
        self._keys[bucket] = key
        self._values[bucket] = value
        if self._masks is not None:
            self._masks[bucket] = mask

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def put(self, key: KeyLike, value: Any = None) -> InsertOutcome:
        k = self._canonical(key)
        return self._insert_canonical(k, value)

    def _insert_canonical(
        self,
        k: Key,
        value: Any,
        charge_counters: bool = True,
        cands: Optional[List[int]] = None,
    ) -> InsertOutcome:
        """Insert a canonical key.  ``cands`` are its candidates when the
        caller already hashed it (a write run's update miss); the d
        counter reads are charged either way."""
        if cands is None:
            cands = self._candidates(k)
        if charge_counters:
            vals = self._counters.get_many(cands)
        else:
            # put_many's deferred phase: the batch already charged these d
            # counter reads, so re-read the (possibly changed) values free.
            vals = [self._counters.peek(bucket) for bucket in cands]
        copies = self._place_by_principles(k, value, cands, vals)
        if copies:
            self._n_main += 1
            return InsertOutcome(InsertStatus.STORED, kicks=0, copies=copies)
        # Every candidate holds the sole copy of another item: a real
        # collision (Table I milestone), resolved by counter-guided kicks.
        self.events.note_collision(len(self) + 1)
        return self._insert_with_kicks(k, value, cands)

    def _mask_for(self, buckets: Sequence[int]) -> int:
        mask = 0
        for bucket in buckets:
            mask |= 1 << self._position_of(bucket)
        return mask

    def _is_free(self, counter_value: int) -> bool:
        # Tombstoned buckets have counter zero and are free for insertion.
        return counter_value == 0

    def _place_by_principles(
        self,
        k: Key,
        value: Any,
        cands: Sequence[int],
        vals: Sequence[int],
        touched: Optional[set] = None,
    ) -> int:
        """Apply insertion principles 1-3; returns copies placed (0 = collision).

        Overwrite targets are claimed one at a time because decrementing a
        victim's sibling counters can change another candidate's value
        mid-insertion (two candidates may hold copies of the same victim).
        ``current`` mirrors the candidates' live counter values locally so
        the principle-3 condition is always evaluated against fresh state.
        ``touched`` collects every bucket whose counter changed —
        ``put_many`` uses it to know which of its pre-read counter values
        have gone stale.
        """
        current: Dict[int, int] = dict(zip(cands, vals))
        free = [bucket for bucket in cands if self._is_free(current[bucket])]
        claimed: List[int] = []
        total = len(free)
        while True:
            overwritable = [
                bucket
                for bucket in cands
                if bucket not in claimed and current[bucket] >= 2
            ]
            if not overwritable:
                break
            top = max(overwritable, key=lambda bucket: current[bucket])
            v = current[top]
            # Principle 3: overwriting must leave the inserted item with no
            # more copies than the overwritten one retains (v-1 >= total+1).
            if v < total + 2:
                break
            decremented = self._claim_overwrite(top, v)
            for bucket in decremented:
                if bucket in current:
                    current[bucket] -= 1
            if touched is not None:
                touched.update(decremented)
            claimed.append(top)
            total += 1
        if total == 0:
            return 0
        positions = free + claimed
        mask = self._mask_for(positions)
        for bucket in positions:
            self._write_entry(bucket, k, value, mask)
            self._counters.set(bucket, total)
            if self._tombstones is not None:
                # Clearing the mark shares the counter word's on-chip write.
                self._tombstones.clear_bit(bucket)
        if touched is not None:
            touched.update(positions)
        return total

    def _claim_overwrite(self, bucket: int, victim_value: int) -> List[int]:
        """Retire the copy in ``bucket``; returns the buckets whose counters
        were decremented (the victim's remaining copies)."""
        victim_key, _, _, victim_mask = self._read_entry(bucket)
        assert victim_key is not None
        return self._decrement_siblings(victim_key, bucket, victim_value, victim_mask)

    def _decrement_siblings(
        self, victim_key: Key, exclude: int, value: int, victim_mask: int
    ) -> List[int]:
        """Drop the victim's remaining copies from ``value`` to ``value - 1``."""
        need = value - 1
        if need == 0:
            return []
        siblings = self._locate_siblings(victim_key, exclude, value, victim_mask)
        if len(siblings) != need:
            raise InvariantViolationError(
                f"item {victim_key:#x} should have {need} sibling copies, "
                f"found {len(siblings)}"
            )
        for bucket in siblings:
            self._counters.set(bucket, value - 1)
            if self._masks is not None:
                # Keep the stored copy bitmap fresh: drop the lost position.
                self._masks[bucket] &= ~(1 << self._position_of(exclude))
                self.mem.offchip_write("mask-fixup")
        return siblings

    def _locate_siblings(
        self, victim_key: Key, exclude: int, value: int, victim_mask: int
    ) -> List[int]:
        others = [b for b in self._candidates(victim_key) if b != exclude]
        if self._masks is not None:
            exclude_pos = self._position_of(exclude)
            return [
                b
                for b in others
                if victim_mask & (1 << self._position_of(b))
                and self._position_of(b) != exclude_pos
            ]
        need = value - 1
        matches = [b for b in others if self._counters.get(b) == value]
        if len(matches) < need:
            raise InvariantViolationError(
                f"counter array inconsistent for item {victim_key:#x}"
            )
        if len(matches) == need:
            return matches
        # Ambiguous: another item coincidentally shares the counter value.
        # Confirm holders with off-chip reads (charged), stopping as soon as
        # the remaining unchecked matches must all be holders.
        confirmed: List[int] = []
        pending = list(matches)
        while len(confirmed) < need:
            if len(pending) == need - len(confirmed):
                confirmed.extend(pending)
                break
            bucket = pending.pop(0)
            stored_key = self._read_entry(bucket)[0]
            if stored_key == victim_key:
                confirmed.append(bucket)
        return confirmed

    def _insert_with_kicks(
        self, k: Key, value: Any, cands: List[int]
    ) -> InsertOutcome:
        kicks = 0
        cur_key, cur_value = k, value
        prev_bucket: Optional[int] = None
        while kicks < self.maxloop:
            choices = [bucket for bucket in cands if bucket != prev_bucket]
            if self._policy.exhausted(choices):
                # Labeled policies (bubbling) can tell the region is stuck;
                # give the displaced item to the failure path immediately
                # instead of burning the rest of maxloop.
                break
            victim_bucket = self._policy.choose(choices, self._rng)
            self._policy.record_eviction(
                victim_bucket, [b for b in cands if b != victim_bucket]
            )
            victim_key, victim_value, _, _ = self._read_entry(victim_bucket)
            assert victim_key is not None
            self._write_entry(
                victim_bucket, cur_key, cur_value, 1 << self._position_of(victim_bucket)
            )
            # The bucket held a sole copy and now holds another sole copy:
            # its counter stays 1, so no on-chip write is needed.
            kicks += 1
            self.total_kicks += 1
            cur_key, cur_value = victim_key, victim_value
            prev_bucket = victim_bucket
            cands = self._candidates(cur_key)
            vals = self._counters.get_many(cands)
            copies = self._place_by_principles(cur_key, cur_value, cands, vals)
            if copies:
                self._n_main += 1
                return InsertOutcome(
                    InsertStatus.STORED, kicks=kicks, copies=copies, collided=True
                )
        # maxloop exhausted: the displaced item (cur) leaves the main table.
        self.events.note_failure(len(self) + 1)
        return self._handle_failure(cur_key, cur_value, cands, kicks)

    def _handle_failure(
        self, key: Key, value: Any, cands: List[int], kicks: int
    ) -> InsertOutcome:
        # The original item is in the table (if any kick happened); `key` is
        # whatever item ended up displaced, so the main table's distinct
        # count is unchanged either way and only the stash/overflow grows.
        if self._in_rehash:
            self._rehash_overflow.append((key, value))
            return InsertOutcome(
                InsertStatus.STORED, kicks=kicks, copies=1, collided=True
            )
        if self._stash is not None:
            for bucket in cands:
                self._flags.mark(bucket)
                self.mem.offchip_write("flag")
            self._stash.add(key, value)
            return InsertOutcome(InsertStatus.STASHED, kicks=kicks, collided=True)
        if self.on_failure is FailurePolicy.REHASH:
            self._rehash_with(key, value)
            return InsertOutcome(
                InsertStatus.STORED, kicks=kicks, copies=1, collided=True
            )
        raise TableFullError(
            f"insertion failed after {kicks} kicks; displaced key {key:#x}"
        )

    # ------------------------------------------------------------------
    # rehashing
    # ------------------------------------------------------------------

    def _drain_main(self) -> List[Tuple[Key, Any]]:
        """Read out every distinct item (charged) and empty the main table."""
        items: List[Tuple[Key, Any]] = []
        seen: set = set()
        for bucket in range(self.capacity):
            if self._counters.peek(bucket) == 0:
                continue
            self.mem.offchip_read("rehash-drain")
            key = self._keys[bucket]
            if key not in seen:
                seen.add(key)
                items.append((key, self._values[bucket]))
        self._n_main = 0
        return items

    def _rehash_with(self, key: Key, value: Any) -> None:
        pending: List[Tuple[Key, Any]] = [(key, value)]
        for _ in range(self._max_rehash_attempts):
            self.rehash_count += 1
            pending = self._drain_main() + pending
            self.n_buckets = max(
                self.n_buckets + 1, int(self.n_buckets * self._growth_factor)
            )
            self._seed += 1
            self._init_storage()
            self._rehash_overflow = []
            self._in_rehash = True
            try:
                for item_key, item_value in pending:
                    self._insert_canonical(item_key, item_value)
            finally:
                self._in_rehash = False
            if not self._rehash_overflow:
                return
            pending = list(self._rehash_overflow)
        raise TableFullError(
            f"rehashing failed {self._max_rehash_attempts} times in a row"
        )

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def _rule1_active(self) -> bool:
        """Whether "a zero counter proves absence" is sound (§III.D)."""
        return self.deletion_mode is not DeletionMode.RESET

    def _never_inserted(self, cands: Sequence[int], vals: Sequence[int]) -> bool:
        """Principle 1: a zero, non-tombstoned counter proves the key was
        never inserted (neither main table nor stash)."""
        if not self._rule1_active():
            return False
        for bucket, v in zip(cands, vals):
            if v == 0:
                if self._tombstones is None:
                    return True
                if not self._tombstones.get(bucket):
                    return True
        return False

    def _partitions(
        self, cands: Sequence[int], vals: Sequence[int]
    ) -> List[Tuple[int, List[int]]]:
        """Non-zero candidates grouped by counter value, largest value
        first: the deletion/update search (:meth:`_find_copies`), which
        keeps probing past the first copy.  Lookups use :func:`probe_plan`."""
        groups: Dict[int, List[int]] = {}
        for bucket, v in zip(cands, vals):
            if v > 0:
                groups.setdefault(v, []).append(bucket)
        return [(v, groups[v]) for v in sorted(groups, reverse=True)]

    def lookup(self, key: KeyLike) -> LookupOutcome:
        steps = self.lookup_steps(key)
        while True:
            try:
                next(steps)
            except StopIteration as stop:
                return stop.value

    def lookup_steps(self, key: KeyLike):
        """Generator form of :meth:`lookup`: yields once before every
        off-chip access, returning the :class:`LookupOutcome` at the end.

        This is the hook the AMAC-style batch pipeline
        (:mod:`repro.core.batch`) uses to interleave many lookups so their
        off-chip reads overlap; driving the generator straight through is
        exactly a plain lookup.
        """
        k = self._canonical(key)
        cands = self._candidates(k)
        vals = self._counters.get_many(cands)
        if self._never_inserted(cands, vals):
            return LookupOutcome(found=False)
        buckets_read = 0
        flags_read: List[bool] = []
        for column in self._plan(tuple(vals)):
            yield "bucket"
            stored_key, stored_value, flag, _ = self._read_entry(cands[column])
            buckets_read += 1
            flags_read.append(flag)
            if stored_key == k:
                return LookupOutcome(
                    found=True, value=stored_value, buckets_read=buckets_read
                )
        if self._stash is None or not self._should_check_stash(vals, flags_read):
            return LookupOutcome(found=False, buckets_read=buckets_read)
        yield "stash"
        found, value = self._stash.lookup(k)
        return LookupOutcome(
            found=found,
            value=value if found else None,
            from_stash=found,
            checked_stash=True,
            buckets_read=buckets_read,
        )

    def _plan(self, vals: Tuple[int, ...]) -> Tuple[int, ...]:
        """:func:`probe_plan`, memoized by row."""
        plan = self._plans.get(vals)
        if plan is None:
            plan = probe_plan(vals)
            if len(self._plans) < _PLAN_MEMO_CAP:
                self._plans[vals] = plan
        return plan

    def _should_check_stash(
        self, vals: Sequence[int], flags_read: Sequence[bool]
    ) -> bool:
        """Stash pre-screen (§III.E/F).

        Without deletions a stashed item's candidates all carried value 1 at
        stash time, counter-1 buckets are never overwritten, and counters
        never silently change — so any other value proves absence from the
        stash.  With deletions enabled only the flags gathered during the
        failed lookup can be trusted.

        An empty stash is never probed: keeping the stash population in an
        on-chip register is free in hardware and spares the conservative
        probe that deletion modes otherwise force on zero-flag lookups.
        """
        if self._stash is not None and len(self._stash) == 0:
            return False
        if self.deletion_mode is DeletionMode.DISABLED:
            if any(v != 1 for v in vals):
                return False
            return all(flags_read) and len(flags_read) > 0
        return all(flags_read)  # vacuously true when nothing was read

    # ------------------------------------------------------------------
    # batched kernels
    # ------------------------------------------------------------------
    #
    # Each kernel returns exactly what the scalar loop would and charges the
    # same access totals (in both charging modes): candidates come from the
    # family's multi-index fast path, counters from one get_block call per
    # batch (lookups) or per key (mutations, which need fresh values), and
    # off-chip bucket reads are accumulated and charged in one record call.
    #
    # Each kernel has two front-ends selected by the table's EngineConfig:
    # the pure-Python one (always available, the default) and a NumPy one
    # that computes the candidate matrix and gathers every counter in one
    # shot.  Both feed the same Python scan over off-chip entries, so
    # backend choice can never change an outcome or a charge — only
    # wall-clock.

    def _use_numpy(self, n_keys: int) -> bool:
        return self._engine_numpy and n_keys >= self._engine_min_batch

    def _candidate_ids(self, ks: Sequence[Key]) -> Any:
        """Global candidate ids of canonical keys, ``d`` per key in key
        order: a flat ``int64`` array under the NumPy engine, else a list."""
        n = self.n_buckets
        if self._engine_numpy and len(ks) >= self._engine_min_batch:  # _use_numpy
            np = numpy_or_none()
            mat = self._family.candidates_matrix(
                self._functions, np.array(ks, dtype=np.uint64), n
            )
            mat += np.arange(self.d, dtype=np.int64) * np.int64(n)
            return mat.reshape(-1)
        return self._family.candidate_ids(self._functions, ks, n)

    def _gather(self, ids: Any) -> Tuple[List[int], List[int]]:
        """``ids`` as a list, and their counter values from one bulk
        charged read: array-wise for a batch big enough for NumPy, since
        a few keys' counters unpack faster in Python."""
        if isinstance(ids, list):
            return ids, self._counters.get_block(ids)
        flat = ids.tolist()
        if self._use_numpy(len(flat) // self.d):
            return flat, self._counters.get_block_array(ids).tolist()
        return flat, self._counters.get_block(flat)

    def prescreen_absent(self, keys: Sequence[KeyLike]) -> List[bool]:
        """Principle-1 bulk pre-screen: ``True`` where the counters alone
        prove the key was never inserted, so no off-chip probe (and no
        generator, for the AMAC pipeline) is needed.

        Charges the same d-per-key bulk counter read ``lookup_many``'s
        screen records.  When rule 1 is inactive (RESET deletions) or
        tombstones exist (a zero counter is only conclusive after a charged
        tombstone read) the counters alone cannot screen, so every key is
        conservatively ``False`` and nothing is charged.
        """
        ks = [self._canonical(key) for key in keys]
        if not self._rule1_active() or self._tombstones is not None:
            return [False] * len(ks)
        d = self.d
        _, vals_flat = self._gather(self._candidate_ids(ks))
        return [
            0 in vals_flat[base : base + d]
            for base in range(0, len(vals_flat), d)
        ]

    def lookup_many(self, keys: Sequence[KeyLike]) -> List[LookupOutcome]:
        """Batched lookup: one charged counter gather, then :meth:`_scan_lookups`."""
        # Inline the canonical fast path: int keys dominate every workload.
        ks = [
            key & MASK64 if type(key) is int else canonical_key(key)
            for key in keys
        ]
        flat, vals_flat = self._gather(self._candidate_ids(ks))
        return self._scan_lookups(ks, flat, vals_flat)

    def _scan_lookups(
        self,
        ks: Sequence[Key],
        flat: List[int],
        vals_flat: List[int],
        hit: Callable[[Any, int], Any] = LookupOutcome.hit,
        miss: Callable[[int], Any] = LookupOutcome.miss,
        stashed: Callable[[bool, Any, int], Any] = _stash_outcome,
    ) -> List[Any]:
        """The per-key probe loop over prefetched candidates and counters
        (``d`` consecutive entries of ``flat``/``vals_flat`` per key).

        Each row is probed in the order of its memoized :func:`probe_plan`
        (the one the scalar lookup uses), and all bucket reads are charged
        in one call at the end.  One result per key: ``hit(value, reads)``,
        ``miss(reads)`` (``miss(0)`` for a key the counters screen out) or,
        after a stash probe, ``stashed(found, value, reads)``.  The
        defaults build :class:`LookupOutcome` objects; the store's GET walk
        (:meth:`~repro.serve.store.ShardedLogStore.get_many`) passes
        constructors that keep only the stored log offset.
        """
        d = self.d
        rule1 = self.deletion_mode is not DeletionMode.RESET  # _rule1_active
        # Principle-1 screen without the per-key method call: sound whenever
        # a zero counter proves absence and there are no tombstones to read.
        simple_screen = rule1 and self._tombstones is None
        keys_arr = self._keys
        values_arr = self._values
        flags = self._flags
        stash = self._stash
        plans_get = self._plans.get
        screened = miss(0)
        out: List[Any] = []
        append = out.append
        total_bucket_reads = 0
        # zip over d copies of one iterator: consecutive d-tuples, in C.
        cand_rows = zip(*[iter(flat)] * d)
        val_rows = zip(*[iter(vals_flat)] * d)
        for k, cands, vals in zip(ks, cand_rows, val_rows):
            if simple_screen:
                if 0 in vals:
                    append(screened)
                    continue
            elif rule1 and self._never_inserted(cands, vals):
                append(screened)
                continue
            plan = plans_get(vals)
            if plan is None:
                plan = self._plan(vals)
            reads = 0
            for column in plan:
                reads += 1
                bucket = cands[column]
                if keys_arr[bucket] == k:
                    append(hit(values_arr[bucket], reads))
                    break
            else:
                # Miss: the stash pre-screen needs the flags of the probed
                # buckets; they ride along with the bucket reads, so
                # gathering them here (peeks) charges nothing the probes
                # didn't.
                if stash is not None and self._should_check_stash(
                    vals, [flags.test(cands[column]) for column in plan]
                ):
                    append(stashed(*stash.lookup(k), reads))
                else:
                    append(miss(reads))
            total_bucket_reads += reads
        if total_bucket_reads:
            self.mem.offchip_read("bucket", total_bucket_reads)
        return out

    def put_many(self, pairs: Iterable[Tuple[KeyLike, Any]]) -> List[InsertOutcome]:
        """Two-phase batched insert.

        Phase 1 streams the common case: keys whose principles 1-3 placement
        succeeds outright.  Keys that collide (every candidate holds a sole
        copy) are deferred and run through the full kick-out path in phase 2.
        Deferral is sound because placements never free a bucket and never
        touch counter-1 buckets, so a collided key still collides when it is
        retried; the result equals scalar puts in the reordered sequence
        (non-collided keys in order, then collided keys in order).
        """
        items = [(self._canonical(key), value) for key, value in pairs]
        d = self.d
        # Candidates never change, so one multi-key family call (or one
        # candidate-matrix kernel under the NumPy engine) serves the whole
        # batch; the counters for every candidate bucket are then fetched in
        # ONE bulk read (same d-per-key accounting as the scalar path).
        # Earlier placements in the batch can invalidate the pre-read
        # values, so every bucket a placement mutates lands in ``dirty``; a
        # key whose candidates intersect it refreshes them with unaccounted
        # peeks (the charged read already happened up front).
        flat, vals_flat = self._gather(self._candidate_ids([k for k, _ in items]))
        outcomes: List[Optional[InsertOutcome]] = [None] * len(items)
        deferred: List[int] = []
        counters = self._counters
        peek = counters.peek
        set_block = counters.set_block
        tombstones = self._tombstones
        clear_bit = tombstones.clear_bit if tombstones is not None else None
        keys_arr = self._keys
        values_arr = self._values
        masks_arr = self._masks
        mask_for = self._mask_for
        stored = InsertStatus.STORED
        dirty: set = set()
        bucket_writes = 0  # fast-path off-chip writes, charged once at the end
        wear = self._wear
        base = 0
        for i, (k, value) in enumerate(items):
            cands = flat[base:base + d]
            vals = vals_flat[base:base + d]
            base += d
            if dirty and not dirty.isdisjoint(cands):
                vals = [peek(b) for b in cands]
            if max(vals) < 2:
                # No overwritable candidate: principles 1-3 reduce to
                # "claim every free bucket", the dominant shape at load.
                free = [b for b, v in zip(cands, vals) if v == 0]
                total = len(free)
                if not total:
                    deferred.append(i)
                    continue
                mask = mask_for(free)
                for bucket in free:
                    keys_arr[bucket] = k
                    values_arr[bucket] = value
                    if masks_arr is not None:
                        masks_arr[bucket] = mask
                    if clear_bit is not None:
                        clear_bit(bucket)
                    if wear is not None:
                        wear.note(bucket)
                bucket_writes += total
                set_block(free, total)
                dirty.update(free)
                self._n_main += 1
                outcomes[i] = InsertOutcome(stored, kicks=0, copies=total)
                continue
            copies = self._place_by_principles(k, value, cands, vals,
                                               touched=dirty)
            if copies:
                self._n_main += 1
                outcomes[i] = InsertOutcome(InsertStatus.STORED, kicks=0, copies=copies)
            else:
                deferred.append(i)
        if bucket_writes:
            self.mem.offchip_write("bucket", bucket_writes)
        for i in deferred:
            k, value = items[i]
            # Phase 1 already charged this key's d counter reads.
            outcomes[i] = self._insert_canonical(k, value, charge_counters=False)
        return outcomes  # type: ignore[return-value]

    def delete_many(self, keys: Sequence[KeyLike]) -> List[DeleteOutcome]:
        if self.deletion_mode is DeletionMode.DISABLED:
            raise UnsupportedOperationError(
                "this table was built with DeletionMode.DISABLED"
            )
        counters = self._counters
        ks = [self._canonical(key) for key in keys]
        ids = self._candidate_ids(ks)
        flat = ids if isinstance(ids, list) else ids.tolist()
        outcomes: List[DeleteOutcome] = []
        for k, cands in zip(ks, zip(*[iter(flat)] * self.d)):
            # Fresh per-key read: earlier deletes in the batch zero counters.
            vals = counters.get_block(cands)
            outcomes.append(self._delete_canonical(k, cands, vals))
        return outcomes

    # ------------------------------------------------------------------
    # deletion and update
    # ------------------------------------------------------------------

    def _find_copies(
        self, k: Key, cands: Sequence[int], vals: Sequence[int]
    ) -> Tuple[List[int], List[bool]]:
        """Locate every bucket holding ``k`` per the deletion principles.

        Returns the copy buckets (empty if not in the main table) and the
        stash flags observed along the way, which the stash pre-screen
        needs when there are none (a hit may leave them incomplete).
        """
        keys_arr = self._keys
        if vals == self._ones:
            # The commonest row on update and replay (most of the replayed
            # updates in restart-shaped histories): one partition of value
            # 1, probed in candidate order until the sole copy turns up,
            # the reads charged in one call.
            reads = 0
            for bucket in cands:
                reads += 1
                if keys_arr[bucket] == k:
                    self.mem.offchip_read("bucket", reads)
                    return [bucket], []
            self.mem.offchip_read("bucket", reads)
            return [], [self._flags.test(bucket) for bucket in cands]
        probed: List[int] = []
        for v, members in self._partitions(cands, vals):
            if len(members) < v:
                continue
            limit = len(members) - v + 1
            found_at: List[int] = []
            for index, bucket in enumerate(members):
                if not found_at and index >= limit:
                    break
                probed.append(bucket)
                if keys_arr[bucket] == k:
                    found_at.append(bucket)
                    if len(found_at) == v:
                        break
            if found_at:
                self.mem.offchip_read("bucket", len(probed))
                if len(found_at) != v:
                    raise InvariantViolationError(
                        f"key {k:#x}: found {len(found_at)} copies, counter says {v}"
                    )
                return found_at, []
        if probed:
            self.mem.offchip_read("bucket", len(probed))
        return [], [self._flags.test(bucket) for bucket in probed]

    def delete(self, key: KeyLike) -> DeleteOutcome:
        if self.deletion_mode is DeletionMode.DISABLED:
            raise UnsupportedOperationError(
                "this table was built with DeletionMode.DISABLED"
            )
        k = key & MASK64 if type(key) is int else canonical_key(key)
        n = self.n_buckets
        raw = self._family.candidates(self._functions, k, n)
        cands = [table * n + raw[table] for table in range(self.d)]
        return self._delete_canonical(k, cands, self._counters.get_many(cands))

    def _delete_canonical(
        self, k: Key, cands: Sequence[int], vals: Sequence[int]
    ) -> DeleteOutcome:
        if 0 in vals and self._never_inserted(cands, vals):
            return DeleteOutcome(deleted=False)
        copies, flags_read = self._find_copies(k, cands, vals)
        if copies:
            for bucket in copies:
                self._counters.set(bucket, 0)
                if self._tombstones is not None:
                    self._tombstones.mark(bucket)
            self._n_main -= 1
            return DeleteOutcome(deleted=True, copies_removed=len(copies))
        if self._stash is not None and len(self._stash) and all(flags_read):
            if self._stash.delete(k):
                # The flags are Bloom-style and cannot be cleared (§III.F);
                # stash deletions leave them stale until a refresh.
                return DeleteOutcome(deleted=True, copies_removed=1, from_stash=True,
                                     checked_stash=True)
            return DeleteOutcome(deleted=False, checked_stash=True)
        return DeleteOutcome(deleted=False)

    def try_update(self, key: KeyLike, value: Any) -> Optional[InsertOutcome]:
        """Rewrite the value of every copy of ``key`` in place; ``None``
        when the key is absent.

        This is the kernel of both a live overwrite and log replay.  It
        charges d counter reads, one off-chip read per probed bucket and
        one off-chip write per copy, each kind in one record call.
        """
        k = key & MASK64 if type(key) is int else canonical_key(key)
        n = self.n_buckets
        raw = self._family.candidates(self._functions, k, n)
        cands = [table * n + raw[table] for table in range(self.d)]
        return self._update_canonical(k, cands, self._counters.get_many(cands), value)

    def _update_canonical(
        self, k: Key, cands: Sequence[int], vals: Sequence[int], value: Any
    ) -> Optional[InsertOutcome]:
        """:meth:`try_update` given the key's candidates and their counter
        values, which the caller has read (and charged)."""
        if 0 in vals and self._never_inserted(cands, vals):
            return None
        copies, flags_read = self._find_copies(k, cands, vals)
        if copies:
            self.mem.offchip_write("bucket", len(copies))
            values_arr = self._values
            masks_arr = self._masks
            mask = self._mask_for(copies) if masks_arr is not None else 0
            for bucket in copies:
                if self._wear is not None:
                    self._wear.note(bucket)
                # The stored key already equals k: only value and mask change.
                values_arr[bucket] = value
                if masks_arr is not None:
                    masks_arr[bucket] = mask
            return InsertOutcome.updated(len(copies))
        if self._stash is not None and len(self._stash) and all(flags_read):
            if self._stash.delete(k):
                self._stash.add(k, value)
                return InsertOutcome(InsertStatus.UPDATED, copies=1)
        return None

    def remap_values(self, mapping: Dict[Any, Any]) -> int:
        """Replace every live value ``v`` by ``mapping[v]`` in one walk of
        the buckets and the stash; returns the copies rewritten.

        Compaction patches moved log offsets this way instead of one
        :meth:`try_update` per key.  Charged as one bulk read of every
        counter, one off-chip read and write per live copy, and one per
        stash entry.  Keys, counters, flags and stash order stay as they
        are."""
        counters = self._counters.get_block(range(self.capacity))
        values = self._values
        live = [bucket for bucket, count in enumerate(counters) if count]
        for bucket in live:
            values[bucket] = mapping[values[bucket]]
        if self._wear is not None:
            for bucket in live:
                self._wear.note(bucket)
        if live:
            self.mem.offchip_read("bucket", len(live))
            self.mem.offchip_write("bucket", len(live))
        stashed = 0
        if self._stash is not None:
            for chain in self._stash._buckets:
                for position, (key, value) in enumerate(chain):
                    chain[position] = (key, mapping[value])
                stashed += len(chain)
            if stashed:
                self.mem.offchip_read("stash-remap", stashed)
                self.mem.offchip_write("stash-remap", stashed)
        return len(live) + stashed

    # ------------------------------------------------------------------
    # stash flag refresh (§III.F)
    # ------------------------------------------------------------------

    def refresh_stash(self) -> int:
        """Re-synchronise the stash flags after deletions have staled them.

        Resets every flag, drains the stash, and re-inserts the drained
        items through the normal path (items that fail again re-enter the
        stash, setting fresh flags).  Returns the number of drained items
        that made it back into the main table.
        """
        if self._stash is None:
            raise UnsupportedOperationError("table has no stash")
        items = self._stash.pop_all()
        for bucket in range(self.capacity):
            if self._flags.test(bucket):
                self._flags.clear_bit(bucket)
                self.mem.offchip_write("flag-clear")
        returned = 0
        for key, value in items:
            outcome = self._insert_canonical(key, value)
            if outcome.status is InsertStatus.STORED:
                returned += 1
        return returned

    # ------------------------------------------------------------------
    # introspection (unaccounted; for tests, invariants and iteration)
    # ------------------------------------------------------------------

    def copies_of(self, key: KeyLike) -> List[int]:
        """Global bucket indices currently holding live copies of ``key``."""
        k = self._canonical(key)
        return [
            bucket
            for bucket in self._candidates(k)
            if self._counters.peek(bucket) > 0 and self._keys[bucket] == k
        ]

    def items(self) -> Iterator[Tuple[Key, Any]]:
        seen: set = set()
        for bucket in range(self.capacity):
            if self._counters.peek(bucket) == 0:
                continue
            key = self._keys[bucket]
            if key not in seen:
                seen.add(key)
                yield key, self._values[bucket]
        if self._stash is not None:
            yield from self._stash.items()

    @property
    def onchip_bytes(self) -> int:
        """On-chip SRAM footprint of the helper structures."""
        total = self._counters.storage_bytes
        if self._tombstones is not None:
            total += self._tombstones.storage_bytes
        return total

    def counter_histogram(self) -> Dict[int, int]:
        """Counter value distribution (unaccounted; used by experiments)."""
        histogram: Dict[int, int] = {}
        for value in self._counters:
            histogram[value] = histogram.get(value, 0) + 1
        return histogram
