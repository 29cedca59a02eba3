"""Incremental (online) resizing for McCuckoo.

The paper's introduction holds stop-the-world rehashing against classic
cuckoo tables: "reading out all inserted items and using a different set of
hash functions to put them into a bigger table, during which the hash table
is completely unusable".  A stash absorbs transient overload, but a
persistently growing key set eventually needs more buckets.

:class:`ResizableMcCuckoo` keeps the table usable throughout growth.  When
the load ratio crosses ``grow_at``, it allocates a fresh table
``growth_factor`` times bigger and then *migrates a few buckets per
subsequent write operation*:

* new insertions go to the new table;
* lookups/deletes consult the new table first, then the old one;
* each ``put`` and each ``delete`` that removes a key also advances a
  migration cursor over the old table's buckets, moving ``migrate_batch``
  distinct items across;
* when the cursor completes (including draining the old stash), the old
  table is dropped.

Worst-case per-operation work stays bounded, there is no unavailability
window, and the invariant checkers hold on both halves at every step.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..hashing import Key, KeyLike
from ..memory.model import MemoryModel
from .config import TableConfig
from .interface import HashTable
from .mccuckoo import McCuckoo
from .results import DeleteOutcome, InsertOutcome, LookupOutcome


class ResizableMcCuckoo(HashTable):
    """A McCuckoo table that grows online, a few buckets per write.

    Built from ``config`` (a :class:`~repro.core.config.TableConfig`), or
    from ``n_buckets`` plus that config's other fields as keywords.
    """

    name = "ResizableMcCuckoo"

    def __init__(
        self,
        n_buckets: int = 0,
        mem: Optional[MemoryModel] = None,
        *,
        config: Optional[TableConfig] = None,
        **settings: Any,
    ) -> None:
        super().__init__(mem)
        if config is None:
            config = TableConfig(n_buckets, **settings)
        elif n_buckets or settings:
            raise TypeError("pass either a TableConfig or its fields, not both")
        self.config = config
        self._active = self._make_table(config.n_buckets, config.seed)
        self._retiring: Optional[McCuckoo] = None
        self._cursor = 0
        self.generations = 0

    def _make_table(self, n_buckets: int, seed: int) -> McCuckoo:
        return McCuckoo(n_buckets, seed=seed, mem=self.mem, **self.config.table_kwargs())

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        total = self._active.capacity
        if self._retiring is not None:
            total += self._retiring.capacity
        return total

    def __len__(self) -> int:
        total = len(self._active)
        if self._retiring is not None:
            total += len(self._retiring)
        return total

    @property
    def resizing(self) -> bool:
        return self._retiring is not None

    @property
    def active_table(self) -> McCuckoo:
        return self._active

    @property
    def retiring_table(self) -> Optional[McCuckoo]:
        return self._retiring

    # ------------------------------------------------------------------
    # growth machinery
    # ------------------------------------------------------------------

    def _maybe_start_resize(self) -> None:
        if self._retiring is not None:
            return
        if self._active.load_ratio < self.config.grow_at:
            return
        self.generations += 1
        bigger = max(
            self._active.n_buckets + 1,
            int(self._active.n_buckets * self.config.growth_factor),
        )
        self._retiring = self._active
        self._active = self._make_table(bigger, self.config.seed + self.generations)
        self._cursor = 0

    def migrate_step(self, batch: Optional[int] = None) -> int:
        """Move up to ``batch`` distinct items old → new; returns how many.

        Called automatically by every write; callable directly to drain the
        old table faster (e.g. from an idle loop).
        """
        if self._retiring is None:
            return 0
        moved = 0
        budget = batch if batch is not None else self.config.migrate_batch
        old = self._retiring
        while moved < budget and self._cursor < old.capacity:
            bucket = self._cursor
            self._cursor += 1
            if old._counters.peek(bucket) == 0:
                continue
            key = old._keys[bucket]
            value = old._values[bucket]
            assert key is not None
            old.delete(key)
            # A fresher version may already live in the new half (a put of
            # the same key during migration); never shadow it.
            if not self._active.lookup(key).found:
                self._active.put(key, value)
            moved += 1
        if self._cursor >= old.capacity and self._retiring is not None:
            # main table drained: move any stashed stragglers and finish
            if old.stash is not None:
                for key, value in old.stash.pop_all():
                    if not self._active.lookup(key).found:
                        self._active.put(key, value)
                    moved += 1
            self._retiring = None
        return moved

    def finish_resize(self) -> int:
        """Drain the old table completely; returns items moved."""
        total = 0
        while self._retiring is not None:
            total += self.migrate_step(batch=1024)
        return total

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def put(self, key: KeyLike, value: Any = None) -> InsertOutcome:
        k = self._canonical(key)
        return self._insert_with(k, value, self._active._candidates(k))

    # A store's write run hashes its keys once against the active half and
    # applies each op through these three, its candidates (and their
    # freshly read counters) in hand; the scalar calls go through them too.

    def _insert_with(self, k: Key, value: Any, cands: List[int]) -> InsertOutcome:
        """Insert a canonical key whose active-half candidates are
        ``cands``; they are recomputed if a resize starts first."""
        active = self._active
        self._maybe_start_resize()
        if self._active is active:
            outcome = active._insert_canonical(k, value, cands=cands)
        else:
            outcome = self._active._insert_canonical(k, value)
        self.migrate_step()
        return outcome

    def _update_with(
        self, k: Key, value: Any, cands: Sequence[int], vals: Sequence[int]
    ) -> Optional[InsertOutcome]:
        outcome = self._active._update_canonical(k, cands, vals, value)
        if outcome is None and self._retiring is not None:
            outcome = self._retiring.try_update(k, value)
        return outcome

    def _delete_with(
        self, k: Key, cands: Sequence[int], vals: Sequence[int]
    ) -> DeleteOutcome:
        outcome = self._active._delete_canonical(k, cands, vals)
        if not outcome.deleted and self._retiring is not None:
            outcome = self._retiring.delete(k)
        if outcome.deleted:
            self.migrate_step()
        return outcome

    def lookup(self, key: KeyLike) -> LookupOutcome:
        outcome = self._active.lookup(key)
        if outcome.found or self._retiring is None:
            return outcome
        return self._retiring.lookup(key)

    def lookup_many(self, keys: Sequence[KeyLike]) -> List[LookupOutcome]:
        """Batched lookup: active-half kernel, misses retried on the old half.

        put_many/delete_many stay the interface's scalar loops on purpose —
        each write must interleave its own migration step to keep the
        per-operation resize bound.
        """
        outcomes = self._active.lookup_many(keys)
        if self._retiring is not None:
            missed = [i for i, outcome in enumerate(outcomes) if not outcome.found]
            if missed:
                retried = self._retiring.lookup_many([keys[i] for i in missed])
                for i, outcome in zip(missed, retried):
                    outcomes[i] = outcome
        return outcomes

    def delete(self, key: KeyLike) -> DeleteOutcome:
        """Delete ``key``; migration advances only when something was
        deleted, so a miss leaves the table exactly as it was (a store
        logs no record for it, and replay must reproduce the layout)."""
        outcome = self._active.delete(key)
        if not outcome.deleted and self._retiring is not None:
            outcome = self._retiring.delete(key)
        if outcome.deleted:
            self.migrate_step()
        return outcome

    def try_update(self, key: KeyLike, value: Any) -> Optional[InsertOutcome]:
        k = self._canonical(key)
        cands = self._active._candidates(k)
        return self._update_with(k, value, cands, self._active._counters.get_many(cands))

    def remap_values(self, mapping: Dict[Any, Any]) -> int:
        """Replace every stored value ``v`` by ``mapping[v]`` in one walk
        of both halves (see :meth:`McCuckoo.remap_values`); returns the
        copies rewritten."""
        total = self._active.remap_values(mapping)
        if self._retiring is not None:
            total += self._retiring.remap_values(mapping)
        return total

    def items(self) -> Iterator[Tuple[Key, Any]]:
        yield from self._active.items()
        if self._retiring is not None:
            yield from self._retiring.items()

    @property
    def load_ratio(self) -> float:
        # during migration, report pressure on the *active* half: that is
        # what decides whether another growth round is needed
        return self._active.load_ratio

    @property
    def onchip_bytes(self) -> int:
        total = self._active.onchip_bytes
        if self._retiring is not None:
            total += self._retiring.onchip_bytes
        return total
