"""Victim-selection policies for collision resolution (kick-outs).

When every candidate bucket holds the sole copy of some item, a cuckoo
scheme must evict one occupant.  The paper uses random-walk for McCuckoo and
mentions MinCounter (5-bit kick-history counters per bucket) as a drop-in
alternative; all policies live behind one interface so that McCuckoo, the
blocked variant and the single-copy baselines can share them, and so
ablation benches can swap them.

============  ==================================================  =========
registry      victim rule                                         on-chip
name                                                              state
============  ==================================================  =========
random-walk   uniform random candidate (the paper's default)      none
mincounter    least-kicked candidate, saturating kick history     8b/bucket
wear-aware    least-written candidate (flash/NVM wear leveling)   WearMeter
bubbling      min-label candidate with give-up threshold          8b/bucket
              (Bubbling-Up / local-search labels; reaches the
              d-ary load threshold, e.g. 0.97+ at d=4)
============  ==================================================  =========

``bubbling`` also implements a ``variant="porat-shalem"`` knob selecting a
simpler label-increment rule from the same algorithm family (arXiv
1104.5400); see :class:`BubblingPolicy`.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, Dict, Optional, Sequence

from ..memory.model import MemoryModel
from .counters import PackedArray
from .errors import ConfigurationError


class KickPolicy(ABC):
    """Chooses which candidate bucket's occupant to evict.

    Beyond ``choose``, tables drive three optional hooks around their kick
    walks.  The defaults are exact no-ops (``record_eviction`` forwards to
    the legacy ``on_kick``) so stateless policies — and the default
    random-walk path — behave bit-identically with or without them.
    """

    name: str = "policy"

    def attach(self, n_buckets: int, mem: MemoryModel) -> None:
        """Called once by the owning table; policies with state override."""

    @abstractmethod
    def choose(self, candidates: Sequence[int], rng: random.Random) -> int:
        """Pick one global bucket index from ``candidates`` to evict."""

    def on_kick(self, bucket: int) -> None:
        """Notification that the chosen bucket's occupant was evicted."""

    def record_eviction(self, victim: int, others: Sequence[int]) -> None:
        """Richer eviction notification: the displaced-into bucket plus the
        inserted item's *other* candidate buckets (labeled policies derive
        their updates from the alternatives).  Default forwards to
        :meth:`on_kick` so legacy policies keep working unchanged."""
        self.on_kick(victim)

    def exhausted(self, candidates: Sequence[int]) -> bool:
        """Whether the walk should give up *now* instead of kicking on.

        Called before each eviction with the current candidate set.  A
        policy that can prove (or strongly suspect) that no short path to
        a free bucket exists returns ``True`` and the table falls through
        to its failure handling (stash/rehash/fail) without burning the
        rest of ``maxloop``.  Default: never."""
        return False

    def params(self) -> Dict[str, Any]:
        """The constructor arguments this policy was built with, as plain
        data: ``make_policy(self.name, **self.params())`` builds its twin.
        Snapshots record them beside :meth:`state`."""
        return {}

    def state(self) -> Any:
        """The policy's mutable state as plain data (``None`` when it has
        none).  Snapshots record it: a restored table must choose the same
        victims the original would have."""
        return None

    def load_state(self, state: Any) -> None:
        """Inverse of :meth:`state`; called after :meth:`attach`."""


class RandomWalkPolicy(KickPolicy):
    """Uniform random victim — the paper's default resolution for McCuckoo."""

    name = "random-walk"

    def choose(self, candidates: Sequence[int], rng: random.Random) -> int:
        if not candidates:
            raise ValueError("no candidates to choose a victim from")
        return candidates[rng.randrange(len(candidates))]


class MinCounterPolicy(KickPolicy):
    """MinCounter [17]: evict from the bucket kicked least often so far.

    A saturating 5-bit counter per bucket records its kick history; the
    "coldest" candidate is chosen (ties broken at random) and its counter is
    incremented.  The counters live on-chip, so reads/writes are charged to
    the on-chip tier of the attached :class:`MemoryModel`.
    """

    name = "mincounter"

    def __init__(self, bits: int = 8, saturate_at: int = 31) -> None:
        # The paper specifies 5-bit counters; PackedArray packs byte-aligned
        # widths, so we store 8 bits and saturate at the 5-bit maximum.
        self._history: Optional[PackedArray] = None
        self._bits = bits
        self._saturate_at = saturate_at

    def attach(self, n_buckets: int, mem: MemoryModel) -> None:
        self._history = PackedArray(
            n_buckets, bits=self._bits, mem=mem, label="kick-history"
        )

    def _require_history(self) -> PackedArray:
        if self._history is None:
            raise ConfigurationError("MinCounterPolicy used before attach()")
        return self._history

    def choose(self, candidates: Sequence[int], rng: random.Random) -> int:
        if not candidates:
            raise ValueError("no candidates to choose a victim from")
        history = self._require_history()
        values = [history.get(bucket) for bucket in candidates]
        best = min(values)
        coldest = [b for b, v in zip(candidates, values) if v == best]
        return coldest[rng.randrange(len(coldest))]

    def on_kick(self, bucket: int) -> None:
        history = self._require_history()
        current = history.get(bucket)
        if current < self._saturate_at:
            history.set(bucket, current + 1)

    def params(self) -> Dict[str, Any]:
        return {"bits": self._bits, "saturate_at": self._saturate_at}

    def state(self) -> bytes:
        return bytes(self._require_history()._data)

    def load_state(self, state: bytes) -> None:
        self._require_history()._data = bytearray(state)


class WearAwarePolicy(KickPolicy):
    """Evict from the candidate bucket with the lowest write wear.

    Eppstein et al. (*Wear Minimization for Cuckoo Hashing*, arXiv
    1404.0286) show that steering placements away from hot cells bounds
    the maximum per-bucket write count — the metric that decides when a
    flash/NVM device dies.  Each kick writes the evicted bucket (the new
    item lands there), so choosing the least-worn candidate levels the
    wear surface; total writes are unchanged, only their distribution.

    The policy reads the owning table's :class:`~repro.memory.wear.WearMeter`
    (the table wires it in via ``attach_wear``; building the table with
    this policy creates a meter automatically).  Ties break at random so
    a cold region is not filled in index order.
    """

    name = "wear-aware"
    wants_wear = True

    def __init__(self) -> None:
        self._wear = None

    def attach_wear(self, meter) -> None:
        """Called by the owning table with its :class:`WearMeter`."""
        self._wear = meter

    def choose(self, candidates: Sequence[int], rng: random.Random) -> int:
        if not candidates:
            raise ValueError("no candidates to choose a victim from")
        if self._wear is None:
            raise ConfigurationError(
                "WearAwarePolicy used before attach_wear(); build the table "
                "with this policy (or a wear_meter) so it gets wired in"
            )
        wear_of = self._wear.wear_of
        values = [wear_of(bucket) for bucket in candidates]
        best = min(values)
        coldest = [b for b, v in zip(candidates, values) if v == best]
        return coldest[rng.randrange(len(coldest))]


class BubblingPolicy(KickPolicy):
    """Bubbling-Up insertion labels (Kuszmaul & Mitzenmacher, arXiv
    2501.02312; label mechanics per Khosla's local search allocation).

    Each bucket carries a small on-chip label ``l(b)`` — a lower bound on
    the length of the shortest eviction path from ``b`` to a free bucket.
    Free buckets implicitly have label 0 (labels are only raised when a
    bucket is written into by an eviction, and the table only evicts when
    *no* candidate is free).  The walk always kicks the candidate with the
    smallest label (first-lowest on ties — measured better than random
    tie-breaking near the threshold), i.e. it "bubbles" items toward the
    emptiest region of the table, and after displacing into ``victim`` it
    restores the invariant with::

        l(victim) = max(l(victim), 1 + min(l(c) for c in others))

    where ``others`` are the displaced item's remaining candidates; since
    an eviction implies all of them are full, their label-0 entries are
    also raised to 1 (distance >= 1 is certain for a full bucket).

    Because labels are shortest-path lower bounds,
    insertions stay cheap essentially up to the d-ary load threshold
    (~0.9768 for d=4) where random-walk chains explode around ~0.93.  When
    every candidate's label reaches ``give_up_at`` the policy reports
    :meth:`exhausted` and the table stops the walk early — this is the
    paper's threshold schedule collapsed to its final rung, and it bounds
    the worst-case insert cost instead of burning ``maxloop`` kicks on a
    hopeless region.

    ``variant="porat-shalem"`` selects the simpler rule from Porat &
    Shalem (arXiv 1104.5400): the victim's own label is bumped by one
    (self-increment rather than neighborhood minimum) and ties break
    deterministically in candidate order.  It is a documented
    approximation from the same algorithm family, kept as an ablation
    knob; the default ``kuszmaul`` rule dominates it at high load.

    Labels live in a :class:`PackedArray` charged to the on-chip tier,
    8 bits per bucket (the give-up threshold is far below 255).  ``attach``
    is re-called on rehash/resize and rebuilds the labels from scratch —
    stale labels are only a heuristic loss, never a correctness issue.
    """

    name = "bubbling"
    VARIANTS = ("kuszmaul", "porat-shalem")

    def __init__(
        self,
        variant: str = "kuszmaul",
        give_up_at: Optional[int] = None,
        bits: int = 8,
    ) -> None:
        if variant not in self.VARIANTS:
            raise ConfigurationError(
                f"unknown bubbling variant {variant!r}; options: {self.VARIANTS}"
            )
        if give_up_at is not None and give_up_at < 1:
            raise ConfigurationError("give_up_at must be >= 1")
        self.variant = variant
        self._give_up_at_config = give_up_at
        self._bits = bits
        self._labels: Optional[PackedArray] = None
        self._give_up_at = 0
        self._max_label = (1 << bits) - 1

    @property
    def give_up_at(self) -> int:
        """Effective give-up threshold (derived at attach when not set)."""
        return self._give_up_at

    def attach(self, n_buckets: int, mem: MemoryModel) -> None:
        self._labels = PackedArray(
            n_buckets, bits=self._bits, mem=mem, label="bubble-label"
        )
        if self._give_up_at_config is not None:
            self._give_up_at = self._give_up_at_config
        else:
            # Shortest augmenting paths are O(log n) whp below the load
            # threshold; past ~2*log2(n) the walk is almost surely stuck.
            self._give_up_at = max(4, 2 * max(1, n_buckets.bit_length()))
        self._give_up_at = min(self._give_up_at, self._max_label)

    def _require_labels(self) -> PackedArray:
        if self._labels is None:
            raise ConfigurationError("BubblingPolicy used before attach()")
        return self._labels

    def choose(self, candidates: Sequence[int], rng: random.Random) -> int:
        if not candidates:
            raise ValueError("no candidates to choose a victim from")
        labels = self._require_labels()
        values = [labels.get(bucket) for bucket in candidates]
        # Deterministic first-lowest tie-break.  Measured at d=4 near the
        # load threshold this beats random tie-breaking by ~0.5-1.5 points
        # of first-failure fill: a fixed drift direction drains one hash
        # class before disturbing the next, where random ties re-randomize
        # the walk back toward plain random-walk behaviour.
        return candidates[values.index(min(values))]

    def record_eviction(self, victim: int, others: Sequence[int]) -> None:
        labels = self._require_labels()
        if self.variant == "porat-shalem":
            labels.set(victim, min(labels.get(victim) + 1, self._max_label))
            return
        # The table only evicts when every candidate of the displaced-into
        # item is full, so each bucket in ``others`` provably sits at
        # distance >= 1 from a free bucket: raising its label-0 entries to 1
        # is sound and propagates distance information a full step faster
        # than updating the victim alone.  Labels never decrease (the max
        # keeps the tighter of two valid lower bounds).
        floor: Optional[int] = None
        for bucket in others:
            lb = labels.get(bucket)
            if lb == 0:
                labels.set(bucket, 1)
                lb = 1
            floor = lb if floor is None else min(floor, lb)
        new = max(labels.get(victim), (floor or 0) + 1)
        labels.set(victim, min(new, self._max_label))

    def exhausted(self, candidates: Sequence[int]) -> bool:
        if not candidates:
            return False
        labels = self._require_labels()
        return min(labels.get(b) for b in candidates) >= self._give_up_at

    def params(self) -> Dict[str, Any]:
        return {
            "variant": self.variant,
            "give_up_at": self._give_up_at_config,
            "bits": self._bits,
        }

    def state(self) -> bytes:
        return bytes(self._require_labels()._data)

    def load_state(self, state: bytes) -> None:
        self._require_labels()._data = bytearray(state)


POLICIES = {
    RandomWalkPolicy.name: RandomWalkPolicy,
    MinCounterPolicy.name: MinCounterPolicy,
    WearAwarePolicy.name: WearAwarePolicy,
    BubblingPolicy.name: BubblingPolicy,
}


def make_policy(name: str, **params: Any) -> KickPolicy:
    """Instantiate a policy by its registry name and constructor
    arguments (see :meth:`KickPolicy.params`)."""
    try:
        return POLICIES[name](**params)
    except KeyError:
        raise ConfigurationError(
            f"unknown kick policy {name!r}; options: {sorted(POLICIES)}"
        ) from None
