"""Memory-hierarchy access accounting.

The paper evaluates every scheme by how many times it touches the *off-chip*
main table versus the *on-chip* helper structures (counters, small stashes).
This module provides :class:`MemoryModel`, a shared accountant that each hash
table reports its accesses to.  All figures in the paper's evaluation are
functions of these counts, so every table in this library routes its bucket
and counter traffic through a ``MemoryModel``.

The model deliberately stores *no data* — it only counts.  Data lives in the
table objects themselves; the split keeps accounting orthogonal to storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union


class Tier(Enum):
    """Which level of the memory hierarchy an access touches."""

    ON_CHIP = "on_chip"
    OFF_CHIP = "off_chip"


class Op(Enum):
    """Access direction."""

    READ = "read"
    WRITE = "write"


# Members resolved once: looking a member up on its Enum class costs more
# than the rest of record(), which runs on every accounted access.
_ON_CHIP, _OFF_CHIP = Tier.ON_CHIP, Tier.OFF_CHIP
_READ, _WRITE = Op.READ, Op.WRITE


class CounterCharging(Enum):
    """How bulk counter reads (:meth:`PackedArray.get_block`) are charged.

    ``PER_COUNTER`` — every counter read charges one access, exactly as the
    scalar ``get``/``get_many`` path does.  This is the default and the mode
    every paper-figure experiment runs in, so batching never changes the
    reproduction's access counts.

    ``PER_WORD`` — one access per distinct 64-bit SRAM word touched, the
    cost a real on-chip counter block with a word-wide read port would pay.
    Opt-in, for what-if studies only.
    """

    PER_COUNTER = "per_counter"
    PER_WORD = "per_word"


@dataclass
class AccessCounts:
    """Plain read/write counters for one memory tier."""

    reads: int = 0
    writes: int = 0

    @property
    def total(self) -> int:
        return self.reads + self.writes

    def copy(self) -> "AccessCounts":
        return AccessCounts(self.reads, self.writes)

    def __sub__(self, other: "AccessCounts") -> "AccessCounts":
        return AccessCounts(self.reads - other.reads, self.writes - other.writes)

    def __add__(self, other: "AccessCounts") -> "AccessCounts":
        return AccessCounts(self.reads + other.reads, self.writes + other.writes)


@dataclass
class Snapshot:
    """Immutable view of both tiers at one instant."""

    on_chip: AccessCounts
    off_chip: AccessCounts

    def __sub__(self, other: "Snapshot") -> "Snapshot":
        return Snapshot(
            on_chip=self.on_chip - other.on_chip,
            off_chip=self.off_chip - other.off_chip,
        )

    @property
    def off_chip_reads(self) -> int:
        return self.off_chip.reads

    @property
    def off_chip_writes(self) -> int:
        return self.off_chip.writes

    @property
    def off_chip_total(self) -> int:
        return self.off_chip.total


class MemoryModel:
    """Counts on-chip and off-chip reads/writes.

    Tables call :meth:`onchip_read` / :meth:`offchip_write` etc. around their
    structural operations.  Experiments wrap an operation with
    :meth:`measure` to obtain the per-operation delta.

    A small bounded trace of recent accesses can be enabled for debugging
    and for tests that assert *which* accesses happened, not just how many.
    """

    def __init__(
        self,
        trace_capacity: int = 0,
        counter_charging: CounterCharging = CounterCharging.PER_COUNTER,
    ) -> None:
        self.on_chip = AccessCounts()
        self.off_chip = AccessCounts()
        self.counter_charging = counter_charging
        self._trace_capacity = trace_capacity
        self._trace: List[Tuple[Tier, Op, str]] = []

    # -- recording ---------------------------------------------------------

    def record(self, tier: Tier, op: Op, label: str = "", count: int = 1) -> None:
        """Record ``count`` accesses of the given kind."""
        if count < 0:
            raise ValueError("access count must be non-negative")
        bucket = self.on_chip if tier is _ON_CHIP else self.off_chip
        if op is _READ:
            bucket.reads += count
        else:
            bucket.writes += count
        if self._trace_capacity:
            for _ in range(count):
                if len(self._trace) >= self._trace_capacity:
                    self._trace.pop(0)
                self._trace.append((tier, op, label))

    def charge_counter_block(
        self,
        tier: Tier,
        op: Op,
        label: str,
        n_counters: int,
        n_words: Union[int, Callable[[], int]],
    ) -> None:
        """Charge one bulk counter access according to the charging mode.

        This is the single place the ``PER_COUNTER`` / ``PER_WORD`` policy
        is applied, so the Python and NumPy execution backends (and any
        future one) cannot drift: the caller reports *both* the number of
        logical counters touched and the number of distinct 64-bit SRAM
        words they live in, and the mode picks which figure is billed.
        ``n_words`` may be a thunk so the (set-building) word dedup is
        only paid when ``PER_WORD`` is actually selected.
        """
        if self.counter_charging is CounterCharging.PER_WORD:
            words = n_words() if callable(n_words) else n_words
            self.record(tier, op, label, words)
        else:
            self.record(tier, op, label, n_counters)

    def onchip_read(self, label: str = "", count: int = 1) -> None:
        self.record(_ON_CHIP, _READ, label, count)

    def onchip_write(self, label: str = "", count: int = 1) -> None:
        self.record(_ON_CHIP, _WRITE, label, count)

    def offchip_read(self, label: str = "", count: int = 1) -> None:
        self.record(_OFF_CHIP, _READ, label, count)

    def offchip_write(self, label: str = "", count: int = 1) -> None:
        self.record(_OFF_CHIP, _WRITE, label, count)

    # -- observation -------------------------------------------------------

    def snapshot(self) -> Snapshot:
        return Snapshot(on_chip=self.on_chip.copy(), off_chip=self.off_chip.copy())

    def measure(self) -> "_Measurement":
        """Context manager returning the access delta of the enclosed block.

        >>> mem = MemoryModel()
        >>> with mem.measure() as m:
        ...     mem.offchip_read("bucket")
        >>> m.delta.off_chip.reads
        1
        """
        return _Measurement(self)

    @property
    def trace(self) -> List[Tuple[Tier, Op, str]]:
        return list(self._trace)

    def trace_labels(self, tier: Optional[Tier] = None) -> Iterator[str]:
        for t, _, label in self._trace:
            if tier is None or t is tier:
                yield label

    def reset(self) -> None:
        self.on_chip = AccessCounts()
        self.off_chip = AccessCounts()
        self._trace.clear()

    def summary(self) -> Dict[str, int]:
        """Flat dict view, convenient for experiment result rows."""
        return {
            "on_chip_reads": self.on_chip.reads,
            "on_chip_writes": self.on_chip.writes,
            "off_chip_reads": self.off_chip.reads,
            "off_chip_writes": self.off_chip.writes,
        }


class _Measurement:
    """Context-manager helper produced by :meth:`MemoryModel.measure`."""

    def __init__(self, model: MemoryModel) -> None:
        self._model = model
        self._start: Optional[Snapshot] = None
        self.delta: Optional[Snapshot] = None

    def __enter__(self) -> "_Measurement":
        self._start = self._model.snapshot()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        assert self._start is not None
        self.delta = self._model.snapshot() - self._start


@dataclass
class OpStats:
    """Aggregated per-operation statistics over a batch of operations.

    Accumulates deltas from :meth:`MemoryModel.measure` plus scheme-specific
    counters (kick-outs), and exposes the per-operation averages the paper
    plots.
    """

    operations: int = 0
    kicks: int = 0
    on_chip: AccessCounts = field(default_factory=AccessCounts)
    off_chip: AccessCounts = field(default_factory=AccessCounts)

    def add(self, delta: Snapshot, kicks: int = 0) -> None:
        self.operations += 1
        self.kicks += kicks
        self.on_chip = self.on_chip + delta.on_chip
        self.off_chip = self.off_chip + delta.off_chip

    def merge(self, other: "OpStats") -> None:
        self.operations += other.operations
        self.kicks += other.kicks
        self.on_chip = self.on_chip + other.on_chip
        self.off_chip = self.off_chip + other.off_chip

    def _per_op(self, value: int) -> float:
        return value / self.operations if self.operations else 0.0

    @property
    def kicks_per_op(self) -> float:
        return self._per_op(self.kicks)

    @property
    def offchip_reads_per_op(self) -> float:
        return self._per_op(self.off_chip.reads)

    @property
    def offchip_writes_per_op(self) -> float:
        return self._per_op(self.off_chip.writes)

    @property
    def offchip_accesses_per_op(self) -> float:
        return self._per_op(self.off_chip.total)

    @property
    def onchip_reads_per_op(self) -> float:
        return self._per_op(self.on_chip.reads)

    @property
    def onchip_writes_per_op(self) -> float:
        return self._per_op(self.on_chip.writes)

    def as_row(self) -> Dict[str, float]:
        return {
            "ops": self.operations,
            "kicks_per_op": self.kicks_per_op,
            "offchip_reads_per_op": self.offchip_reads_per_op,
            "offchip_writes_per_op": self.offchip_writes_per_op,
            "onchip_reads_per_op": self.onchip_reads_per_op,
            "onchip_writes_per_op": self.onchip_writes_per_op,
        }
