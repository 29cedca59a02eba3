"""Packed fixed-width counter arrays (the on-chip helper structure).

McCuckoo keeps one small counter per off-chip bucket (2 bits when d=3)
recording how many copies the occupying item currently has in the table.
:class:`PackedArray` packs such counters into a ``bytearray`` exactly as a
hardware SRAM block would, and reports its traffic to a
:class:`~repro.memory.model.MemoryModel` so experiments can charge on-chip
accesses separately from off-chip ones.

``get``/``set`` are the *accounted* accessors used on the operation paths;
``peek``/``poke`` bypass accounting and exist for construction, invariant
checking and tests.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence

from .._numpy import numpy_or_none
from ..memory.model import MemoryModel, Op, Tier

_SUPPORTED_BITS = (1, 2, 4, 8)

#: counters per 64-bit SRAM word, the granularity PER_WORD charging bills at
_WORD_BITS = 64

# Resolved once for the scalar accessors (an Enum member lookup is slow).
_READ, _WRITE = Op.READ, Op.WRITE


class PackedArray:
    """``length`` unsigned integers of ``bits`` bits each, byte-packed."""

    def __init__(
        self,
        length: int,
        bits: int,
        mem: Optional[MemoryModel] = None,
        tier: Tier = Tier.ON_CHIP,
        label: str = "counter",
    ) -> None:
        if length <= 0:
            raise ValueError("length must be positive")
        if bits not in _SUPPORTED_BITS:
            raise ValueError(f"bits must be one of {_SUPPORTED_BITS}")
        self.length = length
        self.bits = bits
        self.max_value = (1 << bits) - 1
        self._per_byte = 8 // bits
        self._index_shift = self._per_byte.bit_length() - 1  # per_byte is 2^k
        self._mask = self.max_value
        self._data = bytearray((length + self._per_byte - 1) // self._per_byte)
        self._mem = mem
        self._tier = tier
        self._label = label

    # -- unaccounted access ------------------------------------------------

    def peek(self, index: int) -> int:
        """Read without charging a memory access (for checks and tests)."""
        if not 0 <= index < self.length:
            raise IndexError(f"index {index} out of range [0, {self.length})")
        byte, shift = divmod(index, self._per_byte)
        return (self._data[byte] >> (shift * self.bits)) & self._mask

    def poke(self, index: int, value: int) -> None:
        """Write without charging a memory access."""
        if not 0 <= index < self.length:
            raise IndexError(f"index {index} out of range [0, {self.length})")
        if not 0 <= value <= self.max_value:
            raise ValueError(f"value {value} does not fit in {self.bits} bits")
        byte, shift = divmod(index, self._per_byte)
        offset = shift * self.bits
        self._data[byte] = (self._data[byte] & ~(self._mask << offset)) | (
            value << offset
        )

    def distinct_words(self, indices: Sequence[int]) -> int:
        """How many distinct 64-bit SRAM words ``indices`` touch.

        This is the explicit word-read dedup PER_WORD charging is defined
        by: a candidate list that hits the same word twice (or the same
        counter twice) costs one word read, not two.  Both the Python and
        the NumPy bulk accessors bill through this definition.
        """
        per_word = _WORD_BITS // self.bits
        return len({index // per_word for index in indices})

    def _distinct_words_array(self, np: Any, indices: Any) -> int:
        per_word = _WORD_BITS // self.bits
        return int(np.unique(indices // per_word).size)

    # -- accounted access ----------------------------------------------------

    def get(self, index: int) -> int:
        """Read one counter, charging one on-chip read."""
        if self._mem is not None:
            self._mem.record(self._tier, _READ, self._label)
        return self.peek(index)

    def set(self, index: int, value: int) -> None:
        """Write one counter, charging one on-chip write."""
        if self._mem is not None:
            self._mem.record(self._tier, _WRITE, self._label)
        self.poke(index, value)

    def get_many(self, indices: List[int]) -> List[int]:
        """Read several counters: one charged access each, as ``get`` would
        charge them, recorded in a single call whatever the charging mode."""
        if not indices:
            return []
        if self._mem is not None:
            self._mem.record(self._tier, _READ, self._label, len(indices))
        return self._unpack(indices)

    def get_block(self, indices: Sequence[int]) -> List[int]:
        """Bulk read for the batched kernels: values in one pass, charged
        according to the accountant's :class:`CounterCharging` mode.

        In the default ``PER_COUNTER`` mode the charge is exactly what
        ``get_many`` would record (one access per counter), so batched and
        scalar operations are indistinguishable to the paper figures.  In
        ``PER_WORD`` mode the charge is one access per distinct 64-bit word
        touched — the word-wide read port a hardware counter block exposes,
        with repeated words deduplicated by :meth:`distinct_words`.
        """
        if self._mem is not None and indices:
            self._mem.charge_counter_block(
                self._tier,
                Op.READ,
                self._label,
                len(indices),
                lambda: self.distinct_words(indices),
            )
        if not indices:
            return []
        return self._unpack(indices)

    def _unpack(self, indices: Sequence[int]) -> List[int]:
        """The counters at a non-empty ``indices``, bounds-checked and
        unaccounted, in one pass over the packed bytes."""
        if min(indices) < 0 or max(indices) >= self.length:
            bad = [i for i in indices if not 0 <= i < self.length]
            raise IndexError(f"index {bad[0]} out of range [0, {self.length})")
        data = self._data
        bits = self.bits
        mask = self._mask
        shift = self._index_shift
        slot_mask = self._per_byte - 1
        return [
            (data[index >> shift] >> ((index & slot_mask) * bits)) & mask
            for index in indices
        ]

    def set_block(self, indices: Sequence[int], value: int) -> None:
        """Bulk write of one ``value`` to several counters, charged like
        :meth:`get_block` (per counter, or per distinct word in
        ``PER_WORD`` mode)."""
        if self._mem is not None and indices:
            self._mem.charge_counter_block(
                self._tier,
                Op.WRITE,
                self._label,
                len(indices),
                lambda: self.distinct_words(indices),
            )
        for index in indices:
            self.poke(index, value)

    # -- vectorized access (NumPy engine) ------------------------------------

    def peek_array(self) -> Any:
        """Every counter as a NumPy ``uint8`` array, unaccounted: the
        packed bytes unpacked in one shot (for invariant checks)."""
        np = numpy_or_none()
        if np is None:  # pragma: no cover - callers gate on numpy
            raise RuntimeError("peek_array requires numpy")
        view = np.frombuffer(self._data, dtype=np.uint8)
        shifts = np.arange(self._per_byte, dtype=np.uint8) * np.uint8(self.bits)
        unpacked = (view[:, None] >> shifts) & np.uint8(self._mask)
        return unpacked.reshape(-1)[: self.length]

    def get_block_array(self, indices: Any) -> Any:
        """Vectorized :meth:`get_block` over a NumPy integer index array.

        Returns an integer array of counter values in index order.  The
        charge is identical to :meth:`get_block` on ``indices.tolist()``
        in both charging modes: ``PER_COUNTER`` bills ``indices.size``
        reads, ``PER_WORD`` bills one read per distinct word (deduped with
        ``np.unique``, matching :meth:`distinct_words` exactly).
        """
        np = numpy_or_none()
        if np is None:  # pragma: no cover - callers gate on the engine
            raise RuntimeError("get_block_array requires numpy")
        n = int(indices.size)
        if n == 0:
            return indices
        lo, hi = int(indices.min()), int(indices.max())
        if lo < 0 or hi >= self.length:
            bad = lo if lo < 0 else hi
            raise IndexError(f"index {bad} out of range [0, {self.length})")
        if self._mem is not None:
            self._mem.charge_counter_block(
                self._tier,
                Op.READ,
                self._label,
                n,
                lambda: self._distinct_words_array(np, indices),
            )
        view = np.frombuffer(self._data, dtype=np.uint8)
        offsets = (indices & (self._per_byte - 1)) * self.bits
        return (view[indices >> self._index_shift] >> offsets) & self._mask

    def set_block_array(self, indices: Any, value: int) -> None:
        """Vectorized :meth:`set_block`: one ``value`` to an index array.

        Duplicate indices (and distinct counters sharing a byte) are
        handled with unbuffered ``ufunc.at`` read-modify-writes, so the
        result is identical to the scalar loop.  Charging matches
        :meth:`set_block` in both modes.
        """
        np = numpy_or_none()
        if np is None:  # pragma: no cover - callers gate on the engine
            raise RuntimeError("set_block_array requires numpy")
        n = int(indices.size)
        if n == 0:
            return
        if not 0 <= value <= self.max_value:
            raise ValueError(f"value {value} does not fit in {self.bits} bits")
        lo, hi = int(indices.min()), int(indices.max())
        if lo < 0 or hi >= self.length:
            bad = lo if lo < 0 else hi
            raise IndexError(f"index {bad} out of range [0, {self.length})")
        if self._mem is not None:
            self._mem.charge_counter_block(
                self._tier,
                Op.WRITE,
                self._label,
                n,
                lambda: self._distinct_words_array(np, indices),
            )
        view = np.frombuffer(self._data, dtype=np.uint8)
        byte_idx = indices >> self._index_shift
        offsets = ((indices & (self._per_byte - 1)) * self.bits).astype(np.uint8)
        np.bitwise_and.at(
            view, byte_idx, (~(self._mask << offsets)).astype(np.uint8)
        )
        np.bitwise_or.at(view, byte_idx, (value << offsets).astype(np.uint8))

    # -- bulk helpers --------------------------------------------------------

    def fill(self, value: int = 0) -> None:
        """Unaccounted bulk reset (table construction / clear).

        Rewrites the backing store *in place* (one C-level slice
        assignment), so NumPy views created over ``_data`` by the
        vectorized accessors observe the reset instead of dangling on a
        replaced buffer.
        """
        if not 0 <= value <= self.max_value:
            raise ValueError(f"value {value} does not fit in {self.bits} bits")
        pattern = 0
        for slot in range(self._per_byte):
            pattern |= value << (slot * self.bits)
        self._data[:] = bytes((pattern,)) * len(self._data)

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[int]:
        return (self.peek(i) for i in range(self.length))

    def nonzero_count(self) -> int:
        """How many counters are non-zero (unaccounted; used by tests)."""
        return sum(1 for v in self if v)

    @property
    def storage_bytes(self) -> int:
        """Bytes of on-chip SRAM this array would occupy."""
        return len(self._data)


class BitArray(PackedArray):
    """1-bit specialisation used for tombstone marks and stash flags."""

    def __init__(
        self,
        length: int,
        mem: Optional[MemoryModel] = None,
        tier: Tier = Tier.ON_CHIP,
        label: str = "bit",
    ) -> None:
        super().__init__(length, bits=1, mem=mem, tier=tier, label=label)

    def test(self, index: int) -> bool:
        return bool(self.peek(index))

    def mark(self, index: int) -> None:
        self.poke(index, 1)

    def clear_bit(self, index: int) -> None:
        self.poke(index, 0)
