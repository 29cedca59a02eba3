"""SplitMix64-style multiply-xorshift hashing — the library default.

The paper's software experiments use BOB hash; any uniform 64-bit hash gives
the same table behaviour, and SplitMix64's finalizer is the fastest
high-quality option in pure Python, so it is the default family for
experiments.  (BOB hash itself is in :mod:`repro.hashing.bob` and is used by
the hash-quality tests and available to every table.)
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from .._numpy import numpy_or_none
from .family import MASK64, HashFamily, HashFunction, Key

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_ARRAY_CONSTANTS: Optional[Tuple[Any, ...]] = None


def splitmix64(x: int) -> int:
    """One round of the SplitMix64 output function."""
    x = (x + _GOLDEN) & MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & MASK64
    return x ^ (x >> 31)


def splitmix64_array(x: Any) -> Any:
    """:func:`splitmix64` over a ``uint64`` NumPy array.

    ``uint64`` arithmetic wraps modulo 2^64, which *is* the scalar
    version's ``& MASK64``, so the two agree bit-for-bit on every input.
    """
    global _ARRAY_CONSTANTS
    if _ARRAY_CONSTANTS is None:
        np = numpy_or_none()
        if np is None:  # pragma: no cover - callers gate on the engine
            raise RuntimeError("splitmix64_array requires numpy")
        # Built once: making the NumPy scalars costs as much as the
        # arithmetic on a short array.
        _ARRAY_CONSTANTS = tuple(
            np.uint64(c) for c in (_GOLDEN, 30, _MIX1, 27, _MIX2, 31)
        )
    golden, s30, mix1, s27, mix2, s31 = _ARRAY_CONSTANTS
    x = x + golden
    x = (x ^ (x >> s30)) * mix1
    x = (x ^ (x >> s27)) * mix2
    return x ^ (x >> s31)


class SplitMixHash(HashFunction):
    """A single SplitMix64-derived hash function with a 64-bit seed."""

    __slots__ = ("seed",)

    def __init__(self, seed: int) -> None:
        self.seed = seed & MASK64

    def hash64(self, key: Key) -> int:
        return splitmix64(key ^ self.seed)


class SplitMixFamily(HashFamily):
    """Derives per-function seeds by walking SplitMix64 from the family seed."""

    name = "splitmix"
    # candidates_paged's last page table: (pages, seeds, sizes, offsets)
    _page_table: Optional[Tuple[Any, ...]] = None

    def make(self, index: int, seed: int) -> SplitMixHash:
        derived = seed & MASK64
        for _ in range(index + 1):
            derived = splitmix64(derived + _GOLDEN)
        return SplitMixHash(derived)

    def candidates(
        self, functions: Sequence[HashFunction], key: Key, n_buckets: int
    ) -> List[int]:
        """The default family sits on every operation's hot path, so the
        finalizer is inlined here: one loop body per function instead of
        two calls (``hash64`` → ``splitmix64``) each."""
        out: List[int] = []
        for fn in functions:
            x = (key ^ fn.seed) + _GOLDEN & MASK64  # type: ignore[attr-defined]
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
            out.append((x ^ (x >> 31)) % n_buckets)
        return out

    def candidates_many(
        self, functions: Sequence[HashFunction], keys: Sequence[Key], n_buckets: int
    ) -> List[List[int]]:
        seeds = [fn.seed for fn in functions]  # type: ignore[attr-defined]
        out: List[List[int]] = []
        append = out.append
        for key in keys:
            row: List[int] = []
            for seed in seeds:
                x = (key ^ seed) + _GOLDEN & MASK64
                x = ((x ^ (x >> 30)) * _MIX1) & MASK64
                x = ((x ^ (x >> 27)) * _MIX2) & MASK64
                row.append((x ^ (x >> 31)) % n_buckets)
            append(row)
        return out

    def candidate_ids(
        self, functions: Sequence[HashFunction], keys: Sequence[Key], n_buckets: int
    ) -> List[int]:
        """Flat global ids in one loop, no per-key row list."""
        columns = [(fn.seed, table * n_buckets)  # type: ignore[attr-defined]
                   for table, fn in enumerate(functions)]
        out: List[int] = []
        append = out.append
        for key in keys:
            for seed, base in columns:
                x = (key ^ seed) + _GOLDEN & MASK64
                x = ((x ^ (x >> 30)) * _MIX1) & MASK64
                x = ((x ^ (x >> 27)) * _MIX2) & MASK64
                append(base + (x ^ (x >> 31)) % n_buckets)
        return out

    def candidates_matrix(
        self, functions: Sequence[HashFunction], keys: Any, n_buckets: int
    ) -> Any:
        """True array kernel: one finalizer pass per sub-table over the
        whole key array, no per-key Python at all."""
        np = numpy_or_none()
        if np is None:  # pragma: no cover - callers gate on the engine
            raise RuntimeError("candidates_matrix requires numpy")
        n = np.uint64(n_buckets)
        out = np.empty((int(keys.size), len(functions)), dtype=np.int64)
        for column, fn in enumerate(functions):
            digest = splitmix64_array(keys ^ np.uint64(fn.seed))  # type: ignore[attr-defined]
            out[:, column] = (digest % n).astype(np.int64)
        return out

    def candidates_paged(
        self, pages: Sequence[Tuple[Sequence[HashFunction], int]], keys: Any, page_of: Any
    ) -> Any:
        """One 2-D finalizer pass over every key and sub-table at once:
        each row is xored with its own page's seeds and reduced by its own
        page's bucket count.  The page table's arrays are kept for the
        last ``pages`` seen, compared by value (each page's function list,
        which a table replaces when it rehashes, and its bucket count)."""
        np = numpy_or_none()
        if np is None:  # pragma: no cover - callers gate on the engine
            raise RuntimeError("candidates_paged requires numpy")
        table = self._page_table
        if table is None or table[0] != pages:
            seeds = np.array(
                [[fn.seed for fn in functions] for functions, _ in pages],  # type: ignore[attr-defined]
                dtype=np.uint64,
            )
            sizes = np.array([[n_buckets] for _, n_buckets in pages], dtype=np.uint64)
            offsets = np.arange(seeds.shape[1], dtype=np.uint64) * sizes
            table = self._page_table = (list(pages), seeds, sizes, offsets)
        _, seeds, sizes, offsets = table
        digest = splitmix64_array(keys[:, None] ^ seeds[page_of])
        return (digest % sizes[page_of] + offsets[page_of]).astype(np.int64)
