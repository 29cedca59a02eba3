"""Seeded hash families used to derive the d candidate buckets.

Cuckoo hashing needs ``d`` independent hash functions ``h_1..h_d`` mapping a
key to a bucket index in each sub-table.  A :class:`HashFamily` produces the
``d`` functions from a seed; every table in this library takes a family so
experiments can swap hash implementations without touching table code.

Keys are 64-bit integers throughout the library (the DocWords workload packs
DocID and WordID into one).  :func:`canonical_key` converts ints, bytes and
strings into that canonical form.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from hashlib import blake2b
from typing import Any, List, Sequence, Tuple, Union

from .._numpy import numpy_or_none

MASK64 = (1 << 64) - 1

Key = int
KeyLike = Union[int, bytes, str]


def canonical_key(key: KeyLike) -> Key:
    """Map an int/bytes/str key to the canonical unsigned 64-bit integer.

    Ints are reduced mod 2^64; bytes and strings are digested with an
    8-byte BLAKE2b, which is stable across processes (unlike built-in
    ``hash``) and runs in C regardless of key length — this function sits
    on every operation's hot path.
    """
    if type(key) is int:  # exact type: the hot path, and excludes bool
        return key & MASK64
    if isinstance(key, bool):
        raise TypeError("bool is not a valid key type")
    if isinstance(key, int):
        return key & MASK64
    if isinstance(key, str):
        key = key.encode("utf-8")
    if isinstance(key, bytes):
        return int.from_bytes(blake2b(key, digest_size=8).digest(), "little")
    raise TypeError(f"unsupported key type: {type(key).__name__}")


class HashFunction(ABC):
    """One seeded hash function mapping a 64-bit key to a 64-bit value."""

    @abstractmethod
    def hash64(self, key: Key) -> int:
        """Return a 64-bit hash of ``key``."""

    def bucket(self, key: Key, n_buckets: int) -> int:
        """Reduce the 64-bit hash to a bucket index in ``[0, n_buckets)``.

        ``n_buckets`` must be positive; tables validate it once at
        construction so this per-operation path carries no check.
        """
        return self.hash64(key) % n_buckets


class HashFamily(ABC):
    """Factory for ``d`` independent hash functions."""

    name: str = "family"

    @abstractmethod
    def make(self, index: int, seed: int) -> HashFunction:
        """Build the ``index``-th function for a family seeded with ``seed``."""

    def functions(self, d: int, seed: int) -> List[HashFunction]:
        """The full list of ``d`` functions for one table instance."""
        if d <= 0:
            raise ValueError("d must be positive")
        return [self.make(i, seed) for i in range(d)]

    def candidates(
        self, functions: Sequence[HashFunction], key: Key, n_buckets: int
    ) -> List[int]:
        """All d candidate bucket indices of ``key`` in one call.

        Semantically identical to ``[fn.bucket(key, n_buckets) for fn in
        functions]``; families whose members share base hashes override this
        to digest the key fewer times (double hashing needs two digests for
        any d).  ``functions`` must be a list this family built.
        """
        return [fn.hash64(key) % n_buckets for fn in functions]

    def candidates_many(
        self, functions: Sequence[HashFunction], keys: Sequence[Key], n_buckets: int
    ) -> List[List[int]]:
        """:meth:`candidates` for a whole batch of canonical keys.

        Families override this to hoist per-key call overhead out of the
        batched kernels' hottest loop.
        """
        return [self.candidates(functions, key, n_buckets) for key in keys]

    def candidate_ids(
        self, functions: Sequence[HashFunction], keys: Sequence[Key], n_buckets: int
    ) -> List[int]:
        """Global candidate ids of a batch of canonical keys as one flat
        list, ``d`` per key in key order: ``t * n_buckets + c`` for each
        sub-table ``t`` and candidate ``c``."""
        return [table * n_buckets + raw[table]
                for raw in self.candidates_many(functions, keys, n_buckets)
                for table in range(len(functions))]

    def candidates_matrix(
        self, functions: Sequence[HashFunction], keys: Any, n_buckets: int
    ) -> Any:
        """Candidate buckets for a ``uint64`` NumPy key array, as a
        ``(len(keys), d)`` ``int64`` matrix.

        Row ``i`` equals ``candidates(functions, int(keys[i]), n_buckets)``
        — the vectorized engine relies on that equivalence.  This base
        implementation is the *loop fallback* (families without a closed
        arithmetic form, e.g. tabulation and BOB, keep it): it round-trips
        through :meth:`candidates_many` and only pays NumPy conversion at
        the edges.  SplitMix64 and double hashing override it with true
        array kernels.
        """
        np = numpy_or_none()
        if np is None:  # pragma: no cover - callers gate on the engine
            raise RuntimeError("candidates_matrix requires numpy")
        rows = self.candidates_many(functions, keys.tolist(), n_buckets)
        return np.array(rows, dtype=np.int64).reshape(len(rows), len(functions))

    def candidates_paged(
        self, pages: Sequence[Tuple[Sequence[HashFunction], int]], keys: Any, page_of: Any
    ) -> Any:
        """Global candidate ids of a ``uint64`` key array spread over the
        pages of cuckoo hashing with pages, as a ``(len(keys), d)`` ``int64``
        matrix: ``pages[p]`` is page ``p``'s ``(functions, n_buckets)``,
        ``page_of[i]`` is key ``i``'s page, and row ``i`` holds
        ``t * n_buckets + c`` for each sub-table ``t`` and candidate ``c``.
        This base version is the loop fallback: one
        :meth:`candidates_matrix` per page present."""
        np = numpy_or_none()
        if np is None:  # pragma: no cover - callers gate on the engine
            raise RuntimeError("candidates_paged requires numpy")
        d = len(pages[0][0])
        out = np.empty((int(keys.size), d), dtype=np.int64)
        for page, (functions, n_buckets) in enumerate(pages):
            mask = page_of == page
            if mask.any():
                mat = self.candidates_matrix(functions, keys[mask], n_buckets)
                out[mask] = mat + np.arange(d, dtype=np.int64) * np.int64(n_buckets)
        return out


def candidate_buckets(
    functions: Sequence[HashFunction], key: Key, n_buckets: int
) -> List[int]:
    """Candidate bucket index per sub-table for ``key``."""
    return [fn.bucket(key, n_buckets) for fn in functions]
