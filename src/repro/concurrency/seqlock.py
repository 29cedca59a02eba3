"""Reusable seqlock protocol (reader side).

A seqlock guards a region that one writer mutates in place while many
readers probe it without locks: the writer increments a version word
before and after every mutation batch (odd = in flux), and a reader
snapshots the version, performs its read, and accepts the result only if
the version is even and unchanged across the read — otherwise the read
may have straddled a half-applied write and must be retried.

:class:`SeqlockRegion` packages the reader loop over an abstract version
cell (a callable); it drives the version counter of
:class:`~repro.concurrency.concurrent_table.ConcurrentMcCuckoo`.

Exhaustion is loud: a read that cannot validate within ``max_retries``
attempts raises :class:`SeqlockContentionError` instead of silently
degrading to an unversioned (potentially torn) read — the caller decides
whether to propagate, retry later, or fall back to a slower coherent
path.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, TypeVar

from ..core.errors import ReproError

T = TypeVar("T")


class SeqlockContentionError(ReproError):
    """A seqlock read could not validate within its retry budget.

    Carries ``retries`` (the attempts burned) so callers can account the
    contention before falling back.  Raised instead of returning a value
    read under an odd or moving version — a torn read must never leak.
    """

    def __init__(self, message: str, retries: int = 0) -> None:
        super().__init__(message)
        self.retries = retries


class SeqlockRegion:
    """Reader-side seqlock loop over an abstract version cell.

    Parameters
    ----------
    load_version:
        Zero-argument callable returning the current version as an int.
        For an in-process region this reads an attribute; for a shared
        memory region it unpacks a u64 from the mapped buffer.  Each
        retry re-invokes it, so the callable must observe fresh state.
    max_retries:
        Default validation budget per :meth:`read` call.

    ``retries`` accumulates every retry across the region's lifetime —
    ``ConcurrentMcCuckoo.lookup_retries`` surfaces it.
    """

    def __init__(
        self, load_version: Callable[[], int], max_retries: int = 16
    ) -> None:
        if max_retries < 1:
            raise ValueError("max_retries must be positive")
        self._load = load_version
        self.max_retries = max_retries
        self.retries = 0

    def read(
        self, body: Callable[[], T], max_retries: Optional[int] = None
    ) -> Tuple[T, int]:
        """Run ``body`` under the seqlock; returns ``(result, retries)``.

        ``body`` runs only when the version is even, and its result is
        accepted only if the version is unchanged afterwards.  Raises
        :class:`SeqlockContentionError` once the budget is exhausted;
        the cumulative ``retries`` counter is updated either way.
        """
        limit = self.max_retries if max_retries is None else max_retries
        if limit < 1:
            raise ValueError("max_retries must be positive")
        spent = 0
        for _ in range(limit):
            before = self._load()
            if before & 1:
                spent += 1
                continue  # writer mid-step; a real reader would spin
            result = body()
            if self._load() == before:
                self.retries += spent
                return result, spent
            spent += 1
        self.retries += spent
        raise SeqlockContentionError(
            f"seqlock read failed to validate after {spent} retries", spent
        )


__all__ = ["SeqlockContentionError", "SeqlockRegion"]
