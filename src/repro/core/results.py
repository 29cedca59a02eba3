"""Operation outcome types shared by every table implementation."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional


class InsertStatus(Enum):
    """How an insertion ended."""

    STORED = "stored"
    """The item lives in the main table (possibly after kick-outs)."""

    STASHED = "stashed"
    """Collision resolution failed; the item went to the stash."""

    FAILED = "failed"
    """Collision resolution failed and no stash is configured."""

    UPDATED = "updated"
    """An upsert found the key already present and refreshed its value."""


@dataclass(frozen=True)
class InsertOutcome:
    """Result of one ``put``/``upsert`` call."""

    status: InsertStatus
    kicks: int = 0
    copies: int = 0
    collided: bool = False
    """True when every candidate held a sole copy (a "real" collision)."""

    @classmethod
    def updated(cls, copies: int) -> "InsertOutcome":
        """An in-place update of ``copies`` copies.  Outcomes are frozen,
        so the update kernel shares one per copy count."""
        outcome = _UPDATED.get(copies)
        if outcome is None:
            outcome = _UPDATED[copies] = cls(InsertStatus.UPDATED, copies=copies)
        return outcome

    @property
    def stored(self) -> bool:
        return self.status in (InsertStatus.STORED, InsertStatus.UPDATED)

    @property
    def stashed(self) -> bool:
        return self.status is InsertStatus.STASHED

    @property
    def failed(self) -> bool:
        return self.status is InsertStatus.FAILED


_UPDATED: "dict[int, InsertOutcome]" = {}


@dataclass(frozen=True)
class LookupOutcome:
    """Result of one ``lookup`` call."""

    found: bool
    value: Any = None
    from_stash: bool = False
    checked_stash: bool = False
    buckets_read: int = 0
    retries: int = 0
    """Seqlock validation retries burned before this outcome was accepted
    (only ever non-zero for reads through a concurrent/shared front)."""

    # The generated __init__ of a frozen dataclass routes every field
    # through object.__setattr__ (~1.5us per instance), which dominates the
    # batch kernels' per-key budget.  These hot-path constructors build the
    # two common shapes directly in __dict__; the instances are
    # indistinguishable (eq, hash, repr, immutability) from ones made by
    # __init__.

    @classmethod
    def hit(cls, value: Any, buckets_read: int) -> "LookupOutcome":
        """A main-table hit (the batch kernels' dominant outcome)."""
        self = object.__new__(cls)
        fields = self.__dict__
        fields["found"] = True
        fields["value"] = value
        fields["from_stash"] = False
        fields["checked_stash"] = False
        fields["buckets_read"] = buckets_read
        fields["retries"] = 0
        return self

    @classmethod
    def miss(cls, buckets_read: int) -> "LookupOutcome":
        """A miss that probed ``buckets_read`` buckets (no stash check)."""
        self = object.__new__(cls)
        fields = self.__dict__
        fields["found"] = False
        fields["value"] = None
        fields["from_stash"] = False
        fields["checked_stash"] = False
        fields["buckets_read"] = buckets_read
        fields["retries"] = 0
        return self


@dataclass(frozen=True)
class DeleteOutcome:
    """Result of one ``delete`` call."""

    deleted: bool
    copies_removed: int = 0
    from_stash: bool = False
    checked_stash: bool = False


@dataclass
class TableEvents:
    """Milestones recorded while a table fills up (Table I / Fig. 11).

    ``first_collision_items`` is the distinct-item count at the moment an
    insertion first found every candidate bucket holding a sole copy (the
    paper's "real collision"); ``first_failure_items`` is the count at the
    first insertion that had to stash/fail.
    """

    first_collision_items: Optional[int] = None
    first_failure_items: Optional[int] = None

    def note_collision(self, items: int) -> None:
        if self.first_collision_items is None:
            self.first_collision_items = items

    def note_failure(self, items: int) -> None:
        if self.first_failure_items is None:
            self.first_failure_items = items
