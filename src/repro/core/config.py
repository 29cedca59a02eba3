"""Configuration enums shared by the table implementations, and the
:class:`TableConfig` value a resizable index is built from."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Any, Dict, Optional

from .engine import EngineConfig, EngineLike
from .errors import ConfigurationError
from .policies import POLICIES


class DeletionMode(Enum):
    """How a McCuckoo table supports deletions (§III.D of the paper).

    The choice trades deletion support against the strength of the
    counter-based "Bloom filter" lookup rule (principle 1: any zero counter
    proves the key was never inserted):

    * ``DISABLED`` — no deletions; principle 1 is sound and the stash can be
      screened purely from counter values.
    * ``RESET`` — deleting zeroes the counters of all copies; principle 1
      must be switched off (a zero may be a deletion scar), and stash
      screening falls back to the off-chip flags actually read.
    * ``TOMBSTONE`` — deleted buckets are marked: the mark reads as *zero
      for insertion* but *non-zero for lookup*, so principle 1 stays sound;
      the filter's selectivity fades as tombstones accumulate (the paper's
      "second solution", recommended when deletions are rare).
    """

    DISABLED = "disabled"
    RESET = "reset"
    TOMBSTONE = "tombstone"


class SiblingTracking(Enum):
    """How the other copies of an overwritten item are located (DESIGN.md §4).

    * ``READ`` — resolve which candidate buckets hold the victim's remaining
      copies from counter values alone when unambiguous, paying extra
      off-chip reads only for the rare ambiguous case.
    * ``METADATA`` — store a d-bit copy bitmap with every entry (the
      single-slot analogue of the paper's multi-slot sibling-slot metadata)
      and keep it fresh with cheap off-chip writes.
    """

    READ = "read"
    METADATA = "metadata"


class FailurePolicy(Enum):
    """What an insertion does when collision resolution exhausts maxloop."""

    STASH = "stash"
    """Move the displaced item to the stash (the paper's approach)."""

    REHASH = "rehash"
    """Read out every item and rebuild into a bigger table with new hashes
    (the traditional remedy the paper argues against)."""

    FAIL = "fail"
    """Raise :class:`~repro.core.errors.TableFullError`.  The displaced item
    is reported in the exception; the table keeps every other item."""


@dataclass(frozen=True)
class TableConfig:
    """Every parameter of one :class:`~repro.core.resize.ResizableMcCuckoo`.

    The index is a pure function of (config, write history): two tables
    built from equal configs and fed the same writes are identical, down
    to their RNG and kick-policy state.  So the config is the one value a
    store builds its index from, a snapshot records (:meth:`to_dict`,
    every field except ``engine``, which changes wall-clock only), and
    recovery compares before trusting a checkpoint.

    ``kick_policy`` is a registry name (see
    :data:`repro.core.policies.POLICIES`), never an instance: during a
    resize the active and retiring generations coexist, and each needs
    its own policy state.
    """

    n_buckets: int
    d: int = 3
    seed: int = 0
    maxloop: int = 500
    deletion_mode: DeletionMode = DeletionMode.RESET
    sibling_tracking: SiblingTracking = SiblingTracking.READ
    stash_buckets: int = 64
    on_failure: FailurePolicy = FailurePolicy.STASH
    kick_policy: Optional[str] = None
    grow_at: float = 0.85
    growth_factor: float = 2.0
    migrate_batch: int = 8
    engine: EngineConfig = field(default_factory=EngineConfig)

    def __post_init__(self) -> None:
        if not 0.0 < self.grow_at < 1.0:
            raise ConfigurationError("grow_at must be within (0, 1)")
        if self.growth_factor <= 1.0:
            raise ConfigurationError("growth_factor must exceed 1.0")
        if self.migrate_batch < 1:
            raise ConfigurationError("migrate_batch must be positive")
        if self.deletion_mode is DeletionMode.DISABLED:
            raise ConfigurationError(
                "online migration removes items from the old half, so the "
                "deletion mode cannot be DISABLED"
            )
        if self.kick_policy is not None and not isinstance(self.kick_policy, str):
            raise ConfigurationError(
                "pass kick_policy by registry name (a string): during a "
                "resize the active and retiring generations coexist, and a "
                "shared policy instance cannot be attached to both tables"
            )
        if self.kick_policy is not None and self.kick_policy not in POLICIES:
            raise ConfigurationError(
                f"unknown kick policy {self.kick_policy!r}; "
                f"options: {sorted(POLICIES)}"
            )
        object.__setattr__(self, "engine", EngineConfig.coerce(self.engine))

    def table_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for each generation's :class:`McCuckoo`
        (everything but its size and seed, which change per generation)."""
        return dict(
            d=self.d,
            maxloop=self.maxloop,
            deletion_mode=self.deletion_mode,
            sibling_tracking=self.sibling_tracking,
            stash_buckets=self.stash_buckets,
            on_failure=self.on_failure,
            kick_policy=self.kick_policy,
            engine=self.engine,
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form of every field except ``engine``."""
        out: Dict[str, Any] = {}
        for item in fields(self):
            if item.name != "engine":
                value = getattr(self, item.name)
                out[item.name] = value.value if isinstance(value, Enum) else value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any], engine: EngineLike = None) -> "TableConfig":
        """Inverse of :meth:`to_dict`, run on ``engine``."""
        return cls(
            **dict(
                data,
                deletion_mode=DeletionMode(data["deletion_mode"]),
                sibling_tracking=SiblingTracking(data["sibling_tracking"]),
                on_failure=FailurePolicy(data["on_failure"]),
            ),
            engine=EngineConfig.coerce(engine),
        )
