"""Scheduling: when to compact, when to checkpoint.

:class:`MaintenanceDaemon` is deliberately not a thread.  The serving
stack's concurrency unit is the one writer per shard (the event loop in
single-process mode, which applies writes inline at admission; a worker
process in multi-process mode), and the one invariant everything else
leans on is that exactly one context ever mutates a shard.  A background
thread would break that or need locks; so the daemon is instead *ticked*
by the writer after each shard's write run.  Each tick does bounded,
per-shard work; reads never tick it.

Policies are the classic pair: compact when the garbage ratio crosses a
threshold (and the log is big enough to be worth it), checkpoint every N
appends plus immediately after a compaction (compaction rewrites the
image, invalidating any prior checkpoint, so an un-checkpointed compacted
store would pay a full replay on the next restart).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..apps.kvstore import LogStructuredStore
from .checkpoint import Checkpointer
from .compactor import Compactor, InterruptHook


@dataclass(frozen=True)
class MaintenanceConfig:
    """Thresholds for the maintenance daemon.

    ``compact_at`` is a garbage-ratio threshold in [0, 1]; a negative
    value disables compaction.  ``checkpoint_every`` is the append count
    between checkpoints; 0 disables checkpointing.  With checkpointing
    on, every compaction is followed at once by a checkpoint: the index
    keeps history the compacted log no longer holds, so only a
    checkpoint brings the compacted shard back exactly as it was.
    """

    compact_at: float = 0.5
    compact_min_records: int = 128
    checkpoint_every: int = 512

    @classmethod
    def aggressive(cls) -> "MaintenanceConfig":
        """Thresholds low enough for chaos tests to hit both paths fast."""
        return cls(compact_at=0.25, compact_min_records=32, checkpoint_every=64)

    @property
    def enabled(self) -> bool:
        return self.compact_at >= 0.0 or self.checkpoint_every > 0

    def describe(self) -> str:
        return (
            f"maintenance(compact_at={self.compact_at}, "
            f"min_records={self.compact_min_records}, "
            f"checkpoint_every={self.checkpoint_every})"
        )


class MaintenanceDaemon:
    """Ticks compaction/checkpoint policies for one or more shards."""

    def __init__(
        self,
        config: Optional[MaintenanceConfig] = None,
        interrupt: Optional[InterruptHook] = None,
        checkpoint_writer: Optional[Callable[[int, bytes], None]] = None,
    ) -> None:
        self.config = config if config is not None else MaintenanceConfig()
        self._interrupt = interrupt
        self._checkpoint_writer = checkpoint_writer
        self._compactor = Compactor()
        self._checkpointer = Checkpointer()
        self._on_commit: Optional[Callable[[LogStructuredStore], None]] = None

    def set_commit_hook(
        self, hook: Optional[Callable[[LogStructuredStore], None]]
    ) -> None:
        """Called after a compaction commit (workers swap the shard file)."""
        self._on_commit = hook

    # ------------------------------------------------------------------

    def _write_checkpoint(self, store: LogStructuredStore, shard: int) -> None:
        writer = None
        if self._checkpoint_writer is not None:
            writer = lambda data: self._checkpoint_writer(shard, data)  # noqa: E731
        self._checkpointer.checkpoint(store, writer=writer)

    def maybe_run(self, store: LogStructuredStore, shard: int = 0) -> Dict[str, Any]:
        """One scheduling tick for ``store``.

        Returns ``{"compacted": dropped-or-None, "checkpointed": bool}``.
        An :class:`~repro.faults.InjectedCrash` from either task
        propagates to the caller, which owns shard recovery; the write
        that preceded this tick is already durable either way.
        """
        out: Dict[str, Any] = {"compacted": None, "checkpointed": False}
        cfg = self.config
        if (
            cfg.compact_at >= 0.0
            and store.log_records >= cfg.compact_min_records
            and store.garbage_ratio >= cfg.compact_at
        ):
            out["compacted"] = self._compactor.compact(
                store, interrupt=self._interrupt, on_commit=self._on_commit
            )
            if cfg.checkpoint_every > 0:
                self._write_checkpoint(store, shard)
                out["checkpointed"] = True
                return out
        if (
            cfg.checkpoint_every > 0
            and store.appends_since_checkpoint >= cfg.checkpoint_every
        ):
            self._write_checkpoint(store, shard)
            out["checkpointed"] = True
        return out


__all__ = ["MaintenanceConfig", "MaintenanceDaemon"]
