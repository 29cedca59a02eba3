"""Live shard migration between worker processes.

:class:`ReshardCoordinator` moves one shard from its owning worker to a
target worker while the server keeps serving, in phases framed over the
ordinary worker IPC links (``KIND_MIGRATE``):

1. **snapshot** — the source freezes maintenance for the shard (its log
   must stay append-only so delta marks remain valid byte offsets) and
   ships the full durable log image plus a mark (the image length),
   followed by a checkpoint of its index against that image.
2. **install** — the target adopts the shard from the snapshot —
   restoring the source's index from the shipped checkpoint, so the two
   indexes are identical even after a compaction on the source — takes
   a checkpoint against its own recovered image, and primes a delta
   buffer.
3. **delta / apply** — rounds of "records appended since mark" from the
   source, replayed on the target via the checkpoint (tail-only replay).
4. **fence** — the frontend holds new writes to the shard, flushes the
   coalesced runs, and submits a FENCE frame, all in one synchronous
   block; the source's FIFO inbox makes the fence ack a drain barrier
   (every write admitted before the fence has been applied when the ack
   is read).  One final delta/apply round then makes the target exact.
5. **flip** — :meth:`RoutingTable.reassign` bumps the routing epoch.
   This is the commit point: a failure before it aborts (routing
   unchanged, the source still owns the shard and its durable file);
   after it, activate/release are best-effort cleanup — a crashed
   target restarts and recovers the shard from the shared on-disk log
   file, which holds the complete pre-fence image.
6. **activate / release** — the target rewrites the shard's log file
   (temp file + atomic rename) and takes over its sink; the source
   drops its copy.

The coordinator captures both worker handles once, up front: if the
supervisor restarts either worker mid-migration the stale handle raises
:class:`WorkerDiedError` and the migration aborts cleanly — it can never
mis-apply a delta against a restarted incarnation.
"""

from __future__ import annotations

import asyncio
import struct
from dataclasses import dataclass, field
from typing import List, Optional

from ..core.errors import ConfigurationError
from .protocol import (
    FenceFrame,
    MigrateFrame,
    ProtocolError,
    decode_migration_frame,
    encode_fence,
    encode_migrate,
)
from .shm import RingFrameTooLarge, RingFullError
from .workers import (
    KIND_MIGRATE,
    MigrationError,
    WorkerDiedError,
    WorkerUnavailableError,
)

_MARK = struct.Struct(">Q")

#: everything a phase step can raise that means "this migration failed",
#: as opposed to a bug in the coordinator itself
MIGRATION_ERRORS = (
    MigrationError,
    WorkerDiedError,
    WorkerUnavailableError,
    ProtocolError,
    RingFullError,
    RingFrameTooLarge,
    ConnectionError,
    OSError,
    asyncio.TimeoutError,
)


@dataclass
class MigrationReport:
    """Outcome of one :meth:`ReshardCoordinator.migrate_shard` call."""

    shard: int
    source: int
    target: int
    committed: bool = False
    epoch_before: int = 0
    epoch_after: int = 0
    bytes_copied: int = 0
    """Snapshot image size shipped in the initial copy."""
    delta_bytes: int = 0
    """Total bytes shipped across all delta rounds (including the
    post-fence final round)."""
    phases: List[str] = field(default_factory=list)
    error: Optional[str] = None

    def render(self) -> str:
        verdict = "committed" if self.committed else "aborted"
        lines = [
            f"migration of shard {self.shard}: "
            f"worker {self.source} -> worker {self.target} [{verdict}]",
            f"  routing epoch   {self.epoch_before} -> {self.epoch_after}",
            f"  snapshot bytes  {self.bytes_copied}",
            f"  delta bytes     {self.delta_bytes}",
            f"  phases          {' '.join(self.phases) or '-'}",
        ]
        if self.error:
            lines.append(f"  error           {self.error}")
        return "\n".join(lines)


class ReshardCoordinator:
    """Drives live shard migrations over a :class:`WorkerServer`."""

    def __init__(self, server, phase_timeout: float = 10.0,
                 delta_rounds: int = 2) -> None:
        self.server = server
        self.phase_timeout = phase_timeout
        #: pre-fence catch-up rounds; more rounds shrink the write delta
        #: the fenced final round has to drain
        self.delta_rounds = max(1, delta_rounds)

    # ------------------------------------------------------------------

    async def migrate_shard(self, shard: int, target_worker: int
                            ) -> MigrationReport:
        server = self.server
        routing = server.routing
        if not 0 <= shard < server.config.n_shards:
            raise ConfigurationError(f"shard index {shard} out of range")
        if not 0 <= target_worker < server.n_workers:
            raise ConfigurationError(
                f"target worker {target_worker} out of range")
        source_worker = routing.worker_of_shard(shard)
        report = MigrationReport(
            shard=shard, source=source_worker, target=target_worker,
            epoch_before=routing.epoch, epoch_after=routing.epoch,
        )
        if source_worker == target_worker:
            report.error = "shard already lives on the target worker"
            return report
        # Capture both handles ONCE: a supervised restart swaps in a new
        # handle object, so any later call on these raises WorkerDiedError
        # instead of silently talking to a fresh incarnation.
        try:
            source = server.pool.handle_for_worker(source_worker)
            target = server.pool.handle_for_worker(target_worker)
        except WorkerUnavailableError as error:
            report.error = str(error)
            return report
        server.note_migration_start()
        fenced = False
        installed = False
        committed = False
        try:
            epoch = routing.epoch
            # 1) full image to the target
            answer = await self._phase(
                source, MigrateFrame("snapshot", shard, epoch))
            report.phases.append("snapshot")
            (mark,) = _MARK.unpack(answer.payload[:_MARK.size])
            report.bytes_copied = mark
            await self._phase(
                target, MigrateFrame("install", shard, epoch, answer.payload))
            installed = True
            report.phases.append("install")
            # 2) catch-up rounds while writes still flow to the source
            for _ in range(self.delta_rounds - 1):
                mark = await self._delta_round(
                    source, target, shard, epoch, mark, report)
            # 3) fence + flush in ONE synchronous block: no write can sit
            #    enqueued-but-unflushed when the FENCE frame enters the
            #    source's FIFO inbox behind every admitted write
            server.fence_shard(shard)
            fenced = True
            server._flush_runs()
            fence_future = source._submit(
                KIND_MIGRATE,
                encode_fence(FenceFrame("fence", shard, epoch)), ops=0)
            await asyncio.wait_for(self._fence_ack(source, fence_future),
                                   self.phase_timeout)
            report.phases.append("fence")
            # 4) the post-fence delta is exact: the source applied every
            #    write it will ever ack for this shard
            mark = await self._delta_round(
                source, target, shard, epoch, mark, report)
            # 5) COMMIT: flip routing; everything after is best-effort.
            report.epoch_after = routing.reassign(shard, target_worker)
            committed = True
            report.committed = True
        except MIGRATION_ERRORS as error:
            report.error = f"{type(error).__name__}: {error}" \
                if str(error) else type(error).__name__
            await self._abort(source, target, shard, routing.epoch,
                              installed)
            return report
        finally:
            if fenced:
                # lift even on an abort: parked writes re-route via the
                # (possibly unchanged) routing table
                server.lift_fence(shard)
            server.note_migration_end(committed)
        # post-commit cleanup: failures here cost only tidiness — the
        # target owns the shard and its restart path recovers from the
        # shared on-disk log file
        for handle, phase in ((target, "activate"), (source, "release")):
            try:
                await self._phase(
                    handle, MigrateFrame(phase, shard, report.epoch_after))
                report.phases.append(phase)
            except MIGRATION_ERRORS as error:
                report.phases.append(f"{phase}!")
                if report.error is None:
                    report.error = (
                        f"post-commit {phase} skipped: "
                        f"{type(error).__name__}: {error}")
        return report

    # ------------------------------------------------------------------

    async def _phase(self, handle, frame: MigrateFrame):
        answer = await asyncio.wait_for(
            handle.migrate(encode_migrate(frame)), self.phase_timeout)
        if not isinstance(answer, MigrateFrame) or answer.phase != frame.phase:
            raise MigrationError(
                f"worker {handle.worker_id} answered {frame.phase!r} "
                f"with {answer!r}")
        return answer

    async def _delta_round(self, source, target, shard: int, epoch: int,
                           mark: int, report: MigrationReport) -> int:
        answer = await self._phase(
            source,
            MigrateFrame("delta", shard, epoch, _MARK.pack(mark)))
        report.phases.append("delta")
        (new_mark,) = _MARK.unpack(answer.payload[:_MARK.size])
        report.delta_bytes += len(answer.payload) - _MARK.size
        await self._phase(
            target, MigrateFrame("apply", shard, epoch, answer.payload))
        report.phases.append("apply")
        return new_mark

    @staticmethod
    async def _fence_ack(source, future) -> None:
        kind, payload = await future
        if kind != KIND_MIGRATE:
            raise MigrationError(
                f"worker {source.worker_id} fence answered with kind {kind}")
        answer = decode_migration_frame(payload)
        if not isinstance(answer, FenceFrame) or answer.action != "ack":
            raise MigrationError(
                f"worker {source.worker_id} fence answered {answer!r}")

    async def _abort(self, source, target, shard: int, epoch: int,
                     installed: bool) -> None:
        """Best-effort rollback on both sides; idempotent and non-raising."""
        sides = [source] if not installed else [source, target]
        for handle in sides:
            try:
                await asyncio.wait_for(
                    handle.migrate(encode_migrate(
                        MigrateFrame("abort", shard, epoch))),
                    self.phase_timeout)
            except MIGRATION_ERRORS:
                pass


__all__ = [
    "MIGRATION_ERRORS",
    "MigrationReport",
    "ReshardCoordinator",
]
