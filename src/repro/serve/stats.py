"""Per-operation serving counters, exposed through the STATS verb.

The server owns one :class:`ServeStats` and bumps it on every request;
:meth:`ServeStats.snapshot` flattens the counters into the ``str → number``
dict that travels inside a ``STATS_OK`` frame.  Index-level gauges (items,
load, stash population, writer-queue depths) and durable-log maintenance
gauges (``store_log_bytes``, ``store_dead_bytes``, ``store_compactions``,
``store_checkpoints``, ``store_last_checkpoint_age_s``) are merged in by
the server at snapshot time, so a client sees one coherent view of the
serving path *and* the McCuckoo machinery under it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class ServeStats:
    """Monotonic counters for one server's lifetime."""

    connections_opened: int = 0
    connections_rejected: int = 0
    requests: int = 0

    gets: int = 0
    get_hits: int = 0
    get_misses: int = 0

    puts: int = 0
    put_creates: int = 0
    put_updates: int = 0
    put_kicks: int = 0
    put_stashed: int = 0

    deletes: int = 0
    delete_hits: int = 0
    delete_misses: int = 0

    batches: int = 0
    batch_ops: int = 0
    stats_calls: int = 0

    # How ops were served, not what they answered, so two stats that
    # served the same ops one at a time and as runs still compare equal.
    get_walks: int = field(default=0, compare=False)
    """GET runs served as one walk of the store (a scalar GET is not)."""
    write_walks: int = field(default=0, compare=False)
    """Runs of one shard's writes applied as one walk of its write
    kernel (a scalar write is a run of one)."""

    busy_rejections: int = 0
    timeouts: int = 0
    bad_frames: int = 0
    internal_errors: int = 0

    injected_busy: int = 0
    injected_crashes: int = 0
    shard_recoveries: int = 0

    worker_restarts: int = 0
    """Worker processes the supervisor has restarted (multi-process mode);
    per-worker restart/queue/routing breakdowns ride in ``gauges`` as
    ``worker<N>_*`` entries."""

    replica_applies: int = 0
    """Writes a worker applied to a shard it hosts as a read replica
    (forwarded asynchronously after the owner's ack)."""
    replica_reads: int = 0
    """Reads the frontend served from a replica because the shard's
    owner was down (read-only degradation)."""

    gauges: Dict[str, float] = field(default_factory=dict)
    """Point-in-time values merged into the snapshot (queue depth, load...)."""

    # ------------------------------------------------------------------

    def note_get(self, hit: bool) -> None:
        self.gets += 1
        if hit:
            self.get_hits += 1
        else:
            self.get_misses += 1

    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Flatten counters plus gauges into one wire-ready dict."""
        flat: Dict[str, float] = {
            name: value
            for name, value in vars(self).items()
            if isinstance(value, (int, float))
        }
        flat.update(self.gauges)
        return flat
