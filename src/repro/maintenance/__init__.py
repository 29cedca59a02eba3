"""Background maintenance for durable log-structured stores.

The serving stack (PRs 3-5) made the value log durable and the index
recoverable, but left two costs growing without bound: dead log space
(every update or delete strands its old record forever) and restart time
(recovery replays the entire byte image).  This package adds the two
classic maintenance loops that bound them, plus the scheduling glue:

* :class:`Compactor` — rewrites only the live records into a fresh CRC'd
  log segment and atomically swaps it in, patching every surviving key's
  offset in the index.  Crash-safe by construction: nothing the old log
  or index owns is mutated until the commit point, so a crash at any
  record-copy boundary leaves the old image authoritative.
* :class:`Checkpointer` — serializes periodic index checkpoints (via
  :mod:`repro.core.snapshot`) so recovery becomes checkpoint-load plus a
  short tail replay instead of a full log rebuild.
* :class:`MaintenanceDaemon` / :class:`MaintenanceConfig` — garbage-ratio
  and append-count policies deciding *when* each runs, consulted by each
  shard's one writer (single-process and worker serving) between write
  runs.

Every boundary is fault-plan injectable (``crash_during_compaction``,
``torn_checkpoint``, ``kill_worker_during`` — see :mod:`repro.faults`),
which is what lets the chaos suites prove crash-at-every-boundary safety.
"""

from .checkpoint import Checkpointer
from .compactor import Compactor
from .daemon import MaintenanceConfig, MaintenanceDaemon

__all__ = [
    "Checkpointer",
    "Compactor",
    "MaintenanceConfig",
    "MaintenanceDaemon",
]
