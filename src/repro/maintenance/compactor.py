"""Log compaction: rewrite live records into a fresh segment.

The store's append-only log accumulates one dead record per update or
delete; compaction reclaims that space by copying the bytes of only the
records the index still points at into a fresh image (verbatim: no
re-encode, no re-CRC) and swapping it in.  Byte offsets change, so the
index is patched afterwards in one walk of its buckets (both halves of a
resize, and the stash) with the old → new offset map.

Crash safety comes from ordering, not locking: the copy loop reads the
old log and appends to a private fresh one, touching nothing the store
owns; the commit (swap + offset patch) runs only after every live record
is safely in the new segment.  An :class:`~repro.faults.InjectedCrash` at
any record-copy boundary (the ``crash_during_compaction`` rule, or a
worker kill via the ``interrupt`` hook) therefore leaves the old image
authoritative and recovery sees the exact pre-compaction state.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..apps.kvstore import DurableValueLog, LogStructuredStore, ValueLog
from ..faults import InjectedCrash

#: hook signature: ``interrupt(site, shard)`` — consulted once per copied
#: record; worker processes use it to die mid-compaction under fault plans.
InterruptHook = Callable[[str, int], None]


class Compactor:
    """Rewrites the live records of a :class:`LogStructuredStore`."""

    def compact(
        self,
        store: LogStructuredStore,
        interrupt: Optional[InterruptHook] = None,
        on_commit: Optional[Callable[[LogStructuredStore], None]] = None,
    ) -> int:
        """Compact ``store`` in place; returns the records dropped.

        ``interrupt`` fires before each record copy (after the fault-plan
        consult); ``on_commit`` fires once, right after the new log is
        swapped in — worker processes use it to atomically replace the
        durable shard file with the compacted image.
        """
        old_log = store._log
        old_size = len(old_log)
        shard = store._shard_id
        faults = store._faults
        durable = isinstance(old_log, DurableValueLog)
        # The fresh segment is built with faults detached: the injection
        # point for compaction is the record-copy boundary below, not the
        # appends into a log nobody can observe until commit.
        fresh = DurableValueLog(shard=shard) if durable else ValueLog()

        moves = {}  # old offset -> new offset
        for _, offset in list(store._index.items()):
            if faults is not None and faults.on_compaction_record(shard):
                raise InjectedCrash(
                    f"crash during compaction after {len(moves)} of "
                    f"{len(store._index)} live records (shard {shard})"
                )
            if interrupt is not None:
                interrupt("compaction", shard)
            moves[offset] = fresh.copy_record(old_log, offset)

        # ---- commit: everything above was side-effect free on the store
        store._log = fresh
        store._index.remap_values(moves)
        if durable:
            fresh.attach_faults(faults, shard)
        # Any existing checkpoint hashed the old image prefix; its CRC can
        # no longer match, so drop the slot rather than keep a dud.
        store.clear_checkpoint()
        dropped = old_size - len(fresh)
        store.compactions += 1
        store.records_dropped += dropped
        if on_commit is not None:
            on_commit(store)
        return dropped


__all__ = ["Compactor", "InterruptHook"]
