"""Restart-time benchmark: full log replay vs checkpoint + tail replay.

The question this harness answers is the one the maintenance subsystem
exists for: *how long does a durable shard take to come back after a
crash, as its write history grows?*  Without checkpoints, recovery must
scan and replay every surviving record, so restart time grows with the
total historical log.  With a checkpoint, recovery CRCs the checkpointed
prefix (zlib, C speed), restores the index bit-for-bit from the snapshot,
and scans and replays only the bytes after it — so restart time should
track the live set and the tail, not the history.

For each history length the harness writes a fixed live set and then
overwrites it in passes (the shape of perfbench's ``restart-history``:
the log grows, the index does not) into a durable
:class:`~repro.apps.kvstore.LogStructuredStore`, takes one checkpoint
``tail_ops`` appends before the end (so the tail length is constant
across sizes), then times both recovery paths over the same surviving
image:

* ``full_replay_s``   — :meth:`LogStructuredStore.recover_with_checkpoint`
  without a checkpoint
* ``checkpoint_replay_s`` — the same call with the checkpoint

Both are best-of-N wall times: ``repeats`` trials of full replay and
``CHECKPOINT_TRIALS_PER_REPEAT`` times as many of checkpoint restart,
which is ~50x cheaper and whose flatness is the claim.  The headline reports the
speedup at the largest history and how much each path's restart time
grew from the smallest to the largest history: full replay grows with
the history, checkpoint restart should stay flat.
"""

from __future__ import annotations

import gc
import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Tuple

from .._numpy import numpy_available
from ..apps.kvstore import LogStructuredStore


@dataclass(frozen=True)
class BenchRecoveryConfig:
    """Workload shape for one restart-time sweep.

    ``live_keys`` keys are written once and then overwritten in order,
    pass after pass, until the log holds ``op_counts[i]`` records.  The
    index is sized for the live set, so only the history varies across
    sizes.
    """

    op_counts: Tuple[int, ...] = (2_000, 8_000, 32_000)
    live_keys: int = 1_000
    value_size: int = 32
    tail_ops: int = 64
    repeats: int = 5
    seed: int = 7

    @classmethod
    def quick(cls) -> "BenchRecoveryConfig":
        """Seconds-scale CI configuration: the two ends of the sweep."""
        return cls(op_counts=(2_000, 32_000), repeats=3)


def empty_store(config: BenchRecoveryConfig) -> LogStructuredStore:
    """A store built the way every history in the sweep is built."""
    return LogStructuredStore(
        expected_items=config.live_keys, seed=config.seed, durable=True
    )


def build_history(
    config: BenchRecoveryConfig, n_ops: int
) -> Tuple[bytes, bytes, int]:
    """Build one history: returns (image, checkpoint, log_records).

    Op ``i`` writes key ``i % live_keys``, with the checkpoint taken
    ``tail_ops`` appends before the end so the tail length is constant
    across history sizes.
    """
    store = empty_store(config)
    checkpoint_at = max(0, n_ops - config.tail_ops)
    checkpoint = b""
    for op in range(n_ops):
        key = op % config.live_keys
        value = b"%08d:%08d:" % (op, key)
        value += b"v" * max(0, config.value_size - len(value))
        store.put(key, value)
        if op + 1 == checkpoint_at:
            checkpoint = store.take_checkpoint()
    if not checkpoint:
        checkpoint = store.take_checkpoint()
    return store.log_bytes, checkpoint, store.log_records


CHECKPOINT_TRIALS_PER_REPEAT = 6


def _timed(task, *args) -> float:
    gc.collect()  # no collection owed by an earlier trial lands in this one
    start = time.perf_counter()
    task(*args)
    return time.perf_counter() - start


def run_bench_recovery(
    config: BenchRecoveryConfig, verbose: bool = False
) -> Dict[str, Any]:
    """The machine-readable report (see module docstring).

    Trials are interleaved across history sizes (every size once per
    round), so a slow stretch of a shared machine lands on all sizes
    alike instead of skewing the growth ratios.
    """
    histories = [build_history(config, n_ops) for n_ops in config.op_counts]

    def recover(history, checkpoint_or_none) -> Any:
        return empty_store(config).recover_with_checkpoint(
            history[0], checkpoint_or_none
        )

    full = [float("inf")] * len(histories)
    ckpt = [float("inf")] * len(histories)
    for trial in range(CHECKPOINT_TRIALS_PER_REPEAT * config.repeats):
        for at, history in enumerate(histories):
            if trial < config.repeats:
                full[at] = min(full[at], _timed(recover, history, None))
            ckpt[at] = min(ckpt[at], _timed(recover, history, history[1]))

    rows: List[Dict[str, Any]] = []
    for n_ops, history, full_s, ckpt_s in zip(
        config.op_counts, histories, full, ckpt
    ):
        image, checkpoint, log_records = history
        # sanity: the checkpointed path must actually use the checkpoint
        report = recover(history, checkpoint)
        assert report.checkpoint_loaded
        row = {
            "ops": n_ops,
            "log_bytes": len(image),
            "log_records": log_records,
            "checkpoint_bytes": len(checkpoint),
            "tail_records": report.tail_records_replayed,
            "tail_bytes_scanned": report.bytes_scanned,
            "full_replay_s": round(full_s, 6),
            "checkpoint_replay_s": round(ckpt_s, 6),
            "speedup": round(full_s / ckpt_s if ckpt_s else float("inf"), 3),
        }
        rows.append(row)
        if verbose:
            print(
                f"[bench-recovery] ops={n_ops:>7} log={len(image):>9}B "
                f"full={full_s * 1e3:8.2f}ms ckpt={ckpt_s * 1e3:8.2f}ms "
                f"speedup={row['speedup']:.2f}x"
            )
    first, last = rows[0], rows[-1]

    def growth(metric: str) -> float:
        base = first[metric]
        return round(last[metric] / base if base else float("inf"), 3)

    headline = {
        "cpus": os.cpu_count() or 1,
        "numpy": numpy_available(),
        "largest_ops": last["ops"],
        "speedup": last["speedup"],
        "full_replay_growth": growth("full_replay_s"),
        "checkpoint_replay_growth": growth("checkpoint_replay_s"),
        "history_growth": growth("log_bytes"),
    }
    return {"config": asdict(config), "rows": rows, "headline": headline}


def render_report(report: Dict[str, Any]) -> str:
    lines = [
        "restart time vs historical log size "
        "(full replay vs checkpoint + tail)",
        f"{'ops':>8} {'log bytes':>10} {'tail':>5} "
        f"{'full (ms)':>10} {'ckpt (ms)':>10} {'speedup':>8}",
    ]
    for row in report["rows"]:
        lines.append(
            f"{row['ops']:>8} {row['log_bytes']:>10} {row['tail_records']:>5} "
            f"{row['full_replay_s'] * 1e3:>10.2f} "
            f"{row['checkpoint_replay_s'] * 1e3:>10.2f} "
            f"{row['speedup']:>7.2f}x"
        )
    headline = report["headline"]
    lines.append(
        f"headline: {headline['speedup']:.2f}x at {headline['largest_ops']} "
        f"ops; over a {headline['history_growth']:.1f}x history, full replay "
        f"grew {headline['full_replay_growth']:.1f}x vs "
        f"{headline['checkpoint_replay_growth']:.1f}x checkpointed"
    )
    return "\n".join(lines)


def write_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")


def load_report(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


#: the workload fields two reports must share for their rows to compare;
#: ``op_counts`` and ``repeats`` may differ, since rows pair up by ``ops``
_SHAPE_FIELDS = ("live_keys", "value_size", "tail_ops", "seed")


def _shape(report: Dict[str, Any]) -> Dict[str, Any]:
    """The workload fields, and whether NumPy was importable: without it
    restore verifies each table with the per-bucket loop, several times
    slower than the array pre-screen."""
    shape = {name: report["config"][name] for name in _SHAPE_FIELDS}
    shape["numpy"] = report["headline"].get("numpy")
    return shape


def compare_to_baseline(
    report: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regression: float = 0.30,
) -> Tuple[bool, str]:
    """(ok, message): checkpointed restart may not slow down by more than
    ``max_regression`` against the committed baseline.  A size fails only
    when two readings agree: the restart time itself, and the restart
    time as a share of full replay of the same history in the same run.
    The first alone misreads a slower or busier machine than the
    baseline's as a regression, the second alone misreads a full replay
    that ran fast; a checkpoint restart that got slower moves both.  Rows
    are compared by ``ops`` when the two runs share the shape
    (:func:`_shape`), so the quick CI sweep is gated on the history sizes
    it shares with the full baseline; a differing shape is skipped and
    ok."""
    if _shape(report) != _shape(baseline):
        return True, f"baseline shape differs ({_shape(baseline)}); skipped"
    current = {row["ops"]: row for row in report["rows"]}
    reference = {row["ops"]: row for row in baseline["rows"]}
    shared = sorted(set(current) & set(reference))
    regressions = []
    for ops in shared:
        now, then = current[ops], reference[ops]
        if min(then["checkpoint_replay_s"], then["full_replay_s"],
               now["full_replay_s"]) <= 0:
            continue
        slower = now["checkpoint_replay_s"] / then["checkpoint_replay_s"] - 1.0
        share_now = now["checkpoint_replay_s"] / now["full_replay_s"]
        share_then = then["checkpoint_replay_s"] / then["full_replay_s"]
        share_grew = share_now / share_then - 1.0
        if slower > max_regression and share_grew > max_regression:
            regressions.append(
                f"ops={ops}: {slower:+.0%}, and {share_now:.2%} of full "
                f"replay vs {share_then:.2%} ({share_grew:+.0%})"
            )
    if regressions:
        return False, "checkpointed restart regressed: " + ", ".join(regressions)
    return True, f"{len(shared)} sizes within {max_regression:.0%} of baseline"


__all__ = [
    "BenchRecoveryConfig",
    "build_history",
    "compare_to_baseline",
    "empty_store",
    "load_report",
    "render_report",
    "run_bench_recovery",
    "write_report",
]
