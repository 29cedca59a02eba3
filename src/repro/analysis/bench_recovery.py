"""Restart-time benchmark: full log replay vs checkpoint + tail replay.

The question this harness answers is the one the maintenance subsystem
exists for: *how long does a durable shard take to come back after a
crash, as its write history grows?*  Without checkpoints, recovery must
replay every surviving record into a fresh index, so restart time
grows with the total historical log.  With a checkpoint, the index is
restored bit-for-bit from the snapshot and only the post-checkpoint tail
is replayed — the dominant index-rebuild cost stops scaling with history
(the remaining prefix *scan* is a cheap CRC walk).

For each historical op count the harness drives an overwrite-heavy
workload into a durable :class:`~repro.apps.kvstore.LogStructuredStore`,
takes one checkpoint ``tail_ops`` appends before the end (so the tail
length is constant across sizes), then times both recovery paths over
the same surviving image:

* ``full_replay_s``   — :meth:`LogStructuredStore.recover_with_checkpoint`
  without a checkpoint
* ``checkpoint_replay_s`` — the same call with the checkpoint

Both are best-of-``repeats`` wall times.  The headline reports the
speedup at the largest history and a *flatness* ratio: how much each
path's restart time grew from the smallest to the largest history
(checkpointed recovery should grow far slower than full replay).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Tuple

from ..apps.kvstore import LogStructuredStore


@dataclass(frozen=True)
class BenchRecoveryConfig:
    """Workload shape for one restart-time sweep.

    The live key set grows with history (mostly-unique inserts, one in
    ``overwrite_every`` ops overwriting an earlier key) — the regime where
    full replay's per-key index re-insertion dominates and checkpoints
    pay off.  A fixed-size hot set would hide the effect: both paths
    would reduce to the same linear log scan.
    """

    op_counts: Tuple[int, ...] = (2_000, 8_000, 32_000)
    overwrite_every: int = 8
    value_size: int = 32
    tail_ops: int = 64
    repeats: int = 3
    seed: int = 7

    @classmethod
    def quick(cls) -> "BenchRecoveryConfig":
        """Seconds-scale CI smoke configuration."""
        return cls(op_counts=(500, 2_000, 8_000), repeats=2)


def _drive(
    config: BenchRecoveryConfig, n_ops: int
) -> Tuple[bytes, bytes, int]:
    """Build one history: returns (image, checkpoint, log_records).

    Mostly-unique inserts (every ``overwrite_every``-th op overwrites an
    earlier key), with the checkpoint taken ``tail_ops`` appends before
    the end so the tail length is constant across history sizes.
    """
    store = LogStructuredStore(
        expected_items=max(1024, 2 * n_ops),
        seed=config.seed,
        durable=True,
    )
    checkpoint_at = max(0, n_ops - config.tail_ops)
    checkpoint = b""
    every = max(2, config.overwrite_every)
    for op in range(n_ops):
        key = op // 2 if op % every == every - 1 else op
        value = b"%08d:%08d:" % (op, key)
        value += b"v" * max(0, config.value_size - len(value))
        store.put(key, value)
        if op + 1 == checkpoint_at:
            checkpoint = store.take_checkpoint()
    if not checkpoint:
        checkpoint = store.take_checkpoint()
    return store.log_bytes, checkpoint, store.log_records


def _best_of(repeats: int, task) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        task()
        best = min(best, time.perf_counter() - start)
    return best


def run_bench_recovery(
    config: BenchRecoveryConfig, verbose: bool = False
) -> Dict[str, Any]:
    """The machine-readable report (see module docstring)."""
    rows: List[Dict[str, Any]] = []
    for n_ops in config.op_counts:
        expected = max(1024, 2 * n_ops)
        image, checkpoint, log_records = _drive(config, n_ops)

        def recover(checkpoint_or_none) -> Any:
            store = LogStructuredStore(
                expected_items=expected, seed=config.seed, durable=True
            )
            return store.recover_with_checkpoint(image, checkpoint_or_none)

        full_s = _best_of(config.repeats, lambda: recover(None))
        ckpt_s = _best_of(config.repeats, lambda: recover(checkpoint))
        # sanity: the checkpointed path must actually use the checkpoint
        report = recover(checkpoint)
        assert report.checkpoint_loaded
        row = {
            "ops": n_ops,
            "log_bytes": len(image),
            "log_records": log_records,
            "checkpoint_bytes": len(checkpoint),
            "tail_records": report.tail_records_replayed,
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


def compare_to_baseline(
    report: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regression: float = 0.30,
) -> Tuple[bool, str]:
    """(ok, message): checkpointed restart may not slow down by more than
    ``max_regression`` against the committed baseline.  Only shape-matched
    runs are compared; a differing workload shape is skipped and ok."""
    if report["config"] != baseline["config"]:
        return True, f"baseline shape differs ({baseline['config']}); skipped"
    current = {row["ops"]: row["checkpoint_replay_s"] for row in report["rows"]}
    reference = {
        row["ops"]: row["checkpoint_replay_s"] for row in baseline["rows"]
    }
    regressions = []
    for ops in sorted(set(current) & set(reference)):
        if reference[ops] <= 0:
            continue
        ratio = current[ops] / reference[ops] - 1.0
        if ratio > max_regression:
            regressions.append(f"ops={ops}: {ratio:+.0%}")
    if regressions:
        return False, "checkpointed restart regressed: " + ", ".join(regressions)
    return True, (
        f"{len(set(current) & set(reference))} sizes within "
        f"{max_regression:.0%} of baseline"
    )


__all__ = [
    "BenchRecoveryConfig",
    "compare_to_baseline",
    "load_report",
    "render_report",
    "run_bench_recovery",
    "write_report",
]
