"""Perf-regression harness: restart time, full replay vs checkpoint + tail.

Runs the :mod:`repro.analysis.bench_recovery` harness over a fixed live
set under a growing overwrite history, saves the machine-readable
baseline to ``benchmarks/results/BENCH_recovery.json``, and asserts the
properties the checkpoint exists for:

* checkpointed recovery beats full replay at the largest history;
* checkpoint restart is flat in the history: it stays within
  ``MAX_CHECKPOINT_GROWTH`` from the smallest history (2k records) to the
  largest (32k), because recovery CRCs the checkpointed prefix, restores
  the index and scans only the tail;
* full replay grows with the history.

Set ``BENCH_RECOVERY_QUICK=1`` to run the seconds-scale CI configuration
(the two ends of the sweep) instead.
"""

import os
import pathlib

from repro.analysis.bench_recovery import (
    BenchRecoveryConfig,
    build_history,
    compare_to_baseline,
    empty_store,
    load_report,
    render_report,
    run_bench_recovery,
    write_report,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: soft floor for CI boxes — the committed baseline records the real
#: margin; shared runners are too noisy to gate on the full target
MIN_SPEEDUP = 1.5

#: checkpointed restart may not slow down more than this against the
#: committed baseline, in time and as a share of full replay in the same
#: run (shape-matched runs only; see compare_to_baseline)
MAX_REGRESSION = 0.30

#: checkpoint restart at the largest history over the smallest
MAX_CHECKPOINT_GROWTH = 1.20

#: full replay must at least double over the 16x history
MIN_FULL_REPLAY_GROWTH = 2.0


def test_recovery_restart_time(benchmark):
    quick = bool(os.environ.get("BENCH_RECOVERY_QUICK"))
    config = BenchRecoveryConfig.quick() if quick else BenchRecoveryConfig()
    report = run_bench_recovery(config, verbose=True)
    print("\n" + render_report(report))

    headline = report["headline"]
    assert headline["speedup"] >= MIN_SPEEDUP, (
        f"checkpointed recovery regressed: {headline['speedup']:.2f}x "
        f"< {MIN_SPEEDUP}x over full replay at {headline['largest_ops']} ops"
    )
    assert config.op_counts[0] == 2_000 and config.op_counts[-1] == 32_000
    assert headline["checkpoint_replay_growth"] <= MAX_CHECKPOINT_GROWTH, (
        "checkpoint restart must not grow with history: it grew "
        f"{headline['checkpoint_replay_growth']:.2f}x over a "
        f"{headline['history_growth']:.1f}x history "
        f"(limit {MAX_CHECKPOINT_GROWTH:.2f}x)"
    )
    assert headline["full_replay_growth"] >= MIN_FULL_REPLAY_GROWTH, (
        "full replay should grow with history: it grew only "
        f"{headline['full_replay_growth']:.2f}x over a "
        f"{headline['history_growth']:.1f}x history"
    )
    for row in report["rows"]:
        assert row["tail_bytes_scanned"] < row["log_bytes"] // 10

    baseline_path = RESULTS_DIR / "BENCH_recovery.json"
    if baseline_path.exists():
        ok, message = compare_to_baseline(
            report, load_report(str(baseline_path)),
            max_regression=MAX_REGRESSION,
        )
        print(f"baseline check: {message}")
        assert ok, f"restart-time regression: {message}"

    if not quick:
        RESULTS_DIR.mkdir(exist_ok=True)
        write_report(report, str(RESULTS_DIR / "BENCH_recovery.json"))

    # timed op: one checkpointed recovery at the largest history
    image, checkpoint, _ = build_history(config, config.op_counts[-1])
    benchmark(lambda: empty_store(config).recover_with_checkpoint(image, checkpoint))
