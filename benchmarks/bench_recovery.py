"""Perf-regression harness: restart time, full replay vs checkpoint + tail.

Runs the :mod:`repro.analysis.bench_recovery` harness over growing write
histories, saves the machine-readable baseline to
``benchmarks/results/BENCH_recovery.json``, and asserts the two
properties the maintenance subsystem exists for:

* checkpointed recovery beats full replay at the largest history (the
  index is restored from the snapshot instead of re-inserted key by key);
* checkpointed restart time grows *slower* than full replay as the
  history grows (flat-ish in total historical log bytes — the residual
  growth is the cheap prefix CRC walk, not index work).

Set ``BENCH_RECOVERY_QUICK=1`` to run the seconds-scale CI smoke
configuration instead.
"""

import os
import pathlib

from repro.analysis.bench_recovery import (
    BenchRecoveryConfig,
    compare_to_baseline,
    load_report,
    render_report,
    run_bench_recovery,
    write_report,
)
from repro.apps.kvstore import LogStructuredStore

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: soft floor for CI boxes — the committed baseline records the real
#: margin; shared runners are too noisy to gate on the full target
MIN_SPEEDUP = 1.5

#: checkpointed restart may not slow down more than this against the
#: committed baseline (shape-matched runs only; see compare_to_baseline)
MAX_REGRESSION = 0.30


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
    assert (
        headline["checkpoint_replay_growth"]
        < headline["full_replay_growth"]
    ), (
        "checkpointed restart must scale slower than full replay: grew "
        f"{headline['checkpoint_replay_growth']:.1f}x vs full replay's "
        f"{headline['full_replay_growth']:.1f}x over a "
        f"{headline['history_growth']:.1f}x history"
    )

    baseline_path = RESULTS_DIR / "BENCH_recovery.json"
    if baseline_path.exists():
        ok, message = compare_to_baseline(
            report, load_report(str(baseline_path)),
            max_regression=MAX_REGRESSION,
        )
        print(f"baseline check: {message}")
        assert ok, f"restart-time regression: {message}"

    RESULTS_DIR.mkdir(exist_ok=True)
    write_report(report, str(RESULTS_DIR / "BENCH_recovery.json"))

    # timed op: one checkpointed recovery at the mid-size history
    mid_ops = config.op_counts[len(config.op_counts) // 2]
    store = LogStructuredStore(
        expected_items=2 * mid_ops, seed=config.seed, durable=True
    )
    for op in range(mid_ops):
        store.put(op, b"%08d" % op)
        if op + 1 == mid_ops - config.tail_ops:
            checkpoint = store.take_checkpoint()
    image = store.log_bytes
    benchmark(
        lambda: LogStructuredStore(
            expected_items=2 * mid_ops, seed=config.seed, durable=True
        ).recover_with_checkpoint(image, checkpoint)
    )
