"""The restart-time baseline gate compares runs that share a workload
shape, whatever sweep and repeat count each used, and flags a size only
when checkpoint restart is slower both in time and as a share of full
replay measured in the same run."""

import json
from dataclasses import asdict, replace

from repro.analysis.bench_recovery import BenchRecoveryConfig, compare_to_baseline


def report_for(config, checkpoint_by_ops, full_by_ops=None, numpy=True):
    """A report as ``run_bench_recovery`` returns it (config via asdict,
    so ``op_counts`` is a tuple), with the given restart times."""
    full_by_ops = full_by_ops or FULL_TIMES
    rows = [
        {
            "ops": ops,
            "full_replay_s": full_by_ops[ops],
            "checkpoint_replay_s": checkpoint_by_ops[ops],
        }
        for ops in config.op_counts
    ]
    return {"config": asdict(config), "rows": rows, "headline": {"numpy": numpy}}


def committed(report):
    """The report as the committed JSON baseline reads back."""
    return json.loads(json.dumps(report))


FULL = BenchRecoveryConfig()
FULL_TIMES = {2_000: 0.062, 8_000: 0.165, 32_000: 0.560}
CHECKPOINT_TIMES = {2_000: 0.0022, 8_000: 0.0025, 32_000: 0.0030}
BASELINE = committed(report_for(FULL, CHECKPOINT_TIMES))


def slowed(times, factor):
    return {ops: seconds * factor for ops, seconds in times.items()}


def test_full_run_twice_as_slow_fails():
    ok, message = compare_to_baseline(
        report_for(FULL, slowed(CHECKPOINT_TIMES, 2.0)), BASELINE
    )
    assert not ok
    assert "ops=32000" in message


def test_quick_run_twice_as_slow_fails():
    """The CI sweep has other op_counts and repeats; it is still gated on
    the sizes it shares with the baseline."""
    quick = BenchRecoveryConfig.quick()
    ok, message = compare_to_baseline(
        report_for(quick, slowed(CHECKPOINT_TIMES, 2.0)), BASELINE
    )
    assert not ok
    assert "ops=2000" in message and "ops=32000" in message


def test_runs_within_bound_pass():
    for config in (FULL, BenchRecoveryConfig.quick()):
        ok, message = compare_to_baseline(
            report_for(config, slowed(CHECKPOINT_TIMES, 1.2)), BASELINE
        )
        assert ok, message
        assert "within" in message


def test_slower_machine_is_not_a_regression():
    """A runner that takes 2x longer on both paths did not make checkpoint
    restart any slower relative to full replay."""
    for config in (FULL, BenchRecoveryConfig.quick()):
        report = report_for(
            config,
            slowed(CHECKPOINT_TIMES, 2.0),
            full_by_ops=slowed(FULL_TIMES, 2.0),
        )
        ok, message = compare_to_baseline(report, BASELINE)
        assert ok, message


def test_fast_full_replay_alone_is_not_a_regression():
    """A full replay that ran 2x faster than the baseline's raises the
    share, but checkpoint restart itself did not get slower."""
    ok, message = compare_to_baseline(
        report_for(FULL, CHECKPOINT_TIMES, full_by_ops=slowed(FULL_TIMES, 0.5)),
        BASELINE,
    )
    assert ok, message


def test_regression_message_names_both_readings():
    ok, message = compare_to_baseline(
        report_for(FULL, slowed(CHECKPOINT_TIMES, 2.0)), BASELINE
    )
    assert not ok
    assert "+100%" in message and "of full replay" in message


def test_other_workload_shape_is_skipped():
    other = replace(FULL, live_keys=2_000)
    ok, message = compare_to_baseline(
        report_for(other, slowed(CHECKPOINT_TIMES, 2.0)), BASELINE
    )
    assert ok
    assert "skipped" in message


def test_run_without_numpy_is_not_compared_to_a_numpy_baseline():
    """Without NumPy restore verifies with the per-bucket loop: another
    shape, not a regression."""
    ok, message = compare_to_baseline(
        report_for(FULL, slowed(CHECKPOINT_TIMES, 5.0), numpy=False), BASELINE
    )
    assert ok
    assert "skipped" in message
