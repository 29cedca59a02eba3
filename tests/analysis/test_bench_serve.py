"""The worker sweep's baseline gate flags workers=1 only when its ops/s
and its ratio to the same run's single-process row both fell below the
floor, so a slower machine alone is not a regression."""

import json

from repro.analysis.bench_serve import compare_to_baseline

CONFIG = {
    "n_ops": 5000, "n_keys": 512, "concurrency": 8, "batch_size": 32,
    "value_size": 64, "n_shards": 8, "workload": "zipf",
}
#: ops/s per worker count, the shape of the committed 1-CPU baseline
OPS = {0: 21_937.3, 1: 25_460.1, 2: 23_092.0}


def report(scale=lambda workers: 1.0):
    """A report as the committed JSON reads back, each row's ops/s
    multiplied by ``scale(workers)``."""
    return json.loads(json.dumps({
        "config": CONFIG,
        "rows": [{"workers": workers, "ops_per_sec": value * scale(workers)}
                 for workers, value in OPS.items()],
    }))


BASELINE = report()


def test_slower_machine_is_not_a_regression():
    """Every row at 0.6x keeps w1/w0, so the gate holds."""
    ok, message = compare_to_baseline(report(lambda workers: 0.6), BASELINE)
    assert ok, message


def test_worker_path_twice_as_slow_fails():
    slow = report(lambda workers: 0.5 if workers else 1.0)
    ok, message = compare_to_baseline(slow, BASELINE)
    assert not ok
    assert "(0.50x;" in message
    assert "against this run's single-process row 0.50x" in message


def test_worker_path_slower_on_a_slower_machine_fails():
    slow = report(lambda workers: 0.35 if workers else 0.6)
    ok, message = compare_to_baseline(slow, BASELINE)
    assert not ok, message


def test_fast_single_process_row_alone_is_not_a_regression():
    """A single-process row that ran fast drops w1/w0, but w1's own
    ops/s held: one reading is not enough."""
    fast_single = report(lambda workers: 2.0 if workers == 0 else 1.0)
    ok, message = compare_to_baseline(fast_single, BASELINE)
    assert ok, message


def test_without_a_single_process_row_only_w1_is_read():
    slow = report(lambda workers: 0.6)
    slow["rows"] = [row for row in slow["rows"] if row["workers"]]
    ok, message = compare_to_baseline(slow, BASELINE)
    assert not ok
    assert "single-process" not in message


def test_other_shape_is_skipped():
    other = report(lambda workers: 0.1)
    other["config"] = dict(CONFIG, n_ops=20_000)
    ok, message = compare_to_baseline(other, BASELINE)
    assert ok and "skipped" in message
