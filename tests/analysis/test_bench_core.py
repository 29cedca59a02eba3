"""The core throughput baseline gate flags a batched cell only when its
ops/s and its speedup over the same run's scalar row both fell below the
floor, so a slower machine alone is not a regression."""

import json

import os

from repro.analysis.bench_core import (
    BenchCoreConfig,
    compare_highload_to_baseline,
    compare_to_baseline,
    render_report,
    run_bench_core,
)

CONFIG = {
    "n_buckets": 4000, "d": 3, "seed": 1, "n_lookups": 10000,
    "n_deletes": 3000, "load_factors": [0.9], "batch_sizes": [64, 256],
    "highload_loads": [0.95], "highload_buckets": 2000, "highload_d": 4,
    "highload_policy": "bubbling",
}
#: ops/s per (phase, batch) at load 0.9, the shape of the committed baseline
OPS = {
    ("lookup", 1): 70_000, ("lookup", 64): 283_000, ("lookup", 256): 272_000,
    ("put", 1): 33_000, ("put", 64): 37_000, ("put", 256): 36_000,
    ("delete", 1): 73_000, ("delete", 64): 89_000, ("delete", 256): 84_000,
}
HIGHLOAD_OPS = {
    ("put", 1): 32_000, ("put", 256): 37_000,
    ("lookup", 1): 67_000, ("lookup", 256): 230_000,
}


def report(scale=lambda phase, batch: 1.0, highload=HIGHLOAD_OPS):
    """A report as the committed JSON reads back, each cell's ops/s
    multiplied by ``scale(phase, batch)``."""
    def rows(ops, load):
        return [{"phase": phase, "load": load, "batch": batch,
                 "backend": "python",
                 "ops_per_sec": value * scale(phase, batch)}
                for (phase, batch), value in ops.items()]
    return json.loads(json.dumps({
        "config": CONFIG,
        "rows": rows(OPS, 0.9),
        "highload_rows": rows(highload, 0.95),
    }))


BASELINE = report()


def test_quick_config_matches_the_fixture_shape():
    quick = BenchCoreConfig.quick()
    assert quick.n_buckets == CONFIG["n_buckets"]
    assert list(quick.batch_sizes) == CONFIG["batch_sizes"]


def test_slower_machine_is_not_a_regression():
    """Every row at 0.55x — the speed of a busier box — keeps each
    batched speedup, so neither gate fails."""
    slow = report(lambda phase, batch: 0.55)
    for compare in (compare_to_baseline, compare_highload_to_baseline):
        ok, message = compare(slow, BASELINE)
        assert ok, message


def test_batched_lookup_twice_as_slow_fails():
    slow = report(lambda phase, batch: 0.5 if phase == "lookup" and batch > 1
                  else 1.0)
    ok, message = compare_to_baseline(slow, BASELINE)
    assert not ok
    assert "lookup@load0.9/bs64" in message and "bs256" in message
    assert "put@" not in message


def test_batched_lookup_slower_on_a_slower_machine_fails():
    slow = report(lambda phase, batch: 0.3 if phase == "lookup" and batch > 1
                  else 0.6)
    ok, message = compare_to_baseline(slow, BASELINE)
    assert not ok
    assert "lookup@" in message


def test_fast_scalar_row_alone_is_not_a_regression():
    """A scalar row that ran fast drops the speedup, but the batched
    ops/s held: one reading is not enough."""
    fast_scalar = report(lambda phase, batch: 2.0 if batch == 1 else 1.0)
    ok, message = compare_to_baseline(fast_scalar, BASELINE)
    assert ok, message


def test_regression_message_names_both_readings():
    slow = report(lambda phase, batch: 0.5 if phase == "delete" and batch > 1
                  else 1.0)
    ok, message = compare_to_baseline(slow, BASELINE)
    assert not ok
    assert "(0.50x;" in message
    assert "against this run's delete@load0.9 scalar row 0.50x" in message


def test_other_shape_is_skipped():
    other = report()
    other["config"] = dict(CONFIG, n_buckets=8000)
    ok, message = compare_to_baseline(other, BASELINE)
    assert ok and "skipped" in message


def test_highload_batched_cell_twice_as_slow_fails():
    slow = dict(HIGHLOAD_OPS)
    slow[("lookup", 256)] //= 2
    ok, message = compare_highload_to_baseline(report(highload=slow), BASELINE)
    assert not ok
    assert "highload lookup@load0.95/bs256" in message


def test_highload_scalar_cell_read_against_the_main_scalar_row():
    slow = dict(HIGHLOAD_OPS)
    slow[("put", 1)] //= 2
    ok, message = compare_highload_to_baseline(report(highload=slow), BASELINE)
    assert not ok
    assert "highload put@load0.95/bs1" in message
    assert "put@load0.9 scalar row 0.50x" in message


def test_highload_frontier_may_not_recede():
    receded = {cell: ops for cell, ops in HIGHLOAD_OPS.items()
               if cell[0] != "lookup"}
    ok, message = compare_highload_to_baseline(
        report(highload=receded), BASELINE)
    assert not ok
    assert "receded" in message


def test_every_report_records_cpus():
    """A reader must be able to tell the box from the code."""
    tiny = BenchCoreConfig(n_buckets=64, n_lookups=64, n_deletes=16,
                           load_factors=(0.5,), batch_sizes=(16,), repeats=1,
                           highload_loads=())
    report = run_bench_core(tiny)
    assert report["environment"]["cpus"] == (os.cpu_count() or 1)
    assert render_report(report).startswith(f"cpus={os.cpu_count() or 1}")
