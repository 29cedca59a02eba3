"""Perf-regression harness: scalar vs batched kernel throughput.

Runs the :mod:`repro.analysis.bench_core` harness at the full acceptance
scale (100k uniform lookups at up to 0.9 load), writes its report to a
temporary path, asserts the batched lookup kernel keeps a comfortable
margin over the scalar path, and times one ``lookup_many`` batch with
pytest-benchmark.  A run never rewrites the committed
``benchmarks/results/BENCH_core.json`` it gates against; regenerate it
on purpose with ``repro bench-core -o benchmarks/results/BENCH_core.json``.

Set ``BENCH_CORE_QUICK=1`` to run the seconds-scale CI smoke configuration
instead (smaller table, 10k queries, 0.9 load only).
"""

import dataclasses
import os
import pathlib
import random

from repro._numpy import numpy_available
from repro.analysis.bench_core import (
    BenchCoreConfig,
    compare_highload_to_baseline,
    compare_to_baseline,
    load_report,
    render_report,
    run_bench_core,
    write_report,
)
from repro.core.mccuckoo import McCuckoo
from repro.memory.model import MemoryModel

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: soft floor for CI boxes — the committed baseline records the real margin
#: (>=3x); shared runners are too noisy to gate on the full target.
MIN_LOOKUP_SPEEDUP = 1.5

#: python-backend rows may not fall more than this below the committed
#: baseline (shape-matched cells only; see compare_to_baseline)
MAX_PYTHON_REGRESSION = 0.30


def test_core_throughput(benchmark, tmp_path):
    quick = bool(os.environ.get("BENCH_CORE_QUICK"))
    config = BenchCoreConfig.quick() if quick else BenchCoreConfig()
    if numpy_available():
        config = dataclasses.replace(config, backends=("python", "numpy"))
    report = run_bench_core(config, verbose=True)
    print("\n" + render_report(report))

    headline = report["headline"]
    assert headline["lookup_speedup"] >= MIN_LOOKUP_SPEEDUP, (
        f"batched lookup regressed: {headline['lookup_speedup']:.2f}x "
        f"< {MIN_LOOKUP_SPEEDUP}x over scalar at load {headline['load']}"
    )
    # batched mutation kernels must at least not regress badly
    assert headline["put_speedup"] >= 0.8
    assert headline["delete_speedup"] >= 0.8

    # the pure-Python engine is the default everyone gets: it may not pay
    # for the NumPy backend by regressing against the committed baseline
    baseline_path = RESULTS_DIR / "BENCH_core.json"
    if baseline_path.exists():
        baseline = load_report(str(baseline_path))
        ok, message = compare_to_baseline(
            report, baseline,
            max_regression=MAX_PYTHON_REGRESSION, backend="python",
        )
        print(f"baseline check: {message}")
        assert ok, f"python-backend regression: {message}"
        # the high-load frontier may not recede: every (load, phase, batch)
        # cell in the committed baseline must still exist and hold its
        # throughput floor
        ok, message = compare_highload_to_baseline(
            report, baseline,
            max_regression=MAX_PYTHON_REGRESSION, backend="python",
        )
        print(f"highload baseline check: {message}")
        assert ok, f"high-load regression: {message}"

    # the frontier rows exist and insertion cost stays bounded: filling a
    # d=4 table to 0.95+ with the bubbling policy must not burn the kick
    # budget on ordinary inserts
    highload_puts = [row for row in report["highload_rows"]
                     if row["phase"] == "put" and row["batch"] == 1]
    assert highload_puts, "bench-core produced no high-load put rows"
    for row in highload_puts:
        assert row["kicks_per_insert"] < 2.0, (
            f"unbounded insert cost at load {row['load']} "
            f"({row['backend']}): {row['kicks_per_insert']:.2f} kicks/insert"
        )

    report_path = tmp_path / "BENCH_core.json"
    write_report(report, str(report_path))
    print(f"report written to {report_path}")

    # timed op: one 256-key lookup_many batch at 0.9 load
    rng = random.Random(1)
    table = McCuckoo(4_000, d=3, seed=1, mem=MemoryModel())
    keys = []
    while table.load_ratio < 0.9:
        key = rng.getrandbits(64)
        if not table.put(key).failed:
            keys.append(key)
    queries = [keys[rng.randrange(len(keys))] for _ in range(256)]
    benchmark(lambda: table.lookup_many(queries))
