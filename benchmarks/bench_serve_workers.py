"""Perf-regression harness for the multi-process serving layer.

Sweeps worker counts through the :mod:`repro.analysis.bench_serve`
harness (single-process baseline, then ``WorkerServer`` at 1..N worker
processes over real TCP), writes its report to a temporary path, and
gates three things:

* **No regression**: ops/sec at ``--workers 1`` fails only when two
  readings both fall more than 30% below the committed baseline: w1
  itself, and w1 over the same run's single-process row against the
  baseline's w1/w0 (so a slower box alone is not a regression), when
  the baseline was produced with the same workload shape (otherwise the
  comparison is meaningless and skipped).
* **Transport overhead**: over the shared-memory ring transport, 2
  workers must reach at least 1 worker's ops/sec on *any* box — two
  workers should at worst tie one when there are no spare cores, so
  w2 < w1 is pure transport overhead, not core starvation.
* **Scaling**: on a box with >= 4 cores, 4 workers must reach >= 2x the
  ops/sec of 1 worker — the ISSUE's shard-parallelism acceptance
  criterion.  On smaller boxes this gate is *skipped*, the report says
  so explicitly (``headline.gate_skipped = "cpus<4"``), and no
  best-of-sweep speedup is recorded: a sub-1.0 ratio on a starved box
  reads as a regression when it is just a core count.

Set ``BENCH_SERVE_QUICK=1`` for the seconds-scale CI smoke configuration
(workers 0/1/2, 5k ops) — the committed baseline is produced at exactly
that shape so the CI regression gate always engages.  A run never
rewrites the committed baseline it gates against; regenerate it on
purpose with ``repro bench-serve --quick -o
benchmarks/results/BENCH_serve.json``.
"""

import os
import pathlib

from repro.analysis.bench_serve import (
    BenchServeConfig,
    compare_to_baseline,
    load_report,
    render_report,
    run_bench_serve,
    write_report,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "BENCH_serve.json"

#: CI floor: fail when workers=1 throughput, and its ratio to the same
#: run's single-process row, both drop more than this fraction below the
#: committed baseline's (shape-matched runs only).
MAX_REGRESSION = 0.30

#: w2/w1 floor for the shm transport: nominally 1.0 ("two workers never
#: lose to one"), with a small noise allowance for best-of-1 CI runs.
MIN_W2_VS_W1_SHM = 0.9


def test_serve_workers_throughput(tmp_path):
    quick = bool(os.environ.get("BENCH_SERVE_QUICK"))
    config = BenchServeConfig.quick() if quick else BenchServeConfig()
    report = run_bench_serve(config, verbose=True)
    print("\n" + render_report(report))

    rows = {row["workers"]: row for row in report["rows"]}
    for workers, row in rows.items():
        assert row["errors"] == 0, (
            f"workers={workers}: {row['errors']} errored ops"
        )
        assert row["completed"] == row["n_ops"], (
            f"workers={workers}: only {row['completed']}/{row['n_ops']} "
            "ops completed"
        )

    if BASELINE_PATH.exists() and 1 in rows:
        ok, message = compare_to_baseline(
            report, load_report(str(BASELINE_PATH)),
            max_regression=MAX_REGRESSION, at_workers=1,
        )
        print(f"baseline check: {message}")
        assert ok, f"serve throughput regressed: {message}"

    # transport-overhead gate: applies on every box
    if 1 in rows and 2 in rows:
        w2_vs_w1 = rows[2]["ops_per_sec"] / rows[1]["ops_per_sec"]
        print(f"transport gate: w2/w1 = {w2_vs_w1:.2f}x over shm "
              f"(floor {MIN_W2_VS_W1_SHM})")
        assert w2_vs_w1 >= MIN_W2_VS_W1_SHM, (
            f"workers=2 reached only {w2_vs_w1:.2f}x of workers=1 over the "
            "shm transport — that is transport overhead, not core "
            "starvation (two workers may tie one worker, never lose to it)"
        )

    cpus = os.cpu_count() or 1
    if cpus >= 4 and 1 in rows and 4 in rows:
        speedup = rows[4]["ops_per_sec"] / rows[1]["ops_per_sec"]
        assert speedup >= 2.0, (
            f"4 workers only {speedup:.2f}x over 1 worker on a "
            f"{cpus}-core box (need >= 2x)"
        )
    else:
        # say WHY the scaling gate did not apply, so a flat curve in the
        # CI log is not misread as a perf bug
        reason = (f"cpus={cpus} < 4" if cpus < 4
                  else "sweep lacks workers=1 and workers=4 points")
        print(f"scaling gate (>=2x at 4 workers): SKIPPED — {reason}; "
              "see headline.gate_skipped in BENCH_serve.json")

    report_path = tmp_path / "BENCH_serve.json"
    write_report(report, str(report_path))
    print(f"report written to {report_path}")
