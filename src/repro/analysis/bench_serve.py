"""Serve-layer throughput harness: a worker-count sweep over the TCP path.

Where :mod:`~repro.analysis.bench_core` times the in-process batched
kernels, this module measures the serving stack end to end: it boots a
server per sweep point — the single-process
:class:`~repro.serve.server.McCuckooServer` for ``workers == 0``, the
multi-process :class:`~repro.serve.workers.WorkerServer` for
``workers >= 1`` — and drives the closed-loop load generator at it over
real TCP, reporting ops/sec and latency percentiles per worker count.
``repro bench-serve`` and ``benchmarks/bench_serve_workers.py`` are thin
wrappers; the emitted ``BENCH_serve.json`` is the serve-layer
perf-regression baseline committed under ``benchmarks/results/``.

Methodology notes:

* Throughput is best-of-``repeats`` (maximum ops/sec over fresh
  server+loadgen runs) to suppress scheduler noise; the latency columns
  come from the best run.
* Every sweep point uses the same workload, key set, concurrency, and
  batch size, so the only variable is the execution topology.
* Worker scaling needs cores: the report records ``cpus`` so readers
  (and CI gates) can judge whether a flat curve means an overhead
  problem or just a one-core box.  The paper-level claim — shard
  parallelism scales because shards share nothing (§III.H lifted to
  processes) — is only observable with ``cpus >= workers``.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..serve.loadgen import LoadgenConfig, LoadReport, run_loadgen
from ..serve.server import McCuckooServer, ServerConfig
from ..serve.workers import WorkerServer


@dataclass(frozen=True)
class BenchServeConfig:
    """Shape of one :func:`run_bench_serve` sweep."""

    workers: Tuple[int, ...] = (0, 1, 2, 4)
    """Sweep points; 0 is the single-process server baseline."""
    n_ops: int = 20_000
    n_keys: int = 2_000
    concurrency: int = 8
    batch_size: int = 32
    value_size: int = 64
    n_shards: int = 8
    workload: str = "zipf"
    seed: int = 0
    repeats: int = 2

    @classmethod
    def quick(cls) -> "BenchServeConfig":
        """A seconds-scale variant for CI smoke runs.

        Best-of-2 repeats: at 5k ops a single run's w2/w1 ratio swings
        +/-10% with scheduler noise, which is wider than the w2 >= w1
        transport gate's tolerance.
        """
        return cls(workers=(0, 1, 2), n_ops=5_000, n_keys=512, repeats=2)


async def _run_point(config: BenchServeConfig, n_workers: int) -> LoadReport:
    server_config = ServerConfig(
        host="127.0.0.1",
        port=0,
        n_shards=config.n_shards,
        expected_items=max(4096, 4 * config.n_keys),
        seed=config.seed,
    )
    server = (WorkerServer(server_config, n_workers=n_workers)
              if n_workers > 0 else McCuckooServer(server_config))
    load = LoadgenConfig(
        workload=config.workload,
        n_ops=config.n_ops,
        n_keys=config.n_keys,
        concurrency=config.concurrency,
        batch_size=config.batch_size,
        value_size=config.value_size,
        seed=config.seed,
    )
    async with server:
        host, port = server.address
        return await run_loadgen(host, port, load)


def _measure_point(config: BenchServeConfig, n_workers: int) -> LoadReport:
    """Best-of-``repeats`` loadgen runs against a fresh server each time."""
    best: Optional[LoadReport] = None
    for _ in range(config.repeats):
        report = asyncio.run(_run_point(config, n_workers))
        if best is None or report.ops_per_sec > best.ops_per_sec:
            best = report
    assert best is not None
    return best


def run_bench_serve(config: Optional[BenchServeConfig] = None,
                    verbose: bool = False) -> Dict[str, Any]:
    """Run the sweep and return the ``BENCH_serve.json`` document."""
    config = config if config is not None else BenchServeConfig()
    rows: List[Dict[str, Any]] = []
    by_workers: Dict[int, float] = {}
    for n_workers in dict.fromkeys(config.workers):  # dedup, keep order
        start = time.perf_counter()
        report = _measure_point(config, n_workers)
        if verbose:
            label = "single" if n_workers == 0 else f"workers={n_workers}"
            print(f"[{label}: {time.perf_counter() - start:.1f}s, "
                  f"{report.ops_per_sec:,.0f} ops/s]", file=sys.stderr)
        by_workers[n_workers] = report.ops_per_sec
        rows.append({
            "workers": n_workers,
            "n_ops": report.n_ops,
            "completed": report.completed,
            "elapsed_s": round(report.elapsed_s, 4),
            "ops_per_sec": round(report.ops_per_sec, 1),
            "p50_ms": round(report.p50_ms, 4),
            "p95_ms": round(report.p95_ms, 4),
            "p99_ms": round(report.p99_ms, 4),
            "mean_ms": round(report.mean_ms, 4),
            "busy": report.busy,
            "timeouts": report.timeouts,
            "errors": report.errors,
        })

    cpus = os.cpu_count() or 1
    headline: Dict[str, Any] = {"cpus": cpus}

    if 1 in by_workers:
        headline["ops_per_sec_w1"] = round(by_workers[1], 1)
        if 2 in by_workers and by_workers[1] > 0:
            # the transport-overhead gate: holds on any box, because two
            # workers should at worst tie one when there are no spare cores
            headline["w2_vs_w1"] = round(by_workers[2] / by_workers[1], 3)
        multi = [w for w in by_workers if w > 1]
        if multi and cpus >= 4:
            # the *scaling* claim needs cores; on a small box a <1.0
            # best-of-sweep ratio reads as a regression when it is just
            # core starvation, so the ratio is only recorded when the
            # ≥2x-at-4-workers gate could meaningfully apply
            best_w = max(multi, key=lambda w: by_workers[w])
            headline["best_workers"] = best_w
            headline["speedup_vs_w1"] = round(
                by_workers[best_w] / by_workers[1], 3
            ) if by_workers[1] > 0 else 0.0
        elif multi:
            headline["gate_skipped"] = "cpus<4"
    if 0 in by_workers and 1 in by_workers and by_workers[0] > 0:
        headline["w1_vs_single"] = round(by_workers[1] / by_workers[0], 3)

    return {
        "benchmark": "bench_serve",
        "config": {
            "workers": list(dict.fromkeys(config.workers)),
            "n_ops": config.n_ops,
            "n_keys": config.n_keys,
            "concurrency": config.concurrency,
            "batch_size": config.batch_size,
            "value_size": config.value_size,
            "n_shards": config.n_shards,
            "workload": config.workload,
            "seed": config.seed,
            "repeats": config.repeats,
        },
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "cpus": os.cpu_count() or 1,
        },
        "headline": headline,
        "rows": rows,
    }


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable table of a :func:`run_bench_serve` document."""
    lines = ["workers       ops/s   p50ms   p95ms   p99ms  completed  errors"]
    for row in report["rows"]:
        label = "single" if row["workers"] == 0 else str(row["workers"])
        lines.append(
            f"{label:>7s} {row['ops_per_sec']:>11,.0f} "
            f"{row['p50_ms']:>7.3f} {row['p95_ms']:>7.3f} "
            f"{row['p99_ms']:>7.3f} {row['completed']:>10d} "
            f"{row['errors']:>7d}"
        )
    headline = report["headline"]
    parts = [f"cpus={headline['cpus']}"]
    if "ops_per_sec_w1" in headline:
        parts.append(f"w1={headline['ops_per_sec_w1']:,.0f} ops/s")
    if "w2_vs_w1" in headline:
        parts.append(f"w2/w1={headline['w2_vs_w1']:.2f}x")
    if "speedup_vs_w1" in headline:
        parts.append(f"w{headline['best_workers']}/w1="
                     f"{headline['speedup_vs_w1']:.2f}x")
    if "w1_vs_single" in headline:
        parts.append(f"w1/single={headline['w1_vs_single']:.2f}x")
    lines.append("headline: " + "  ".join(parts))
    if headline.get("gate_skipped"):
        lines.append(
            f"note: ≥2x scaling gate skipped ({headline['gate_skipped']}) — "
            "multi-worker speedup needs ≥4 cpus; only the w2≥w1 "
            "transport-overhead gate applies on this box"
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
    at_workers: int = 1,
) -> Tuple[bool, str]:
    """(ok, message) regression verdict for one sweep point.

    The point fails only when two readings agree: its ops/s against the
    baseline's, and its ops/s relative to the same run's single-process
    row (``workers=0``) against the baseline's ratio.  The first alone
    misreads a slower or busier machine than the baseline's as a
    regression, the second alone a single-process row that ran fast; a
    worker path that got slower moves both.

    Only compares scale-matched runs: if the baseline was produced with a
    different workload shape (ops, batch, concurrency, shards, workload),
    the comparison is skipped and reported as ok, because ops/sec across
    different shapes says nothing about a regression.
    """
    shape_keys = ("n_ops", "n_keys", "concurrency", "batch_size",
                  "value_size", "n_shards", "workload")
    current_shape = {key: report["config"][key] for key in shape_keys}
    baseline_shape = {key: baseline["config"].get(key) for key in shape_keys}
    if current_shape != baseline_shape:
        return True, f"baseline shape differs ({baseline_shape}); skipped"
    current = {row["workers"]: row["ops_per_sec"] for row in report["rows"]}
    reference = {row["workers"]: row["ops_per_sec"] for row in baseline["rows"]}
    if at_workers not in current or at_workers not in reference:
        return True, f"no workers={at_workers} row on both sides; skipped"
    now, then = current[at_workers], reference[at_workers]
    ratio = now / then
    floor = 1.0 - max_regression
    message = (f"workers={at_workers}: {now:,.0f} ops/s vs baseline "
               f"{then:,.0f} ({ratio:.2f}x")
    reading = ratio
    if at_workers != 0 and current.get(0) and reference.get(0):
        relative = ratio * reference[0] / current[0]
        reading = max(ratio, relative)
        message += f"; against this run's single-process row {relative:.2f}x"
    message += f", floor {floor:.2f}x)"
    return reading >= floor, message


