"""Wall-clock throughput harness for the batched operation kernels.

The paper's exhibits count *memory accesses*; this module measures the
other axis the batched kernels exist for — host-side throughput.  It
times scalar ``lookup``/``put``/``delete`` loops against their
``lookup_many``/``put_many``/``delete_many`` counterparts on a
:class:`~repro.core.mccuckoo.McCuckoo` table and reports ops/sec plus the
batched-over-scalar speedup.  ``repro bench-core`` and
``benchmarks/bench_core_throughput.py`` are thin wrappers around
:func:`run_bench_core`; the emitted ``BENCH_core.json`` is the
perf-regression baseline committed under ``benchmarks/results/``.

Methodology notes:

* Throughput is best-of-``repeats`` (minimum wall time), the standard way
  to suppress scheduler noise in micro-benchmarks.
* Lookup tables are built once per load factor and reused — lookups do
  not mutate.  Write phases rebuild state per measurement.
* Queries are uniform over the resident key set, so the 0.9-load lookup
  row matches the acceptance criterion "≥3x on 100k uniform lookups at
  0.9 load".
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.config import DeletionMode
from ..core.engine import BACKENDS
from ..core.mccuckoo import McCuckoo
from ..memory.model import MemoryModel


@dataclass(frozen=True)
class BenchCoreConfig:
    """Shape of one :func:`run_bench_core` run."""

    n_buckets: int = 40_000
    """Buckets per sub-table (capacity = ``d * n_buckets`` items)."""
    d: int = 3
    seed: int = 1
    n_lookups: int = 100_000
    n_deletes: int = 20_000
    load_factors: Tuple[float, ...] = (0.5, 0.7, 0.9)
    batch_sizes: Tuple[int, ...] = (16, 64, 256)
    repeats: int = 3
    backends: Tuple[str, ...] = ("python",)
    """Engine backends to measure; every (phase, load, batch) cell is
    repeated per backend and rows are tagged with it."""
    highload_loads: Tuple[float, ...] = (0.95, 0.97)
    """Fills for the high-load frontier section.  The main d=3 grid cannot
    reach these (the d=3 threshold is ~0.918), so this section runs on a
    separate d=4 table under the ``bubbling`` kick policy; empty disables
    the section."""
    highload_buckets: int = 10_000
    highload_d: int = 4
    highload_policy: str = "bubbling"

    @classmethod
    def quick(cls) -> "BenchCoreConfig":
        """A seconds-scale variant for CI smoke runs."""
        return cls(
            n_buckets=4_000,
            n_lookups=10_000,
            n_deletes=3_000,
            load_factors=(0.9,),
            batch_sizes=(64, 256),
            repeats=2,
            highload_loads=(0.95,),
            highload_buckets=2_000,
        )


@dataclass
class BenchRow:
    """One measured (phase, load, batch, backend) cell."""

    phase: str
    load: float
    batch: int  # 1 = scalar
    n_ops: int
    best_seconds: float
    ops_per_sec: float
    speedup: Optional[float] = None  # vs the scalar row of the same cell
    backend: str = "python"
    extra: Dict[str, Any] = field(default_factory=dict)


def _fill_to(table: McCuckoo, target_items: int, rng: random.Random) -> List[int]:
    """Insert random keys until ``len(table) == target_items``; returns them."""
    keys: List[int] = []
    while len(table) < target_items:
        key = rng.getrandbits(64)
        outcome = table.put(key)
        if outcome.failed:
            continue
        keys.append(key)
    return keys


def _best_of(repeats: int, run: Callable[[], int]) -> Tuple[float, int]:
    """(best wall seconds, ops) over ``repeats`` calls of ``run``."""
    best = float("inf")
    n_ops = 0
    for _ in range(repeats):
        start = time.perf_counter()
        n_ops = run()
        best = min(best, time.perf_counter() - start)
    return best, n_ops


def _best_of_timed(repeats: int, run: Callable[[], Tuple[float, int]]) -> Tuple[float, int]:
    """Like :func:`_best_of` for runs that time themselves (to exclude
    per-repeat setup such as rebuilding a table)."""
    best = float("inf")
    n_ops = 0
    for _ in range(repeats):
        elapsed, n_ops = run()
        best = min(best, elapsed)
    return best, n_ops


def _chunks(items: Sequence, size: int) -> List[Sequence]:
    return [items[start:start + size] for start in range(0, len(items), size)]


def _bench_lookups(config: BenchCoreConfig, rows: List[BenchRow],
                   backend: str) -> None:
    for load in config.load_factors:
        rng = random.Random(config.seed)
        table = McCuckoo(config.n_buckets, d=config.d, seed=config.seed,
                         mem=MemoryModel(), engine=backend)
        keys = _fill_to(table, int(load * table.capacity), rng)
        queries = [keys[rng.randrange(len(keys))]
                   for _ in range(config.n_lookups)]

        def scalar() -> int:
            lookup = table.lookup
            for key in queries:
                lookup(key)
            return len(queries)

        best, n_ops = _best_of(config.repeats, scalar)
        scalar_rate = n_ops / best
        rows.append(BenchRow("lookup", load, 1, n_ops, best, scalar_rate,
                             backend=backend))

        for batch in config.batch_sizes:
            batches = _chunks(queries, batch)

            def batched() -> int:
                lookup_many = table.lookup_many
                for chunk in batches:
                    lookup_many(chunk)
                return len(queries)

            best, n_ops = _best_of(config.repeats, batched)
            rate = n_ops / best
            rows.append(BenchRow("lookup", load, batch, n_ops, best, rate,
                                 speedup=rate / scalar_rate, backend=backend))


def _bench_puts(config: BenchCoreConfig, rows: List[BenchRow],
                backend: str) -> None:
    """Insert from empty up to each load factor, scalar vs ``put_many``."""
    for load in config.load_factors:
        rng = random.Random(config.seed + 7)
        sizing = McCuckoo(config.n_buckets, d=config.d, seed=config.seed)
        target = int(load * sizing.capacity)
        keys = [rng.getrandbits(64) for _ in range(target)]

        def scalar() -> int:
            table = McCuckoo(config.n_buckets, d=config.d, seed=config.seed,
                             mem=MemoryModel(), engine=backend)
            put = table.put
            for key in keys:
                put(key)
            return len(keys)

        best, n_ops = _best_of(config.repeats, scalar)
        scalar_rate = n_ops / best
        rows.append(BenchRow("put", load, 1, n_ops, best, scalar_rate,
                             backend=backend))

        for batch in config.batch_sizes:
            batches = _chunks([(key, None) for key in keys], batch)

            def batched() -> int:
                table = McCuckoo(config.n_buckets, d=config.d,
                                 seed=config.seed, mem=MemoryModel(),
                                 engine=backend)
                put_many = table.put_many
                for chunk in batches:
                    put_many(chunk)
                return len(keys)

            best, n_ops = _best_of(config.repeats, batched)
            rate = n_ops / best
            rows.append(BenchRow("put", load, batch, n_ops, best, rate,
                                 speedup=rate / scalar_rate, backend=backend))


def _bench_deletes(config: BenchCoreConfig, rows: List[BenchRow],
                   backend: str) -> None:
    """Delete resident keys from a table at the deepest load factor."""
    load = max(config.load_factors)
    rng = random.Random(config.seed + 13)

    def build() -> Tuple[McCuckoo, List[int]]:
        build_rng = random.Random(config.seed + 13)
        table = McCuckoo(config.n_buckets, d=config.d, seed=config.seed,
                         deletion_mode=DeletionMode.RESET, mem=MemoryModel(),
                         engine=backend)
        keys = _fill_to(table, int(load * table.capacity), build_rng)
        return table, keys

    table, keys = build()
    victims = rng.sample(keys, min(config.n_deletes, len(keys)))

    def scalar() -> Tuple[float, int]:
        fresh, _ = build()  # untimed: the rebuild is setup, not the op
        delete = fresh.delete
        start = time.perf_counter()
        for key in victims:
            delete(key)
        return time.perf_counter() - start, len(victims)

    best, n_ops = _best_of_timed(config.repeats, scalar)
    scalar_rate = n_ops / best
    rows.append(BenchRow("delete", load, 1, n_ops, best, scalar_rate,
                         backend=backend))

    for batch in config.batch_sizes:
        batches = _chunks(victims, batch)

        def batched() -> Tuple[float, int]:
            fresh, _ = build()
            delete_many = fresh.delete_many
            start = time.perf_counter()
            for chunk in batches:
                delete_many(chunk)
            return time.perf_counter() - start, len(victims)

        best, n_ops = _best_of_timed(config.repeats, batched)
        rate = n_ops / best
        rows.append(BenchRow("delete", load, batch, n_ops, best, rate,
                             speedup=rate / scalar_rate, backend=backend))


def _bench_highload(config: BenchCoreConfig, rows: List[BenchRow],
                    backend: str) -> None:
    """Frontier cells: d=4 + ``bubbling`` at loads the d=3 grid can't hold.

    Per load this times the full scalar fill from empty (put), a batched
    ``put_many`` fill, and scalar + batched lookups over the resident
    keys.  Rows carry the policy/d/kick cost in ``extra`` so the committed
    baseline also documents the insert-cost side of the frontier claim.
    """
    batch = max(config.batch_sizes)
    for load in config.highload_loads:

        def make_table() -> McCuckoo:
            return McCuckoo(config.highload_buckets, d=config.highload_d,
                            seed=config.seed, mem=MemoryModel(),
                            engine=backend,
                            kick_policy=config.highload_policy)

        rng = random.Random(config.seed + 31)
        sizing = make_table()
        target = int(load * sizing.capacity)
        keys = [rng.getrandbits(64) for _ in range(target)]
        extra_base = {"d": config.highload_d,
                      "policy": config.highload_policy}

        def scalar_put() -> Tuple[float, int]:
            table = make_table()
            put = table.put
            start = time.perf_counter()
            for key in keys:
                put(key)
            elapsed = time.perf_counter() - start
            scalar_put.kicks = table.total_kicks / max(1, len(keys))
            scalar_put.stash = len(table.stash) if table.stash else 0
            return elapsed, len(keys)

        best, n_ops = _best_of_timed(config.repeats, scalar_put)
        scalar_rate = n_ops / best
        rows.append(BenchRow(
            "put", load, 1, n_ops, best, scalar_rate, backend=backend,
            extra={**extra_base,
                   "kicks_per_insert": round(scalar_put.kicks, 3),
                   "stash_items": scalar_put.stash}))

        def batched_put() -> Tuple[float, int]:
            table = make_table()
            put_many = table.put_many
            chunks = _chunks([(key, None) for key in keys], batch)
            start = time.perf_counter()
            for chunk in chunks:
                put_many(chunk)
            return time.perf_counter() - start, len(keys)

        best, n_ops = _best_of_timed(config.repeats, batched_put)
        rate = n_ops / best
        rows.append(BenchRow("put", load, batch, n_ops, best, rate,
                             speedup=rate / scalar_rate, backend=backend,
                             extra=dict(extra_base)))

        table = make_table()
        for key in keys:
            table.put(key)
        queries = [keys[rng.randrange(len(keys))]
                   for _ in range(config.n_lookups)]

        def scalar_lookup() -> int:
            lookup = table.lookup
            for key in queries:
                lookup(key)
            return len(queries)

        best, n_ops = _best_of(config.repeats, scalar_lookup)
        scalar_rate = n_ops / best
        rows.append(BenchRow("lookup", load, 1, n_ops, best, scalar_rate,
                             backend=backend, extra=dict(extra_base)))

        query_chunks = _chunks(queries, batch)

        def batched_lookup() -> int:
            lookup_many = table.lookup_many
            for chunk in query_chunks:
                lookup_many(chunk)
            return len(queries)

        best, n_ops = _best_of(config.repeats, batched_lookup)
        rate = n_ops / best
        rows.append(BenchRow("lookup", load, batch, n_ops, best, rate,
                             speedup=rate / scalar_rate, backend=backend,
                             extra=dict(extra_base)))


def _headline_for(rows: List[BenchRow], phases: Sequence[str],
                  deepest: float, backend: str) -> Dict[str, Any]:
    headline: Dict[str, Any] = {}
    for phase in phases:
        candidates = [row for row in rows
                      if row.phase == phase and row.load == deepest
                      and row.backend == backend
                      and row.speedup is not None]
        if candidates:
            best_row = max(candidates, key=lambda row: row.speedup)
            headline[f"{phase}_speedup"] = round(best_row.speedup, 3)
            headline[f"{phase}_batch"] = best_row.batch
    headline["load"] = deepest
    return headline


def run_bench_core(config: Optional[BenchCoreConfig] = None,
                   phases: Sequence[str] = ("lookup", "put", "delete"),
                   verbose: bool = False,
                   profile: bool = False) -> Dict[str, Any]:
    """Run the harness and return the ``BENCH_core.json`` document.

    With ``profile``, every cell runs a single repeat under :mod:`cProfile`
    and the top-20 cumulative-time entries are printed to stderr — the
    intended way to see where kernel time actually goes per backend.
    """
    config = config if config is not None else BenchCoreConfig()
    for backend in config.backends:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
    if profile:
        import cProfile
        import dataclasses
        import pstats

        config = dataclasses.replace(config, repeats=1)
    rows: List[BenchRow] = []
    highload_rows: List[BenchRow] = []
    for backend in config.backends:
        for phase, bench in (("lookup", _bench_lookups), ("put", _bench_puts),
                             ("delete", _bench_deletes)):
            if phase not in phases:
                continue
            start = time.perf_counter()
            if profile:
                profiler = cProfile.Profile()
                profiler.enable()
                bench(config, rows, backend)
                profiler.disable()
                print(f"--- profile: {phase} [{backend}] ---", file=sys.stderr)
                stats = pstats.Stats(profiler, stream=sys.stderr)
                stats.sort_stats("cumulative").print_stats(20)
            else:
                bench(config, rows, backend)
            if verbose:
                print(f"[{phase} ({backend}): "
                      f"{time.perf_counter() - start:.1f}s]",
                      file=sys.stderr)
        if config.highload_loads:
            start = time.perf_counter()
            _bench_highload(config, highload_rows, backend)
            if verbose:
                print(f"[highload ({backend}): "
                      f"{time.perf_counter() - start:.1f}s]",
                      file=sys.stderr)

    deepest = max(config.load_factors)
    # Top-level headline keys describe the first (primary) backend so the
    # document shape is unchanged for single-backend runs; per-backend
    # headlines sit beside them.
    headline = _headline_for(rows, phases, deepest, config.backends[0])
    headline["backend"] = config.backends[0]
    by_backend = {
        backend: _headline_for(rows, phases, deepest, backend)
        for backend in config.backends
    }

    return {
        "benchmark": "bench_core",
        "config": {
            "n_buckets": config.n_buckets,
            "d": config.d,
            "seed": config.seed,
            "n_lookups": config.n_lookups,
            "n_deletes": config.n_deletes,
            "load_factors": list(config.load_factors),
            "batch_sizes": list(config.batch_sizes),
            "repeats": config.repeats,
            "backends": list(config.backends),
            "highload_loads": list(config.highload_loads),
            "highload_buckets": config.highload_buckets,
            "highload_d": config.highload_d,
            "highload_policy": config.highload_policy,
        },
        "environment": {
            "cpus": os.cpu_count() or 1,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "headline": headline,
        "headline_by_backend": by_backend,
        "rows": [
            {
                "phase": row.phase,
                "load": row.load,
                "batch": row.batch,
                "backend": row.backend,
                "n_ops": row.n_ops,
                "best_seconds": round(row.best_seconds, 6),
                "ops_per_sec": round(row.ops_per_sec, 1),
                **({"speedup": round(row.speedup, 3)}
                   if row.speedup is not None else {}),
            }
            for row in rows
        ],
        "highload_rows": [
            {
                "phase": row.phase,
                "load": row.load,
                "batch": row.batch,
                "backend": row.backend,
                "n_ops": row.n_ops,
                "best_seconds": round(row.best_seconds, 6),
                "ops_per_sec": round(row.ops_per_sec, 1),
                **({"speedup": round(row.speedup, 3)}
                   if row.speedup is not None else {}),
                **row.extra,
            }
            for row in highload_rows
        ],
    }


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable table of a :func:`run_bench_core` document."""
    cpus = report.get("environment", {}).get("cpus", "?")
    lines = [f"cpus={cpus}", "phase    load  batch  backend      ops/s  speedup"]
    for row in report["rows"]:
        speedup = f"{row['speedup']:.2f}x" if "speedup" in row else "  -"
        batch = "scalar" if row["batch"] == 1 else str(row["batch"])
        backend = row.get("backend", "python")
        lines.append(f"{row['phase']:<8s} {row['load']:.2f} {batch:>6s} "
                     f"{backend:>8s} {row['ops_per_sec']:>10,.0f}  "
                     f"{speedup:>6s}")
    by_backend = report.get(
        "headline_by_backend",
        {report["headline"].get("backend", "python"): report["headline"]},
    )
    for backend, headline in by_backend.items():
        parts = [f"{phase}={headline[f'{phase}_speedup']:.2f}x"
                 f"@bs{headline[f'{phase}_batch']}"
                 for phase in ("lookup", "put", "delete")
                 if f"{phase}_speedup" in headline]
        lines.append(f"headline [{backend}] (load {headline['load']}): "
                     + "  ".join(parts))
    highload = report.get("highload_rows", [])
    if highload:
        config = report.get("config", {})
        lines.append(
            f"high-load frontier (d={config.get('highload_d', '?')}, "
            f"policy {config.get('highload_policy', '?')}):")
        for row in highload:
            speedup = f"{row['speedup']:.2f}x" if "speedup" in row else "  -"
            batch = "scalar" if row["batch"] == 1 else str(row["batch"])
            extras = ""
            if "kicks_per_insert" in row:
                extras = (f"  kicks/ins {row['kicks_per_insert']:.2f}"
                          f"  stash {row.get('stash_items', 0)}")
            lines.append(f"{row['phase']:<8s} {row['load']:.2f} {batch:>6s} "
                         f"{row.get('backend', 'python'):>8s} "
                         f"{row['ops_per_sec']:>10,.0f}  {speedup:>6s}{extras}")
    return "\n".join(lines)


def load_report(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _cells(rows: List[Dict[str, Any]], backend: str) -> Dict[Tuple, float]:
    return {
        (row["phase"], row["load"], row["batch"]): row["ops_per_sec"]
        for row in rows
        if row.get("backend", "python") == backend
    }


def _anchor_of(
    cell: Tuple,
    current: Dict[Tuple, float],
    reference: Dict[Tuple, float],
    scalars: Optional[Tuple[Dict[Tuple, float], Dict[Tuple, float]]],
) -> Optional[Tuple[Tuple, float, float]]:
    """The scalar row ``cell`` is read against, and its ops/s in both
    runs: the same phase and load for a batched cell, else the
    highest-load scalar row of the same phase in ``scalars``."""
    phase, load, batch = cell
    if batch > 1:
        key = (phase, load, 1)
    elif scalars is not None:
        current, reference = scalars
        loads = [key[1] for key in current
                 if key[0] == phase and key[2] == 1 and key in reference]
        if not loads:
            return None
        key = (phase, max(loads), 1)
    else:
        return None
    if key not in current or key not in reference:
        return None
    return key, current[key], reference[key]


def _gate(
    current: Dict[Tuple, float],
    reference: Dict[Tuple, float],
    cells: List[Tuple],
    floor: float,
    label: str,
    scalars: Optional[Tuple[Dict[Tuple, float], Dict[Tuple, float]]] = None,
) -> Tuple[bool, str]:
    """(ok, message) over ``cells``, present in both runs.

    A cell fails only when two readings agree: its ops/s against the
    baseline, and its ops/s relative to a scalar row of the same run
    (:func:`_anchor_of`) against the baseline's.  For a batched cell the
    second reading is its speedup over scalar.  The first alone misreads
    a slower or busier machine than the baseline's as a regression, the
    second alone misreads a scalar row that ran slow; a kernel that got
    slower moves both.  The message names every failing cell, or else
    the cell nearest its floor."""
    failed: List[str] = []
    nearest: Optional[Tuple[float, str]] = None
    for cell in cells:
        phase, load, batch = cell
        ratio = current[cell] / reference[cell]
        text = (f"{label}{phase}@load{load}/bs{batch}: "
                f"{current[cell]:,.0f} ops/s vs baseline "
                f"{reference[cell]:,.0f} ({ratio:.2f}x")
        reading = ratio
        anchor = _anchor_of(cell, current, reference, scalars)
        if anchor is not None:
            key, now, then = anchor
            relative = ratio * then / now
            reading = max(ratio, relative)
            text += (f"; against this run's {key[0]}@load{key[1]} scalar "
                     f"row {relative:.2f}x")
        text += f", floor {floor:.2f}x)"
        if reading < floor:
            failed.append(text)
        elif nearest is None or reading < nearest[0]:
            nearest = (reading, text)
    if failed:
        return False, "; ".join(failed)
    assert nearest is not None
    return True, nearest[1]


def compare_to_baseline(
    report: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regression: float = 0.30,
    backend: str = "python",
) -> Tuple[bool, str]:
    """(ok, message) regression verdict for one backend's batched rows,
    each gated by :func:`_gate`'s two readings.

    Only compares scale-matched runs: a baseline produced with a different
    workload shape (buckets, d, query counts, loads, batches) says nothing
    about a regression, so mismatches are skipped and reported ok.
    Baseline rows without a ``backend`` tag predate the engine split and
    are treated as python-backend rows.
    """
    shape_keys = ("n_buckets", "d", "seed", "n_lookups", "n_deletes",
                  "load_factors", "batch_sizes")
    current_shape = {key: report["config"].get(key) for key in shape_keys}
    baseline_shape = {key: baseline["config"].get(key) for key in shape_keys}
    if current_shape != baseline_shape:
        return True, f"baseline shape differs ({baseline_shape}); skipped"
    current = _cells(report["rows"], backend)
    reference = _cells(baseline["rows"], backend)
    shared = sorted(cell for cell in set(current) & set(reference)
                    if cell[2] > 1)
    if not shared:
        return True, f"no shared {backend}-backend cells; skipped"
    return _gate(current, reference, shared, 1.0 - max_regression,
                 f"{backend} ")


def compare_highload_to_baseline(
    report: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regression: float = 0.30,
    backend: str = "python",
) -> Tuple[bool, str]:
    """(ok, message) gate for the high-load frontier section.

    Two assertions: every baseline (phase, load, batch) frontier cell must
    still exist — the frontier cannot silently recede to lower loads — and
    each shared cell must hold its throughput floor under :func:`_gate`;
    a scalar frontier cell is read against the main table's scalar row.
    Shape-mismatched baselines are skipped like
    :func:`compare_to_baseline`; baselines predating the section pass."""
    if not baseline.get("highload_rows"):
        return True, "baseline has no high-load section; skipped"
    shape_keys = ("highload_buckets", "highload_d", "highload_policy",
                  "highload_loads", "seed", "n_lookups")
    current_shape = {key: report["config"].get(key) for key in shape_keys}
    baseline_shape = {key: baseline["config"].get(key) for key in shape_keys}
    if current_shape != baseline_shape:
        return True, f"high-load shape differs ({baseline_shape}); skipped"
    current = _cells(report.get("highload_rows", []), backend)
    reference = _cells(baseline["highload_rows"], backend)
    if not reference:
        return True, f"no {backend}-backend high-load baseline cells; skipped"
    missing = sorted(set(reference) - set(current))
    if missing:
        return False, (f"high-load frontier receded: baseline cells "
                       f"{missing} absent from this run")
    scalars = (_cells(report["rows"], backend),
               _cells(baseline["rows"], backend))
    return _gate(current, reference, sorted(reference), 1.0 - max_regression,
                 f"{backend} highload ", scalars)


def write_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
