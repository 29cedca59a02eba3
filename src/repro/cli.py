"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiments``
    Regenerate paper exhibits (all, or a comma-separated subset) at a
    chosen scale, printing each as a text table.
``list``
    List the available experiment ids with their titles.
``fill``
    Fill one scheme to a target load and report its access accounting,
    counter histogram, and FPGA-model latency estimates.
``workload``
    Replay a mixed insert/lookup/delete trace against one scheme and
    report the trace statistics (zero false results expected).
``report``
    Run every experiment and write a self-contained markdown report.
``validate``
    Quick PASS/FAIL re-check of the paper's headline claims.
``bench-core``
    Time the scalar vs batched operation kernels (lookup_many/put_many/
    delete_many) and write the ``BENCH_core.json`` perf baseline.
``serve``
    Run the asyncio TCP server fronting the sharded log-structured
    McCuckoo store (writes applied inline at admission, explicit
    backpressure).
    ``--workers N`` executes shards in N supervised worker processes.
``loadgen``
    Drive a closed-loop workload (zipf/uniform/mixed/YCSB) through the
    async client and report ops/sec with per-kind p50/p95/p99 latency
    (``--json`` emits the machine-readable summary).
``faultgen``
    Chaos run: drive a seeded workload at an in-process server with an
    injected fault plan (crashes, torn writes, BUSY storms, corrupt/
    dropped frames, slow shards, worker kills) and verify zero lost
    acknowledged writes; exits non-zero on any safety violation or hang.
``bench-serve``
    Sweep worker counts over the TCP serving path and write the
    ``BENCH_serve.json`` perf baseline.
``compact``
    Offline maintenance: rewrite a durable shard log file to live
    records only (tombstones and overwritten versions dropped).
``checkpoint``
    Offline maintenance: write a checkpoint artifact for a shard log
    file, so the next recovery restores the index and replays only the
    post-checkpoint tail.
``bench-recovery``
    Time restart (full log replay vs checkpoint + tail) across growing
    histories and write the ``BENCH_recovery.json`` perf baseline.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .analysis import ALL_EXPERIMENTS, Scale, render, run_core_sweep
from .analysis.sweep import make_schemes
from .core import DeletionMode
from .core.errors import ReproError
from .core.policies import POLICIES as CORE_POLICIES
from .memory.latency import PAPER_FPGA
from .memory.model import OpStats
from .serve.loadgen import WORKLOADS as LOADGEN_WORKLOADS
from .workloads import TraceGenerator, key_stream, replay

SWEEP_BASED = {"fig9", "fig10", "fig12", "fig13", "fig15", "fig16"}
SCHEME_NAMES = ("Cuckoo", "McCuckoo", "BCHT", "B-McCuckoo")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-copy Cuckoo Hashing (ICDE 2019) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    experiments = sub.add_parser(
        "experiments", help="regenerate paper tables/figures"
    )
    experiments.add_argument("--only", default="",
                             help="comma-separated experiment ids")
    experiments.add_argument("--scale", type=int, default=2000,
                             help="buckets per sub-table (single-slot schemes)")
    experiments.add_argument("--repeats", type=int, default=3)

    sub.add_parser("list", help="list experiment ids")

    fill = sub.add_parser("fill", help="fill one scheme and report stats")
    fill.add_argument("scheme", choices=SCHEME_NAMES)
    fill.add_argument("--load", type=float, default=0.85)
    fill.add_argument("--scale", type=int, default=2000)
    fill.add_argument("--seed", type=int, default=7)

    workload = sub.add_parser("workload", help="replay a mixed op trace")
    workload.add_argument("scheme", choices=SCHEME_NAMES)
    workload.add_argument("--ops", type=int, default=5000)
    workload.add_argument("--scale", type=int, default=2000)
    workload.add_argument("--seed", type=int, default=7)
    workload.add_argument("--insert", type=float, default=0.4)
    workload.add_argument("--lookup", type=float, default=0.35)
    workload.add_argument("--missing", type=float, default=0.15)
    workload.add_argument("--delete", type=float, default=0.1)

    report = sub.add_parser("report", help="write a full markdown report")
    report.add_argument("-o", "--output", default="report.md")
    report.add_argument("--scale", type=int, default=1000)
    report.add_argument("--repeats", type=int, default=2)
    report.add_argument("--only", default="",
                        help="comma-separated experiment ids")
    report.add_argument("--no-charts", action="store_true")

    validate = sub.add_parser(
        "validate",
        help="re-check the paper's headline claims (DESIGN.md §6) quickly",
    )
    validate.add_argument("--scale", type=int, default=600)
    validate.add_argument("--repeats", type=int, default=1)

    bench_core = sub.add_parser(
        "bench-core",
        help="time scalar vs batched kernels and write BENCH_core.json",
    )
    bench_core.add_argument("-o", "--output", default="BENCH_core.json",
                            help="output JSON path ('-' for stdout only)")
    bench_core.add_argument("--quick", action="store_true",
                            help="seconds-scale CI smoke configuration")
    bench_core.add_argument("--phases", default="lookup,put,delete",
                            help="comma-separated subset of lookup,put,delete")
    bench_core.add_argument("--buckets", type=int, default=None,
                            help="buckets per sub-table (default 40000)")
    bench_core.add_argument("--lookups", type=int, default=None,
                            help="uniform queries per lookup cell (default 100000)")
    bench_core.add_argument("--repeats", type=int, default=None,
                            help="best-of repeats per cell (default 3)")
    bench_core.add_argument("--seed", type=int, default=None)
    bench_core.add_argument("--backend", default="python",
                            choices=("python", "numpy", "auto", "both"),
                            help="engine backend to measure; 'both' runs "
                                 "python and numpy side by side")
    bench_core.add_argument("--loads", default=None,
                            help="comma-separated high-load fills for the "
                                 "d=4 bubbling section, e.g. '0.95,0.97' "
                                 "(overrides the config default)")
    bench_core.add_argument("--no-highload", action="store_true",
                            help="skip the d=4 bubbling high-load section")
    bench_core.add_argument("--profile", action="store_true",
                            help="one repeat per cell under cProfile; "
                                 "print top-20 cumulative to stderr")

    serve = sub.add_parser("serve", help="run the KV service over TCP")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=9090)
    serve.add_argument("--shards", type=int, default=4)
    serve.add_argument("--expected-items", type=int, default=100_000)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--max-connections", type=int, default=64)
    serve.add_argument("--queue-depth", type=int, default=512,
                       help="in-flight write ops per shard (per worker with "
                            "--workers) past which writes draw BUSY")
    serve.add_argument("--timeout", type=float, default=5.0,
                       help="per-request timeout in seconds")
    serve.add_argument("--durable", action="store_true",
                       help="keep per-shard log images for crash recovery")
    serve.add_argument("--faults", default="",
                       help="fault-plan spec (docs/faults.md), e.g. "
                            "'busy=0.05;corrupt_frame=0.01'")
    serve.add_argument("--fault-seed", type=int, default=0,
                       help="seed for the fault plan's RNGs")
    serve.add_argument("--workers", type=int, default=0,
                       help="shard worker processes (0 = single-process)")
    serve.add_argument("--engine", default="auto",
                       choices=("python", "numpy", "auto"),
                       help="batch-kernel backend for the shard indexes "
                            "(default: auto = numpy when installed)")
    serve.add_argument("--kick-policy", default=None,
                       choices=sorted(CORE_POLICIES),
                       help="victim-selection policy for the shard indexes "
                            "(default random-walk; 'bubbling' sustains "
                            "higher index load before resizing)")
    serve.add_argument("--replicas", type=int, default=0,
                       help="per-shard read replicas (0 or 1; needs "
                            "--workers >= 2): acked writes are mirrored "
                            "to the next worker ring-wise, and reads "
                            "fail over to it while the owner is down")
    serve.add_argument("--compact-at", type=float, default=None,
                       help="garbage-ratio threshold for background "
                            "compaction (enables the maintenance daemon)")
    serve.add_argument("--checkpoint-every", type=int, default=None,
                       help="appends between checkpoints (enables the "
                            "maintenance daemon; 0 disables)")

    loadgen = sub.add_parser("loadgen", help="drive a workload at a server")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=9090)
    loadgen.add_argument("--workload", default="zipf",
                         choices=sorted(LOADGEN_WORKLOADS))
    loadgen.add_argument("--ops", type=int, default=10_000)
    loadgen.add_argument("--keys", type=int, default=1_000)
    loadgen.add_argument("--concurrency", type=int, default=8,
                         help="closed-loop workers (and connection pool size)")
    loadgen.add_argument("--batch", type=int, default=1,
                         help="ops pipelined per BATCH frame")
    loadgen.add_argument("--value-size", type=int, default=64)
    loadgen.add_argument("--zipf-s", type=float, default=0.99)
    loadgen.add_argument("--mix", default=None,
                         help="op-mix override for mixed-style workloads, "
                              "e.g. 'get=0.95,put=0.05' (kinds: get/put/"
                              "delete; weights need not sum to 1)")
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--standalone", action="store_true",
                         help="start an in-process server first (demo mode)")
    loadgen.add_argument("--retries", type=int, default=0,
                         help="retry attempts per op (0 = no retry policy)")
    loadgen.add_argument("--deadline", type=float, default=None,
                         help="per-request client deadline in seconds")
    loadgen.add_argument("--json", action="store_true",
                         help="print the machine-readable summary JSON "
                              "instead of the table")
    loadgen.add_argument("--workers", type=int, default=0,
                         help="with --standalone: worker processes for the "
                              "in-process server (0 = single-process)")

    faultgen = sub.add_parser(
        "faultgen",
        help="chaos run: loadgen + fault injection + zero-loss verification",
    )
    faultgen.add_argument("--ops", type=int, default=2_000)
    faultgen.add_argument("--keys", type=int, default=256)
    faultgen.add_argument("--concurrency", type=int, default=4)
    faultgen.add_argument("--shards", type=int, default=4)
    faultgen.add_argument("--value-size", type=int, default=32)
    faultgen.add_argument("--seed", type=int, default=0)
    faultgen.add_argument("--faults", default=None,
                          help="fault-plan spec (default: the built-in "
                               "crash/torn/busy/corrupt/drop/delay mix)")
    faultgen.add_argument("--deadline", type=float, default=5.0,
                          help="per-request client deadline in seconds")
    faultgen.add_argument("--run-timeout", type=float, default=60.0,
                          help="wall-clock budget; exceeding it reports a hang")
    faultgen.add_argument("--smoke", action="store_true",
                          help="seconds-scale CI configuration")
    faultgen.add_argument("--workers", type=int, default=0,
                          help="shard worker processes (0 = single-process; "
                               "N > 0 makes kill_worker faults meaningful)")
    faultgen.add_argument("--maintenance", action="store_true",
                          help="run the maintenance daemon (aggressive "
                               "thresholds) and strike during compactions "
                               "and checkpoint writes")
    faultgen.add_argument("--migrate", action="store_true",
                          help="run live shard migrations during the drive "
                               "(with --workers >= 2); the audit must hold "
                               "across routing flips")

    reshard = sub.add_parser(
        "reshard",
        help="live-migration demo: load a worker server, move a shard, "
             "verify every key survived",
    )
    reshard.add_argument("--shards", type=int, default=4)
    reshard.add_argument("--workers", type=int, default=2)
    reshard.add_argument("--keys", type=int, default=2_000)
    reshard.add_argument("--value-size", type=int, default=64)
    reshard.add_argument("--seed", type=int, default=0)
    reshard.add_argument("--shard", type=int, default=0,
                         help="shard to migrate")
    reshard.add_argument("--target", type=int, default=None,
                         help="destination worker (default: the next "
                              "worker ring-wise after the current owner)")
    reshard.add_argument("--faults", default="",
                         help="fault-plan spec, e.g. "
                              "'kill_worker_during=migration:3@0'")
    reshard.add_argument("--fault-seed", type=int, default=0)

    bench_serve = sub.add_parser(
        "bench-serve",
        help="sweep worker counts over the TCP path, write BENCH_serve.json",
    )
    bench_serve.add_argument("-o", "--output", default="BENCH_serve.json",
                             help="output JSON path ('-' for stdout only)")
    bench_serve.add_argument("--quick", action="store_true",
                             help="seconds-scale CI smoke configuration")
    bench_serve.add_argument("--workers", default=None,
                             help="comma-separated sweep points, e.g. "
                                  "'0,1,2,4' (0 = single-process baseline)")
    bench_serve.add_argument("--ops", type=int, default=None)
    bench_serve.add_argument("--keys", type=int, default=None)
    bench_serve.add_argument("--concurrency", type=int, default=None)
    bench_serve.add_argument("--batch", type=int, default=None)
    bench_serve.add_argument("--shards", type=int, default=None)
    bench_serve.add_argument("--repeats", type=int, default=None)
    bench_serve.add_argument("--seed", type=int, default=None)

    compact = sub.add_parser(
        "compact",
        help="rewrite a durable shard log file to live records only",
    )
    compact.add_argument("log", help="shard log file to compact")
    compact.add_argument("-o", "--output", default=None,
                         help="write the compacted log here "
                              "(default: rewrite the input in place)")
    compact.add_argument("--expected-items", type=int, default=1024)
    compact.add_argument("--seed", type=int, default=1,
                         help="index seed the log was written under")

    checkpoint = sub.add_parser(
        "checkpoint",
        help="write a checkpoint artifact for a durable shard log file",
    )
    checkpoint.add_argument("log", help="shard log file to checkpoint")
    checkpoint.add_argument("-o", "--output", required=True,
                            help="checkpoint artifact path")
    checkpoint.add_argument("--expected-items", type=int, default=1024)
    checkpoint.add_argument("--seed", type=int, default=1,
                            help="index seed the log was written under")

    bench_recovery = sub.add_parser(
        "bench-recovery",
        help="time restart (full replay vs checkpoint + tail), write "
             "BENCH_recovery.json",
    )
    bench_recovery.add_argument("-o", "--output",
                                default="BENCH_recovery.json",
                                help="output JSON path ('-' for stdout only)")
    bench_recovery.add_argument("--quick", action="store_true",
                                help="seconds-scale CI smoke configuration")
    bench_recovery.add_argument("--ops", default=None,
                                help="comma-separated historical op counts, "
                                     "e.g. '2000,8000,32000'")
    bench_recovery.add_argument("--tail-ops", type=int, default=None,
                                help="appends after the checkpoint "
                                     "(default 64)")
    bench_recovery.add_argument("--repeats", type=int, default=None,
                                help="best-of repeats per cell")
    bench_recovery.add_argument("--seed", type=int, default=None)
    return parser


def _cmd_list() -> int:
    for name, function in ALL_EXPERIMENTS.items():
        doc = (function.__doc__ or "").strip().splitlines()[0]
        print(f"{name:18s} {doc}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    scale = Scale(n_single=args.scale, repeats=args.repeats)
    selected = (
        [name.strip() for name in args.only.split(",") if name.strip()]
        if args.only
        else list(ALL_EXPERIMENTS)
    )
    unknown = [name for name in selected if name not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        print(f"available: {sorted(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    sweep = None
    if any(name in SWEEP_BASED for name in selected):
        start = time.time()
        sweep = run_core_sweep(scale)
        print(f"[shared load sweep: {time.time() - start:.1f}s]")
    for name in selected:
        function = ALL_EXPERIMENTS[name]
        result = function(scale, sweep=sweep) if name in SWEEP_BASED else function(scale)
        print(render(result))
        print()
    return 0


def _cmd_fill(args: argparse.Namespace) -> int:
    scale = Scale(n_single=args.scale, repeats=1)
    factory = make_schemes(scale, seed=args.seed,
                           deletion_mode=DeletionMode.DISABLED)[args.scheme]
    table = factory()
    keys = key_stream(seed=args.seed ^ 0xF111)
    stats = OpStats()
    target = int(args.load * table.capacity)
    start = time.time()
    while len(table) < target:
        with table.mem.measure() as measurement:
            outcome = table.put(next(keys))
        stats.add(measurement.delta, kicks=outcome.kicks)
        if outcome.failed:
            break
    elapsed = time.time() - start
    print(f"{args.scheme}: filled to {table.load_ratio:.2%} "
          f"({len(table)} items) in {elapsed:.2f}s")
    for metric, value in stats.as_row().items():
        print(f"  {metric:24s} {value:.4f}")
    print(f"  access totals            {table.mem.summary()}")
    print(f"  modelled insert latency  {PAPER_FPGA.latency_us(stats):.3f} us/op")
    if hasattr(table, "counter_histogram"):
        print("  counter histogram        "
              f"{dict(sorted(table.counter_histogram().items()))}")
    if hasattr(table, "onchip_bytes"):
        print(f"  on-chip footprint        {table.onchip_bytes} bytes")
    stash = getattr(table, "stash", None)
    if stash is not None:
        print(f"  stash population         {len(stash)}")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    scale = Scale(n_single=args.scale, repeats=1)
    factory = make_schemes(scale, seed=args.seed,
                           deletion_mode=DeletionMode.RESET)[args.scheme]
    table = factory()
    trace = TraceGenerator(
        args.ops,
        insert_ratio=args.insert,
        lookup_ratio=args.lookup,
        missing_ratio=args.missing,
        delete_ratio=args.delete,
        seed=args.seed,
    )
    start = time.time()
    stats = replay(table, iter(trace))
    elapsed = time.time() - start
    print(f"{args.scheme}: {args.ops} ops in {elapsed:.2f}s "
          f"({args.ops / elapsed:,.0f} ops/s)")
    print(f"  inserts={stats.inserts} (stashed={stats.stashed}, "
          f"failed={stats.failed})")
    print(f"  lookups={stats.lookups} hits={stats.hits} "
          f"stash_checks={stats.stash_checks}")
    print(f"  deletes={stats.deletes} misses={stats.delete_misses}")
    print(f"  false_negatives={stats.false_negatives} "
          f"false_positives={stats.false_positives}")
    print(f"  access totals {table.mem.summary()}")
    return 1 if (stats.false_negatives or stats.false_positives) else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import write_report

    only = [name.strip() for name in args.only.split(",") if name.strip()] or None
    scale = Scale(n_single=args.scale, repeats=args.repeats)
    try:
        write_report(args.output, scale, only=only,
                     include_charts=not args.no_charts)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(f"report written to {args.output}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    """Quick pass/fail re-check of the acceptance criteria in DESIGN.md §6."""
    from .analysis import (
        fig9_kickouts,
        fig10_memaccess,
        fig12_lookup_existing,
        fig13_lookup_missing,
        run_core_sweep,
        table1_first_collision,
    )

    scale = Scale(n_single=args.scale, repeats=args.repeats, n_queries=400)
    print(f"validating at n_single={args.scale}, repeats={args.repeats} ...")
    sweep = run_core_sweep(scale)
    checks: List[tuple] = []

    fig9 = fig9_kickouts(scale, sweep=sweep)
    mc = fig9.series("load", "kicks_per_insert", scheme="McCuckoo")
    cu = fig9.series("load", "kicks_per_insert", scheme="Cuckoo")
    checks.append(("fig9: McCuckoo kicks < 70% of Cuckoo @85%",
                   mc[0.85] < cu[0.85] * 0.7))
    bmc = fig9.series("load", "kicks_per_insert", scheme="B-McCuckoo")
    bcht = fig9.series("load", "kicks_per_insert", scheme="BCHT")
    checks.append(("fig9: B-McCuckoo kicks < 50% of BCHT @95%",
                   bmc[0.95] < bcht[0.95] * 0.5))

    fig10 = fig10_memaccess(scale, sweep=sweep)
    mc_reads = fig10.series("load", "reads_per_insert", scheme="McCuckoo")
    cu_reads = fig10.series("load", "reads_per_insert", scheme="Cuckoo")
    checks.append(("fig10a: McCuckoo reads ~0 at 10% load", mc_reads[0.1] < 0.2))
    checks.append(("fig10a: McCuckoo reads below Cuckoo at 85%",
                   mc_reads[0.85] < cu_reads[0.85]))
    mc_writes = fig10.series("load", "writes_per_insert", scheme="McCuckoo")
    cu_writes = fig10.series("load", "writes_per_insert", scheme="Cuckoo")
    checks.append(("fig10b: McCuckoo writes higher at 10% (redundancy)",
                   mc_writes[0.1] > cu_writes[0.1]))

    table1 = table1_first_collision(scale)
    loads = {row["scheme"]: row["first_collision_load"] for row in table1.rows}
    checks.append(("table1: Cuckoo < McCuckoo < BCHT < B-McCuckoo",
                   loads["Cuckoo"] < loads["McCuckoo"]
                   < loads["BCHT"] < loads["B-McCuckoo"]))

    fig12 = fig12_lookup_existing(scale, sweep=sweep)
    checks.append((
        "fig12: McCuckoo existing-lookup accesses below Cuckoo @50%",
        fig12.series("load", "offchip_accesses_per_lookup", scheme="McCuckoo")[0.5]
        < fig12.series("load", "offchip_accesses_per_lookup", scheme="Cuckoo")[0.5],
    ))

    fig13 = fig13_lookup_missing(scale, sweep=sweep)
    checks.append((
        "fig13: Cuckoo missing lookups read all 3 buckets",
        abs(fig13.series("load", "offchip_accesses_per_lookup",
                         scheme="Cuckoo")[0.5] - 3.0) < 1e-9,
    ))
    checks.append((
        "fig13: McCuckoo missing lookups < 1.2 accesses @50%",
        fig13.series("load", "offchip_accesses_per_lookup",
                     scheme="McCuckoo")[0.5] < 1.2,
    ))

    failed = 0
    for label, ok in checks:
        print(f"  [{'PASS' if ok else 'FAIL'}] {label}")
        if not ok:
            failed += 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


def _cmd_bench_core(args: argparse.Namespace) -> int:
    import dataclasses

    from .analysis.bench_core import (
        BenchCoreConfig,
        render_report,
        run_bench_core,
        write_report,
    )

    config = BenchCoreConfig.quick() if args.quick else BenchCoreConfig()
    overrides = {}
    if args.buckets is not None:
        overrides["n_buckets"] = args.buckets
    if args.lookups is not None:
        overrides["n_lookups"] = args.lookups
    if args.repeats is not None:
        overrides["repeats"] = args.repeats
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.backend == "both":
        overrides["backends"] = ("python", "numpy")
    else:
        overrides["backends"] = (args.backend,)
    if args.loads is not None:
        try:
            overrides["highload_loads"] = tuple(
                float(load) for load in args.loads.split(",") if load.strip()
            )
        except ValueError:
            print(f"bad --loads value: {args.loads!r}", file=sys.stderr)
            return 2
    if args.no_highload:
        overrides["highload_loads"] = ()
    if overrides:
        config = dataclasses.replace(config, **overrides)
    phases = tuple(
        phase.strip() for phase in args.phases.split(",") if phase.strip()
    )
    unknown = [phase for phase in phases if phase not in ("lookup", "put", "delete")]
    if unknown:
        print(f"unknown phases: {unknown}", file=sys.stderr)
        return 2
    report = run_bench_core(config, phases=phases, verbose=True,
                            profile=args.profile)
    print(render_report(report))
    if args.output != "-":
        write_report(report, args.output)
        print(f"baseline written to {args.output}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import McCuckooServer, ServerConfig

    fault_plan = None
    if args.faults:
        from .faults import FaultPlan

        try:
            fault_plan = FaultPlan.parse(args.faults, seed=args.fault_seed)
        except ReproError as error:
            print(f"repro serve: error: {error}", file=sys.stderr)
            return 2
    maintenance = None
    if args.compact_at is not None or args.checkpoint_every is not None:
        from .maintenance import MaintenanceConfig

        maintenance = MaintenanceConfig(
            compact_at=(args.compact_at
                        if args.compact_at is not None else -1.0),
            checkpoint_every=(args.checkpoint_every
                              if args.checkpoint_every is not None else 0),
        )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        n_shards=args.shards,
        expected_items=args.expected_items,
        seed=args.seed,
        max_connections=args.max_connections,
        writer_queue_depth=args.queue_depth,
        request_timeout=args.timeout,
        durable=args.durable or maintenance is not None,
        fault_plan=fault_plan,
        engine=args.engine,
        kick_policy=args.kick_policy,
        maintenance=maintenance,
        replicas=args.replicas,
    )

    if args.workers < 0:
        print("repro serve: error: --workers must be >= 0", file=sys.stderr)
        return 2
    if args.replicas and args.workers < 2:
        print("repro serve: error: --replicas needs --workers >= 2",
              file=sys.stderr)
        return 2
    try:
        if args.workers > 0:
            from .serve import WorkerServer

            server_obj: McCuckooServer = WorkerServer(config,
                                                      n_workers=args.workers)
        else:
            server_obj = McCuckooServer(config)
    except ReproError as error:
        print(f"repro serve: error: {error}", file=sys.stderr)
        return 2

    async def run() -> None:
        async with server_obj as server:
            host, port = server.address
            workers = getattr(server, "n_workers", 0)
            topology = (f"{workers} worker processes"
                        if workers else "single process")
            print(f"serving {config.n_shards}-shard McCuckoo store "
                  f"on {host}:{port} ({topology}; Ctrl-C to stop)")
            if fault_plan is not None:
                print(f"fault injection armed: {fault_plan.describe()}")
            if maintenance is not None:
                print(f"maintenance daemon on: {maintenance.describe()}")
            await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nserver stopped")
    except (ReproError, OSError) as error:
        print(f"repro serve: error: {error}", file=sys.stderr)
        return 2
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import LoadgenConfig, run_loadgen
    from .serve.loadgen import parse_mix

    mix = {}
    if args.mix is not None:
        try:
            ratios = parse_mix(args.mix)
        except ValueError as error:
            print(f"repro loadgen: error: {error}", file=sys.stderr)
            return 2
        mix = {
            "get_ratio": ratios["get"],
            "put_ratio": ratios["put"],
            "delete_ratio": ratios["delete"],
        }
    config = LoadgenConfig(
        workload=args.workload,
        n_ops=args.ops,
        n_keys=args.keys,
        concurrency=args.concurrency,
        batch_size=args.batch,
        value_size=args.value_size,
        zipf_s=args.zipf_s,
        seed=args.seed,
        **mix,
    )

    retry = None
    if args.retries > 0:
        from .serve import RetryPolicy

        retry = RetryPolicy(max_attempts=args.retries,
                            deadline=args.deadline, seed=config.seed)

    async def run() -> int:
        if args.standalone:
            from .serve import McCuckooServer, ServerConfig

            server_config = ServerConfig(
                host=args.host, port=0,
                expected_items=max(4096, 2 * args.keys),
            )
            if args.workers > 0:
                from .serve import WorkerServer

                server = WorkerServer(server_config, n_workers=args.workers)
            else:
                server = McCuckooServer(server_config)
            async with server:
                host, port = server.address
                if not args.json:
                    print(f"[standalone server on {host}:{port}]")
                report = await run_loadgen(host, port, config, retry=retry)
        else:
            report = await run_loadgen(args.host, args.port, config,
                                       retry=retry)
        if args.json:
            import json

            print(json.dumps(report.summary_json(), indent=2))
        else:
            print(report.render())
        return 1 if report.errors else 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        print("\nloadgen interrupted")
        return 130
    except (ReproError, OSError) as error:
        print(f"repro loadgen: error: {error}", file=sys.stderr)
        return 2


def _cmd_faultgen(args: argparse.Namespace) -> int:
    import asyncio
    import dataclasses

    from .serve import FaultgenConfig, run_faultgen

    if args.smoke:
        config = FaultgenConfig.smoke(seed=args.seed,
                                      maintenance=args.maintenance)
    else:
        config = FaultgenConfig(
            n_ops=args.ops,
            n_keys=args.keys,
            concurrency=args.concurrency,
            n_shards=args.shards,
            value_size=args.value_size,
            seed=args.seed,
            deadline=args.deadline,
            run_timeout=args.run_timeout,
            maintenance=args.maintenance,
        )
    if args.faults is not None:
        config = dataclasses.replace(config, faults=args.faults)
    if args.workers > 0:
        config = dataclasses.replace(config, n_workers=args.workers)
    if args.migrate:
        if config.n_workers < 2:
            print("repro faultgen: error: --migrate needs --workers >= 2",
                  file=sys.stderr)
            return 2
        config = dataclasses.replace(config, migrate=True)
    try:
        report = asyncio.run(run_faultgen(config))
    except KeyboardInterrupt:
        print("\nfaultgen interrupted")
        return 130
    except (ReproError, OSError) as error:
        print(f"repro faultgen: error: {error}", file=sys.stderr)
        return 2
    print(report.render())
    if not report.ok:
        workers = f" --workers {config.n_workers}" if config.n_workers else ""
        maintenance = " --maintenance" if config.maintenance else ""
        migrate = " --migrate" if config.migrate else ""
        print(f"reproduce with: repro faultgen --seed {config.seed} "
              f"--ops {config.n_ops} --keys {config.n_keys} "
              f"--concurrency {config.concurrency}"
              f"{workers}{maintenance}{migrate}",
              file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_reshard(args: argparse.Namespace) -> int:
    """Standalone live-migration demo: load, migrate, verify, report."""
    import asyncio

    from .serve import McCuckooClient, ServerConfig, WorkerServer

    if args.workers < 2:
        print("repro reshard: error: --workers must be >= 2", file=sys.stderr)
        return 2
    if not 0 <= args.shard < args.shards:
        print(f"repro reshard: error: --shard must be in [0, {args.shards})",
              file=sys.stderr)
        return 2
    fault_plan = None
    if args.faults:
        from .faults import FaultPlan

        try:
            fault_plan = FaultPlan.parse(args.faults, seed=args.fault_seed)
        except ReproError as error:
            print(f"repro reshard: error: {error}", file=sys.stderr)
            return 2
    config = ServerConfig(
        n_shards=args.shards,
        expected_items=max(4096, 4 * args.keys),
        seed=args.seed,
        durable=True,
        fault_plan=fault_plan,
    )

    async def run() -> int:
        from .serve.loadgen import value_bytes

        async with WorkerServer(config, n_workers=args.workers) as server:
            host, port = server.address
            target = args.target
            if target is None:
                owner = server.routing.worker_of_shard(args.shard)
                target = (owner + 1) % server.n_workers
            async with McCuckooClient(host, port) as client:
                expected = {}
                for key in range(1, args.keys + 1):
                    value = value_bytes(key, 0, args.value_size)
                    if await client.put(key, value):
                        expected[key] = value
                report = await server.reshard(args.shard, target)
                print(report.render())
                await server.pool.await_restarts()
                await server.drain_writes()
                lost = 0
                for key, value in expected.items():
                    if await client.get(key) != value:
                        lost += 1
                print(f"verify: {len(expected)} acked keys, {lost} lost")
                return 0 if lost == 0 else 1

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        print("\nreshard interrupted")
        return 130
    except (ReproError, OSError) as error:
        print(f"repro reshard: error: {error}", file=sys.stderr)
        return 2


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    import dataclasses

    from .analysis.bench_serve import (
        BenchServeConfig,
        render_report,
        run_bench_serve,
        write_report,
    )

    config = BenchServeConfig.quick() if args.quick else BenchServeConfig()
    overrides = {}
    if args.workers is not None:
        try:
            sweep = tuple(int(part) for part in args.workers.split(",")
                          if part.strip() != "")
        except ValueError:
            print(f"repro bench-serve: bad --workers {args.workers!r}",
                  file=sys.stderr)
            return 2
        if not sweep or min(sweep) < 0:
            print("repro bench-serve: --workers needs non-negative points",
                  file=sys.stderr)
            return 2
        overrides["workers"] = sweep
    if args.ops is not None:
        overrides["n_ops"] = args.ops
    if args.keys is not None:
        overrides["n_keys"] = args.keys
    if args.concurrency is not None:
        overrides["concurrency"] = args.concurrency
    if args.batch is not None:
        overrides["batch_size"] = args.batch
    if args.shards is not None:
        overrides["n_shards"] = args.shards
    if args.repeats is not None:
        overrides["repeats"] = args.repeats
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = dataclasses.replace(config, **overrides)
    try:
        report = run_bench_serve(config, verbose=True)
    except ReproError as error:
        print(f"repro bench-serve: error: {error}", file=sys.stderr)
        return 2
    print(render_report(report))
    if args.output != "-":
        write_report(report, args.output)
        print(f"baseline written to {args.output}")
    return 0


def _load_log_file(path: str, expected_items: int, seed: int):
    """Verbatim-image load shared by the offline maintenance verbs: the
    store's one recovery path, into a store built from the flags."""
    from .apps.kvstore import LogStructuredStore

    with open(path, "rb") as handle:
        data = handle.read()
    store = LogStructuredStore(expected_items=expected_items, seed=seed,
                               durable=True)
    report = store.recover_with_checkpoint(data)
    if report.torn_tail:
        print(f"note: truncated a torn {report.bytes_truncated}-byte tail",
              file=sys.stderr)
    return store


def _cmd_compact(args: argparse.Namespace) -> int:
    try:
        store = _load_log_file(args.log, args.expected_items, args.seed)
    except (OSError, ReproError) as error:
        print(f"repro compact: error: {error}", file=sys.stderr)
        return 2
    before = store.log_size
    dropped = store.compact()
    output = args.output or args.log
    with open(output, "wb") as handle:
        handle.write(store.log_bytes)
    print(f"compacted {args.log}: {before} -> {store.log_size} bytes "
          f"({dropped} dead records dropped, {len(store)} live) -> {output}")
    if dropped:
        print("note: any existing checkpoint for this log is now stale "
              "(it will self-invalidate on recovery); re-run "
              "'repro checkpoint' to refresh it")
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    try:
        store = _load_log_file(args.log, args.expected_items, args.seed)
    except (OSError, ReproError) as error:
        print(f"repro checkpoint: error: {error}", file=sys.stderr)
        return 2
    artifact = store.take_checkpoint()
    with open(args.output, "wb") as handle:
        handle.write(artifact)
    print(f"checkpoint for {args.log} ({store.log_records} records, "
          f"{len(store)} live keys) -> {args.output} "
          f"({len(artifact)} bytes)")
    return 0


def _cmd_bench_recovery(args: argparse.Namespace) -> int:
    import dataclasses

    from .analysis.bench_recovery import (
        BenchRecoveryConfig,
        render_report,
        run_bench_recovery,
        write_report,
    )

    config = (BenchRecoveryConfig.quick() if args.quick
              else BenchRecoveryConfig())
    overrides = {}
    if args.ops is not None:
        try:
            counts = tuple(int(part) for part in args.ops.split(",")
                           if part.strip())
        except ValueError:
            print(f"repro bench-recovery: bad --ops {args.ops!r}",
                  file=sys.stderr)
            return 2
        if not counts or min(counts) <= 0:
            print("repro bench-recovery: --ops needs positive counts",
                  file=sys.stderr)
            return 2
        overrides["op_counts"] = counts
    if args.tail_ops is not None:
        overrides["tail_ops"] = args.tail_ops
    if args.repeats is not None:
        overrides["repeats"] = args.repeats
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = dataclasses.replace(config, **overrides)
    report = run_bench_recovery(config, verbose=True)
    print(render_report(report))
    if args.output != "-":
        write_report(report, args.output)
        print(f"baseline written to {args.output}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "experiments":
        return _cmd_experiments(args)
    if args.command == "fill":
        return _cmd_fill(args)
    if args.command == "workload":
        return _cmd_workload(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "bench-core":
        return _cmd_bench_core(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "faultgen":
        return _cmd_faultgen(args)
    if args.command == "reshard":
        return _cmd_reshard(args)
    if args.command == "bench-serve":
        return _cmd_bench_serve(args)
    if args.command == "compact":
        return _cmd_compact(args)
    if args.command == "checkpoint":
        return _cmd_checkpoint(args)
    if args.command == "bench-recovery":
        return _cmd_bench_recovery(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
