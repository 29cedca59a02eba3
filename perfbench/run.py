#!/usr/bin/env python3
"""End-to-end benchmark of the durable single-process McCuckoo server.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read-mostly --seed 1 --seconds 16 --trace 0

One run builds a durable ``ShardedLogStore`` (four shards, default
engine), starts ``McCuckooServer`` over it, and drives it from a
closed-loop client on the same event loop over two TCP connections, one
32-op batch in flight per connection.  Every reply is checked against
the benchmark's own model; shard restarts are checked against the shard
objects that never crashed.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import copy
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 3
WARMUP_BATCHES = 64
CONTINUATION_INSERTS = 64
SPACE_SAMPLE_S = 0.25
SEGMENT_S = 1.5
PROBES_AROUND = 16
PROBE_EVERY_PUTS = 100
HISTORY_ORDER_SEED = 0x5EED
"""restart-history builds the same keys in the same order on every seed,
so its index layouts, and the shard restarts that fail on them, do not
depend on ``--seed``; the seed picks values, read order and absent keys."""

_clock = time.perf_counter


def _import_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


_import_program()

import numpy as np  # noqa: E402

from repro.core.errors import InvariantViolationError  # noqa: E402
from repro.core.invariants import check_mccuckoo  # noqa: E402
from repro.maintenance import Checkpointer, MaintenanceConfig  # noqa: E402
from repro.serve.client import McCuckooClient  # noqa: E402
from repro.serve.server import McCuckooServer, ServerConfig  # noqa: E402
from repro.serve.store import ShardedLogStore  # noqa: E402

from layers import install_layers, layer_metrics  # noqa: E402
from oracle import Model, Oracle, readback_batches  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BATCH,
    CONNECTIONS,
    CONTINUATION_BASE,
    SHARDS,
    WORKLOADS,
    ChurnStream,
    ListSource,
    Values,
    Workload,
    ZipfStream,
    absent_keys,
    initial_keys,
)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------


@dataclass
class Env:
    workload: Workload
    store: ShardedLogStore
    server: McCuckooServer
    models: List[Model]
    values: List[Values]
    rng: np.random.Generator
    probe: SpeedProbe
    clients: List[McCuckooClient] = field(default_factory=list)

    def connect(self) -> None:
        host, port = self.server.address
        self.clients = [McCuckooClient(host, port, pool_size=1) for _ in range(CONNECTIONS)]

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        await self.server.stop()


async def build(workload: Workload, seed: int, probe: SpeedProbe) -> Env:
    """Store, server and preloaded (or history-built) contents."""
    rng = np.random.default_rng([seed, CONNECTIONS])
    values = [Values(np.random.default_rng([seed, conn]), workload.value_bytes)
              for conn in range(CONNECTIONS)]
    models = [Model() for _ in range(CONNECTIONS)]
    store = ShardedLogStore(
        n_shards=SHARDS,
        expected_items=workload.expected_items,
        seed=seed if not workload.history_rounds else HISTORY_ORDER_SEED,
        durable=True,
        kick_policy=workload.kick_policy,
    )
    config = ServerConfig(maintenance=MaintenanceConfig() if workload.maintenance else None)
    server = McCuckooServer(config, store=store)
    await server.start()
    if workload.history_rounds:
        _build_history(workload, store, models, values, probe)
    else:
        for conn in range(CONNECTIONS):
            for i, key in enumerate(initial_keys(workload, conn)):
                value = values[conn].make(key)
                store.put(key, value)
                models[conn].put(key, value)
                if i % PROBE_EVERY_PUTS == 0:
                    probe.sample()
    return Env(workload, store, server, models, values, rng, probe)


def _build_history(
    workload: Workload, store: ShardedLogStore, models: List[Model], values: List[Values],
    probe: SpeedProbe,
) -> None:
    """Write the live set, then overwrite all of it ``history_rounds``
    times in a fixed shuffled order; checkpoint every shard when 95% of
    the appends are in, so recovery restores a snapshot and replays a
    tail."""
    order = np.random.default_rng(HISTORY_ORDER_SEED)
    keys = list(range(workload.live_keys))
    total = (1 + workload.history_rounds) * len(keys)
    checkpoint_at = total - total // 20
    written = 0
    checkpointer = Checkpointer()
    for round_ in range(1 + workload.history_rounds):
        for key in order.permutation(keys).tolist() if round_ else keys:
            conn = key % CONNECTIONS
            value = values[conn].make(key)
            store.put(key, value)
            models[conn].put(key, value)
            written += 1
            if written % PROBE_EVERY_PUTS == 0:
                probe.sample()
            if written == checkpoint_at:
                for shard in store.shards:
                    checkpointer.checkpoint(shard)


async def set_up(workload: Workload, seed: int,
                 probe: SpeedProbe) -> Tuple[Env, List[float], List[float]]:
    """Build ``SETUP_REPEATS`` times; keep the last build, time them all.

    Returns the env, the set-up times scaled to the reference speed (see
    ``speed.py``), and the raw times.  The probe samples through each
    build; its own time is taken out of the build's."""
    times: List[float] = []
    raw: List[float] = []
    env: Optional[Env] = None
    for _ in range(SETUP_REPEATS):
        if env is not None:
            await env.close()
            env = None
            gc.collect()
        mark, spent = probe.mark(), probe.spent
        start = _clock()
        env = await build(workload, seed, probe)
        raw.append(_clock() - start - (probe.spent - spent))
        times.append(raw[-1] / probe.slowdown(mark))
    assert env is not None
    env.connect()
    return env, times, raw


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------


@dataclass
class Phase:
    """What one run of rounds measured: client traffic and restarts."""

    ops: int = 0
    wall_s: float = 0.0
    """Timed seconds so far; restart-history runs rounds until it reaches
    ``--seconds``."""
    rates: List[float] = field(default_factory=list)
    """Client ops per second of each round, at the reference speed."""
    latencies: List[float] = field(default_factory=list)
    """Request round trips at the reference speed."""
    restarts: List[float] = field(default_factory=list)
    """Restarts of every shard at the reference speed."""
    slowdowns: List[float] = field(default_factory=list)
    raw_rates: List[float] = field(default_factory=list)
    raw_restarts: List[float] = field(default_factory=list)
    space: List[float] = field(default_factory=list)
    """Samples of stored bytes over live user bytes."""
    user_bytes: int = 0
    mem: Dict[str, int] = field(default_factory=lambda: dict(on_r=0, off_r=0, off_w=0))
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        return statistics.median(self.rates)

    def close_round(self, first_latency: int, ops: int, traffic: Tuple[float, float],
                    restart: Tuple[float, float], restart_in_rate: bool) -> None:
        """Record one round, scaling its times to the reference speed.

        ``traffic`` and ``restart`` are (wall seconds, probe slowdown over
        that stretch).  ``restart_in_rate`` counts the restart in the
        round's time, as restart-history does.
        """
        (wall, slowdown), (restart_s, restart_slowdown) = traffic, restart
        raw_time, time_ = wall, wall / slowdown
        if restart_in_rate:
            raw_time += restart_s
            time_ += restart_s / restart_slowdown
        self.slowdowns.append(slowdown)
        self.raw_rates.append(ops / raw_time)
        self.rates.append(ops / time_)
        self.raw_restarts.append(restart_s)
        self.restarts.append(restart_s / restart_slowdown)
        tail = self.latencies[first_latency:]
        self.latencies[first_latency:] = [latency / slowdown for latency in tail]


async def _connection(client, source, deadline, oracle, phase, tracer) -> None:
    while _clock() < deadline:
        with tracer.span("bench.generate", "bench"):
            item = source.next_batch()
        if item is None:
            return
        ops, expect = item
        start = _clock()
        try:
            replies = await client.batch(ops)
        except (OSError, ConnectionError, asyncio.IncompleteReadError) as error:
            oracle.attempted += len(expect)
            oracle.fail(f"transport: {type(error).__name__}", len(expect))
            continue
        phase.latencies.append(_clock() - start)
        with tracer.span("bench.check", "bench"):
            oracle.check_replies(expect, replies)
        phase.ops += len(ops)


async def drive(env: Env, sources, seconds: float, oracle: Oracle, phase: Phase,
                tracer: Tracer) -> None:
    """Run one closed-loop client per connection until ``seconds`` pass or
    every source is exhausted, then wait for queued writes to land."""
    deadline = _clock() + seconds
    await asyncio.gather(*(
        _connection(client, source, deadline, oracle, phase, tracer)
        for client, source in zip(env.clients, sources)
    ))
    await env.server.drain_writes()


def _mem_snapshot(store: ShardedLogStore):
    return [(shard, shard.mem.snapshot()) for shard in store.shards]


def _add_mem(phase: Phase, before) -> None:
    for shard, snap in before:
        delta = shard.mem.snapshot() - snap
        phase.mem["on_r"] += delta.on_chip.reads
        phase.mem["off_r"] += delta.off_chip.reads
        phase.mem["off_w"] += delta.off_chip.writes


async def _stats(env: Env) -> Dict[str, float]:
    return await env.clients[0].stats()


def _add_stats(phase: Phase, before: Dict[str, float], after: Dict[str, float]) -> None:
    for key in ("busy_rejections", "store_compactions", "store_checkpoints"):
        phase.stats[key] = phase.stats.get(key, 0) + after.get(key, 0) - before.get(key, 0)
    for key in ("index_load_ratio", "index_stash_population"):
        phase.stats[key] = after.get(key, 0)


def _user_bytes(env: Env) -> int:
    return sum(model.user_bytes_written for model in env.models)


def _space(env: Env) -> float:
    """Value-log plus checkpoint bytes over all shards, per live user byte."""
    stored = sum(
        shard.log_size + len(shard.checkpoint_bytes or b"") for shard in env.store.shards
    )
    return stored / sum(model.live_bytes for model in env.models)


async def _sample_space(env: Env, phase: Phase, done: asyncio.Event) -> None:
    """Compaction makes space a sawtooth over time, so sample it through
    the traffic rather than read it once at the end."""
    while not done.is_set():
        try:
            await asyncio.wait_for(done.wait(), SPACE_SAMPLE_S)
        except asyncio.TimeoutError:
            phase.space.append(_space(env))
    phase.space.append(_space(env))


async def segment(env: Env, sources, seconds: float, oracle: Oracle, tracer: Tracer,
                  traced: bool, phase: Phase) -> Tuple[int, Tuple[float, float]]:
    """One timed stretch of client traffic; STATS, ``mem`` and user bytes
    are read around it, outside the timing.  Returns the ops completed
    and (wall seconds, probe slowdown over the stretch)."""
    stats0 = await _stats(env)
    mem0 = _mem_snapshot(env.store)
    bytes0, ops0 = _user_bytes(env), phase.ops
    mark = env.probe.mark()
    done = asyncio.Event()
    samplers = [
        asyncio.create_task(_sample_space(env, phase, done)),
        asyncio.create_task(env.probe.run(done)),
    ]
    start = _clock()
    if traced:
        with tracer.run("ops"):
            await drive(env, sources, seconds, oracle, phase, tracer)
    else:
        await drive(env, sources, seconds, oracle, phase, tracer)
    wall = _clock() - start
    done.set()
    await asyncio.gather(*samplers)
    phase.user_bytes += _user_bytes(env) - bytes0
    _add_mem(phase, mem0)
    _add_stats(phase, stats0, await _stats(env))
    return phase.ops - ops0, (wall, env.probe.slowdown(mark))


# ----------------------------------------------------------------------
# restarts and their checks
# ----------------------------------------------------------------------


def restart_all(env: Env, tracer: Tracer, traced: bool) -> Tuple[float, float]:
    """``crash_and_recover`` every shard.

    Returns the summed restart time and the probe's slowdown around it:
    the probe samples before each shard's restart and after the last, and
    its time is not counted.  Garbage is collected first, so whether a
    full collection lands inside a restart does not depend on what the
    run allocated before it.
    """
    store = env.store
    reports = len(store.recovery_reports)
    gc.collect()
    mark = env.probe.mark()
    elapsed = 0.0
    with tracer.run("restart") if traced else contextlib.nullcontext():
        for shard in store.owned:
            env.probe.sample(PROBES_AROUND)
            start = _clock()
            store.crash_and_recover(shard)
            elapsed += _clock() - start
        env.probe.sample(PROBES_AROUND)
    if traced:
        tail = sum(r.tail_records_replayed for r in store.recovery_reports[reports:])
        tracer.count("recovery.tail_records", tail, window="restart")
    return elapsed, env.probe.slowdown(mark)


def _policies(index) -> Tuple[str, ...]:
    tables = (index.active_table, index.retiring_table)
    return tuple(type(getattr(t, "_policy", None)).__name__ for t in tables if t is not None)


def _invariants(index) -> Optional[str]:
    for table in (index.active_table, index.retiring_table):
        if table is None:
            continue
        try:
            check_mccuckoo(table)
        except InvariantViolationError as error:
            return f"invariant: {str(error).splitlines()[0][:80]}"
    return None


def check_live_shards(store: ShardedLogStore, oracle: Oracle) -> None:
    """``check_mccuckoo`` on every served shard's index tables."""
    for shard in store.shards:
        oracle.attempted += 1
        problem = _invariants(shard.index)
        if problem:
            oracle.fail(problem)


def check_restarts(store: ShardedLogStore, originals, oracle: Oracle) -> None:
    """Each recovered shard against the never-crashed object it replaced.

    Both indexes (copied, so the served store is left alone) must hold
    the same key -> offset map, pass ``check_mccuckoo``, and give the same
    ``(status, kicks, stashed)`` for every insert of one continuation.
    Each shard restart is one operation; a mismatch fails it once.
    """
    keys = [CONTINUATION_BASE + i for i in range(CONTINUATION_INSERTS)]
    for index, original in originals.items():
        oracle.attempted += 1
        recovered = store.shard(index).index
        problem = _invariants(recovered)
        if problem is None and dict(recovered.items()) != dict(original.index.items()):
            problem = "restart: recovered index map differs"
        if problem is None:
            twin, again = copy.deepcopy(original.index), copy.deepcopy(recovered)
            differ = 0
            for i, key in enumerate(keys):
                a, b = twin.put(key, i), again.put(key, i)
                differ += (a.status, a.kicks, a.stashed) != (b.status, b.kicks, b.stashed)
            if differ:
                before, after = _policies(original.index), _policies(recovered)
                if before != after:
                    problem = (
                        "restart: checkpoint restore drops the kick policy "
                        f"({before[0]} -> {after[0]}; core/snapshot.py restore_*)"
                    )
                else:
                    problem = "restart: continuation diverges from never-crashed shard"
        if problem:
            oracle.fail(problem)


async def read_back(env: Env, absent: Sequence[Sequence[int]], oracle: Oracle,
                    phase: Phase, tracer: Tracer) -> None:
    sources = [
        ListSource(readback_batches(env.models[c], absent[c], BATCH))
        for c in range(CONNECTIONS)
    ]
    await drive(env, sources, float("inf"), oracle, phase, tracer)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


async def traffic_rounds(env: Env, streams, seconds: float, oracle: Oracle,
                         tracer: Tracer, traced: bool) -> Phase:
    """read-mostly and write-churn: rounds of a traffic segment followed
    by a restart of every shard, so restarts sample several points of the
    compaction and checkpoint cycle.  Each restart is checked against the
    shard objects it replaced, which are what the shards would have been
    had they not crashed."""
    phase = Phase()
    rounds = max(1, round(seconds / SEGMENT_S))
    for _ in range(rounds):
        first_latency = len(phase.latencies)
        ops, traffic = await segment(env, streams, seconds / rounds, oracle, tracer, traced,
                                     phase)
        check_live_shards(env.store, oracle)
        uncrashed = {index: env.store.shard(index) for index in env.store.owned}
        restart = restart_all(env, tracer, traced)
        phase.close_round(first_latency, ops, traffic, restart, restart_in_rate=False)
        check_restarts(env.store, uncrashed, oracle)
    return phase


async def run_traffic(env: Env, seed: int, seconds: float, trace: bool,
                      oracle: Oracle, tracer: Tracer) -> Dict[str, Phase]:
    workload = env.workload
    streams = []
    for conn in range(CONNECTIONS):
        rng = np.random.default_rng([seed, conn, 1])
        keys = initial_keys(workload, conn)
        if workload.replace_share:
            streams.append(ChurnStream(workload, env.models[conn], keys, conn, rng,
                                       env.values[conn]))
        else:
            streams.append(ZipfStream(workload, env.models[conn], keys, rng,
                                      env.values[conn]))
    warm = [ListSource([s.next_batch() for _ in range(WARMUP_BATCHES)]) for s in streams]
    await drive(env, warm, float("inf"), oracle, Phase(), tracer)

    phases = {"plain": await traffic_rounds(env, streams, seconds, oracle, tracer, False)}
    if trace:
        phases["traced"] = await traffic_rounds(env, streams, seconds, oracle, tracer, True)
    absent = [absent_keys(workload, c, env.rng) for c in range(CONNECTIONS)]
    await read_back(env, absent, oracle, Phase(), tracer)
    return phases


async def run_restart_history(env: Env, seed: int, seconds: float, trace: bool,
                              oracle: Oracle, tracer: Tracer) -> Dict[str, Phase]:
    """Rounds of: restart every shard, read every live and absent key.

    Each round is timed as a whole; rounds repeat until ``seconds`` of
    timed work have run (twice, untraced then traced, with ``--trace 1``).
    Nothing is written after set-up, so the shard objects built there are
    the never-crashed twins of every round's recovered shards.
    """
    absent = [absent_keys(env.workload, c, env.rng) for c in range(CONNECTIONS)]
    uncrashed = {index: env.store.shard(index) for index in env.store.owned}
    phases: Dict[str, Phase] = {}
    for name, traced in (("plain", False), ("traced", True))[: 1 + trace]:
        phase = phases[name] = Phase()
        while phase.wall_s < seconds:
            first_latency = len(phase.latencies)
            restart = restart_all(env, tracer, traced)
            sources = [
                ListSource(readback_batches(env.models[c], absent[c], BATCH))
                for c in range(CONNECTIONS)
            ]
            ops, traffic = await segment(env, sources, float("inf"), oracle, tracer, traced,
                                         phase)
            phase.wall_s += restart[0] + traffic[0]
            phase.close_round(first_latency, ops, traffic, restart, restart_in_rate=True)
            check_restarts(env.store, uncrashed, oracle)
    return phases


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------


def end_to_end(phase: Phase, setups: List[float]) -> Dict[str, dict]:
    return {
        "ops_per_s": {"value": phase.ops_per_s, "unit": "1/s"},
        "req_p50_ms": {"value": statistics.median(phase.latencies) * 1e3, "unit": "ms"},
        "req_p90_ms": {"value": statistics.quantiles(phase.latencies, n=10)[8] * 1e3, "unit": "ms"},
        "restart_s": {"value": statistics.median(phase.restarts), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MiB",
        },
        "stored_bytes_per_user_byte": {
            "value": statistics.median(phase.space), "unit": "B/B",
        },
    }


def _steal_s() -> Optional[float]:
    """Host steal time summed over CPUs, from /proc/stat (None if absent)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


async def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    steal0, cpu0, wall0 = _steal_s(), time.process_time(), _clock()
    oracle = Oracle()
    tracer = Tracer()
    env, setups, raw_setups = await set_up(workload, seed, SpeedProbe())
    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        if trace:
            install_layers(tracer)
        try:
            runner = run_restart_history if workload.history_rounds else run_traffic
            phases = await runner(env, seed, seconds, trace, oracle, tracer)
        finally:
            tracer.uninstall()
    finally:
        await env.close()

    plain = phases["plain"]
    steal1 = _steal_s()
    diagnostics = {
        "workload": workload.name,
        "seed": seed,
        "cpu_s": round(time.process_time() - cpu0, 3),
        "run_wall_s": round(_clock() - wall0, 3),
        "host_steal_s": None if steal0 is None or steal1 is None else round(steal1 - steal0, 3),
        "requests": len(plain.latencies),
        "raw_setup_s": [round(s, 4) for s in raw_setups],
        "setup_rss_mb": setup_rss_mb,
        "raw_restart_s": [round(r, 4) for r in plain.raw_restarts],
        "raw_round_ops_per_s": [round(r, 1) for r in plain.raw_rates],
        "slowdowns": [round(f, 3) for f in plain.slowdowns],
        "counts": {
            "stats": plain.stats,
            "mem": plain.mem,
            "recovery_reports": len(env.store.recovery_reports),
            "tail_records": sum(r.tail_records_replayed for r in env.store.recovery_reports),
        },
        "failures": dict(oracle.reasons),
    }
    if trace:
        traced = phases["traced"]
        metrics = layer_metrics(tracer, traced)
        diagnostics["trace_ops_per_s"] = round(traced.ops_per_s, 1)
        diagnostics["untraced_ops_per_s"] = round(plain.ops_per_s, 1)
        diagnostics["trace_overhead"] = round(plain.ops_per_s / traced.ops_per_s - 1.0, 4)
        diagnostics["ledger_ms"] = tracer.ledger()
    else:
        metrics = end_to_end(plain, setups)
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:14.6g} {metric['unit']}")
    print("diagnostics " + json.dumps(diagnostics, sort_keys=True))
    known = sum(n for reason, n in oracle.reasons.items() if "drops the kick policy" in reason)
    return {
        "correct": oracle.failed == known,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": metrics,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = asyncio.run(run(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
