#!/usr/bin/env python3
"""Check that the benchmark's oracle catches what it should.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Against a real server over TCP it plants three faults behind the model's
back (a wrong expected value, a key dropped from the store, a phantom key
added to it) and one behind a restart (a recovered shard missing a key),
and requires each to be counted as exactly one failed operation with the
right reason.  It then runs every workload briefly on a seed the
benchmark does not default to, and requires each run to be correct.
Exits 0 when every check holds.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
from pathlib import Path
from typing import List

import run
from oracle import Oracle
from tracer import Tracer
from workloads import CONNECTIONS, WORKLOADS, Workload

SECOND_SEED = 20261018

TINY = Workload(
    name="selftest", why="", live_keys=256, expected_items=256, value_bytes=64,
    get_share=1.0, absent_keys=64,
)


async def planted_faults() -> List[str]:
    problems: List[str] = []
    env = await run.build(TINY, SECOND_SEED, run.SpeedProbe())
    env.connect()
    try:
        model = env.models[0]
        wrong, dropped = list(model.values)[:2]
        model.values[wrong] = b"not what the store holds"
        env.store.delete(dropped)
        absent = [run.absent_keys(TINY, c, env.rng) for c in range(CONNECTIONS)]
        phantom = absent[1][0]
        env.store.put(phantom, b"never written by the client")

        oracle = Oracle()
        await run.read_back(env, absent, oracle, run.Phase(), Tracer())
        want = {"get: wrong value": 1, "get: dropped key": 1, "get: phantom key": 1}
        if dict(oracle.reasons) != want:
            problems.append(f"read-back counted {dict(oracle.reasons)}, expected {want}")

        # Checkpoint first: a full replay re-inserts the final key set and
        # lays the index out anew, and only the planted fault should show.
        for shard in env.store.shards:
            shard.take_checkpoint()
        uncrashed = {index: env.store.shard(index) for index in env.store.owned}
        run.restart_all(env, Tracer(), traced=False)
        recovered = env.store.shard(0)
        recovered.index.delete(next(iter(dict(recovered.index.items()))))
        oracle = Oracle()
        run.check_restarts(env.store, uncrashed, oracle)
        want = {"restart: recovered index map differs": 1}
        if dict(oracle.reasons) != want or oracle.attempted != len(uncrashed):
            problems.append(f"restart check counted {dict(oracle.reasons)}, expected {want}")
    finally:
        await env.close()
    return problems


def second_seed_runs() -> List[str]:
    problems: List[str] = []
    script = Path(__file__).resolve().parent / "run.py"
    for name in sorted(WORKLOADS):
        done = subprocess.run(
            [sys.executable, str(script), "--workload", name, "--seed", str(SECOND_SEED),
             "--seconds", "2", "--trace", "0"],
            capture_output=True, text=True, timeout=170, check=False,
        )
        if done.returncode != 0:
            problems.append(f"{name}: exit {done.returncode}: {done.stderr[-300:]}")
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        if not result["correct"]:
            problems.append(f"{name}: run on seed {SECOND_SEED} is not correct")
    return problems


def main() -> int:
    problems = asyncio.run(planted_faults())
    print("planted faults:", "all caught" if not problems else "; ".join(problems))
    problems += second_seed_runs()
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "passed" if not problems else "failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
