"""How fast this machine runs interpreter code right now.

The benchmark shares a virtual machine whose speed drifts by tens of
percent within minutes (other tenants, host steal, frequency).  A
``SpeedProbe`` times one fixed chunk of interpreter work (dict, list,
bytes and integer operations, the kind a request goes through) over and
over beside the workload, on the same thread and event loop.  A time
measured while the probe reads ``f`` times its reference chunk time is
divided by ``f``: it is reported as it would read on a machine running
at the reference speed.  Code changes do not move the probe, since it
runs none of the program's code, so they still show in full.
"""

from __future__ import annotations

import asyncio
import statistics
import time
import zlib
from typing import Dict, List

_clock = time.perf_counter

REFERENCE_CHUNK_S = 0.0004
"""The chunk's time on an idle 2-vCPU x86-64 VM under CPython 3.11; any
fixed value works, it only sets the scale of the reported figures."""
CHUNK_ITERATIONS = 300
INTERVAL_S = 0.05
"""A chunk takes well under a millisecond, so sampling every 50 ms delays
about one request in twenty, by less than a tenth of a request's time:
far from the 90th percentile, and the same on every commit."""


_TABLE = {(i * 2654435761) & 0xFFFFFFFFFF: i.to_bytes(8, "big") for i in range(1 << 15)}
_KEYS = list(_TABLE)
_BLOB = bytes(range(256)) * 256


def chunk() -> float:
    """Seconds for one fixed chunk of interpreter work: small-object churn
    in a fresh dict, updates scattered over a table larger than the CPU
    caches, and a CRC and a copy of a 64 KiB buffer."""
    start = _clock()
    fresh: Dict[int, bytes] = {}
    lengths: List[int] = []
    for i in range(CHUNK_ITERATIONS):
        key = (i * 2654435761) & 0xFFFFFFFF
        fresh[key] = key.to_bytes(8, "big") * 4
        lengths.append(len(fresh.get(key ^ 1, b"")) + len(fresh[key]))
        far = _KEYS[(i * 7919) % len(_KEYS)]
        _TABLE[far] = far.to_bytes(8, "big")
    zlib.crc32(_BLOB)
    bytes(_BLOB[1:])
    return _clock() - start


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0
        """Wall seconds the probe itself has taken, samples and all."""

    def sample(self, count: int = 1) -> None:
        start = _clock()
        for _ in range(count):
            self.samples.append(chunk())
        self.spent += _clock() - start

    async def run(self, done: asyncio.Event) -> None:
        """Sample every ``INTERVAL_S`` until ``done`` is set, and once more
        at the end."""
        while not done.is_set():
            try:
                await asyncio.wait_for(done.wait(), INTERVAL_S)
            except asyncio.TimeoutError:
                self.sample()
        self.sample()

    def mark(self) -> int:
        return len(self.samples)

    def slowdown(self, since: int) -> float:
        """Median chunk time since ``mark()`` returned ``since``, over the
        reference chunk time."""
        return statistics.median(self.samples[since:]) / REFERENCE_CHUNK_S
