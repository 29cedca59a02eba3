"""Workload definitions and the seeded op streams that drive them.

Keys are split between the client connections by parity (connection
``c`` owns every key ``k`` with ``k % CONNECTIONS == c``), so each
connection's :class:`~oracle.Model` alone decides the right answer to its
GETs.  Absent-key probes live above ``ABSENT_BASE``, far from every key
a stream can write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from oracle import Expect, Model

CONNECTIONS = 2
SHARDS = 4
BATCH = 32
ABSENT_BASE = 1 << 40
CONTINUATION_BASE = 1 << 41

Batch = Tuple[List[tuple], List[Expect]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    live_keys: int
    """Keys preloaded (or, for restart-history, the fixed live set)."""
    expected_items: int
    """``ShardedLogStore`` sizing: each shard starts at capacity
    ``3 * (expected_items // SHARDS // 2)`` and grows past 0.85 load."""
    value_bytes: int
    get_share: float
    overwrite_share: float = 0.0
    replace_share: float = 0.0
    zipf: float = 0.0
    history_rounds: int = 0
    """restart-history: full overwrite passes over the live set."""
    kick_policy: Optional[str] = None
    maintenance: bool = True
    absent_keys: int = 2048
    """Absent keys probed by the post-restart read-back."""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="read-mostly",
            why="95% GET / 5% PUT with Zipf 0.99 popularity: the common path of "
            "protocol, batched lookup and value-log reads; kicks, "
            "compaction and recovery stay small",
            live_keys=4000,
            expected_items=4000,
            value_bytes=64,
            get_share=0.95,
            overwrite_share=0.05,
            zipf=0.99,
        ),
        Workload(
            name="write-churn",
            why="20% GET / 70% overwrite / 10% replace at 0.8 index load: "
            "appends, kicks, deletes and compaction stalls dominate, lookup "
            "is a small share",
            live_keys=12000,
            expected_items=10000,
            value_bytes=64,
            get_share=0.20,
            overwrite_share=0.70,
            replace_share=0.10,
        ),
        Workload(
            name="restart-history",
            why="fixed live set under a 9x overwrite history with bubbling "
            "kicks: checkpoint restore and log scan dominate, then hits and "
            "misses are read",
            live_keys=4800,
            expected_items=4000,
            value_bytes=64,
            get_share=1.0,
            history_rounds=9,
            kick_policy="bubbling",
            maintenance=False,
            absent_keys=4800,
        ),
    )
}


def initial_keys(workload: Workload, conn: int) -> List[int]:
    return list(range(conn, workload.live_keys, CONNECTIONS))


def absent_keys(workload: Workload, conn: int, rng: np.random.Generator) -> List[int]:
    """This connection's share of the absent-key probes."""
    count = workload.absent_keys // CONNECTIONS
    offsets = rng.choice(1 << 30, size=count, replace=False)
    return [ABSENT_BASE + CONNECTIONS * int(o) + conn for o in offsets]


class Values:
    """Value bytes: ``key | version | seeded filler``, so a stale, foreign
    or torn value never equals the expected one."""

    def __init__(self, rng: np.random.Generator, size: int) -> None:
        self.filler = rng.bytes(max(0, size - 16))
        self.version = 0

    def make(self, key: int) -> bytes:
        self.version += 1
        return key.to_bytes(8, "big") + self.version.to_bytes(8, "big") + self.filler


class ListSource:
    """A fixed list of batches, sent once."""

    def __init__(self, batches: Sequence[Batch]) -> None:
        self._batches = list(batches)
        self._next = 0

    def next_batch(self) -> Optional[Batch]:
        if self._next >= len(self._batches):
            return None
        self._next += 1
        return self._batches[self._next - 1]


class ZipfStream:
    """GET/PUT mix over a fixed key set with Zipf-distributed popularity.

    The popularity ranks are shuffled over the keys, so the hot keys are
    spread over every shard rather than clustered at small key values.
    """

    def __init__(
        self, workload: Workload, model: Model, keys: List[int],
        rng: np.random.Generator, values: Values,
    ) -> None:
        weights = 1.0 / np.arange(1, len(keys) + 1) ** workload.zipf
        self._cdf = np.cumsum(weights) / weights.sum()
        self._keys = np.array(rng.permutation(keys), dtype=np.int64)
        self._rng = rng
        self._model = model
        self._values = values
        self._get_share = workload.get_share

    def next_batch(self) -> Batch:
        rng = self._rng
        ranks = np.minimum(np.searchsorted(self._cdf, rng.random(BATCH)), len(self._cdf) - 1)
        keys = self._keys[ranks].tolist()
        coins = rng.random(BATCH).tolist()
        model = self._model
        ops: List[tuple] = []
        expect: List[Expect] = []
        for key, coin in zip(keys, coins):
            if coin < self._get_share:
                ops.append(("get", key))
                expect.append(("get", key, model.get(key)))
            else:
                value = self._values.make(key)
                ops.append(("put", key, value))
                expect.append(("put", key, model.put(key, value)))
        return ops, expect


class ChurnStream:
    """GET / overwrite / replace over a live set of constant size.

    A replace deletes one live key and inserts a never-used one in the
    same batch (two wire ops), so occupancy stays where the preload left
    it.  Targets are uniform over the connection's live keys.
    """

    def __init__(
        self, workload: Workload, model: Model, keys: List[int], conn: int,
        rng: np.random.Generator, values: Values,
    ) -> None:
        self._live = list(keys)
        self._slot = {key: i for i, key in enumerate(self._live)}
        self._next_index = workload.live_keys // CONNECTIONS + 1
        self._conn = conn
        self._rng = rng
        self._model = model
        self._values = values
        self._get_cut = workload.get_share
        self._overwrite_cut = workload.get_share + workload.overwrite_share

    def _remove(self, key: int) -> None:
        slot = self._slot.pop(key)
        last = self._live.pop()
        if last != key:
            self._live[slot] = last
            self._slot[last] = slot

    def next_batch(self) -> Batch:
        rng = self._rng
        coins = rng.random(BATCH).tolist()
        picks = rng.integers(0, 1 << 62, BATCH).tolist()
        model = self._model
        live = self._live
        ops: List[tuple] = []
        expect: List[Expect] = []
        for coin, pick in zip(coins, picks):
            key = live[pick % len(live)]
            if coin < self._get_cut:
                ops.append(("get", key))
                expect.append(("get", key, model.get(key)))
            elif coin < self._overwrite_cut:
                value = self._values.make(key)
                ops.append(("put", key, value))
                expect.append(("put", key, model.put(key, value)))
            else:
                ops.append(("delete", key))
                expect.append(("delete", key, model.delete(key)))
                self._remove(key)
                fresh = CONNECTIONS * self._next_index + self._conn
                self._next_index += 1
                value = self._values.make(fresh)
                ops.append(("put", fresh, value))
                expect.append(("put", fresh, model.put(fresh, value)))
                self._slot[fresh] = len(live)
                live.append(fresh)
        return ops, expect
