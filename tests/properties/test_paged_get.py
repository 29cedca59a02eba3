"""Property: a paged GET run equals the per-key and per-shard reads.

``ShardedLogStore.get_many`` routes a whole run, hashes it across every
shard (the pages), and gives each page one batched lookup.  Three twin
stores take the same history of writes and shard lifecycle events; after
each GET run:

* the paged store's values equal a per-key ``LogStructuredStore.get``
  loop's and a per-shard ``LogStructuredStore.get_many`` loop's;
* each shard's ``MemoryModel.summary()`` equals the per-shard loop's in
  both counter-charging modes, and the per-key loop's whenever the two
  can agree: entirely under ``PER_COUNTER``, off-chip only under
  ``PER_WORD`` (a scalar read bills every counter, a bulk one each
  distinct word).

The histories cover a shard mid-resize, a non-empty stash, TOMBSTONE
deletions (the per-key screen), in-place REHASH, ``crash_and_recover``,
``release_shard``/``adopt_shard``, a foreign key in a run (which must
raise before anything is charged), bytes/str/int keys and runs of 1 to
64 keys.  Without NumPy only the Python front end runs.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._numpy import numpy_available
from repro.apps.kvstore import LogStructuredStore
from repro.core.config import DeletionMode, FailurePolicy
from repro.core.engine import EngineConfig
from repro.core.errors import ConfigurationError
from repro.core.resize import ResizableMcCuckoo
from repro.memory.model import CounterCharging, MemoryModel
from repro.serve.store import ShardedLogStore

N_SHARDS = 4

POOL = (
    [i * 0x9E3779B97F4A7C15 % (1 << 64) for i in range(1, 121)]
    + [b"b%d" % i for i in range(60)]
    + ["s%d" % i for i in range(60)]
)

VARIANTS = {
    "plain": {},
    "tombstone": {"deletion_mode": DeletionMode.TOMBSTONE},
    "stash": {"maxloop": 1, "on_failure": FailurePolicy.STASH},
    "rehash": {"maxloop": 1, "on_failure": FailurePolicy.REHASH},
}

ENGINES = [
    pytest.param("python", id="python"),
    pytest.param(
        EngineConfig("numpy", min_batch=1), id="numpy-every-run",
        marks=pytest.mark.skipif(not numpy_available(), reason="needs NumPy"),
    ),
    pytest.param(
        "numpy", id="numpy-default",
        marks=pytest.mark.skipif(not numpy_available(), reason="needs NumPy"),
    ),
]

CHARGING = [CounterCharging.PER_COUNTER, CounterCharging.PER_WORD]


class VariantStore(ShardedLogStore):
    """A store whose shards are small, charge in ``charging`` mode and
    carry the variant's table settings through every recovery."""

    def __init__(self, variant, charging, engine, seed):
        self._variant = dict(VARIANTS[variant], migrate_batch=1)
        self._charging = charging
        super().__init__(
            n_shards=N_SHARDS, expected_items=64, seed=seed, durable=True,
            engine=engine,
        )

    def _make_shard(self, index):
        shard = LogStructuredStore(
            expected_items=16, seed=self._seed + 101 * index + 1,
            mem=MemoryModel(counter_charging=self._charging),
            durable=True, shard_id=index, engine=self.engine,
        )
        shard.config = dataclasses.replace(shard.config, **self._variant)
        shard._index = ResizableMcCuckoo(config=shard.config, mem=shard.mem)
        return shard


def value_for(kind, step, index):
    if kind == "bytes":
        return b"v%d-%d" % (step, index)
    if kind == "str":
        return "v%d-%d" % (step, index)
    return [step, index]


def reached(store):
    """Which of the covered states the store is in right now."""
    states = set()
    for shard in store.shards:
        index = shard.index
        if index.retiring_table is not None:
            states.add("resizing")
        for table in (index.active_table, index.retiring_table):
            if table is None:
                continue
            if table.stash is not None and len(table.stash):
                states.add("stash")
            if table.rehash_count:
                states.add("rehash")
    return states


class Twins:
    """The paged store, its per-key twin and its per-shard twin."""

    def __init__(self, variant, charging, engine, seed):
        self.charging = charging
        self.paged, self.per_key, self.per_shard = (
            VariantStore(variant, charging, engine, seed) for _ in range(3)
        )
        self.stores = (self.paged, self.per_key, self.per_shard)
        self.states = set()

    def put(self, key, value):
        for store in self.stores:
            store.put(key, value)

    def delete(self, key):
        assert len({store.delete(key) for store in self.stores}) == 1

    def crash(self, shard):
        for store in self.stores:
            store.crash_and_recover(shard)

    def checkpoint(self, shard):
        for store in self.stores:
            store.shard(shard).take_checkpoint()

    def move(self, shard):
        """Release a shard, show a run with one of its keys raises, and
        adopt it back from its log image and checkpoint."""
        foreign = next(key for key in POOL if self.paged.shard_index(key) == shard)
        other = next(key for key in POOL if self.paged.shard_index(key) != shard)
        for store in self.stores:
            source = store.shard(shard)
            data, checkpoint = source.log_bytes, source.checkpoint_bytes
            store.release_shard(shard)
            if store is self.paged:
                before = [s.mem.summary() for s in store.shards]
                with pytest.raises(ConfigurationError):
                    store.get_many([other, foreign])
                assert [s.mem.summary() for s in store.shards] == before
            store.adopt_shard(shard, data, checkpoint=checkpoint)

    def get(self, run):
        self.states |= reached(self.paged)
        values = self.paged.get_many(run)
        assert values == [self.per_key.get(key) for key in run]
        by_shard = {}
        for pos, key in enumerate(run):
            by_shard.setdefault(self.per_shard.shard_index(key), []).append(pos)
        expected = [None] * len(run)
        for shard, positions in by_shard.items():
            got = self.per_shard.shard(shard).get_many(
                [run[pos] for pos in positions], default=None
            )
            for pos, value in zip(positions, got):
                expected[pos] = value
        assert values == expected
        for paged, per_key, per_shard in zip(
            self.paged.shards, self.per_key.shards, self.per_shard.shards
        ):
            assert paged.mem.summary() == per_shard.mem.summary()
            if self.charging is CounterCharging.PER_COUNTER:
                assert paged.mem.summary() == per_key.mem.summary()
            else:
                assert paged.mem.off_chip == per_key.mem.off_chip


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.lists(st.integers(0, len(POOL) - 1),
                                           min_size=1, max_size=40),
                  st.sampled_from(["bytes", "str", "json"])),
        st.tuples(st.just("delete"), st.lists(st.integers(0, len(POOL) - 1),
                                              min_size=1, max_size=10)),
        st.tuples(st.just("get"), st.lists(st.integers(0, len(POOL) - 1),
                                           min_size=1, max_size=64)),
        st.tuples(st.just("crash"), st.integers(0, N_SHARDS - 1)),
        st.tuples(st.just("checkpoint"), st.integers(0, N_SHARDS - 1)),
        st.tuples(st.just("move"), st.integers(0, N_SHARDS - 1)),
    ),
    min_size=1,
    max_size=30,
)


def play(twins, ops):
    for step, op in enumerate(ops):
        kind = op[0]
        if kind == "put":
            for index in op[1]:
                twins.put(POOL[index], value_for(op[2], step, index))
        elif kind == "delete":
            for index in op[1]:
                twins.delete(POOL[index])
        elif kind == "get":
            twins.get([POOL[index] for index in op[1]])
        elif kind == "crash":
            twins.crash(op[1])
        elif kind == "checkpoint":
            twins.checkpoint(op[1])
        else:
            twins.move(op[1])
    # Every key, in runs of every length up to 64.
    start, length = 0, 1
    while start < len(POOL):
        twins.get(POOL[start:start + length])
        start += length
        length = length % 64 + 1


@pytest.mark.parametrize("charging", CHARGING, ids=lambda c: c.value)
@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(variant=st.sampled_from(sorted(VARIANTS)), seed=st.integers(0, 1 << 16),
       ops=OPS)
def test_paged_get_matches_per_key_and_per_shard_reads(
    engine, charging, variant, seed, ops
):
    play(Twins(variant, charging, engine, seed), ops)


@pytest.mark.parametrize("charging", CHARGING, ids=lambda c: c.value)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("variant, state", [
    ("plain", "resizing"), ("stash", "stash"), ("rehash", "rehash"),
])
def test_each_covered_state_is_reached(engine, charging, variant, state):
    """A fixed history that drives each variant into its state, so the
    property above is known to compare reads taken in it."""
    twins = Twins(variant, charging, engine, seed=7)
    ops = []
    for start in range(0, 200, 20):
        ops.append(("put", list(range(start, start + 20)), "bytes"))
        ops.append(("get", list(range(0, 240, 3))[: 1 + start % 64]))
    ops += [("delete", list(range(0, 200, 7))), ("crash", 1), ("move", 2)]
    play(twins, ops)
    assert state in twins.states
