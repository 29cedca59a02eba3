"""Differential recovery test: a recovered shard equals one that never crashed.

The index is a pure function of its config and the log: replaying the
surviving records in order, as the live ``put`` and ``delete`` applied
them, rebuilds the exact index, and a validated checkpoint restores the
exact index at its log position.  Hypothesis drives one durable shard and
a never-crashed twin through the same writes (puts, overwrites, deletes
of present and absent keys, with a small initial size so online resizes
happen), checkpoints and compactions, then crashes the shard, optionally
mid-write, and recovers it along one drawn path:

* ``crash_and_recover`` with the latest checkpoint (valid, or none yet);
* ``crash_and_recover`` with a torn or a missing checkpoint (full replay);
* ``load_shard_from_bytes`` on a fresh store (worker restart);
* ``adopt_shard`` on a second store (migration install).

The recovered index must snapshot identically to the twin's, the log
images must be byte-identical (the torn tail dropped), and one
continuation of inserts must kick and stash identically.  Runs of writes
go through the store's write kernel as one run on the shard and one op
at a time on the twin, which must leave equal replies, snapshots, log
bytes and ``MemoryModel`` totals in either counter-charging mode.  Compaction is
the one documented exception to replay equality — the index keeps
history the compacted log no longer holds — so streams that compact are
only recovered through a checkpoint, which the compaction rule takes at
once, as the maintenance daemon does.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro.apps.kvstore import DELETE
from repro.core.policies import POLICIES
from repro.core.snapshot import snapshot_resizable
from repro.faults import FaultPlan, InjectedCrash
from repro.memory import CounterCharging
from repro.serve.store import ShardedLogStore
from tests.seeding import derive

KEYS = st.integers(min_value=0, max_value=160)
PATHS = ("checkpoint", "torn-checkpoint", "missing-checkpoint",
         "worker-restart", "migration")
CONTINUATION = 24
RUN_OPS = st.lists(
    st.tuples(st.sampled_from(["put", "delete", "new"]), KEYS,
              st.binary(max_size=12)),
    max_size=30,
)


def run_equals_ops_one_at_a_time(live, twin, ops):
    """Apply ``ops`` — ``(key, value)`` pairs, value ``DELETE`` for a
    delete — as one write run on ``live`` and one op at a time on
    ``twin`` (both one-shard stores), and check they agree."""
    run_shard, op_shard = live.shard(0), twin.shard(0)
    run_mem, op_mem = run_shard.mem.summary(), op_shard.mem.summary()
    done = []
    run_shard.write_run(ops, done)
    one_at_a_time = [op_shard.delete(key) if value is DELETE
                     else op_shard.put(key, value) for key, value in ops]
    assert done == one_at_a_time
    assert run_shard.log_bytes == op_shard.log_bytes
    assert snapshot_resizable(run_shard.index) == snapshot_resizable(op_shard.index)
    run_delta = {name: count - run_mem[name]
                 for name, count in run_shard.mem.summary().items()}
    op_delta = {name: count - op_mem[name]
                for name, count in op_shard.mem.summary().items()}
    assert run_delta == op_delta


class RecoveryMachine(RuleBasedStateMachine):
    @initialize(
        policy=st.sampled_from([None] + sorted(POLICIES)),
        expected_items=st.integers(min_value=1, max_value=72),
        seed=st.integers(min_value=0, max_value=1 << 16),
        path=st.sampled_from(PATHS),
        torn_keep=st.none() | st.integers(min_value=0, max_value=40),
        preload=st.integers(min_value=50, max_value=110),
        compacts=st.booleans(),
        charging=st.sampled_from(list(CounterCharging)),
    )
    def build(self, policy, expected_items, seed, path, torn_keep, preload,
              compacts, charging):
        self.path = path
        self.torn_keep = torn_keep
        # full replay cannot follow a compaction (see the module docstring)
        self.compacts = compacts and path not in ("torn-checkpoint",
                                                  "missing-checkpoint")
        self.plan = FaultPlan.parse(
            "torn_checkpoint=1" if path == "torn-checkpoint"
            else f"torn_write=1:{torn_keep or 0}"
        )
        self.plan.disarm()
        self.settings = dict(n_shards=1, expected_items=expected_items,
                             seed=derive(0x5EC0) ^ seed, durable=True,
                             kick_policy=policy)
        self.live = ShardedLogStore(faults=self.plan, **self.settings)
        self.twin = ShardedLogStore(**self.settings)
        for store in (self.live, self.twin):
            store.shard(0).mem.counter_charging = charging
        self.next_key = 1000
        self.fill(preload)  # start near the first resize

    def put_both(self, key, value):
        a, b = self.live.put(key, value), self.twin.put(key, value)
        assert (a.created, a.kicks, a.stashed) == (b.created, b.kicks, b.stashed)

    @rule(key=KEYS, value=st.binary(max_size=12))
    def put(self, key, value):
        self.put_both(key, value)

    @rule(count=st.integers(min_value=1, max_value=30))
    def fill(self, count):
        for _ in range(count):
            self.put_both(self.next_key, b"f")
            self.next_key += 1

    @rule(key=KEYS)
    def delete(self, key):
        assert self.live.delete(key) == self.twin.delete(key)

    @rule(ops=RUN_OPS)
    def write_run(self, ops):
        """Puts, overwrites, deletes of present and absent keys and new
        keys (which resize the index) as one run against one at a time."""
        run = []
        for verb, key, value in ops:
            if verb == "new":
                key, self.next_key = self.next_key, self.next_key + 1
            run.append((key, DELETE if verb == "delete" else value))
        run_equals_ops_one_at_a_time(self.live, self.twin, run)

    @rule()
    def checkpoint(self):
        self.live.shard(0).take_checkpoint()

    @precondition(lambda self: self.compacts)
    @rule()
    def compact_then_checkpoint(self):
        self.twin.shard(0).compact()
        self.live.shard(0).compact()
        self.live.shard(0).take_checkpoint()

    def crash(self):
        """Stop the shard, mid-write when ``torn_keep`` is drawn, and
        return the surviving log image and checkpoint slot."""
        shard = self.live.shard(0)
        self.plan.arm()
        if self.path == "torn-checkpoint":
            try:
                shard.take_checkpoint()
            except InjectedCrash:
                pass
        elif self.torn_keep is not None:
            try:
                shard.put(self.next_key, b"torn")
            except InjectedCrash:
                pass
        self.plan.disarm()
        if self.path == "missing-checkpoint":
            shard.clear_checkpoint()
        return shard.log_bytes, shard.checkpoint_bytes

    def recover(self, data, checkpoint):
        if self.path == "worker-restart":
            store = ShardedLogStore(**self.settings)
            store.load_shard_from_bytes(0, data, checkpoint=checkpoint)
        elif self.path == "migration":
            store = ShardedLogStore(owned=[], **self.settings)
            store.adopt_shard(0, data, checkpoint=checkpoint)
        else:
            store = self.live
            store.crash_and_recover(0)
        return store.shard(0)

    def teardown(self):
        data, checkpoint = self.crash()
        recovered = self.recover(data, checkpoint)
        twin = self.twin.shard(0)
        if self.path in ("torn-checkpoint", "missing-checkpoint"):
            assert not recovered.recovery_report.checkpoint_loaded
        assert recovered.log_bytes == twin.log_bytes
        assert snapshot_resizable(recovered.index) == snapshot_resizable(twin.index)
        for i in range(CONTINUATION):
            key = self.next_key + 1 + i
            a, b = recovered.put(key, b"c"), twin.put(key, b"c")
            assert (a.status, a.kicks, a.stashed) == (b.status, b.kicks, b.stashed)


TestRecoveredEqualsNeverCrashed = RecoveryMachine.TestCase
TestRecoveredEqualsNeverCrashed.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)


@pytest.mark.parametrize("charging", list(CounterCharging))
def test_a_run_that_starts_a_resize_midway_equals_one_op_at_a_time(charging):
    settings = dict(n_shards=1, expected_items=64, seed=derive(0x5EC1),
                    durable=True)
    live, twin = ShardedLogStore(**settings), ShardedLogStore(**settings)
    for store in (live, twin):
        store.shard(0).mem.counter_charging = charging
        for key in range(70):
            store.put(key, b"p")
    index = live.shard(0).index
    generations = index.generations
    assert not index.resizing
    ops = [(key, b"o") for key in range(0, 70, 3)]
    ops += [(key, DELETE) for key in (1, 2, 500)]
    ops += [(1000 + key, b"n") for key in range(40)]
    ops += [(key, b"late") for key in range(4, 70, 5)]
    run_equals_ops_one_at_a_time(live, twin, ops)
    assert index.generations > generations  # the run started a resize
