"""FaultPlan unit tests: grammar, determinism, counters, lifecycle."""

import pytest

from repro.faults import (
    FRAME_CORRUPT,
    FRAME_DROP,
    FRAME_OK,
    FaultPlan,
    FaultSpecError,
)
from tests.seeding import derive


class TestGrammar:
    def test_full_spec_parses_and_describes(self):
        spec = ("crash_after_appends=10@2; torn_write=5:7@1; "
                "delay_shard=0:0.01:3; busy=0.1; drop_connection=0.2; "
                "corrupt_frame=0.3")
        plan = FaultPlan.parse(spec, seed=4)
        assert [rule.kind for rule in plan.rules] == [
            "crash_after_appends", "torn_write", "delay_shard", "busy",
            "drop_connection", "corrupt_frame",
        ]
        assert "crash_after_appends=10@2" in plan.describe()
        assert "torn_write=5:7@1" in plan.describe()
        assert "delay_shard=0:0.01:3" in plan.describe()
        assert "seed=4" in plan.describe()

    def test_comma_and_semicolon_separators_equivalent(self):
        a = FaultPlan.parse("busy=0.1, corrupt_frame=0.2", seed=0)
        b = FaultPlan.parse("busy=0.1; corrupt_frame=0.2", seed=0)
        assert a.describe() == b.describe()

    def test_torn_write_defaults(self):
        rule = FaultPlan.parse("torn_write=3", seed=0).rules[0]
        assert rule.count == 3
        assert rule.keep_bytes is None
        assert rule.shard is None

    def test_delay_shard_default_every(self):
        rule = FaultPlan.parse("delay_shard=2:0.5", seed=0).rules[0]
        assert (rule.shard, rule.seconds, rule.every) == (2, 0.5, 1)

    @pytest.mark.parametrize("bad", [
        "",
        "   ;  , ",
        "explode=1",
        "crash_after_appends",
        "crash_after_appends=zero",
        "crash_after_appends=0",
        "crash_after_appends=-3",
        "torn_write=5:x",
        "delay_shard=1",
        "busy=1.5",
        "drop_connection=-0.1",
        "crash_during_compaction=0",
        "torn_checkpoint=1:x",
        "kill_worker_during=1",
        "kill_worker_during=frobnicate:1",
        "kill_worker_during=compaction:zero",
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(bad, seed=0)


class TestDeterminism:
    def _frame_schedule(self, plan, n=200):
        return [plan.on_frame_send(b"xyz-body")[0] for _ in range(n)]

    def test_same_seed_same_schedule(self):
        seed = derive(17)
        spec = "drop_connection=0.2; corrupt_frame=0.2; busy=0.3"
        one = FaultPlan.parse(spec, seed=seed)
        two = FaultPlan.parse(spec, seed=seed)
        assert self._frame_schedule(one) == self._frame_schedule(two)
        assert [one.should_reject_busy() for _ in range(100)] == \
               [two.should_reject_busy() for _ in range(100)]
        assert one.fired_counts() == two.fired_counts()

    def test_different_seeds_diverge(self):
        spec = "corrupt_frame=0.5"
        one = self._frame_schedule(FaultPlan.parse(spec, seed=1))
        two = self._frame_schedule(FaultPlan.parse(spec, seed=2))
        assert one != two  # 2^-200 false-failure odds

    def test_reset_replays_identically(self):
        plan = FaultPlan.parse("corrupt_frame=0.3; crash_after_appends=2",
                               seed=derive(23))
        first = self._frame_schedule(plan, 50)
        first_append = [plan.on_append() is not None for _ in range(5)]
        plan.reset()
        assert self._frame_schedule(plan, 50) == first
        assert [plan.on_append() is not None for _ in range(5)] == first_append

    def test_corruption_flips_exactly_one_byte(self):
        plan = FaultPlan.parse("corrupt_frame=1.0", seed=derive(3))
        body = bytes(range(64))
        verdict, mutated = plan.on_frame_send(body)
        assert verdict == FRAME_CORRUPT
        assert len(mutated) == len(body)
        assert sum(a != b for a, b in zip(body, mutated)) == 1


class TestCounters:
    def test_crash_fires_on_nth_append_once(self):
        plan = FaultPlan.parse("crash_after_appends=3", seed=0)
        hits = [plan.on_append() for _ in range(10)]
        assert [fault is not None for fault in hits] == \
               [False, False, True] + [False] * 7
        assert hits[2].crash and not hits[2].torn
        assert plan.fired_counts() == {"crash": 1}

    def test_shard_filter_counts_only_matching_shard(self):
        plan = FaultPlan.parse("crash_after_appends=2@1", seed=0)
        assert plan.on_append(shard=0) is None
        assert plan.on_append(shard=1) is None
        assert plan.on_append(shard=0) is None  # shard 0 never counts
        assert plan.on_append(shard=1) is not None  # 2nd shard-1 append

    def test_torn_write_carries_keep_bytes(self):
        plan = FaultPlan.parse("torn_write=1:9", seed=0)
        fault = plan.on_append()
        assert fault.torn and fault.crash and fault.keep_bytes == 9
        assert plan.fired_counts() == {"torn_write": 1}

    def test_delay_every_n(self):
        plan = FaultPlan.parse("delay_shard=1:0.25:3", seed=0)
        delays = [plan.writer_delay(1) for _ in range(6)]
        assert delays == [0.0, 0.0, 0.25, 0.0, 0.0, 0.25]
        assert plan.writer_delay(0) == 0.0  # other shards unaffected
        assert plan.fired_counts() == {"delay": 2}


class TestLifecycle:
    def test_disarmed_plan_is_inert(self):
        plan = FaultPlan.parse(
            "crash_after_appends=1; busy=1.0; drop_connection=1.0", seed=0
        )
        plan.disarm()
        assert not plan.armed
        assert plan.on_append() is None
        assert plan.should_reject_busy() is False
        assert plan.on_frame_send(b"abc") == (FRAME_OK, b"abc")
        assert plan.fired_counts() == {}
        plan.arm()
        assert plan.on_frame_send(b"abc")[0] == FRAME_DROP

    def test_disarm_does_not_consume_one_shots(self):
        plan = FaultPlan.parse("crash_after_appends=1", seed=0)
        plan.disarm()
        for _ in range(5):
            assert plan.on_append() is None
        plan.arm()
        assert plan.on_append() is not None


class TestKillWorker:
    def test_parse_describe_roundtrip(self):
        plan = FaultPlan.parse("kill_worker=3@1", seed=derive(60))
        assert "kill_worker=3@1" in plan.describe()
        rebuilt = FaultPlan.parse(plan.spec(), seed=plan.seed)
        assert rebuilt.describe() == plan.describe()

    def test_fires_once_on_nth_write(self):
        plan = FaultPlan.parse("kill_worker=3", seed=0)
        fired = [plan.should_kill_worker(0) for _ in range(6)]
        assert fired == [False, False, True, False, False, False]
        assert plan.fired_counts() == {"kill_worker": 1}

    def test_worker_scope_counts_only_that_worker(self):
        plan = FaultPlan.parse("kill_worker=2@1", seed=0)
        assert plan.should_kill_worker(0) is False
        assert plan.should_kill_worker(1) is False
        assert plan.should_kill_worker(0) is False  # worker 0 never counts
        assert plan.should_kill_worker(1) is True
        assert plan.should_kill_worker(1) is False  # one-shot

    def test_disarmed_plan_never_kills(self):
        plan = FaultPlan.parse("kill_worker=1", seed=0)
        plan.disarm()
        assert all(not plan.should_kill_worker(0) for _ in range(5))
        plan.arm()
        assert plan.should_kill_worker(0) is True

    def test_spec_ships_every_rule_kind(self):
        spec = ("crash_after_appends=10@2; torn_write=5:7@1; busy=0.25; "
                "kill_worker=4; delay_shard=0:0.01:3; "
                "crash_during_compaction=2@1; torn_checkpoint=1:10; "
                "kill_worker_during=checkpoint:3@0")
        plan = FaultPlan.parse(spec, seed=9)
        rebuilt = FaultPlan.parse(plan.spec(), seed=9)
        assert rebuilt.describe() == plan.describe()


class TestMaintenanceRules:
    """The compaction/checkpoint fault surface (repro.maintenance)."""

    def test_parse_describe_roundtrip(self):
        spec = ("crash_during_compaction=2@1; torn_checkpoint=1:10; "
                "kill_worker_during=compaction:1@0")
        plan = FaultPlan.parse(spec, seed=derive(61))
        assert "crash_during_compaction=2@1" in plan.describe()
        assert "torn_checkpoint=1:10" in plan.describe()
        assert "kill_worker_during=compaction:1@0" in plan.describe()
        rebuilt = FaultPlan.parse(plan.spec(), seed=plan.seed)
        assert rebuilt.describe() == plan.describe()

    def test_spent_maintenance_strike_carries_to_a_replacement(self):
        spec = "kill_worker_during=compaction:1; kill_worker_during=migration:1"
        dying = FaultPlan.parse(spec, seed=0)
        assert dying.should_kill_maintenance("compaction", 0)
        assert dying.should_kill_maintenance("migration", 0)
        assert dying.spent_maintenance_kills() == [0]

        replacement = FaultPlan.parse(spec, seed=0)
        replacement.mark_spent(dying.spent_maintenance_kills())
        assert not replacement.should_kill_maintenance("compaction", 0)
        assert replacement.should_kill_maintenance("migration", 0)

    def test_compaction_crash_fires_on_nth_record_once(self):
        plan = FaultPlan.parse("crash_during_compaction=3", seed=0)
        fired = [plan.on_compaction_record() for _ in range(6)]
        assert fired == [False, False, True, False, False, False]
        assert plan.fired_counts() == {"crash_during_compaction": 1}

    def test_compaction_crash_shard_scoped(self):
        plan = FaultPlan.parse("crash_during_compaction=2@1", seed=0)
        assert plan.on_compaction_record(shard=0) is False
        assert plan.on_compaction_record(shard=1) is False
        assert plan.on_compaction_record(shard=0) is False  # never counts
        assert plan.on_compaction_record(shard=1) is True

    def test_torn_checkpoint_carries_keep_bytes(self):
        plan = FaultPlan.parse("torn_checkpoint=2:10", seed=0)
        assert plan.on_checkpoint_write() is None  # 1st write is clean
        fault = plan.on_checkpoint_write()
        assert fault is not None
        assert fault.torn and fault.crash and fault.keep_bytes == 10
        assert plan.on_checkpoint_write() is None  # one-shot
        assert plan.fired_counts() == {"torn_checkpoint": 1}

    def test_torn_checkpoint_default_keep_is_unset(self):
        fault = FaultPlan.parse("torn_checkpoint=1", seed=0).on_checkpoint_write()
        assert fault.keep_bytes is None  # store tears at half the artifact

    def test_kill_during_site_is_exact(self):
        plan = FaultPlan.parse("kill_worker_during=checkpoint:1", seed=0)
        assert plan.should_kill_maintenance("compaction", 0) is False
        assert plan.should_kill_maintenance("checkpoint", 0) is True
        assert plan.should_kill_maintenance("checkpoint", 0) is False  # spent
        assert plan.fired_counts() == {"kill_worker_during": 1}

    def test_kill_during_worker_scoped(self):
        plan = FaultPlan.parse("kill_worker_during=compaction:2@1", seed=0)
        assert plan.should_kill_maintenance("compaction", 0) is False
        assert plan.should_kill_maintenance("compaction", 1) is False
        assert plan.should_kill_maintenance("compaction", 0) is False
        assert plan.should_kill_maintenance("compaction", 1) is True

    def test_disarmed_plan_skips_maintenance_rules(self):
        plan = FaultPlan.parse(
            "crash_during_compaction=1; torn_checkpoint=1; "
            "kill_worker_during=compaction:1", seed=0
        )
        plan.disarm()
        assert plan.on_compaction_record() is False
        assert plan.on_checkpoint_write() is None
        assert plan.should_kill_maintenance("compaction", 0) is False
        assert plan.fired_counts() == {}
        plan.arm()
        assert plan.on_compaction_record() is True
