"""Sharded multi-writer wrapper tests."""

import pytest

from repro import ConcurrentMcCuckoo, DeletionMode
from repro._numpy import numpy_available, numpy_or_none
from repro.core import check_mccuckoo
from repro.core.errors import ConfigurationError
from repro.core.sharded import (
    RoutingTable,
    ShardedMcCuckoo,
    ShardRouter,
    shards_of_worker,
    worker_of_shard,
)
from repro.workloads import TraceGenerator, distinct_keys, missing_keys, replay


def table(n_shards=4, n_buckets=32, **kwargs):
    kwargs.setdefault("deletion_mode", DeletionMode.RESET)
    return ShardedMcCuckoo(n_shards, n_buckets, seed=940, maxloop=100, **kwargs)


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            ShardedMcCuckoo(0, 8)
        with pytest.raises(ConfigurationError):
            ShardedMcCuckoo(4, 0)

    def test_capacity_sums_shards(self):
        t = table(n_shards=4, n_buckets=32)
        assert t.capacity == 4 * 3 * 32

    def test_shards_have_distinct_seeds(self):
        t = table()
        hashers = {shard._functions[0].hash64(123) for shard in t.shards}
        assert len(hashers) == t.n_shards


class TestShardRouter:
    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(ConfigurationError):
            ShardRouter(0)

    def test_deterministic_and_in_range(self):
        router = ShardRouter(8, seed=21)
        for key in distinct_keys(300, seed=22):
            shard = router.shard_of(key)
            assert 0 <= shard < 8
            assert shard == router.shard_of(key)

    @pytest.mark.skipif(not numpy_available(), reason="NumPy not installed")
    def test_array_routing_matches_scalar_on_every_call(self):
        """The router keeps its NumPy constants between calls; each call
        must still route every key exactly as :meth:`shard_of` does."""
        np = numpy_or_none()
        router = ShardRouter(5, seed=23)
        for size, seed in ((1, 24), (16, 25), (300, 26), (0, 27), (33, 28)):
            keys = distinct_keys(size, seed=seed) + [0, 2**64 - 1]
            routes = router.shard_of_array(np.array(keys, dtype=np.uint64))
            assert routes.dtype == np.int64
            assert routes.tolist() == [router.shard_of(k) for k in keys]


class TestRouting:
    def test_shard_index_stable(self):
        t = table()
        assert t.shard_index(42) == t.shard_index(42)

    def test_routing_stable_across_instances_same_seed(self):
        """Two tables built with the same seed agree on every key's owner
        — routing must be a pure function of (n_shards, seed)."""
        a = table(n_shards=8, n_buckets=16)
        b = ShardedMcCuckoo(8, 64, seed=940, d=2,
                            deletion_mode=DeletionMode.RESET)
        for key in distinct_keys(300, seed=948):
            assert a.shard_index(key) == b.shard_index(key)

    def test_routing_differs_across_seeds(self):
        a = ShardedMcCuckoo(8, 32, seed=1, deletion_mode=DeletionMode.RESET)
        b = ShardedMcCuckoo(8, 32, seed=2, deletion_mode=DeletionMode.RESET)
        keys = distinct_keys(300, seed=949)
        moved = sum(a.shard_index(k) != b.shard_index(k) for k in keys)
        assert moved > len(keys) // 2  # ~7/8 expected to move

    def test_router_matches_facade(self):
        t = table(n_shards=4)
        router = ShardRouter(4, seed=940)
        for key in distinct_keys(100, seed=950):
            assert t.shard_index(key) == router.shard_of(key)

    def test_operations_hit_owning_shard_only(self):
        t = table()
        key = 777
        owner = t.shard_for(key)
        t.put(key, "v")
        assert len(owner) == 1
        assert sum(len(s) for s in t.shards if s is not owner) == 0

    def test_roundtrip_across_shards(self):
        t = table()
        keys = distinct_keys(250, seed=941)
        for key in keys:
            t.put(key, key % 13)
        assert len(t) == 250
        for key in keys:
            outcome = t.lookup(key)
            assert outcome.found and outcome.value == key % 13

    def test_delete_and_update(self):
        t = table()
        t.put(1, "a")
        assert t.upsert(1, "b").status.value == "updated"
        assert t.get(1) == "b"
        assert t.delete(1).deleted
        assert 1 not in t

    def test_missing_lookups(self):
        t = table()
        keys = distinct_keys(100, seed=942)
        for key in keys:
            t.put(key)
        for key in missing_keys(100, set(keys), seed=943):
            assert not t.lookup(key).found

    def test_items_spans_all_shards(self):
        t = table()
        keys = distinct_keys(120, seed=944)
        for key in keys:
            t.put(key)
        assert len(dict(t.items())) == 120


class TestBalance:
    def test_shards_roughly_balanced(self):
        t = table(n_shards=8, n_buckets=64)
        for key in distinct_keys(int(t.capacity * 0.5), seed=945):
            t.put(key)
        assert t.imbalance() < 1.3

    def test_shard_loads_reported(self):
        t = table(n_shards=4)
        assert t.shard_loads() == [0.0] * 4

    def test_imbalance_on_empty_table_is_one(self):
        assert table(n_shards=4).imbalance() == 1.0

    def test_imbalance_on_skewed_table(self):
        """Keys filtered onto a single shard drive max/mean to n_shards."""
        t = table(n_shards=4, n_buckets=64)
        stream = iter(distinct_keys(4000, seed=951))
        placed = 0
        for key in stream:
            if t.shard_index(key) == 0:
                t.put(key)
                placed += 1
                if placed == 50:
                    break
        assert placed == 50
        assert t.imbalance() == pytest.approx(4.0)

    def test_stash_population_starts_empty(self):
        assert table(n_shards=4).stash_population() == 0


class TestAccountingIsolation:
    def test_shared_accounting_funnels_to_one_model(self):
        t = table(n_shards=4, shared_accounting=True)
        for key in distinct_keys(60, seed=952):
            t.put(key)
        assert all(shard.mem is t.mem for shard in t.shards)
        assert t.mem.off_chip.writes > 0

    def test_independent_accounting_keeps_models_separate(self):
        t = table(n_shards=4, shared_accounting=False)
        models = [shard.mem for shard in t.shards]
        assert len({id(model) for model in models}) == 4
        assert all(model is not t.mem for model in models)

        key = distinct_keys(1, seed=953)[0]
        owner = t.shard_index(key)
        t.put(key, "v")
        t.lookup(key)
        assert t.mem.off_chip.writes == 0  # facade model untouched
        assert models[owner].off_chip.writes > 0
        for index, model in enumerate(models):
            if index != owner:
                assert model.off_chip.reads + model.off_chip.writes == 0


class TestCorrectness:
    def test_trace_replay_clean(self):
        t = table(n_shards=4, n_buckets=48)
        stats = replay(t, iter(TraceGenerator(1500, seed=946)))
        assert stats.false_negatives == 0
        assert stats.false_positives == 0
        for shard in t.shards:
            check_mccuckoo(shard)

    def test_parallel_writers_on_distinct_shards(self):
        """Two concurrent writers working different shards interleave their
        step sequences with no cross-effects — sharding isolates them."""
        t = table(n_shards=2, n_buckets=48)
        writers = [ConcurrentMcCuckoo(shard) for shard in t.shards]
        keys = distinct_keys(400, seed=947)
        per_shard = {0: [], 1: []}
        for key in keys:
            per_shard[t.shard_index(key)].append(key)
        pending = {0: list(per_shard[0]), 1: list(per_shard[1])}
        inserted = []
        # round-robin: one step of writer A, one step of writer B
        active = {0: None, 1: None}
        while any(pending.values()) or any(active.values()):
            for shard_id in (0, 1):
                if active[shard_id] is None and pending[shard_id]:
                    key = pending[shard_id].pop()
                    active[shard_id] = (key, writers[shard_id].insert_stepwise(key))
                if active[shard_id] is not None:
                    key, stepper = active[shard_id]
                    try:
                        next(stepper)
                    except StopIteration:
                        inserted.append(key)
                        active[shard_id] = None
        assert len(inserted) == len(keys)
        for key in keys:
            assert t.lookup(key).found
        for shard in t.shards:
            check_mccuckoo(shard)


class TestWorkerAssignment:
    """shard → worker-process routing used by the multi-process server."""

    def test_round_robin_assignment(self):
        assert [worker_of_shard(shard, 3) for shard in range(7)] == [
            0, 1, 2, 0, 1, 2, 0
        ]

    def test_rejects_nonpositive_worker_count(self):
        with pytest.raises(ConfigurationError):
            worker_of_shard(0, 0)
        with pytest.raises(ConfigurationError):
            shards_of_worker(0, 4, 0)

    def test_rejects_out_of_range_worker(self):
        with pytest.raises(ConfigurationError):
            shards_of_worker(2, 4, 2)

    @pytest.mark.parametrize("n_shards,n_workers",
                             [(1, 1), (4, 2), (5, 2), (7, 3), (3, 5)])
    def test_groups_partition_the_shard_space(self, n_shards, n_workers):
        groups = [shards_of_worker(worker, n_shards, n_workers)
                  for worker in range(n_workers)]
        flat = sorted(shard for group in groups for shard in group)
        assert flat == list(range(n_shards))
        for worker, group in enumerate(groups):
            for shard in group:
                assert worker_of_shard(shard, n_workers) == worker

    def test_router_worker_of_matches_composition(self):
        router = ShardRouter(6, seed=940)
        for key in range(400):
            assert router.worker_of(key, 4) == worker_of_shard(
                router.shard_of(key), 4
            )

    def test_worker_of_rejects_nonpositive_workers(self):
        with pytest.raises(ConfigurationError):
            ShardRouter(4, seed=0).worker_of(1, 0)


class TestRoutingProperties:
    """Seeded property sweep over the whole routing surface (ownership
    must partition, stay stable, and agree between scalar and batched
    paths — the invariants live resharding leans on)."""

    @pytest.mark.parametrize("case", range(12))
    def test_every_shard_owned_by_exactly_one_worker(self, case, rng):
        n_shards = rng.randrange(1, 33) + case
        n_workers = rng.randrange(1, 9)
        groups = [shards_of_worker(worker, n_shards, n_workers)
                  for worker in range(n_workers)]
        flat = [shard for group in groups for shard in group]
        assert sorted(flat) == list(range(n_shards))
        assert len(flat) == len(set(flat))
        for worker, group in enumerate(groups):
            assert group == tuple(sorted(group))
            for shard in group:
                assert worker_of_shard(shard, n_workers) == worker

    @pytest.mark.parametrize("case", range(8))
    def test_partitions_stable_across_instances(self, case, rng):
        seed = rng.randrange(2**32) + case
        n_shards = rng.randrange(1, 17)
        keys = [rng.randrange(2**63) for _ in range(300)]
        before = ShardRouter(n_shards, seed=seed)
        after = ShardRouter(n_shards, seed=seed)
        assert [before.shard_of(key) for key in keys] == [
            after.shard_of(key) for key in keys
        ]

    @pytest.mark.parametrize("case", range(8))
    def test_shard_of_many_agrees_with_scalar(self, case, rng):
        router = ShardRouter(rng.randrange(1, 13), seed=rng.randrange(2**32))
        keys = [rng.randrange(-2**31, 2**63) for _ in range(257 + case)]
        assert router.shard_of_many(keys) == [
            router.shard_of(key) for key in keys
        ]

    @pytest.mark.parametrize("case", range(6))
    def test_worker_of_composes_for_random_shapes(self, case, rng):
        router = ShardRouter(rng.randrange(1, 13), seed=rng.randrange(2**32))
        n_workers = rng.randrange(1, 7) + case % 2
        for key in (rng.randrange(2**63) for _ in range(200)):
            assert router.worker_of(key, n_workers) == worker_of_shard(
                router.shard_of(key), n_workers
            )


class TestRoutingTable:
    """Epoch-versioned dynamic overlay used by live resharding."""

    def test_epoch_zero_matches_static_assignment(self):
        table = RoutingTable(7, 3)
        assert table.epoch == 0
        for shard in range(7):
            assert table.worker_of_shard(shard) == worker_of_shard(shard, 3)
        for worker in range(3):
            assert table.shards_of_worker(worker) == shards_of_worker(
                worker, 7, 3
            )

    def test_reassign_bumps_epoch_and_moves_ownership(self):
        table = RoutingTable(4, 2)
        assert table.reassign(0, 1) == 1
        assert table.epoch == 1
        assert table.worker_of_shard(0) == 1
        assert 0 in table.shards_of_worker(1)
        assert 0 not in table.shards_of_worker(0)

    @pytest.mark.parametrize("case", range(8))
    def test_partition_invariant_survives_random_reassignments(
            self, case, rng):
        n_shards = rng.randrange(1, 17) + case
        n_workers = rng.randrange(1, 6)
        table = RoutingTable(n_shards, n_workers)
        last_epoch = 0
        for _ in range(25):
            shard = rng.randrange(n_shards)
            worker = rng.randrange(n_workers)
            epoch = table.reassign(shard, worker)
            assert epoch == last_epoch + 1  # every move is a new epoch
            last_epoch = epoch
            groups = [table.shards_of_worker(w) for w in range(n_workers)]
            flat = sorted(s for group in groups for s in group)
            assert flat == list(range(n_shards))
            assert table.worker_of_shard(shard) == worker
            assert table.assignment()[shard] == worker

    def test_rejects_out_of_range_arguments(self):
        table = RoutingTable(4, 2)
        for call in (
            lambda: table.worker_of_shard(4),
            lambda: table.worker_of_shard(-1),
            lambda: table.shards_of_worker(2),
            lambda: table.reassign(4, 0),
            lambda: table.reassign(0, 2),
        ):
            with pytest.raises(ConfigurationError):
                call()
        with pytest.raises(ConfigurationError):
            RoutingTable(0, 1)
        with pytest.raises(ConfigurationError):
            RoutingTable(1, 0)
