"""Sharded log-structured store backend tests (no sockets)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.sharded import ShardRouter
from repro.serve.store import ShardedLogStore
from repro.workloads import distinct_keys
from tests.seeding import derive


def store(n_shards=4, expected_items=1024, seed=derive(11)):
    return ShardedLogStore(n_shards=n_shards, expected_items=expected_items,
                           seed=seed)


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            ShardedLogStore(n_shards=0)
        with pytest.raises(ConfigurationError):
            ShardedLogStore(expected_items=0)

    def test_routing_agrees_with_shard_router(self):
        s = store(n_shards=8, seed=derive(3))
        router = ShardRouter(8, seed=derive(3))
        for key in distinct_keys(200, seed=derive(4)):
            assert s.shard_index(key) == router.shard_of(key)


class TestOperations:
    def test_put_get_delete_roundtrip(self):
        s = store()
        assert s.get(123) is None
        result = s.put(123, b"v1")
        assert result.created
        assert s.get(123) == b"v1"
        assert not s.put(123, b"v2").created
        assert s.get(123) == b"v2"
        assert s.delete(123)
        assert not s.delete(123)
        assert s.get(123) is None

    def test_empty_value_is_not_a_miss(self):
        s = store()
        s.put(5, b"")
        assert s.get(5) == b""

    def test_writes_touch_owning_shard_only(self):
        s = store()
        key = 909
        owner = s.shard_index(key)
        s.put(key, b"v")
        for index, shard in enumerate(s.shards):
            assert len(shard) == (1 if index == owner else 0)

    def test_spread_across_shards(self):
        s = store(n_shards=4)
        keys = distinct_keys(400, seed=derive(5))
        for key in keys:
            s.put(key, key.to_bytes(8, "big"))
        assert len(s) == 400
        assert all(len(shard) > 0 for shard in s.shards)
        for key in keys:
            assert s.get(key) == key.to_bytes(8, "big")


class TestStats:
    def test_snapshot_gauges(self):
        s = store()
        for key in distinct_keys(100, seed=derive(6)):
            s.put(key, b"v")
        snapshot = s.stats_snapshot()
        assert snapshot["store_items"] == 100
        assert snapshot["store_log_records"] == 100
        assert snapshot["store_garbage_ratio"] == 0.0
        assert snapshot["index_capacity"] > 0
        assert 0.0 < snapshot["index_load_ratio"] <= 1.0
        assert snapshot["index_imbalance"] >= 1.0
        assert snapshot["index_stash_population"] >= 0

    def test_garbage_gauge_tracks_updates(self):
        s = store()
        s.put(1, b"a")
        s.put(1, b"b")
        assert s.stats_snapshot()["store_garbage_ratio"] == pytest.approx(0.5)


class TestCrashRecovery:
    def test_recovered_image_equals_crashed_and_checkpoint_validates(self):
        s = ShardedLogStore(n_shards=2, expected_items=512, seed=derive(12),
                            durable=True)
        keys = distinct_keys(300, seed=derive(13))
        for i, key in enumerate(keys[:200]):
            s.put(key, b"v%d" % i)
        shard = s.shard_index(keys[0])
        s.shard(shard).take_checkpoint()
        for i, key in enumerate(keys[200:]):
            s.put(key, b"w%d" % i)
        crashed = s.shard(shard)
        image, checkpoint = crashed.log_bytes, crashed.checkpoint_bytes
        report = s.crash_and_recover(shard)
        recovered = s.shard(shard)
        assert recovered is not crashed
        assert recovered.log_bytes == image
        assert recovered.checkpoint_bytes == checkpoint
        assert report.checkpoint_loaded and not report.checkpoint_invalid
        # The recovered store's own checkpoint still validates against its
        # image: a second restart restores it again and replays the tail.
        again = recovered.recover()
        assert again.recovery_report.checkpoint_loaded
        assert again.log_bytes == image
        assert dict(again.items()) == dict(recovered.items())
        # The view the dead image was handed over through is released: the
        # old incarnation's image can still grow.
        crashed.put(keys[0], b"after")
        recovered.put(keys[0], b"after")
        assert s.get(keys[0]) == b"after"
