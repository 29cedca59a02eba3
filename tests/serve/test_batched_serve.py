"""Tests for the vectorized serving paths: store.get_many and the
run-grouped BATCH handler (bulk reads, grouped writer submissions)."""

import asyncio

import pytest

from repro._numpy import numpy_or_none
from repro.apps.kvstore import LogStructuredStore
from repro.memory.model import MemoryModel
from repro.serve import (
    ErrorCode,
    ErrorReply,
    McCuckooClient,
    McCuckooServer,
    ServeStats,
    ServerConfig,
)
from repro.serve.executor import ShardExecutor
from repro.serve.store import ShardedLogStore
from repro.workloads import distinct_keys
from tests.seeding import derive


def run(coro):
    return asyncio.run(coro)


class TestStoreGetMany:
    def test_log_store_get_many_matches_scalar_and_accounting(self):
        scalar = LogStructuredStore(expected_items=256, seed=derive(4), mem=MemoryModel())
        batched = LogStructuredStore(expected_items=256, seed=derive(4), mem=MemoryModel())
        keys = distinct_keys(300, seed=derive(5))
        for store in (scalar, batched):
            for i, key in enumerate(keys):
                store.put(key, i)
        queries = keys[::2] + distinct_keys(100, seed=derive(6))
        expected = [scalar.get(key, default="absent") for key in queries]
        assert batched.get_many(queries, default="absent") == expected
        assert scalar.mem.summary() == batched.mem.summary()

    def test_sharded_store_get_many_preserves_order(self):
        store = ShardedLogStore(n_shards=4, expected_items=512, seed=derive(2))
        keys = distinct_keys(200, seed=derive(7))
        for i, key in enumerate(keys):
            store.put(key, bytes([i % 256]))
        missing = distinct_keys(50, seed=derive(8))
        queries = [q for pair in zip(keys[:50], missing) for q in pair]
        values = store.get_many(queries)
        assert values == [store.get(q) for q in queries]
        assert values[0::2] == [bytes([i % 256]) for i in range(50)]
        assert values[1::2] == [None] * 50

    def test_get_many_empty(self):
        store = ShardedLogStore(n_shards=2, expected_items=64)
        assert store.get_many([]) == []


class TestGetRunStats:
    """``ShardExecutor.get_run`` answers and counts a run exactly as a
    per-key ``get`` loop does, also when the run fails as a whole."""

    @staticmethod
    def twins(owned=None, engine="auto"):
        keys = distinct_keys(120, seed=derive(31))
        executors = []
        for _ in range(2):
            store = ShardedLogStore(n_shards=4, expected_items=512,
                                    seed=derive(3), engine=engine)
            for i, key in enumerate(keys):
                store.put(key, bytes([i % 256]) * (i % 5))
            if owned is not None:
                for shard in range(4):
                    if shard not in owned:
                        store.release_shard(shard)
            cfg = ServerConfig(n_shards=4, seed=derive(3))
            executors.append(ShardExecutor(cfg, store, ServeStats()))
        return keys, executors

    @pytest.mark.parametrize("engine", ["python", "auto"])
    @pytest.mark.parametrize("length", [1, 3, 16, 40])
    def test_run_counts_like_a_per_key_loop(self, engine, length):
        keys, (run_side, loop_side) = self.twins(engine=engine)
        missing = distinct_keys(40, seed=derive(32))
        queries = [q for pair in zip(keys, missing) for q in pair][:length]
        replies = run_side.get_run(queries)
        assert replies == [loop_side.get(key) for key in queries]
        assert run_side.stats == loop_side.stats
        assert run_side.stats.get_hits == sum(r.found for r in replies)
        assert run_side.stats.gets == length

    def test_uint64_run_counts_like_a_per_key_loop(self):
        np = numpy_or_none()
        if np is None:
            pytest.skip("needs NumPy")
        keys, (run_side, loop_side) = self.twins()
        queries = keys[:20] + distinct_keys(12, seed=derive(33))
        replies = run_side.get_run(np.array(queries, dtype=np.uint64))
        assert replies == [loop_side.get(key) for key in queries]
        assert run_side.stats == loop_side.stats

    @pytest.mark.parametrize("length", [4, 24])
    def test_failing_run_falls_back_key_by_key(self, length):
        """A key of a shard outside the slice fails the whole run; each
        key is then served alone and only the foreign one is INTERNAL."""
        keys, (run_side, loop_side) = self.twins(owned=(0, 1))
        store = run_side.store
        mine = [key for key in keys if store.shard_index(key) in (0, 1)]
        foreign = next(key for key in keys if store.shard_index(key) == 2)
        queries = mine[: length - 1] + [foreign]
        replies = run_side.get_run(queries)
        assert replies == [loop_side.get(key) for key in queries]
        assert run_side.stats == loop_side.stats
        assert run_side.stats.internal_errors == 1
        assert replies[-1].code is ErrorCode.INTERNAL
        assert run_side.stats.gets == length - 1


def config(**overrides) -> ServerConfig:
    defaults = dict(n_shards=4, expected_items=4096, seed=derive(0))
    defaults.update(overrides)
    return ServerConfig(**defaults)


class TestBatchedBatchPath:
    def test_batch_of_gets_served_in_bulk(self):
        async def scenario():
            async with McCuckooServer(config()) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    keys = distinct_keys(64, seed=derive(11))
                    await client.batch(
                        [("put", key, bytes([i % 256]))
                         for i, key in enumerate(keys)]
                    )
                    missing = distinct_keys(16, seed=derive(12))
                    replies = await client.batch(
                        [("get", key) for key in keys + missing]
                    )
                    for i, reply in enumerate(replies[:64]):
                        assert reply.found and reply.value == bytes([i % 256])
                    assert all(not reply.found for reply in replies[64:])
                    assert server.stats.get_hits == 64
                    assert server.stats.get_misses == 16

        run(scenario())

    def test_consecutive_read_and_write_runs_stay_ordered(self):
        async def scenario():
            async with McCuckooServer(config()) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    replies = await client.batch(
                        [("put", 1, b"a"), ("put", 2, b"b"),
                         ("get", 1), ("get", 2),
                         ("put", 1, b"a2"), ("delete", 2),
                         ("get", 1), ("get", 2)]
                    )
                    assert replies[0].created and replies[1].created
                    assert replies[2].value == b"a"
                    assert replies[3].value == b"b"
                    assert replies[4].created is False  # update
                    assert replies[5].deleted is True
                    assert replies[6].value == b"a2"
                    assert replies[7].found is False

        run(scenario())

    def test_grouped_write_run_splits_at_capacity(self):
        """A single-shard batch of 5 writes against depth=2 accepts exactly
        the first two as one grouped item and BUSYs the other three."""

        async def scenario():
            cfg = config(n_shards=1, writer_queue_depth=2, write_stall=0.05,
                         request_timeout=30.0)
            async with McCuckooServer(cfg) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    keys = distinct_keys(5, seed=derive(13))
                    replies = await client.batch(
                        [("put", key, b"v") for key in keys]
                    )
                    busy = [r for r in replies if isinstance(r, ErrorReply)]
                    ok = [r for r in replies if not isinstance(r, ErrorReply)]
                    assert replies[0] in ok and replies[1] in ok
                    assert len(ok) == 2
                    assert len(busy) == 3
                    assert all(r.code is ErrorCode.BUSY for r in busy)
                    assert server.stats.busy_rejections == 3

        run(scenario())

    def test_batch_writes_fan_out_across_shards(self):
        """Writes in one batch reach every shard's writer and all apply."""

        async def scenario():
            async with McCuckooServer(config(n_shards=4)) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    keys = distinct_keys(128, seed=derive(14))
                    replies = await client.batch(
                        [("put", key, b"x") for key in keys]
                    )
                    assert all(reply.created for reply in replies)
                    shards = {server.store.shard_index(key) for key in keys}
                    assert shards == set(range(4))
                    gets = await client.batch([("get", key) for key in keys])
                    assert all(reply.value == b"x" for reply in gets)

        run(scenario())

    def test_a_segment_is_one_get_walk_and_one_write_walk_per_shard(self):
        """STATS shows the batch shape: a mixed batch is one GET walk and
        one write walk per shard touched; a STATS op in the middle cuts
        it into two segments, so two GET walks."""
        keys = distinct_keys(16, seed=derive(16))
        mixed = [op for i, key in enumerate(keys)
                 for op in (("get", key), ("put", key, bytes([i])))]

        async def walks(client, batch):
            before = await client.stats()
            await client.batch(batch)
            after = await client.stats()
            return (after["get_walks"] - before["get_walks"],
                    after["write_walks"] - before["write_walks"])

        async def scenario():
            async with McCuckooServer(config()) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    shards = len({server.store.shard_index(key) for key in keys})
                    assert len(mixed) == 32
                    assert await walks(client, mixed) == (1, shards)
                    cut = mixed[:16] + [("stats",)] + mixed[16:]
                    gets, writes = await walks(client, cut)
                    assert gets == 2
                    assert shards <= writes <= 2 * shards

        run(scenario())

    def test_queued_ops_gauge_settles_to_zero(self):
        async def scenario():
            async with McCuckooServer(config()) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    keys = distinct_keys(32, seed=derive(15))
                    await client.batch([("put", key, b"v") for key in keys])
                    stats = await client.stats()
                    assert stats["writer_queue_depth"] == 0

        run(scenario())


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
