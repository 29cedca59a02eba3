"""Multi-process serving: routing edges, supervision, durable recovery.

The worker-process integration tests fork real processes over real
loopback TCP, so they are kept small: a handful of ops per scenario is
enough to exercise routing, batch scatter/gather, kill/restart, and the
faultgen audit in worker mode.
"""

import asyncio

import pytest

from repro.core.errors import ConfigurationError
from repro.core.sharded import ShardRouter, shards_of_worker, worker_of_shard
from repro.faults import FaultPlan
from repro.maintenance import MaintenanceConfig
from repro.serve import (
    McCuckooClient,
    RetryPolicy,
    ServerConfig,
    WorkerServer,
)
from repro.serve.faultgen import FaultgenConfig, run_faultgen
from repro.serve.stats import ServeStats
from repro.serve.workers import WorkerPool, _ShardWorker
from tests.seeding import derive


def run(coro):
    return asyncio.run(coro)


def config(**overrides) -> ServerConfig:
    defaults = dict(n_shards=4, expected_items=4096, seed=derive(100))
    defaults.update(overrides)
    return ServerConfig(**defaults)


class TestWorkerRouting:
    """Pure routing properties — no processes involved."""

    def test_single_shard_routes_everything_to_worker_zero(self):
        router = ShardRouter(1, seed=derive(101))
        assert all(router.worker_of(key, 3) == 0 for key in range(200))

    def test_worker_of_composes_shard_of(self):
        router = ShardRouter(8, seed=derive(102))
        for key in range(500):
            assert router.worker_of(key, 3) == worker_of_shard(
                router.shard_of(key), 3
            )

    def test_routing_stable_across_router_instances(self):
        # a restarted supervisor rebuilds the router from (n_shards, seed)
        # and must send every key to the same worker as before
        seed = derive(103)
        before = ShardRouter(6, seed=seed)
        after = ShardRouter(6, seed=seed)
        assert [before.worker_of(key, 4) for key in range(300)] == [
            after.worker_of(key, 4) for key in range(300)
        ]

    def test_non_divisible_groups_cover_disjointly(self):
        n_shards, n_workers = 5, 2
        groups = [shards_of_worker(worker, n_shards, n_workers)
                  for worker in range(n_workers)]
        flat = [shard for group in groups for shard in group]
        assert sorted(flat) == list(range(n_shards))
        assert groups == [(0, 2, 4), (1, 3)]


class TestWorkerSpec:
    """What a worker builds from its spec — no processes involved."""

    def test_worker_store_runs_the_configured_engine(self):
        maintenance = MaintenanceConfig.aggressive()
        pool = WorkerPool(config(engine="python", maintenance=maintenance), 2,
                          ServeStats(), log_dir=None)
        worker = _ShardWorker(pool._spec(1), channel=None)
        assert worker.store.engine.resolve() == "python"
        for shard in worker.store.shards:
            assert shard.index.config.engine.resolve() == "python"
        assert worker.daemon is not None
        assert worker.daemon.config == maintenance

    def test_disabled_maintenance_builds_no_daemon(self):
        pool = WorkerPool(config(maintenance=MaintenanceConfig(
            compact_at=-1.0, checkpoint_every=0)), 1, ServeStats(), log_dir=None)
        assert _ShardWorker(pool._spec(0), channel=None).daemon is None


class TestWorkerServerOps:
    def test_roundtrip_through_two_workers(self):
        async def scenario():
            async with WorkerServer(config(), n_workers=2) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    for key in range(40):
                        assert await client.put(key, b"v%d" % key) is True
                    for key in range(40):
                        assert await client.get(key) == b"v%d" % key
                    assert await client.delete(7) is True
                    assert await client.get(7) is None

        run(scenario())

    def test_workers_clamped_to_shard_count(self):
        async def scenario():
            async with WorkerServer(config(n_shards=1),
                                    n_workers=4) as server:
                assert server.n_workers == 1
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    await client.put("k", b"v")
                    assert await client.get("k") == b"v"
                    stats = await client.stats()
                    assert stats["workers"] == 1

        run(scenario())

    def test_rejects_nonpositive_worker_count(self):
        with pytest.raises(ConfigurationError):
            WorkerServer(config(), n_workers=0)

    def test_non_divisible_shards_over_workers(self):
        async def scenario():
            async with WorkerServer(config(n_shards=5),
                                    n_workers=2) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    for key in range(60):
                        await client.put(key, bytes([key]))
                    misses = [key for key in range(60)
                              if await client.get(key) != bytes([key])]
                    assert misses == []
                    stats = await client.stats()
                    assert stats["workers"] == 2
                    assert stats["workers_up"] == 2
                    # every op landed on some worker
                    routed = (stats["worker0_ops_routed"]
                              + stats["worker1_ops_routed"])
                    assert routed >= 120  # 60 puts + 60 gets

        run(scenario())

    def test_batch_scatters_and_reassembles_in_order(self):
        async def scenario():
            async with WorkerServer(config(), n_workers=2) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    ops = []
                    for key in range(16):
                        ops.append(("put", key, b"b%d" % key))
                    for key in range(16):
                        ops.append(("get", key))
                    ops.append(("stats",))
                    replies = await client.batch(ops)
                    assert all(reply.created for reply in replies[:16])
                    for key, reply in enumerate(replies[16:32]):
                        assert reply.found and reply.value == b"b%d" % key
                    assert replies[32].stats["puts"] == 16

        run(scenario())

    def test_merged_stats_sum_worker_counters(self):
        async def scenario():
            async with WorkerServer(config(), n_workers=2) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    for key in range(30):
                        await client.put(key, b"x")
                    for key in range(10):
                        await client.get(key)
                    stats = await client.stats()
                    assert stats["puts"] == 30
                    assert stats["gets"] == 10
                    assert stats["get_hits"] == 10
                    assert stats["store_items"] == 30
                    assert stats["worker_restarts"] == 0

        run(scenario())


class TestSupervision:
    def test_kill_worker_restart_loses_no_acked_write(self):
        plan = FaultPlan.parse("kill_worker=20", seed=derive(104))
        retry = RetryPolicy(max_attempts=8, deadline=10.0, seed=derive(105))

        async def scenario():
            server = WorkerServer(config(durable=True, fault_plan=plan),
                                  n_workers=2)
            async with server:
                host, port = server.address
                async with McCuckooClient(host, port, retry=retry) as client:
                    acked = []
                    for key in range(120):
                        await client.put(key, b"d%d" % key)
                        acked.append(key)  # put returned ⇒ acked
                    await server.disarm_faults()
                    await server.drain_writes()
                    lost = [key for key in acked
                            if await client.get(key) != b"d%d" % key]
                    assert lost == []
                    stats = await client.stats()
                    assert stats["worker_restarts"] >= 1
                    assert stats["workers_up"] == 2

        run(scenario())

    def test_faultgen_audit_passes_with_worker_kills(self):
        report = run(run_faultgen(FaultgenConfig(
            n_ops=400,
            n_keys=64,
            concurrency=4,
            seed=derive(106),
            n_workers=2,
            faults="kill_worker=30; busy=0.02",
            run_timeout=45.0,
        )))
        assert report.ok, report.render()
        assert report.n_workers == 2
        assert report.lost_acked_writes == 0
        assert report.phantom_values == 0
        assert report.worker_restarts >= 1

    def test_faultgen_audit_passes_with_kills_inside_maintenance(self):
        """``kill_worker_during`` hard-kills a worker mid-compaction and
        mid-checkpoint-write; restart + durable-log replay must still
        account for every acknowledged write.  The rule re-arms in each
        restarted process, so the kills keep landing for the whole run."""
        report = run(run_faultgen(FaultgenConfig(
            n_ops=400,
            n_keys=48,
            concurrency=4,
            seed=derive(107),
            n_workers=2,
            faults="busy=0.02",
            maintenance=True,
            run_timeout=45.0,
        )))
        assert report.ok, report.render()
        assert "kill_worker_during=compaction:1" in report.fault_plan
        assert "kill_worker_during=checkpoint:1" in report.fault_plan
        assert report.lost_acked_writes == 0
        assert report.phantom_values == 0
        assert report.worker_restarts >= 1
