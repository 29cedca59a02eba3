"""Live resharding: phase matrix under injected crashes, parity with the
single-process server, replica failover, and the migrating faultgen
audit.

The crash matrix leans on the deterministic per-worker consult order of
``kill_worker_during=migration``: the source worker consults the rule at
snapshot=1, delta=2, fence=3, final delta=4, release=5; the target at
install=1, apply=2, final apply=3, activate=4.  So ``migration:N@W``
kills worker ``W`` at exactly one phase boundary, and the matrix proves
the one invariant that matters at every boundary: **no acknowledged
write is ever lost** — a pre-commit crash aborts with the source image
intact, a post-commit crash recovers the target from the shared durable
log file.
"""

import asyncio
import copy
import os
import signal

import pytest

from repro.core.errors import ConfigurationError
from repro.core.snapshot import snapshot_resizable
from repro.faults import FaultPlan
from repro.serve import (
    McCuckooClient,
    McCuckooServer,
    ServerBusyError,
    ServerConfig,
    WorkerServer,
)
from repro.serve.faultgen import FaultgenConfig, run_faultgen
from repro.serve.stats import ServeStats
from repro.serve.workers import WorkerPool, _ShardWorker
from tests.seeding import derive

pytestmark = pytest.mark.timeout(120)


def run(coro):
    return asyncio.run(coro)


def config(**overrides) -> ServerConfig:
    defaults = dict(n_shards=4, expected_items=4096, seed=derive(0x8E5A),
                    durable=True)
    defaults.update(overrides)
    return ServerConfig(**defaults)


async def fill(client, n_keys, tag=b"v"):
    """Acked writes only — the matrix audits exactly these."""
    expected = {}
    for key in range(1, n_keys + 1):
        value = tag + b"%d" % key
        if await client.put(key, value):
            expected[key] = value
    return expected


async def audit(client, expected):
    lost = [key for key, value in expected.items()
            if await client.get(key) != value]
    assert lost == [], f"lost acknowledged writes for keys {lost}"


class TestBasicMigration:
    def test_migration_moves_shard_and_keeps_data(self):
        async def scenario():
            async with WorkerServer(config(), n_workers=2) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    expected = await fill(client, 120)
                    assert server.routing.worker_of_shard(0) == 0
                    report = await server.reshard(0, 1)
                    assert report.committed, report.error
                    assert report.epoch_before == 0
                    assert report.epoch_after == 1
                    assert report.bytes_copied > 0
                    assert server.routing.worker_of_shard(0) == 1
                    assert 0 in server.routing.shards_of_worker(1)
                    await audit(client, expected)
                    # writes keep landing after the flip, on the new owner
                    routed_before = server.pool.handle_for_worker(1).ops_routed
                    for key in (k for k in expected
                                if server._router.shard_of(k) == 0):
                        await client.put(key, b"post-flip")
                        assert await client.get(key) == b"post-flip"
                        break
                    assert (server.pool.handle_for_worker(1).ops_routed
                            > routed_before)
                    stats = await client.stats()
                    assert stats["routing_epoch"] == 1
                    assert stats["migrations_committed"] == 1
                    assert stats["migrations_aborted"] == 0
                    assert stats["migrations_active"] == 0
                    assert stats["fenced_shards"] == 0
        run(scenario())

    def test_migration_round_trip_back_to_source(self):
        async def scenario():
            async with WorkerServer(config(), n_workers=2) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    expected = await fill(client, 80)
                    assert (await server.reshard(2, 1)).committed
                    assert (await server.reshard(2, 0)).committed
                    assert server.routing_epoch == 2
                    assert server.routing.worker_of_shard(2) == 0
                    await audit(client, expected)
        run(scenario())

    def test_noop_and_invalid_targets(self):
        async def scenario():
            async with WorkerServer(config(), n_workers=2) as server:
                report = await server.reshard(0, 0)  # already the owner
                assert not report.committed
                assert server.routing_epoch == 0
                with pytest.raises(ConfigurationError):
                    await server.reshard(99, 0)
                with pytest.raises(ConfigurationError):
                    await server.reshard(0, 99)
        run(scenario())

    def test_snapshot_too_large_for_the_ring_aborts_cleanly(self):
        # shard 0's snapshot outgrows half an 8 KiB response ring: the
        # source must answer the phase with an error, not die, so the
        # migration aborts with no restart and no data lost
        async def scenario():
            async with WorkerServer(config(shm_ring_bytes=8192),
                                    n_workers=2) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    expected = {}
                    for key in range(1, 301):
                        value = b"%064d" % key
                        assert await client.put(key, value) is True
                        expected[key] = value
                    report = await server.reshard(0, 1)
                    assert not report.committed
                    assert "cannot fit" in report.error, report.error
                    assert server.routing.worker_of_shard(0) == 0
                    await audit(client, expected)
                    stats = await client.stats()
                    assert stats["worker_restarts"] == 0
                    assert stats["migrations_aborted"] == 1
        run(scenario())

    def test_migrated_shard_survives_target_restart(self):
        """Post-commit the target owns the shard durably: kill it after
        the migration and the supervisor's restart must re-own and
        recover the migrated shard from the shared log file."""
        async def scenario():
            async with WorkerServer(config(), n_workers=2) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    expected = await fill(client, 100)
                    assert (await server.reshard(0, 1)).committed
                    victim = server.pool.handle_for_worker(1)
                    os.kill(victim._process.pid, signal.SIGKILL)
                    await asyncio.sleep(0.05)
                    await server.pool.await_restarts()
                    restarted = server.pool.handle_for_worker(1)
                    assert 0 in restarted.hello["shards"]
                    await audit(client, expected)
        run(scenario())


class TestMigratedIndex:
    """The target of a migration must hold the source's index, not just
    its key map: the two continue identically."""

    def test_migration_after_compaction_keeps_the_source_index(self):
        # 120 keys in a 128-key shard: loaded enough that kicks differ
        pool = WorkerPool(config(kick_policy="bubbling", expected_items=512),
                          2, ServeStats(), log_dir=None)
        source = _ShardWorker(pool._spec(0), channel=None)
        target = _ShardWorker(pool._spec(1), channel=None)
        keys = [key for key in range(1, 5000)
                if source.store.shard_index(key) == 0][:120]
        shard = source.store.shard(0)
        for op in range(300):
            shard.put(keys[(op * 7) % len(keys)], b"v%d" % op)
        assert shard.compact() > 0

        target._migrate_install(0, source._migrate_snapshot(0, b""))
        migrated = target.store.shard(0)
        assert migrated.recovery_report.checkpoint_loaded
        assert migrated.log_bytes == shard.log_bytes
        assert snapshot_resizable(migrated.index) == \
            snapshot_resizable(shard.index)
        # the source's checkpoint slot was left alone
        assert shard.checkpoint_bytes is None

        ours, theirs = copy.deepcopy(shard.index), copy.deepcopy(migrated.index)
        for i in range(60):
            a, b = ours.put(10_000_000 + i, i), theirs.put(10_000_000 + i, i)
            assert (a.status, a.kicks, a.stashed) == \
                (b.status, b.kicks, b.stashed)


# (victim_worker, consult_count, commits) — the full phase matrix; see
# the module docstring for the consult-order contract behind it.
PHASE_MATRIX = [
    pytest.param(0, 1, False, id="source-snapshot"),
    pytest.param(0, 2, False, id="source-delta"),
    pytest.param(0, 3, False, id="source-fence"),
    pytest.param(0, 4, False, id="source-final-delta"),
    pytest.param(0, 5, True, id="source-release"),
    pytest.param(1, 1, False, id="target-install"),
    pytest.param(1, 2, False, id="target-apply"),
    pytest.param(1, 3, False, id="target-final-apply"),
    pytest.param(1, 4, True, id="target-activate"),
]


class TestCrashMatrix:
    """Kill a worker at every migration phase boundary; acked writes
    must survive and the server must keep serving either way."""

    @pytest.mark.parametrize("victim,consult,commits", PHASE_MATRIX)
    def test_crash_at_phase_boundary(self, victim, consult, commits):
        plan = FaultPlan.parse(
            f"kill_worker_during=migration:{consult}@{victim}",
            seed=derive(0x8E5B),
        )
        async def scenario():
            async with WorkerServer(config(fault_plan=plan),
                                    n_workers=2) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    expected = await fill(client, 60)
                    report = await server.reshard(0, 1)
                    assert report.committed == commits, (
                        f"consult {consult}@{victim}: {report.phases} "
                        f"{report.error}"
                    )
                    expected_epoch = 1 if commits else 0
                    assert server.routing_epoch == expected_epoch
                    assert server.routing.worker_of_shard(0) == (
                        1 if commits else 0
                    )
                    assert len(server._fences) == 0  # fence always lifted
                    await server.pool.await_restarts()
                    await audit(client, expected)
                    # the server still takes writes on the shard it moved
                    # (or kept), wherever routing says it lives now
                    await client.put(1, b"after-crash")
                    assert await client.get(1) == b"after-crash"
        run(scenario())


class TestTransportParity:
    def test_same_migration_same_image_on_both_transports(self):
        """Two migrations over the worker rings leave the same image as
        the single-process server, where ops reach the store in-process.

        The migration machinery rides the ordinary ring slots, so the
        surviving key→value map — the observable store image — must be
        identical to the one a server that never migrated holds.
        """

        async def read_image(client):
            # 170 keys: the 150 written plus 20 absent ones
            return {key: await client.get(key) for key in range(1, 171)}

        async def migrated():
            async with WorkerServer(config(), n_workers=2) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    expected = await fill(client, 150)
                    assert (await server.reshard(0, 1)).committed
                    assert (await server.reshard(3, 0)).committed
                    await audit(client, expected)
                    assert server.routing_epoch == 2
                    return await read_image(client)

        async def in_process():
            async with McCuckooServer(config()) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    await fill(client, 150)
                    return await read_image(client)

        image = run(migrated())
        assert image == run(in_process())
        assert any(value is not None for value in image.values())
        assert run(migrated()) == image  # deterministic under repetition


class TestReplicaReads:
    def test_owner_death_degrades_to_replica_reads(self):
        async def scenario():
            async with WorkerServer(config(replicas=1),
                                    n_workers=2) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    expected = await fill(client, 80)
                    await server.drain_writes()  # replica applies drained
                    # suppress the supervisor so the degradation window
                    # is deterministic, then kill the owner of shards 0+2
                    server.pool._stopping = True
                    victim = server.pool.handle_for_worker(0)
                    os.kill(victim._process.pid, signal.SIGKILL)
                    while victim.alive:
                        await asyncio.sleep(0.01)
                    owner_keys = [
                        key for key in expected
                        if server._worker_of_key(key) == 0
                    ]
                    assert owner_keys, "seed must route keys to worker 0"
                    for key in owner_keys:  # reads fail over
                        assert await client.get(key) == expected[key]
                    stats = await client.stats()
                    assert stats["replica_reads"] >= len(owner_keys)
                    assert stats["replica_enabled"] == 1
                    # writes do NOT fail over: read-only degradation
                    with pytest.raises(ServerBusyError):
                        await client.put(owner_keys[0], b"rejected")
                    assert await client.get(owner_keys[0]) == (
                        expected[owner_keys[0]]
                    )
                    server.pool._stopping = False
        run(scenario())

    def test_replica_applies_track_acked_writes(self):
        async def scenario():
            async with WorkerServer(config(replicas=1),
                                    n_workers=2) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    await fill(client, 64)
                    await server.drain_writes()
                    stats = await client.stats()
                    assert stats["replica_applies"] == 64
                    assert stats["replica_lag"] == 0
                    assert stats["replica_errors"] == 0
        run(scenario())

    def test_single_worker_disables_replicas(self):
        async def scenario():
            async with WorkerServer(config(replicas=1),
                                    n_workers=1) as server:
                assert server.replicas == 0
                assert server.replica_of_shard(0) is None
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    assert await client.put(1, b"x")
                    stats = await client.stats()
                    assert stats["replica_enabled"] == 0
                    assert stats["replica_applies"] == 0
        run(scenario())


class TestMigratingFaultgen:
    """The extended audit: acked writes must survive live migrations —
    including migrations whose workers are killed mid-phase — with the
    key→worker map re-derived per routing epoch."""

    def test_zero_lost_acked_writes_with_kills_mid_migration(self):
        report = run(run_faultgen(FaultgenConfig(
            n_ops=700, n_keys=96, concurrency=4, seed=derive(0x8E5C),
            n_workers=2, migrate=True,
            faults=("busy=0.01; drop_connection=0.005; "
                    "kill_worker_during=migration:2@0"),
            run_timeout=60.0,
        )))
        assert report.ok, report.failures[:5]
        assert report.lost_acked_writes == 0
        assert report.phantom_values == 0
        assert report.faults_fired.get("kill_worker_during", 0) >= 1
        assert report.migrations_committed + report.migrations_aborted >= 1

    def test_clean_migrations_commit_and_audit_holds(self):
        report = run(run_faultgen(FaultgenConfig(
            n_ops=700, n_keys=96, concurrency=4, seed=derive(0x8E5D),
            n_workers=2, migrate=True, faults="busy=0.005",
            run_timeout=60.0,
        )))
        assert report.ok, report.failures[:5]
        assert report.migrations_committed >= 1
        assert report.routing_epoch >= 1
        assert report.lost_acked_writes == 0
