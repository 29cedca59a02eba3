"""Shared-memory transport: ring mechanics, epochs, and path parity.

The unit half exercises :class:`~repro.serve.shm.ShmRing` directly —
wrap-around at every offset, backpressure, torn-write detection, and the
generation (epoch) machinery the worker supervisor leans on.  The
integration half forks real worker processes and checks that an op
carried over the shm rings to a worker is observably equivalent to the
same op served in-process by the single-process server, that ring-full
pressure surfaces as BUSY, that a killed worker never replays a
pre-crash request, and that shutdown closes every worker link.
"""

import asyncio
import os

import pytest

from repro.core.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.serve import (
    McCuckooClient,
    McCuckooServer,
    RetryPolicy,
    ServerBusyError,
    ServerConfig,
    WorkerServer,
)
from repro.serve.faultgen import FaultgenConfig, run_faultgen
from repro.serve.protocol import ErrorCode, ErrorReply, ProtocolError
from repro.serve.shm import (
    SLOT_OVERHEAD,
    RingFrameTooLarge,
    ShmRing,
    ShmTransport,
    shm_available,
)
from repro.serve.shm import _HEADER_BYTES  # noqa: F401  (test-only poke)
from tests.seeding import derive

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable"
)


def run(coro):
    return asyncio.run(coro)


def config(**overrides) -> ServerConfig:
    defaults = dict(n_shards=4, expected_items=4096, seed=derive(900))
    defaults.update(overrides)
    return ServerConfig(**defaults)


@pytest.fixture
def ring():
    ring = ShmRing.create(4096)
    yield ring
    ring.close()
    ring.unlink()


def pop_bytes(ring):
    record = ring.pop()
    if record is None:
        return None
    epoch, view = record
    body = bytes(view)
    ring.advance()
    return epoch, body


class TestRingMechanics:
    def test_roundtrip_preserves_bytes(self, ring):
        assert ring.try_push(b"hello", epoch=1)
        assert pop_bytes(ring) == (1, b"hello")
        assert ring.pop() is None

    def test_fifo_order(self, ring):
        bodies = [bytes([i]) * (i + 1) for i in range(32)]
        for body in bodies:
            assert ring.try_push(body, epoch=3)
        assert [pop_bytes(ring)[1] for _ in bodies] == bodies

    def test_wraparound_at_every_offset(self, ring):
        # varied odd sizes keep the cursors cycling through every
        # alignment of the 4096-byte data area, including slots that
        # land exactly on the boundary and remnants under 4 bytes
        sizes = [1, 7, 33, 100, 255, 512, 1023]
        pushed = popped = 0
        for step in range(2000):
            body = bytes([step % 251]) * sizes[step % len(sizes)]
            assert ring.try_push(body, epoch=1), f"full at step {step}"
            pushed += len(body)
            got = pop_bytes(ring)
            assert got == (1, body), f"mismatch at step {step}"
            popped += len(body)
        assert ring.used() == 0
        assert ring.head == ring.tail
        assert ring.head > ring.capacity  # the cursors really did wrap

    def test_exact_boundary_fit(self, ring):
        # a record whose slot ends exactly at the top of the data area,
        # followed by one that must start back at offset zero
        first = ring.capacity - SLOT_OVERHEAD - (SLOT_OVERHEAD + 100)
        filler = b"\x11" * 100
        assert ring.try_push(filler, epoch=1)
        assert pop_bytes(ring) == (1, filler)
        body = b"\x22" * (ring.capacity // 2 - SLOT_OVERHEAD)
        assert ring.try_push(body, epoch=1)  # wraps via a skip marker
        assert pop_bytes(ring) == (1, body)
        assert first > 0  # sanity: the geometry above is non-degenerate

    def test_full_ring_rejects_then_recovers(self, ring):
        body = b"\x5a" * 1024
        accepted = 0
        while ring.try_push(body, epoch=1):
            accepted += 1
        assert accepted >= 2  # 4096-byte ring holds a few 1KiB records
        assert ring.try_push(body, epoch=1) is False  # transient, no raise
        assert pop_bytes(ring) == (1, body)
        assert ring.try_push(body, epoch=1)  # space reclaimed by advance

    def test_oversized_record_is_permanent_error(self, ring):
        with pytest.raises(RingFrameTooLarge):
            ring.try_push(b"\x00" * (ring.capacity // 2 + 1), epoch=1)
        # the ring stays usable afterwards
        assert ring.try_push(b"ok", epoch=1)
        assert pop_bytes(ring) == (1, b"ok")

    def test_torn_producer_write_fails_crc(self, ring):
        assert ring.try_push(b"A" * 64, epoch=1)
        # corrupt one body byte behind the producer's back
        ring._buf[_HEADER_BYTES + SLOT_OVERHEAD + 10] ^= 0xFF
        with pytest.raises(ProtocolError, match="CRC"):
            ring.pop()


class TestRingEpochs:
    def test_pop_reports_the_producer_epoch(self, ring):
        ring.try_push(b"old", epoch=1)
        ring.try_push(b"new", epoch=2)
        assert pop_bytes(ring) == (1, b"old")
        assert pop_bytes(ring) == (2, b"new")

    def test_begin_generation_drains_stale_slots(self):
        pair = ShmTransport.create(4096)
        try:
            pair.set_epoch(1)
            for i in range(3):
                assert pair.request.try_push(b"req%d" % i, epoch=1)
            assert pair.response.try_push(b"resp", epoch=1)
            dropped = pair.begin_generation(2)
            assert dropped == 4
            assert pair.stale_discarded() >= 4
            assert pair.request.pop() is None
            assert pair.response.pop() is None
            # the new generation flows normally
            assert pair.request.try_push(b"fresh", epoch=2)
            epoch, view = pair.request.pop()
            body = bytes(view)
            view.release()  # the slot view must not outlive the segment
            pair.request.advance()
            assert (epoch, body) == (2, b"fresh")
        finally:
            pair.destroy()

    def test_begin_generation_survives_a_torn_stale_slot(self):
        pair = ShmTransport.create(4096)
        try:
            pair.set_epoch(1)
            assert pair.request.try_push(b"B" * 32, epoch=1)
            pair.request._buf[_HEADER_BYTES + SLOT_OVERHEAD] ^= 0xFF
            pair.begin_generation(2)  # must not raise
            assert pair.request.pop() is None  # cursor reset to the tail
        finally:
            pair.destroy()


class TestTransportSelection:
    def test_explicit_shm_errors_when_unavailable(self, monkeypatch):
        # the rings are the worker server's only transport: without
        # shared memory it must refuse at construction, not mid-serve
        import repro.serve.shm as shm_mod

        monkeypatch.setattr(shm_mod, "_SHM_PROBE", False)
        with pytest.raises(ConfigurationError, match="shared_memory"):
            WorkerServer(config(), n_workers=2)


def _seeded_ops(seed: int, n_ops: int, n_keys: int):
    """A deterministic mixed op stream, chunked so that some chunks are
    pure GET runs (the KIND_BATCH_KEYS fast path) and some are mixed."""
    import random

    rng = random.Random(seed)
    chunks = []
    for chunk_id in range(n_ops // 16):
        if chunk_id % 3 == 0:  # pure-GET chunk → key-run fast path
            chunks.append([("get", rng.randrange(n_keys)) for _ in range(16)])
        else:
            chunk = []
            for _ in range(16):
                key = rng.randrange(n_keys)
                roll = rng.random()
                if roll < 0.5:
                    chunk.append(("put", key,
                                  b"v%d-%d" % (key, rng.randrange(1000))))
                elif roll < 0.7:
                    chunk.append(("delete", key))
                else:
                    chunk.append(("get", key))
            chunks.append(chunk)
    return chunks


def _normalize(reply):
    return (type(reply).__name__, getattr(reply, "found", None),
            getattr(reply, "value", None), getattr(reply, "created", None),
            getattr(reply, "deleted", None), getattr(reply, "code", None))


def _server(n_workers: int, **overrides):
    """The reference path (``n_workers == 0``: the single-process server,
    ops served in-process) or the worker path (ops carried over the shm
    rings to ``n_workers`` worker processes)."""
    if n_workers == 0:
        return McCuckooServer(config(**overrides))
    return WorkerServer(config(**overrides), n_workers=n_workers)


class TestTransportEquivalence:
    """The two ways an op reaches a shard's store — an in-process call in
    :class:`McCuckooServer`, and a ring hop to a
    :class:`WorkerServer` worker — must be observably equivalent."""

    def test_same_op_stream_same_replies_on_both_transports(self):
        seed = derive(901)
        chunks = _seeded_ops(seed, n_ops=640, n_keys=96)

        async def drive(n_workers):
            server = _server(n_workers, seed=seed)
            observed = []
            async with server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    for chunk in chunks:
                        for reply in await client.batch(chunk):
                            observed.append(_normalize(reply))
                    stats = await client.stats()
            counters = {name: stats.get(name) for name in
                        ("gets", "puts", "deletes", "get_hits",
                         "store_items")}
            return observed, counters

        ring_replies, ring_counters = run(drive(2))
        local_replies, local_counters = run(drive(0))
        assert ring_replies == local_replies
        assert ring_counters == local_counters
        assert ring_counters["gets"] > 0 and ring_counters["store_items"] > 0

    def test_scalar_ops_equivalent_across_transports(self):
        seed = derive(902)

        async def drive(n_workers):
            server = _server(n_workers, seed=seed)
            out = []
            async with server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    for key in range(60):
                        out.append(await client.put(key, b"x%d" % key))
                    for key in range(80):
                        out.append(await client.get(key))
                    for key in range(0, 60, 7):
                        out.append(await client.delete(key))
            return out

        assert run(drive(2)) == run(drive(0))

    def test_same_puts_same_store_gauges_on_both_transports(self):
        # the frontend merges the workers' per-shard gauge rows with the
        # same function the single-process store uses, so every store
        # and index gauge but the checkpoint age must agree
        seed = derive(905)

        async def drive(n_workers):
            async with _server(n_workers, seed=seed) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    for start in range(0, 700, 35):
                        await client.batch([
                            ("put", key, b"g%d" % key)
                            for key in range(start, start + 35)
                        ])
                    stats = await client.stats()
            return {name: value for name, value in stats.items()
                    if name.startswith(("store_", "index_"))
                    and name != "store_last_checkpoint_age_s"}

        ring, local = run(drive(2)), run(drive(0))
        assert ring == local
        assert local["store_items"] == 700 and local["index_imbalance"] > 1.0

    def test_injected_crash_accounted_alike_on_both_transports(self):
        seed = derive(906)
        chunks = _seeded_ops(seed, n_ops=320, n_keys=64)

        async def drive(n_workers):
            plan = FaultPlan.parse("crash_after_appends=37", seed=seed)
            server = _server(n_workers, seed=seed, n_shards=1,
                             fault_plan=plan)
            observed = []
            async with server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    for chunk in chunks:
                        for reply in await client.batch(chunk):
                            observed.append(_normalize(reply))
                    stats = await client.stats()
            return observed, {name: stats.get(name) for name in
                              ("injected_crashes", "shard_recoveries",
                               "internal_errors")}

        ring_replies, ring_counters = run(drive(1))
        local_replies, local_counters = run(drive(0))
        assert ring_replies == local_replies
        assert ring_counters == local_counters
        assert local_counters["injected_crashes"] == 1
        assert local_counters["internal_errors"] == 1


class TestRingBackpressure:
    def test_ring_full_surfaces_as_busy(self):
        # a minimum-size ring, a frontend queue too deep to trip first,
        # and a stalled worker: pushes outrun pops, so some scalar puts
        # must come back BUSY while the rest land normally
        async def scenario():
            server = WorkerServer(
                config(
                    shm_ring_bytes=4096,
                    writer_queue_depth=100_000,
                    write_stall=0.005,
                ),
                n_workers=1,
            )
            async with server:
                host, port = server.address
                async with McCuckooClient(host, port, pool_size=32) as client:
                    value = b"\x5a" * 512
                    results = await asyncio.gather(
                        *(client.put(key, value) for key in range(64)),
                        return_exceptions=True,
                    )
            ok = sum(1 for r in results if r is True)
            busy = sum(1 for r in results if isinstance(r, ServerBusyError))
            unexpected = [r for r in results
                          if r is not True
                          and not isinstance(r, ServerBusyError)]
            assert not unexpected
            return ok, busy

        ok, busy = run(scenario())
        assert ok > 0, "no put made it through the stalled ring"
        assert busy > 0, "a 4KiB ring never filled under a 5ms write stall"

    def test_oversized_batch_value_reports_too_large(self):
        # a record bigger than half the ring can never fit: the op must
        # fail loudly (TOO_LARGE), not wedge the transport
        async def scenario():
            server = WorkerServer(
                config(shm_ring_bytes=4096, max_frame_bytes=1 << 20),
                n_workers=1,
            )
            async with server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    from repro.serve.client import ServeError

                    with pytest.raises(ServeError):
                        await client.put(1, b"\x00" * 3000)
                    # the transport survives the rejection
                    assert await client.put(2, b"small") is True
                    assert await client.get(2) == b"small"

        run(scenario())

    def test_reply_too_large_for_the_ring_answers_too_large(self):
        # four 20 KB values fit the 64 KiB ring one by one, but a GET run
        # of all four cannot come back through it: each op must answer
        # TOO_LARGE, and the worker must survive with its data
        async def scenario():
            server = WorkerServer(config(n_shards=1, shm_ring_bytes=1 << 16),
                                  n_workers=1)
            async with server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    values = {key: bytes([65 + key]) * 20_000
                              for key in range(4)}
                    for key, value in values.items():
                        assert await client.put(key, value) is True
                    replies = await client.batch(
                        [("get", key) for key in values])
                    assert [(type(reply), reply.code) for reply in replies] \
                        == [(ErrorReply, ErrorCode.TOO_LARGE)] * 4
                    for key, value in values.items():
                        assert await client.get(key) == value
                    assert (await client.stats())["worker_restarts"] == 0

        run(scenario())


class TestKillWorkerNoReplay:
    def test_killed_worker_never_replays_a_pre_crash_request(self):
        # kill each worker after 120 applied ops, repeatedly, over the shm
        # transport.  The faultgen audit fails on any duplicate apply: a
        # replayed put or delete would surface as a phantom value (or a
        # lost acknowledged write) on its key.
        fg = FaultgenConfig(
            n_ops=600,
            n_keys=96,
            concurrency=4,
            seed=derive(903),
            faults="kill_worker=120",
            run_timeout=60.0,
            n_workers=2,
        )
        report = run(run_faultgen(fg))
        assert report.worker_restarts >= 1, "the kill rule never fired"
        assert report.lost_acked_writes == 0
        assert report.phantom_values == 0
        assert report.ok, report.failures

    def test_restart_generation_discards_inflight_requests(self):
        # park requests in a dead worker's request ring, restart, and
        # check the stale-slot gauge: the replacement must not consume
        # them (they belong to the previous epoch)
        async def scenario():
            server = WorkerServer(
                config(write_stall=0.01,
                       writer_queue_depth=100_000, durable=True),
                n_workers=1,
            )
            async with server:
                host, port = server.address
                retry = RetryPolicy(max_attempts=6, base_delay=0.01,
                                    deadline=10.0, seed=derive(904))
                async with McCuckooClient(host, port, retry=retry) as client:
                    await client.put(0, b"seed")
                    handle = server.pool.handle_for_worker(0)
                    # queue a burst the stalled worker cannot drain, then
                    # kill it with requests still sitting in the ring
                    pending = [
                        asyncio.ensure_future(client.put(k, b"burst"))
                        for k in range(1, 40)
                    ]
                    await asyncio.sleep(0.02)
                    handle._process.kill()
                    await asyncio.gather(*pending, return_exceptions=True)
                    await server.pool.await_restarts()
                    await server.pool.barrier()
                    stats = await client.stats()
                    assert stats["worker_restarts"] >= 1
                    assert stats["ring_stale_discarded"] >= 1
                    # the store still serves reads after the generation flip
                    assert await client.get(0) == b"seed"

        run(scenario())


class TestShutdown:
    @pytest.mark.parametrize("eof_seen", [True, False],
                             ids=["eof-seen", "eof-unseen"])
    def test_exit_closes_every_worker_link(self, monkeypatch, eof_seen):
        # WorkerPool.stop destroys the rings right after the handles shut
        # down, so each handle must already have closed its link: a late
        # doorbell callback would pop from released ring memory.  The
        # eof-unseen case is the race itself — a worker exits on "stop"
        # but the loop has not run its EOF callback when the pool stops —
        # so only shutdown can close the link there.
        from repro.serve.workers import WorkerHandle

        def eof_unseen(handle):
            try:
                data = os.read(handle._door_resp_r, 65536)
            except BlockingIOError:
                data = b"wakeup"
            if not data:
                handle._loop.remove_reader(handle._door_resp_r)
                return
            handle._drain_responses()

        if not eof_seen:
            monkeypatch.setattr(WorkerHandle, "_on_shm_readable", eof_unseen)

        async def scenario():
            server = WorkerServer(config(), n_workers=2)
            async with server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    assert await client.put(1, b"x")
                    assert await client.get(1) == b"x"
                handles = [handle for _, handle in server.pool.live_handles()]
                assert all(handle is not None for handle in handles)
                fds = [handle._door_resp_r for handle in handles]
            loop = asyncio.get_running_loop()
            for handle, fd in zip(handles, fds):
                assert handle._link_closed
                assert handle._door_resp_r == -1
                assert handle._door_req_w == -1
                assert not handle.alive
                assert not loop.remove_reader(fd)  # no reader registered
                assert not handle._process.is_alive()

        run(scenario())
