"""Integration tests: real asyncio server + client over a loopback port."""

import asyncio
import struct
import zlib

import pytest

from repro.serve import (
    BatchReply,
    BatchRequest,
    ErrorCode,
    ErrorReply,
    GetRequest,
    McCuckooClient,
    McCuckooServer,
    RequestTimeoutError,
    ServerBusyError,
    PutRequest,
    ServerConfig,
    ValueReply,
    decode_reply,
    encode_request,
    read_frame,
)
from repro.serve.loadgen import LoadgenConfig, build_workload
from repro.workloads import distinct_keys
from tests.seeding import derive


def run(coro):
    return asyncio.run(coro)


def config(**overrides) -> ServerConfig:
    defaults = dict(n_shards=4, expected_items=4096, seed=derive(0))
    defaults.update(overrides)
    return ServerConfig(**defaults)


class TestBasicOps:
    def test_roundtrip_over_loopback(self):
        async def scenario():
            async with McCuckooServer(config()) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    assert await client.get("user:1") is None
                    assert await client.put("user:1", b"ada") is True
                    assert await client.get("user:1") == b"ada"
                    assert await client.put("user:1", b"lovelace") is False
                    assert await client.get("user:1") == b"lovelace"
                    assert await client.delete("user:1") is True
                    assert await client.delete("user:1") is False
                    assert await client.get("user:1") is None

        run(scenario())

    def test_empty_and_binary_values(self):
        async def scenario():
            async with McCuckooServer(config()) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    await client.put(1, b"")
                    assert await client.get(1) == b""
                    blob = bytes(range(256)) * 64
                    await client.put(2, blob)
                    assert await client.get(2) == blob

        run(scenario())

    def test_batch_pipelines_in_order(self):
        async def scenario():
            async with McCuckooServer(config()) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    replies = await client.batch(
                        [("put", 10, b"a"), ("get", 10), ("delete", 10),
                         ("get", 10), ("stats",)]
                    )
                    assert replies[0].created is True
                    assert replies[1].found and replies[1].value == b"a"
                    assert replies[2].deleted is True
                    assert replies[3].found is False
                    assert replies[4].stats["requests"] >= 1

        run(scenario())


class TestMixedWorkloadCorrectness:
    def test_10k_zipf_ops_match_dict_model(self):
        """Acceptance: concurrent workers drive 10k mixed zipf ops; every
        reply must match a per-worker dict model (workers own disjoint
        keys, so each worker's view is exactly sequential)."""
        n_workers = 4

        async def scenario():
            async with McCuckooServer(config(expected_items=8192)) as server:
                host, port = server.address
                async with McCuckooClient(host, port,
                                          pool_size=n_workers) as client:
                    workloads = []
                    seen = set()
                    for worker_id in range(n_workers):
                        preload, ops = build_workload(
                            LoadgenConfig(workload="zipf", n_ops=2500,
                                          n_keys=400, value_size=32,
                                          seed=derive(1000) + worker_id)
                        )
                        keys = {op[1] for op in preload}
                        assert not (keys & seen), "worker key sets overlap"
                        seen |= keys
                        workloads.append(preload + ops)

                    async def worker(ops):
                        model = {}
                        divergences = 0
                        for op in ops:
                            if op[0] == "put":
                                created = await client.put(op[1], op[2])
                                if created != (op[1] not in model):
                                    divergences += 1
                                model[op[1]] = op[2]
                            elif op[0] == "delete":
                                deleted = await client.delete(op[1])
                                if deleted != (op[1] in model):
                                    divergences += 1
                                model.pop(op[1], None)
                            else:
                                value = await client.get(op[1])
                                if value != model.get(op[1]):
                                    divergences += 1
                        return divergences, model

                    results = await asyncio.gather(
                        *(worker(ops) for ops in workloads)
                    )
                    assert sum(r[0] for r in results) == 0

                    # final state: every surviving key reads back exactly
                    for _, model in results:
                        for key, expected in list(model.items())[::7]:
                            assert await client.get(key) == expected

                    stats = await client.stats()
                    total_ops = sum(len(ops) for ops in workloads)
                    assert stats["requests"] >= total_ops
                    assert stats["gets"] == stats["get_hits"] + stats["get_misses"]
                    assert stats["store_items"] == sum(
                        len(model) for _, model in results
                    )

        run(scenario())


class TestBackpressure:
    def test_saturated_writer_queue_answers_busy(self):
        """Acceptance: a stalled single-shard writer with a depth-1 queue
        must answer overflow with BUSY frames, not buffer unboundedly."""

        async def scenario():
            cfg = config(n_shards=1, writer_queue_depth=1, write_stall=0.05,
                         request_timeout=30.0)
            async with McCuckooServer(cfg) as server:
                host, port = server.address
                async with McCuckooClient(host, port, pool_size=10) as client:
                    keys = distinct_keys(20, seed=derive(77))

                    async def put(key):
                        try:
                            await client.put(key, b"v")
                            return "ok"
                        except ServerBusyError:
                            return "busy"

                    outcomes = await asyncio.gather(*(put(k) for k in keys))
                    assert outcomes.count("busy") > 0
                    assert outcomes.count("ok") > 0
                    assert server.stats.busy_rejections == outcomes.count("busy")
                    # the queue never held more than its bound
                    assert server._write_queues[0].qsize() <= 1

        run(scenario())

    def test_busy_inside_batch_is_per_op(self):
        async def scenario():
            cfg = config(n_shards=1, writer_queue_depth=1, write_stall=0.05,
                         request_timeout=30.0)
            async with McCuckooServer(cfg) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    ops = [("put", key, b"v")
                           for key in distinct_keys(12, seed=derive(78))]
                    replies = await client.batch(ops)
                    busy = [r for r in replies
                            if isinstance(r, ErrorReply)
                            and r.code is ErrorCode.BUSY]
                    ok = [r for r in replies if not isinstance(r, ErrorReply)]
                    assert busy and ok
                    assert len(busy) + len(ok) == len(ops)

        run(scenario())


class TestTimeouts:
    def test_slow_write_times_out(self):
        async def scenario():
            cfg = config(n_shards=1, write_stall=0.5, request_timeout=0.05)
            async with McCuckooServer(cfg) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    with pytest.raises(RequestTimeoutError):
                        await client.put(1, b"v")
                    assert server.stats.timeouts == 1

        run(scenario())


class TestRequestTimer:
    """Each request runs under one timer, not a Task of its own; only the
    timer's cancel answers TIMEOUT."""

    @staticmethod
    async def roundtrip(reader, writer, request):
        writer.write(encode_request(request))
        await writer.drain()
        return decode_reply(await read_frame(reader))

    def test_all_get_batches_create_no_task_per_frame(self):
        async def scenario():
            async with McCuckooServer(config()) as server:
                host, port = server.address
                keys = distinct_keys(64, seed=derive(21))
                async with McCuckooClient(host, port) as client:
                    await client.batch([("put", key, b"v") for key in keys])
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    batch = BatchRequest(tuple(GetRequest(key) for key in keys[:32]))
                    # the connection's own handler task exists from here on
                    await self.roundtrip(reader, writer, batch)
                    loop = asyncio.get_running_loop()
                    created = []

                    def counting_factory(loop, coro, **kwargs):
                        created.append(coro)
                        return asyncio.Task(coro, loop=loop, **kwargs)

                    loop.set_task_factory(counting_factory)
                    try:
                        for _ in range(20):
                            reply = await self.roundtrip(reader, writer, batch)
                            assert isinstance(reply, BatchReply)
                            assert all(sub.found for sub in reply.replies)
                    finally:
                        loop.set_task_factory(None)
                    assert created == []
                finally:
                    writer.close()
                assert server.stats.timeouts == 0

        run(scenario())

    def test_timeout_leaves_the_connection_serving(self):
        async def scenario():
            cfg = config(n_shards=1, write_stall=0.5, request_timeout=0.05)
            async with McCuckooServer(cfg) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    reply = await self.roundtrip(reader, writer, PutRequest(1, b"v"))
                    assert isinstance(reply, ErrorReply)
                    assert reply.code is ErrorCode.TIMEOUT
                    for key in (2, 3):
                        reply = await self.roundtrip(reader, writer, GetRequest(key))
                        assert reply == ValueReply(False)
                finally:
                    writer.close()
                assert server.stats.timeouts == 1
                assert server.stats.gets == 2

        run(scenario())

    def test_stop_during_a_stalled_write_stops(self):
        """server.stop() cancels the stalled write from outside: the
        request is not answered as a TIMEOUT, and the connection closes."""

        async def scenario():
            cfg = config(n_shards=1, write_stall=5.0, request_timeout=30.0)
            server = McCuckooServer(cfg)
            host, port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_request(PutRequest(1, b"v")))
                await writer.drain()
                await asyncio.sleep(0.1)
                await asyncio.wait_for(server.stop(), 5)
                assert await asyncio.wait_for(reader.read(), 5) == b""
                writer.close()
            finally:
                await server.stop()
            assert server.stats.timeouts == 0

        run(scenario())


class TestConnectionLimit:
    def test_excess_connection_is_greeted_with_busy(self):
        async def scenario():
            async with McCuckooServer(config(max_connections=1)) as server:
                host, port = server.address
                async with McCuckooClient(host, port, pool_size=1) as client:
                    await client.put(1, b"v")  # holds the one pooled slot
                    reader, writer = await asyncio.open_connection(host, port)
                    try:
                        body = await asyncio.wait_for(read_frame(reader), 5)
                        reply = decode_reply(body)
                        assert isinstance(reply, ErrorReply)
                        assert reply.code is ErrorCode.BUSY
                    finally:
                        writer.close()
                assert server.stats.connections_rejected == 1

        run(scenario())


class TestBadInput:
    def test_garbage_frame_gets_bad_request(self):
        async def scenario():
            async with McCuckooServer(config()) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    garbage = b"hello"
                    writer.write(
                        struct.pack(">II", len(garbage), zlib.crc32(garbage))
                        + garbage
                    )
                    await writer.drain()
                    reply = decode_reply(await read_frame(reader))
                    assert isinstance(reply, ErrorReply)
                    assert reply.code is ErrorCode.BAD_REQUEST
                    # connection survives a decodable-length garbage body
                    writer.write(encode_request(GetRequest(1)))
                    await writer.drain()
                    reply = decode_reply(await read_frame(reader))
                    assert not isinstance(reply, ErrorReply)
                finally:
                    writer.close()
                assert server.stats.bad_frames == 1

        run(scenario())

    def test_oversized_frame_closes_connection(self):
        async def scenario():
            cfg = config(max_frame_bytes=1024)
            async with McCuckooServer(cfg) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    writer.write(struct.pack(">II", 1 << 20, 0))
                    await writer.drain()
                    reply = decode_reply(await read_frame(reader))
                    assert isinstance(reply, ErrorReply)
                    assert reply.code is ErrorCode.TOO_LARGE
                    assert await reader.read() == b""  # server hung up
                finally:
                    writer.close()

        run(scenario())
