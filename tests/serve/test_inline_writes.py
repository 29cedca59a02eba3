"""The single-process write path: writes apply where they are admitted.

A batch is served in op order with no queue between the connection and
the store, so its replies equal a dict model served op by op, though each
segment between STATS ops is one GET walk, one write walk per shard and a
forwarding pass; an injected crash answers INTERNAL and the shard heals
under the rest of the batch; an injected stall holds the replies and the
slots of the ops it holds, and gives the slots back when a TIMEOUT ends
it.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan
from repro.serve import (
    DeleteReply,
    ErrorCode,
    ErrorReply,
    McCuckooClient,
    McCuckooServer,
    PutReply,
    RequestTimeoutError,
    ServerConfig,
    StatsReply,
    ValueReply,
)
from tests.seeding import derive

KEYS = st.integers(0, 11)
OPS = st.one_of(
    st.tuples(st.just("put"), KEYS, st.binary(max_size=6)),
    st.tuples(st.just("delete"), KEYS),
    st.tuples(st.just("get"), KEYS),
    st.just(("stats",)),
)


def config(**overrides) -> ServerConfig:
    defaults = dict(n_shards=4, expected_items=256, seed=derive(0))
    defaults.update(overrides)
    return ServerConfig(**defaults)


def is_busy(reply) -> bool:
    return isinstance(reply, ErrorReply) and reply.code is ErrorCode.BUSY


class Model:
    """A dict served one op at a time; a BUSY op is never applied.  With
    ``crash_at`` the write making that append (1-based: every PUT, and a
    DELETE of a present key) answers INTERNAL, but its record persisted,
    so it is applied."""

    def __init__(self, crash_at=None) -> None:
        self.data = {}
        self.served = 0  # GET/PUT/DELETE ops applied, for STATS barriers
        self.appends = 0
        self.crash_at = crash_at

    def check(self, op, reply) -> None:
        verb, key = op[0], op[1] if len(op) > 1 else None
        if verb == "stats":
            assert isinstance(reply, StatsReply)
            stats = reply.stats
            assert stats["gets"] + stats["puts"] + stats["deletes"] == self.served
            return
        if is_busy(reply):
            assert verb != "get"
            return
        if verb == "put" or (verb == "delete" and key in self.data):
            self.appends += 1
            if self.appends == self.crash_at:
                assert reply.code is ErrorCode.INTERNAL
                if verb == "put":
                    self.data[key] = op[2]
                else:
                    del self.data[key]
                return
        self.served += 1
        if verb == "get":
            value = self.data.get(key)
            assert reply == (ValueReply(False) if value is None
                             else ValueReply(True, value))
        elif verb == "put":
            assert reply == PutReply(key not in self.data)
            self.data[key] = op[2]
        else:
            assert reply == DeleteReply(self.data.pop(key, None) is not None)


@settings(max_examples=60, deadline=None)
@given(
    batches=st.lists(st.lists(OPS, min_size=1, max_size=24), min_size=1,
                     max_size=4),
    busy=st.sampled_from([0.0, 0.3]),
    depth=st.sampled_from([2, 512]),
    crash=st.sampled_from([None, 1, 4, 11]),
    seed=st.integers(0, 1 << 16),
)
def test_batches_answer_like_a_dict_served_op_by_op(batches, busy, depth,
                                                    crash, seed):
    """Overwrites, deletes, repeated keys, GETs before and after a write
    of their key, GET after DELETE and STATS barriers answer as the model
    does; injected BUSY (``busy=P``) and ops past a shard's
    ``writer_queue_depth`` answer BUSY and apply nothing; with
    ``crash_after_appends=N`` the ops before the crash are acked, the
    crashed op answers INTERNAL, and later ops apply on the healed
    shard."""
    rules = [f"busy={busy}"] if busy else []
    if crash is not None:
        rules.append(f"crash_after_appends={crash}")
    plan = FaultPlan.parse("; ".join(rules), seed=seed) if rules else None
    # The crash rule counts appends in the order the shards apply them;
    # on one shard that is op order, which the model follows.
    cfg = config(fault_plan=plan, writer_queue_depth=depth,
                 n_shards=1 if crash is not None else 4)

    async def scenario():
        model = Model(crash)
        async with McCuckooServer(cfg) as server:
            host, port = server.address
            async with McCuckooClient(host, port) as client:
                for batch in batches:
                    replies = await client.batch(batch)
                    assert len(replies) == len(batch)
                    for op, reply in zip(batch, replies):
                        model.check(op, reply)
                for key in range(12):
                    assert await client.get(key) == model.data.get(key)
            assert server._queued_ops == [0] * cfg.n_shards
            if not busy and depth == 512:
                assert server.stats.busy_rejections == 0

    asyncio.run(scenario())


class TestForwarding:
    """A batch segment answers its GETs in one walk before its writes,
    then forwards each GET the latest applied write to its key."""

    def test_gets_before_and_after_writes_of_their_key(self):
        async def scenario():
            async with McCuckooServer(config(n_shards=1)) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    await client.put(1, b"old")
                    replies = await client.batch([
                        ("get", 1), ("put", 1, b"a"), ("get", 1),
                        ("put", 1, b"b"), ("get", 1), ("delete", 1),
                        ("get", 1), ("get", 2), ("put", 2, b"c"),
                        ("get", 2), ("delete", 2), ("get", 2),
                    ])
                    found = [(r.found, r.value) for r in replies
                             if isinstance(r, ValueReply)]
                    assert found == [
                        (True, b"old"), (True, b"a"), (True, b"b"),
                        (False, b""), (False, b""), (True, b"c"),
                        (False, b""),
                    ]
                    stats = await client.stats()
                    assert (stats["get_hits"], stats["get_misses"]) == (4, 3)
                    assert stats["get_walks"] == 1

        asyncio.run(scenario())

    def test_a_write_that_drew_busy_is_not_forwarded(self):
        async def scenario():
            cfg = config(n_shards=1, writer_queue_depth=2, write_stall=0.01,
                         request_timeout=30.0)
            async with McCuckooServer(cfg) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    replies = await client.batch([
                        ("put", 1, b"a"), ("put", 2, b"b"),
                        ("put", 1, b"busy"), ("get", 1),
                    ])
                    assert is_busy(replies[2])
                    assert replies[3] == ValueReply(True, b"a")
                    assert await client.get(1) == b"a"

        asyncio.run(scenario())


class TestStalledWrites:
    def test_timeout_during_a_stalled_batch_gives_back_its_slots(self):
        async def scenario():
            cfg = config(n_shards=1, write_stall=0.5, writer_queue_depth=4,
                         request_timeout=0.1)
            async with McCuckooServer(cfg) as server:
                host, port = server.address
                async with McCuckooClient(host, port) as client:
                    with pytest.raises(RequestTimeoutError):
                        await client.batch(
                            [("put", key, b"v") for key in range(4)])
                    assert server.stats.timeouts == 1
                    # the write was applied at admission, before its stall
                    assert server.stats.puts == 4
                    assert server._queued_ops == [0]
                    assert (await client.stats())["writer_queue_depth"] == 0
                    await asyncio.wait_for(server.drain_writes(), 1)
                    server.config.write_stall = 0.0
                    assert await client.put(99, b"w") is True
                    assert await client.get(99) == b"w"

        asyncio.run(scenario())

    def test_a_stall_holds_its_slots_until_the_reply(self):
        async def scenario():
            cfg = config(n_shards=1, write_stall=0.2, writer_queue_depth=4,
                         request_timeout=30.0)
            async with McCuckooServer(cfg) as server:
                host, port = server.address
                async with McCuckooClient(host, port, pool_size=2) as client:
                    stalled = asyncio.ensure_future(client.batch(
                        [("put", key, b"v") for key in range(3)]))
                    await asyncio.sleep(0.05)
                    assert server._queued_ops == [3]
                    # one slot is left: the next run admits one op
                    replies = await client.batch(
                        [("put", 10, b"v"), ("put", 11, b"v")])
                    assert replies[0] == PutReply(True)
                    assert is_busy(replies[1])
                    assert all(reply == PutReply(True)
                               for reply in await stalled)
                    assert server._queued_ops == [0]

        asyncio.run(scenario())
