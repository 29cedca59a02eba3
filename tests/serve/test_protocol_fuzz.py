"""Protocol fuzz tests: malformed frames must fail cleanly, never hang.

Three layers are attacked with seeded random mutations:

* the codec (``decode_request``/``decode_reply``) — every mutated or
  random body must raise :class:`ProtocolError` and nothing else;
* the framing (``read_frame``) — truncations, bad checksums and oversized
  declared lengths must raise :class:`ProtocolError` (or yield ``b""`` on
  a clean EOF), never block;
* a live server — garbage over a real socket gets an error reply or a
  closed connection, the server keeps serving fresh connections, and no
  partial state is left behind.
"""

import asyncio
import random
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    BatchReply,
    BatchRequest,
    DeleteReply,
    ErrorCode,
    ErrorReply,
    GetRequest,
    McCuckooClient,
    McCuckooServer,
    ProtocolError,
    PutRequest,
    ServerConfig,
    StatsRequest,
    decode_reply,
    decode_request,
    encode_reply,
    encode_request,
    read_frame,
)
from repro.serve.protocol import (
    FENCE_ACTIONS,
    MIGRATE_PHASES,
    REPLICA_ACTIONS,
    DeleteRequest,
    FenceFrame,
    MigrateFrame,
    PutReply,
    ReplicaFrame,
    StatsReply,
    ValueReply,
    decode_migration_frame,
    encode_fence,
    encode_migrate,
    encode_replica,
)
from repro.serve.shm import _HEADER_BYTES, SLOT_OVERHEAD, ShmRing, shm_available
from repro.serve.workers import _IPC_HEAD, KIND_MIGRATE
from tests.seeding import derive

BODY_OFFSET = 8  # u32 length + u32 crc32


def run(coro):
    return asyncio.run(coro)


def body_of(frame: bytes) -> bytes:
    return frame[BODY_OFFSET:]


def feed(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


SAMPLE_FRAMES = [
    encode_request(GetRequest(7)),
    encode_request(PutRequest(1, b"some value bytes")),
    encode_request(DeleteRequest(2**64 - 1)),
    encode_request(StatsRequest()),
    encode_request(BatchRequest((GetRequest(1), PutRequest(2, b"x")))),
    encode_reply(ValueReply(True, bytes(range(64)))),
    encode_reply(PutReply(True)),
    encode_reply(StatsReply({"a": 1.5})),
]


class TestCodecFuzz:
    def test_seeded_mutations_only_raise_protocol_error(self):
        """Any byte mutation of a valid body either still decodes or
        raises ProtocolError — no struct.error / UnicodeDecodeError /
        IndexError ever escapes the codec."""
        rng = random.Random(derive(0xF022))
        decoders = (decode_request, decode_reply)
        for _ in range(2000):
            frame = rng.choice(SAMPLE_FRAMES)
            body = bytearray(body_of(frame))
            for _ in range(rng.randrange(1, 4)):
                body[rng.randrange(len(body))] = rng.randrange(256)
            for decode in decoders:
                try:
                    decode(bytes(body))
                except ProtocolError:
                    pass  # the only acceptable exception

    def test_truncated_bodies_raise_protocol_error(self):
        for frame in SAMPLE_FRAMES:
            body = body_of(frame)
            for cut in range(len(body)):
                for decode in (decode_request, decode_reply):
                    try:
                        decode(body[:cut])
                    except ProtocolError:
                        pass

    MIXED_REQUEST = body_of(encode_request(BatchRequest((
        GetRequest(1), PutRequest(2, b"value"), DeleteRequest(3),
        StatsRequest(), PutRequest(4, b""), GetRequest(2**64 - 1)))))
    MIXED_REPLY = body_of(encode_reply(BatchReply((
        ValueReply(True, b"value"), ValueReply(False), PutReply(True),
        DeleteReply(False), StatsReply({"a": 1}),
        ErrorReply(ErrorCode.BUSY, "full"), ValueReply(True, b"")))))

    @pytest.mark.parametrize("body,decode", [
        (MIXED_REQUEST, decode_request), (MIXED_REPLY, decode_reply),
    ], ids=["request", "reply"])
    def test_every_strict_prefix_and_a_trailing_byte_raise(self, body, decode):
        """A cut anywhere in a mixed batch, or one byte past its end, is
        a ProtocolError: the offset walk checks bounds before each read,
        so no struct.error or IndexError escapes."""
        decode(body)
        for cut in range(len(body)):
            with pytest.raises(ProtocolError, match="truncated"):
                decode(body[:cut])
        with pytest.raises(ProtocolError, match="trailing"):
            decode(body + b"\x00")

    @settings(max_examples=200, deadline=None)
    @given(blob=st.binary(max_size=200))
    def test_arbitrary_bytes_never_crash_codec(self, blob):
        for decode in (decode_request, decode_reply):
            try:
                decode(blob)
            except ProtocolError:
                pass


class TestFramingFuzz:
    def test_checksum_mismatch_raises(self):
        frame = bytearray(encode_request(GetRequest(5)))
        frame[-1] ^= 0x40  # flip a body byte; prefix untouched
        async def scenario():
            with pytest.raises(ProtocolError, match="checksum"):
                await read_frame(feed(bytes(frame)))
        run(scenario())

    def test_every_truncation_point_fails_cleanly(self):
        frame = encode_request(PutRequest(3, b"payload-bytes"))
        async def scenario():
            for cut in range(len(frame)):
                reader = feed(frame[:cut])
                if cut == 0:
                    assert await read_frame(reader) == b""
                else:
                    with pytest.raises(ProtocolError):
                        await asyncio.wait_for(read_frame(reader), 5)
        run(scenario())

    def test_oversized_length_rejected_without_reading_body(self):
        prefix = struct.pack(">II", 1 << 30, 0)
        async def scenario():
            with pytest.raises(ProtocolError, match="exceeds"):
                await read_frame(feed(prefix), max_frame_bytes=1024)
        run(scenario())

    def test_undersized_length_rejected(self):
        body = b"xy"
        frame = struct.pack(">II", len(body), zlib.crc32(body)) + body
        async def scenario():
            with pytest.raises(ProtocolError, match="too short"):
                await read_frame(feed(frame))
        run(scenario())

    def test_seeded_random_frame_mutations(self):
        """Flip random bytes anywhere in whole frames: read_frame either
        returns a body equal to the original (mutation missed this frame's
        bytes... impossible here, we always mutate) or raises."""
        rng = random.Random(derive(0xF4A3))
        async def scenario():
            for _ in range(400):
                frame = bytearray(rng.choice(SAMPLE_FRAMES))
                frame[rng.randrange(len(frame))] ^= rng.randrange(1, 256)
                reader = feed(bytes(frame))
                try:
                    body = await asyncio.wait_for(read_frame(reader), 5)
                except ProtocolError:
                    continue
                # a length-prefix mutation can still frame a *shorter*
                # prefix of the stream; the CRC must then have matched
                assert zlib.crc32(body) & 0xFFFFFFFF == struct.unpack(
                    ">I", frame[4:8]
                )[0]
        run(scenario())


class TestServerUnderFuzz:
    def _config(self):
        return ServerConfig(n_shards=2, expected_items=1024, seed=derive(0))

    def test_garbage_connections_leave_server_healthy(self):
        rng = random.Random(derive(0x5E4F))
        payloads = []
        for _ in range(25):
            choice = rng.random()
            if choice < 0.4:  # framed garbage body
                body = bytes(rng.randrange(256) for _ in range(
                    rng.randrange(3, 40)))
                payloads.append(
                    struct.pack(">II", len(body), zlib.crc32(body)) + body)
            elif choice < 0.7:  # corrupted valid frame
                frame = bytearray(rng.choice(SAMPLE_FRAMES))
                frame[rng.randrange(len(frame))] ^= rng.randrange(1, 256)
                payloads.append(bytes(frame))
            else:  # raw noise, framing lost
                payloads.append(bytes(rng.randrange(256) for _ in range(
                    rng.randrange(1, 30))))

        async def scenario():
            async with McCuckooServer(self._config()) as server:
                host, port = server.address
                for payload in payloads:
                    reader, writer = await asyncio.open_connection(host, port)
                    try:
                        writer.write(payload)
                        await writer.drain()
                        writer.write_eof()
                        # server must answer and/or hang up — never stall
                        await asyncio.wait_for(reader.read(), 5)
                    finally:
                        writer.close()
                # the server still serves clean traffic afterwards
                async with McCuckooClient(host, port) as client:
                    await client.put(1, b"alive")
                    assert await client.get(1) == b"alive"
                    stats = await client.stats()
                    # garbage never made it into the store
                    assert stats["store_items"] == 1
        run(scenario())

    def test_fuzzed_request_gets_error_reply_and_connection_survives(self):
        async def scenario():
            async with McCuckooServer(self._config()) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    body = b"\xc3\x01\x99garbage"  # valid header, bad opcode
                    writer.write(struct.pack(
                        ">II", len(body), zlib.crc32(body)) + body)
                    await writer.drain()
                    reply = decode_reply(await asyncio.wait_for(
                        read_frame(reader), 5))
                    assert isinstance(reply, ErrorReply)
                    # same connection still works
                    writer.write(encode_request(GetRequest(1)))
                    await writer.drain()
                    reply = decode_reply(await asyncio.wait_for(
                        read_frame(reader), 5))
                    assert not isinstance(reply, ErrorReply)
                finally:
                    writer.close()
        run(scenario())


class TestMigrationFrameFuzz:
    """The resharding control frames must fail closed: a damaged
    MIGRATE/FENCE/REPLICA body raises ProtocolError — it can never decode
    into a *different-but-valid* routing instruction (silent routing
    corruption is how a migration loses a shard)."""

    FRAMES = [
        encode_migrate(MigrateFrame("snapshot", 3, 7)),
        encode_migrate(MigrateFrame("install", 0, 1, b"log-image-bytes")),
        encode_migrate(MigrateFrame("delta", 2, 9, b"\x00" * 8)),
        encode_migrate(MigrateFrame("apply", 2, 9, b"tail")),
        encode_migrate(MigrateFrame("activate", 1, 4)),
        encode_migrate(MigrateFrame("release", 1, 4)),
        encode_migrate(MigrateFrame("abort", 5, 2)),
        encode_fence(FenceFrame("fence", 6, 11)),
        encode_fence(FenceFrame("ack", 6, 11)),
        encode_replica(ReplicaFrame(
            "apply", 0, 3, body_of(encode_request(PutRequest(9, b"v"))))),
        encode_replica(ReplicaFrame("ack", 0, 3)),
    ]

    def test_round_trips(self):
        for body in self.FRAMES:
            frame = decode_migration_frame(body)
            if isinstance(frame, MigrateFrame):
                assert encode_migrate(frame) == body
            elif isinstance(frame, FenceFrame):
                assert encode_fence(frame) == body
            else:
                assert encode_replica(frame) == body

    def test_golden_bytes(self):
        """Bodies written by the per-field encoder this codec replaced."""
        for frame, encode, body in (
            (MigrateFrame("delta", 3, 9, b"pay"), encode_migrate,
             "c301300200000003000000090000000370617900000009"),
            (FenceFrame("ack", 1, 2), encode_fence,
             "c3013101000000010000000200000002"),
            (ReplicaFrame("apply", 5, 6, b"\x01\x02"), encode_replica,
             "c3013200000000050000000600000002010200000006"),
        ):
            assert encode(frame) == bytes.fromhex(body)
            assert decode_migration_frame(bytes.fromhex(body)) == frame

    def test_every_truncation_point_raises(self):
        for body in self.FRAMES:
            for cut in range(len(body)):
                with pytest.raises(ProtocolError):
                    decode_migration_frame(body[:cut])

    def test_trailing_bytes_raise(self):
        for body in self.FRAMES:
            with pytest.raises(ProtocolError):
                decode_migration_frame(body + b"\x00")

    def test_epoch_confusion_raises(self):
        """A header/trailer epoch mismatch — the one corruption the CRC
        layer cannot rule out once a frame is re-packed — fails closed."""
        for body in self.FRAMES:
            damaged = bytearray(body)
            damaged[-1] ^= 0x01  # trailer echo no longer matches header
            with pytest.raises(ProtocolError, match="epoch confusion"):
                decode_migration_frame(bytes(damaged))

    def test_unknown_phase_and_action_indexes_raise(self):
        for body, n_valid in (
            (encode_migrate(MigrateFrame("snapshot", 1, 2)),
             len(MIGRATE_PHASES)),
            (encode_fence(FenceFrame("fence", 1, 2)), len(FENCE_ACTIONS)),
            (encode_replica(ReplicaFrame("apply", 1, 2)),
             len(REPLICA_ACTIONS)),
        ):
            damaged = bytearray(body)
            damaged[3] = n_valid  # selector byte just past the table
            with pytest.raises(ProtocolError, match="index"):
                decode_migration_frame(bytes(damaged))

    def test_encode_rejects_unknown_names_and_oversized_fields(self):
        with pytest.raises(ProtocolError):
            encode_migrate(MigrateFrame("teleport", 0, 0))
        with pytest.raises(ProtocolError):
            encode_fence(FenceFrame("open", 0, 0))
        with pytest.raises(ProtocolError):
            encode_replica(ReplicaFrame("drop", 0, 0))
        with pytest.raises(ProtocolError):
            encode_migrate(MigrateFrame("snapshot", 1 << 32, 0))
        with pytest.raises(ProtocolError):
            encode_migrate(MigrateFrame("snapshot", 0, 1 << 32))

    def test_request_decoder_rejects_migration_bodies(self):
        """Migration opcodes live outside the client opcode space: a
        migration frame leaking into the request path is an unknown
        opcode, never a misread client op."""
        for body in self.FRAMES:
            for decode in (decode_request, decode_reply):
                with pytest.raises(ProtocolError):
                    decode(body)

    def test_seeded_mutations_never_escape_protocol_error(self):
        rng = random.Random(derive(0xF1A7))
        originals = {bytes(body) for body in self.FRAMES}
        for _ in range(3000):
            body = bytearray(rng.choice(self.FRAMES))
            for _ in range(rng.randrange(1, 4)):
                body[rng.randrange(len(body))] = rng.randrange(256)
            try:
                frame = decode_migration_frame(bytes(body))
            except ProtocolError:
                continue
            # decodable mutants must re-encode to exactly the mutated
            # bytes (i.e. the mutation landed inside payload/shard/epoch
            # fields and the frame is still self-consistent) — never to
            # some third frame
            if isinstance(frame, MigrateFrame):
                encoded = encode_migrate(frame)
            elif isinstance(frame, FenceFrame):
                encoded = encode_fence(frame)
            else:
                encoded = encode_replica(frame)
            assert encoded == bytes(body)

    @pytest.mark.skipif(not shm_available(),
                        reason="multiprocessing.shared_memory unavailable")
    def test_crc_layer_catches_transport_flips(self):
        """Through the worker transport (a shm ring slot), a flipped bit
        in a migration frame is caught by the slot CRC before the codec
        ever sees it."""
        rng = random.Random(derive(0xF1A8))
        ring = ShmRing.create(1 << 16)
        try:
            for _ in range(200):
                body = _IPC_HEAD.pack(5, KIND_MIGRATE) + rng.choice(
                    self.FRAMES)
                assert ring.try_push(body, epoch=1)
                # records never straddle the end, so the slot just pushed
                # ends exactly at the new tail
                start = (_HEADER_BYTES + SLOT_OVERHEAD
                         + (ring.tail - len(body) - SLOT_OVERHEAD)
                         % ring.capacity)
                ring._buf[start + rng.randrange(len(body))] ^= (
                    rng.randrange(1, 256))
                with pytest.raises(ProtocolError, match="CRC"):
                    ring.pop()
                ring.drain_all()  # the consumer's torn-slot recovery
                assert ring.pop() is None
        finally:
            ring.close()
            ring.unlink()
