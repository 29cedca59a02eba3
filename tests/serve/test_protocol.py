"""Wire-protocol unit tests: pure bytes, no sockets."""

import dataclasses
import struct
import zlib

import pytest

from repro.serve.protocol import (
    DELETED,
    MAGIC,
    NOT_DELETED,
    NOT_FOUND,
    PUT_CREATED,
    PUT_UPDATED,
    VERSION,
    BatchReply,
    BatchRequest,
    DeleteReply,
    DeleteRequest,
    ErrorCode,
    ErrorReply,
    GetRequest,
    Opcode,
    ProtocolError,
    PutReply,
    PutRequest,
    StatsReply,
    StatsRequest,
    ValueReply,
    decode_reply,
    decode_request,
    encode_reply,
    encode_reply_body,
    encode_request,
    encode_request_body,
)


def strip_frame(frame: bytes) -> bytes:
    """Drop the length/CRC prefix, validating both first."""
    (length, crc) = struct.unpack(">II", frame[:8])
    body = frame[8:]
    assert length == len(body)
    assert crc == (zlib.crc32(body) & 0xFFFFFFFF)
    return body


REQUESTS = [
    GetRequest(0),
    GetRequest(2**64 - 1),
    PutRequest(42, b""),
    PutRequest(42, b"some value \x00\xff"),
    DeleteRequest(7),
    StatsRequest(),
    BatchRequest((GetRequest(1), PutRequest(2, b"x"), DeleteRequest(3),
                  StatsRequest())),
    BatchRequest(()),
]

REPLIES = [
    ValueReply(found=True, value=b"payload"),
    ValueReply(found=False),
    PutReply(created=True),
    PutReply(created=False),
    DeleteReply(deleted=True),
    DeleteReply(deleted=False),
    StatsReply({"gets": 3, "load": 0.5}),
    StatsReply({}),
    ErrorReply(ErrorCode.BUSY, "queue full"),
    ErrorReply(ErrorCode.TIMEOUT),
    BatchReply((ValueReply(True, b"v"), ErrorReply(ErrorCode.BUSY, "b"),
                PutReply(True))),
]


class TestRoundtrips:
    @pytest.mark.parametrize("request_", REQUESTS, ids=repr)
    def test_request_roundtrip(self, request_):
        assert decode_request(strip_frame(encode_request(request_))) == request_

    @pytest.mark.parametrize("reply", REPLIES, ids=repr)
    def test_reply_roundtrip(self, reply):
        assert decode_reply(strip_frame(encode_reply(reply))) == reply

    def test_header_layout(self):
        body = strip_frame(encode_request(GetRequest(5)))
        assert body[0] == MAGIC
        assert body[1] == VERSION
        assert body[2] == Opcode.GET


class TestRejections:
    def test_bad_magic(self):
        body = bytearray(strip_frame(encode_request(GetRequest(5))))
        body[0] ^= 0xFF
        with pytest.raises(ProtocolError, match="magic"):
            decode_request(bytes(body))

    def test_bad_version(self):
        body = bytearray(strip_frame(encode_request(GetRequest(5))))
        body[1] = VERSION + 1
        with pytest.raises(ProtocolError, match="version"):
            decode_request(bytes(body))

    def test_unknown_opcode(self):
        body = bytes([MAGIC, VERSION, 0x7E])
        with pytest.raises(ProtocolError, match="opcode"):
            decode_request(body)

    def test_truncated_payload(self):
        body = strip_frame(encode_request(PutRequest(1, b"abcdef")))
        with pytest.raises(ProtocolError, match="truncated"):
            decode_request(body[:-3])

    def test_trailing_bytes(self):
        body = strip_frame(encode_request(GetRequest(1)))
        with pytest.raises(ProtocolError, match="trailing"):
            decode_request(body + b"\x00")

    def test_nested_batch_encode(self):
        inner = BatchRequest((GetRequest(1),))
        with pytest.raises(ProtocolError, match="nest"):
            encode_request(BatchRequest((inner,)))

    def test_nested_batch_decode(self):
        body = bytes([MAGIC, VERSION, Opcode.BATCH]) + struct.pack(">H", 1) \
            + bytes([Opcode.BATCH])
        with pytest.raises(ProtocolError, match="nest"):
            decode_request(body)

    def test_reply_with_unknown_error_code(self):
        body = bytes([MAGIC, VERSION, Opcode.ERROR, 200]) \
            + struct.pack(">H", 0)
        with pytest.raises(ProtocolError, match="error code"):
            decode_reply(body)

    def test_malformed_stats_json(self):
        blob = b"not json"
        body = bytes([MAGIC, VERSION, Opcode.STATS_OK]) \
            + struct.pack(">I", len(blob)) + blob
        with pytest.raises(ProtocolError, match="stats"):
            decode_reply(body)


class TestFraming:
    def test_frames_are_self_delimiting(self):
        """Two frames concatenated on a stream split back cleanly."""
        first = encode_request(PutRequest(1, b"aa"))
        second = encode_request(GetRequest(2))
        stream = first + second
        (length,) = struct.unpack(">I", stream[:4])
        assert decode_request(stream[8 : 8 + length]) == PutRequest(1, b"aa")
        rest = stream[8 + length :]
        (length2,) = struct.unpack(">I", rest[:4])
        assert decode_request(rest[8 : 8 + length2]) == GetRequest(2)

    def test_value_bytes_survive_arbitrary_content(self):
        value = bytes(range(256)) * 8
        frame = encode_request(PutRequest(9, value))
        decoded = decode_request(strip_frame(frame))
        assert decoded.value == value


#: complete frames (length, CRC32, body) of every message kind, written
#: by the per-field encoder this codec replaced: the wire bytes must not
#: change
GOLDEN_REQUESTS = [
    (GetRequest(0x0102030405060708),
     "0000000bf19dd34cc301010102030405060708"),
    (PutRequest(42, b"val\x00\xff"),
     "00000014bd3687ccc30102000000000000002a0000000576616c00ff"),
    (DeleteRequest(7), "0000000b1be739c5c301030000000000000007"),
    (StatsRequest(), "0000000305d934c5c30105"),
    (BatchRequest((GetRequest(1), PutRequest(2, b"xy"), DeleteRequest(3),
                   StatsRequest())),
     "0000002740f6a1cec301040004010000000000000001020000000000000002"
     "00000002787903000000000000000305"),
]

GOLDEN_REPLIES = [
    (ValueReply(True, b"hit"), "0000000bb6acd48cc301810100000003686974"),
    (ValueReply(False), "00000008e2905374c301810000000000"),
    (PutReply(True), "000000043acc3e9cc3018201"),
    (PutReply(False), "000000044dcb0e0ac3018200"),
    (DeleteReply(True), "0000000423d70fddc3018301"),
    (DeleteReply(False), "0000000454d03f4bc3018300"),
    (StatsReply({"gets": 3, "load": 0.5}),
     "0000001fe665bdf5c30184000000187b2267657473223a20332c20226c6f6164"
     "223a20302e357d"),
    (ErrorReply(ErrorCode.BUSY, "full"),
     "0000000ae2167324c301ff02000466756c6c"),
    (BatchReply((ValueReply(True, b"v"), ValueReply(False), PutReply(True),
                 PutReply(False), DeleteReply(True), DeleteReply(False),
                 ErrorReply(ErrorCode.INTERNAL, "x"), StatsReply({"n": 1}))),
     "0000002cd3990b61c3018500088101000000017681000000000082018200830183"
     "00ff0500017884000000087b226e223a20317d"),
]


class TestGoldenFrames:
    @pytest.mark.parametrize("request_,frame", GOLDEN_REQUESTS, ids=repr)
    def test_request_bytes(self, request_, frame):
        frame = bytes.fromhex(frame)
        assert encode_request(request_) == frame
        assert encode_request_body(request_) == frame[8:]
        assert decode_request(frame[8:]) == request_

    @pytest.mark.parametrize("reply,frame", GOLDEN_REPLIES, ids=repr)
    def test_reply_bytes(self, reply, frame):
        frame = bytes.fromhex(frame)
        assert encode_reply(reply) == frame
        assert encode_reply_body(reply) == frame[8:]
        assert decode_reply(frame[8:]) == reply


class TestSharedReplies:
    CONSTANTS = [
        (NOT_FOUND, ValueReply(False)),
        (PUT_CREATED, PutReply(True)),
        (PUT_UPDATED, PutReply(False)),
        (DELETED, DeleteReply(True)),
        (NOT_DELETED, DeleteReply(False)),
    ]

    @pytest.mark.parametrize("shared,fresh", CONSTANTS, ids=repr)
    def test_equal_to_a_fresh_reply(self, shared, fresh):
        assert shared == fresh
        assert hash(shared) == hash(fresh)

    @pytest.mark.parametrize("shared,_fresh", CONSTANTS, ids=repr)
    def test_immutable(self, shared, _fresh):
        field = dataclasses.fields(shared)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(shared, field, not getattr(shared, field))

    def test_type_distinct(self):
        assert PutReply(True) != DeleteReply(True)
        assert PUT_CREATED != DELETED
        assert PUT_UPDATED != NOT_DELETED
        assert len({PUT_CREATED, PUT_UPDATED, DELETED, NOT_DELETED,
                    NOT_FOUND}) == 5

    def test_decoder_answers_the_shared_replies(self):
        batch = decode_reply(strip_frame(encode_reply(BatchReply((
            ValueReply(False), PutReply(True), PutReply(False),
            DeleteReply(True), DeleteReply(False))))))
        assert [type(r) for r in batch.replies] == [
            ValueReply, PutReply, PutReply, DeleteReply, DeleteReply]
        for got, shared in zip(batch.replies, [
                NOT_FOUND, PUT_CREATED, PUT_UPDATED, DELETED, NOT_DELETED]):
            assert got is shared
        # a found value is never the shared miss, even when empty
        hit = decode_reply(strip_frame(encode_reply(ValueReply(True))))
        assert hit == ValueReply(True) and hit is not NOT_FOUND
