"""Length-prefixed binary wire protocol for the McCuckoo KV service.

Every frame on the wire is ``u32 body-length (big-endian)``, then
``u32 crc32(body)``, then the body.  The checksum makes payload corruption
detectable at the framing layer: value bytes are opaque, so without it a
flipped bit inside a VALUE reply would silently reach the application —
with it, :func:`read_frame` raises :class:`ProtocolError` and the caller
can discard the connection and retry.  A body starts with a fixed
three-byte header — magic ``0xC3``, protocol version, opcode — and
continues with an opcode-specific payload:

=========  ====  =======================================================
opcode     dir   payload
=========  ====  =======================================================
GET        req   key ``u64``
PUT        req   key ``u64``, value ``u32`` length + bytes
DELETE     req   key ``u64``
BATCH      req   ``u16`` count, then count sub-requests (opcode + payload,
                 no header; nesting a BATCH is a protocol error)
STATS      req   empty
VALUE      rep   found ``u8``, value ``u32`` length + bytes
PUT_OK     rep   created ``u8`` (1 = new key, 0 = in-place update)
DELETE_OK  rep   deleted ``u8``
STATS_OK   rep   ``u32`` length + UTF-8 JSON object (str → number)
BATCH_OK   rep   ``u16`` count, then count sub-replies (opcode + payload)
ERROR      rep   code ``u8``, ``u16`` length + UTF-8 message
=========  ====  =======================================================

Encode/decode are pure functions over ``bytes`` — unit-testable without a
socket — that make one pass per frame: precompiled structs pack or
unpack each op's fixed part in one call, and decoding walks the body at
an integer offset with a bounds check before every read.
:func:`encode_request_body`/:func:`encode_reply_body` give a body without
the length/CRC prefix, for transports that checksum on their own (the
worker rings).  The two tiny stream helpers (:func:`read_frame`,
:func:`write_frame`) are the only asyncio-aware code here.
"""

from __future__ import annotations

import asyncio
import json
import struct
import zlib
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, List, Tuple, Union

from ..core.errors import ReproError

MAGIC = 0xC3
VERSION = 1

#: default cap on one frame body; protects both peers from unbounded buffering
MAX_FRAME_BYTES = 1 << 20

#: frame prefix: body length, crc32(body)
_PREFIX = struct.Struct(">II")
#: bytes before the body: length prefix + body checksum
FRAME_OVERHEAD = _PREFIX.size


class Opcode(IntEnum):
    """Request opcodes (low range) and reply opcodes (high bit set)."""

    GET = 0x01
    PUT = 0x02
    DELETE = 0x03
    BATCH = 0x04
    STATS = 0x05

    VALUE = 0x81
    PUT_OK = 0x82
    DELETE_OK = 0x83
    STATS_OK = 0x84
    BATCH_OK = 0x85
    ERROR = 0xFF


class ErrorCode(IntEnum):
    """Error frame codes; the server never closes a connection silently."""

    BAD_REQUEST = 1
    BUSY = 2
    TIMEOUT = 3
    TOO_LARGE = 4
    INTERNAL = 5
    BAD_VERSION = 6
    UNAVAILABLE = 7
    """The op was in flight to a worker process that died; its outcome is
    unknown but the op is idempotent, so clients may safely retry."""


class ProtocolError(ReproError):
    """A frame could not be encoded or decoded."""


# ----------------------------------------------------------------------
# message types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GetRequest:
    key: int


@dataclass(frozen=True)
class PutRequest:
    key: int
    value: bytes


@dataclass(frozen=True)
class DeleteRequest:
    key: int


@dataclass(frozen=True)
class StatsRequest:
    pass


@dataclass(frozen=True)
class BatchRequest:
    ops: Tuple["SimpleRequest", ...]


SimpleRequest = Union[GetRequest, PutRequest, DeleteRequest, StatsRequest]
Request = Union[SimpleRequest, BatchRequest]


@dataclass(frozen=True)
class ValueReply:
    found: bool
    value: bytes = b""


@dataclass(frozen=True)
class PutReply:
    created: bool


@dataclass(frozen=True)
class DeleteReply:
    deleted: bool


@dataclass(frozen=True)
class StatsReply:
    stats: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ErrorReply:
    code: ErrorCode
    message: str = ""


@dataclass(frozen=True)
class BatchReply:
    replies: Tuple["SimpleReply", ...]


SimpleReply = Union[ValueReply, PutReply, DeleteReply, StatsReply, ErrorReply]
Reply = Union[SimpleReply, BatchReply]


# ----------------------------------------------------------------------
# shared replies
# ----------------------------------------------------------------------

#: the value-less replies, built once: the decoder answers these for
#: every PUT_OK, DELETE_OK and VALUE-not-found it reads, and the shard
#: executor (:mod:`repro.serve.executor`) for every such op it applies.
#: Frozen, so sharing them is safe.
NOT_FOUND = ValueReply(False)
PUT_CREATED = PutReply(True)
PUT_UPDATED = PutReply(False)
DELETED = DeleteReply(True)
NOT_DELETED = DeleteReply(False)


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------

_GET, _PUT, _DELETE, _BATCH, _STATS = (
    int(op) for op in (Opcode.GET, Opcode.PUT, Opcode.DELETE, Opcode.BATCH,
                       Opcode.STATS))
_VALUE, _PUT_OK, _DELETE_OK, _STATS_OK, _BATCH_OK, _ERROR = (
    int(op) for op in (Opcode.VALUE, Opcode.PUT_OK, Opcode.DELETE_OK,
                       Opcode.STATS_OK, Opcode.BATCH_OK, Opcode.ERROR))

_HEADER = bytes((MAGIC, VERSION))
#: one op's fixed part, each packed or unpacked in one call
_KEY_OP = struct.Struct(">BQ")  # GET / DELETE: opcode, key
_PUT_HEAD = struct.Struct(">BQI")  # PUT: opcode, key, value length
_VALUE_HEAD = struct.Struct(">BBI")  # VALUE: opcode, found, value length
_FLAG_OP = struct.Struct(">BB")  # PUT_OK / DELETE_OK: opcode, flag
_STATS_HEAD = struct.Struct(">BI")  # STATS_OK: opcode, JSON length
_ERROR_HEAD = struct.Struct(">BBH")  # ERROR: opcode, code, message length
_BATCH_HEAD = struct.Struct(">BBBH")  # magic, version, BATCH(_OK), count

_STATS_WIRE = bytes((_STATS,))
_PUT_CREATED_WIRE = _FLAG_OP.pack(_PUT_OK, 1)
_PUT_UPDATED_WIRE = _FLAG_OP.pack(_PUT_OK, 0)
_DELETED_WIRE = _FLAG_OP.pack(_DELETE_OK, 1)
_NOT_DELETED_WIRE = _FLAG_OP.pack(_DELETE_OK, 0)


def _frame(body: bytes) -> bytes:
    """Wrap a body with the length prefix and checksum."""
    return _PREFIX.pack(len(body), zlib.crc32(body)) + body


def encode_request_body(request: Request) -> bytes:
    """Encode a request into a frame body (no length/CRC prefix — what
    a worker ring slot carries, under the ring's own CRC)."""
    if type(request) is BatchRequest:
        ops = request.ops
        if len(ops) > 0xFFFF:
            raise ProtocolError("batch exceeds 65535 operations")
        parts = [_BATCH_HEAD.pack(MAGIC, VERSION, _BATCH, len(ops))]
    else:
        ops = (request,)
        parts = [_HEADER]
    append = parts.append
    for op in ops:
        kind = type(op)
        if kind is GetRequest:
            append(_KEY_OP.pack(_GET, op.key))
        elif kind is PutRequest:
            value = op.value
            append(_PUT_HEAD.pack(_PUT, op.key, len(value)))
            append(value)
        elif kind is DeleteRequest:
            append(_KEY_OP.pack(_DELETE, op.key))
        elif kind is StatsRequest:
            append(_STATS_WIRE)
        elif kind is BatchRequest:
            raise ProtocolError("batches cannot nest")
        else:
            raise ProtocolError(f"cannot encode request of type {kind.__name__}")
    return b"".join(parts)


def encode_request(request: Request) -> bytes:
    """Encode a request into a complete frame (length/CRC prefix included)."""
    return _frame(encode_request_body(request))


def encode_reply_body(reply: Reply) -> bytes:
    """Encode a reply into a frame body (no length/CRC prefix)."""
    if type(reply) is BatchReply:
        subs = reply.replies
        parts = [_BATCH_HEAD.pack(MAGIC, VERSION, _BATCH_OK, len(subs))]
    else:
        subs = (reply,)
        parts = [_HEADER]
    append = parts.append
    for sub in subs:
        kind = type(sub)
        if kind is ValueReply:
            value = sub.value
            append(_VALUE_HEAD.pack(_VALUE, 1 if sub.found else 0, len(value)))
            append(value)
        elif kind is PutReply:
            append(_PUT_CREATED_WIRE if sub.created else _PUT_UPDATED_WIRE)
        elif kind is DeleteReply:
            append(_DELETED_WIRE if sub.deleted else _NOT_DELETED_WIRE)
        elif kind is ErrorReply:
            message = sub.message.encode("utf-8")[:0xFFFF]
            append(_ERROR_HEAD.pack(_ERROR, int(sub.code), len(message)))
            append(message)
        elif kind is StatsReply:
            blob = json.dumps(sub.stats, sort_keys=True).encode("utf-8")
            append(_STATS_HEAD.pack(_STATS_OK, len(blob)))
            append(blob)
        elif kind is BatchReply:
            raise ProtocolError("batches cannot nest")
        else:
            raise ProtocolError(f"cannot encode reply of type {kind.__name__}")
    return b"".join(parts)


def encode_reply(reply: Reply) -> bytes:
    """Encode a reply into a complete frame (length/CRC prefix included)."""
    return _frame(encode_reply_body(reply))


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------
#
# Each decoder walks the body once at an integer offset.  Every read is
# bounds-checked before it is made, so a short body raises
# "truncated frame" and never a struct.error or IndexError.

_TRUNCATED = "truncated frame"


def _check_header(body: bytes, end: int) -> None:
    if end < 2:
        raise ProtocolError(_TRUNCATED)
    if body[0] != MAGIC:
        raise ProtocolError(f"bad magic byte {body[0]:#x}")
    if body[1] != VERSION:
        raise ProtocolError(f"unsupported protocol version {body[1]}")


def _batch_count(body: bytes, end: int) -> int:
    if end < _BATCH_HEAD.size:
        raise ProtocolError(_TRUNCATED)
    return _BATCH_HEAD.unpack_from(body)[3]


def _decode_requests(
    body: bytes, pos: int, count: int, end: int
) -> Tuple[List[SimpleRequest], int]:
    """``count`` sub-requests from ``pos``; returns them and the end offset."""
    ops: List[SimpleRequest] = []
    append = ops.append
    for _ in range(count):
        if pos >= end:
            raise ProtocolError(_TRUNCATED)
        opcode = body[pos]
        if opcode == _GET or opcode == _DELETE:
            if pos + 9 > end:  # _KEY_OP.size
                raise ProtocolError(_TRUNCATED)
            key = _KEY_OP.unpack_from(body, pos)[1]
            append(GetRequest(key) if opcode == _GET else DeleteRequest(key))
            pos += 9
        elif opcode == _PUT:
            start = pos + 13  # _PUT_HEAD.size
            if start > end:
                raise ProtocolError(_TRUNCATED)
            _, key, length = _PUT_HEAD.unpack_from(body, pos)
            pos = start + length
            if pos > end:
                raise ProtocolError(_TRUNCATED)
            append(PutRequest(key, body[start:pos]))
        elif opcode == _STATS:
            append(StatsRequest())
            pos += 1
        elif opcode == _BATCH:
            raise ProtocolError("batches cannot nest")
        else:
            raise ProtocolError(f"unknown request opcode {opcode:#x}")
    return ops, pos


def decode_request(body: bytes) -> Request:
    """Decode a frame body (without the length prefix) into a request."""
    end = len(body)
    _check_header(body, end)
    if end > 2 and body[2] == _BATCH:
        ops, pos = _decode_requests(
            body, _BATCH_HEAD.size, _batch_count(body, end), end)
        request: Request = BatchRequest(tuple(ops))
    else:
        ops, pos = _decode_requests(body, 2, 1, end)
        request = ops[0]
    if pos != end:
        raise ProtocolError("trailing bytes after request")
    return request


def _decode_blob(
    body: bytes, pos: int, end: int, head: struct.Struct
) -> Tuple[Tuple[int, ...], bytes, int]:
    """A length-prefixed blob whose ``head`` ends in its length; returns
    the unpacked head, the blob and the end offset."""
    start = pos + head.size
    if start > end:
        raise ProtocolError(_TRUNCATED)
    fields = head.unpack_from(body, pos)
    stop = start + fields[-1]
    if stop > end:
        raise ProtocolError(_TRUNCATED)
    return fields, body[start:stop], stop


def _decode_rare_reply(
    body: bytes, pos: int, end: int, opcode: int
) -> Tuple[SimpleReply, int]:
    """STATS_OK and ERROR, the replies that are not per-key answers."""
    if opcode == _STATS_OK:
        _, blob, pos = _decode_blob(body, pos, end, _STATS_HEAD)
        try:
            stats = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(f"malformed stats payload: {error}") from error
        if not isinstance(stats, dict):
            raise ProtocolError("stats payload must be a JSON object")
        return StatsReply(stats), pos
    if opcode == _ERROR:
        if pos + 2 > end:
            raise ProtocolError(_TRUNCATED)
        try:
            code = ErrorCode(body[pos + 1])
        except ValueError as error:
            raise ProtocolError(f"unknown error code {body[pos + 1]}") from error
        _, blob, pos = _decode_blob(body, pos, end, _ERROR_HEAD)
        try:
            message = blob.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"malformed error message: {error}") from error
        return ErrorReply(code, message), pos
    if opcode == _BATCH_OK:
        raise ProtocolError("batches cannot nest")
    raise ProtocolError(f"unknown reply opcode {opcode:#x}")


def _decode_replies(
    body: bytes, pos: int, count: int, end: int
) -> Tuple[List[SimpleReply], int]:
    """``count`` sub-replies from ``pos``; returns them and the end offset."""
    replies: List[SimpleReply] = []
    append = replies.append
    for _ in range(count):
        if pos >= end:
            raise ProtocolError(_TRUNCATED)
        opcode = body[pos]
        if opcode == _VALUE:
            start = pos + 6  # _VALUE_HEAD.size
            if start > end:
                raise ProtocolError(_TRUNCATED)
            _, found, length = _VALUE_HEAD.unpack_from(body, pos)
            pos = start + length
            if pos > end:
                raise ProtocolError(_TRUNCATED)
            if found or length:
                append(ValueReply(bool(found), body[start:pos]))
            else:
                append(NOT_FOUND)
        elif opcode == _PUT_OK or opcode == _DELETE_OK:
            if pos + 2 > end:  # _FLAG_OP.size
                raise ProtocolError(_TRUNCATED)
            if opcode == _PUT_OK:
                append(PUT_CREATED if body[pos + 1] else PUT_UPDATED)
            else:
                append(DELETED if body[pos + 1] else NOT_DELETED)
            pos += 2
        else:
            reply, pos = _decode_rare_reply(body, pos, end, opcode)
            append(reply)
    return replies, pos


def decode_reply(body: bytes) -> Reply:
    """Decode a frame body (without the length prefix) into a reply."""
    end = len(body)
    _check_header(body, end)
    if end > 2 and body[2] == _BATCH_OK:
        replies, pos = _decode_replies(
            body, _BATCH_HEAD.size, _batch_count(body, end), end)
        reply: Reply = BatchReply(tuple(replies))
    else:
        replies, pos = _decode_replies(body, 2, 1, end)
        reply = replies[0]
    if pos != end:
        raise ProtocolError("trailing bytes after reply")
    return reply


# ----------------------------------------------------------------------
# migration frames (worker IPC only): MIGRATE / FENCE / REPLICA
# ----------------------------------------------------------------------

#: migration-control opcodes — deliberately outside both the request and
#: reply opcode ranges, so a migration body fed to :func:`decode_request`
#: or :func:`decode_reply` fails as an unknown opcode instead of being
#: misread as client traffic
OP_MIGRATE = 0x30
OP_FENCE = 0x31
OP_REPLICA = 0x32

#: the live-resharding phase machine, in coordinator order.  ``snapshot``
#: /``delta``/``release`` run on the source worker, ``install``/``apply``
#: /``activate`` on the target; ``abort`` is best-effort cleanup after a
#: failed (uncommitted) migration.
MIGRATE_PHASES = (
    "snapshot", "install", "delta", "apply", "activate", "release", "abort",
)
FENCE_ACTIONS = ("fence", "ack")
REPLICA_ACTIONS = ("apply", "ack")


@dataclass(frozen=True)
class MigrateFrame:
    """One migration phase step for a shard, stamped with the routing
    epoch the coordinator observed when it issued the step."""

    phase: str
    shard: int
    epoch: int
    payload: bytes = b""


@dataclass(frozen=True)
class FenceFrame:
    """Write fence for a shard mid-migration.  FIFO application makes the
    acked fence a drain barrier: every write submitted to the worker
    before it has been applied by the time the ack is read."""

    action: str
    shard: int
    epoch: int


@dataclass(frozen=True)
class ReplicaFrame:
    """Read-replica maintenance: ``apply`` carries an encoded write
    request body to shadow onto the replica's copy of ``shard``."""

    action: str
    shard: int
    epoch: int
    payload: bytes = b""


MigrationFrame = Union[MigrateFrame, FenceFrame, ReplicaFrame]


#: magic, version, opcode, phase/action index, shard, epoch
_MIGRATION_HEAD = struct.Struct(">BBBBII")
_U32 = struct.Struct(">I")


def _migration_prefix(opcode: int, index: int, shard: int, epoch: int) -> bytes:
    if not 0 <= shard <= 0xFFFFFFFF:
        raise ProtocolError(f"shard {shard} does not fit in u32")
    if not 0 <= epoch <= 0xFFFFFFFF:
        raise ProtocolError(f"routing epoch {epoch} does not fit in u32")
    return _MIGRATION_HEAD.pack(MAGIC, VERSION, opcode, index, shard, epoch)


def encode_migrate(frame: MigrateFrame) -> bytes:
    """Encode a MIGRATE body (no length/CRC prefix — the IPC envelope
    adds those).  The routing epoch is written twice — header and
    trailer — so a frame whose epoch field was damaged in a way the
    transport CRC missed still fails closed at decode."""
    if frame.phase not in MIGRATE_PHASES:
        raise ProtocolError(f"unknown migration phase {frame.phase!r}")
    return (
        _migration_prefix(OP_MIGRATE, MIGRATE_PHASES.index(frame.phase),
                          frame.shard, frame.epoch)
        + _U32.pack(len(frame.payload))
        + frame.payload
        + _U32.pack(frame.epoch)
    )


def encode_fence(frame: FenceFrame) -> bytes:
    """Encode a FENCE body (epoch echoed in the trailer, as MIGRATE)."""
    if frame.action not in FENCE_ACTIONS:
        raise ProtocolError(f"unknown fence action {frame.action!r}")
    return (
        _migration_prefix(OP_FENCE, FENCE_ACTIONS.index(frame.action),
                          frame.shard, frame.epoch)
        + _U32.pack(frame.epoch)
    )


def encode_replica(frame: ReplicaFrame) -> bytes:
    """Encode a REPLICA body (epoch echoed in the trailer, as MIGRATE)."""
    if frame.action not in REPLICA_ACTIONS:
        raise ProtocolError(f"unknown replica action {frame.action!r}")
    return (
        _migration_prefix(OP_REPLICA, REPLICA_ACTIONS.index(frame.action),
                          frame.shard, frame.epoch)
        + _U32.pack(len(frame.payload))
        + frame.payload
        + _U32.pack(frame.epoch)
    )


#: per migration opcode: the frame class, its selector names, and the
#: words error messages use for the frame and its selector
_MIGRATION_KINDS = {
    OP_MIGRATE: (MigrateFrame, MIGRATE_PHASES, "migration", "phase"),
    OP_FENCE: (FenceFrame, FENCE_ACTIONS, "fence", "action"),
    OP_REPLICA: (ReplicaFrame, REPLICA_ACTIONS, "replica", "action"),
}


def decode_migration_frame(body: bytes) -> MigrationFrame:
    """Decode a MIGRATE/FENCE/REPLICA body; strict by construction.

    Everything suspicious is a :class:`ProtocolError`: a non-migration
    opcode, an out-of-range phase/action selector, a truncated payload,
    trailing bytes, and — the one migration adds over the base protocol —
    an *epoch confusion*: the trailer echo disagreeing with the header
    epoch.  A malformed migration frame must never decode into a
    different-but-valid routing instruction.
    """
    end = len(body)
    _check_header(body, end)
    pos = _MIGRATION_HEAD.size
    if pos > end:
        raise ProtocolError(_TRUNCATED)
    _, _, opcode, index, shard, epoch = _MIGRATION_HEAD.unpack_from(body)
    if opcode not in _MIGRATION_KINDS:
        raise ProtocolError(f"unknown migration opcode {opcode:#x}")
    kind, names, label, selector = _MIGRATION_KINDS[opcode]
    if index >= len(names):
        raise ProtocolError(f"unknown {label} {selector} index {index}")
    if kind is not FenceFrame:
        _, payload, pos = _decode_blob(body, pos, end, _U32)
    if pos + 4 > end:
        raise ProtocolError(_TRUNCATED)
    (echo,) = _U32.unpack_from(body, pos)
    if echo != epoch:
        raise ProtocolError(
            f"{label} frame epoch confusion: header epoch {epoch}, "
            f"trailer epoch {echo}"
        )
    if pos + 4 != end:
        raise ProtocolError("trailing bytes after migration frame")
    if kind is FenceFrame:
        return FenceFrame(names[index], shard, epoch)
    return kind(names[index], shard, epoch, payload)


# ----------------------------------------------------------------------
# zero-copy GET key runs (worker IPC only)
# ----------------------------------------------------------------------

#: count prefix of a key-run payload (little-endian, unlike the wire
#: protocol: the keys themselves are ``<u8`` so a NumPy view over the
#: transport buffer needs no byte swap)
KEY_RUN_COUNT = struct.Struct("<I")


def encode_key_run(keys) -> bytes:
    """Pack an all-GET run as ``u32 count + count × u64 keys`` (LE).

    This is the frontend→worker fast path for runs of GETs: the worker
    can wrap the payload in a ``numpy.frombuffer(..., dtype="<u8")`` view
    straight off the shared-memory ring — no per-op decode, no copy.
    """
    count = len(keys)
    return KEY_RUN_COUNT.pack(count) + struct.pack(f"<{count}Q", *keys)


def decode_key_run_header(payload) -> int:
    """Validate a key-run payload's shape and return the key count."""
    if len(payload) < KEY_RUN_COUNT.size:
        raise ProtocolError("key run shorter than its count prefix")
    (count,) = KEY_RUN_COUNT.unpack_from(payload, 0)
    if len(payload) != KEY_RUN_COUNT.size + 8 * count:
        raise ProtocolError(
            f"key run of {count} keys has {len(payload)} payload bytes"
        )
    return count


def decode_key_run(payload):
    """Unpack a key-run payload into a list of ints (pure-Python path)."""
    count = decode_key_run_header(payload)
    return list(struct.unpack_from(f"<{count}Q", payload, KEY_RUN_COUNT.size))


# ----------------------------------------------------------------------
# stream framing
# ----------------------------------------------------------------------


async def read_frame(
    reader: asyncio.StreamReader, max_frame_bytes: int = MAX_FRAME_BYTES
) -> bytes:
    """Read one frame body; returns ``b""`` on clean EOF before a frame.

    Verifies the body checksum carried in the frame prefix, so a frame
    whose payload was corrupted in flight surfaces as a
    :class:`ProtocolError` rather than silently bad value bytes.  Also
    raises :class:`ProtocolError` on a torn frame or one whose declared
    length exceeds ``max_frame_bytes`` (the oversize body is *not* read —
    the connection must be dropped, since framing is lost).
    """
    prefix = await reader.read(FRAME_OVERHEAD)
    if not prefix:
        return b""
    while len(prefix) < FRAME_OVERHEAD:
        more = await reader.read(FRAME_OVERHEAD - len(prefix))
        if not more:
            raise ProtocolError("connection closed mid length-prefix")
        prefix += more
    length, expected_crc = _PREFIX.unpack_from(prefix)
    if length < 3:
        raise ProtocolError(f"frame body too short ({length} bytes)")
    if length > max_frame_bytes:
        raise ProtocolError(f"frame of {length} bytes exceeds {max_frame_bytes}")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError("connection closed mid frame") from error
    if zlib.crc32(body) != expected_crc:
        raise ProtocolError("frame checksum mismatch")
    return body


async def write_frame(
    writer: asyncio.StreamWriter, frame: bytes, faults=None
) -> None:
    """Write one already-encoded frame and drain (applies backpressure).

    When a :class:`~repro.faults.FaultPlan` is given it is consulted per
    frame: a *drop* verdict severs the connection (raising
    :class:`ConnectionResetError`, so the caller's connection-teardown
    path runs and the peer sees EOF), and a *corrupt* verdict flips one
    byte inside the frame *body* — the length/CRC prefix is preserved so
    the peer reads a complete frame whose checksum no longer matches and
    fails it as a :class:`ProtocolError` instead of losing framing.
    """
    if faults is not None:
        verdict, body = faults.on_frame_send(frame[FRAME_OVERHEAD:])
        if verdict == "drop":
            writer.close()
            raise ConnectionResetError("injected connection drop")
        if verdict == "corrupt":
            frame = frame[:FRAME_OVERHEAD] + body
    writer.write(frame)
    await writer.drain()
