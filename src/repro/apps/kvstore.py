"""A SILT-style log-structured key-value store indexed by McCuckoo.

The paper motivates McCuckoo with memory-efficient key-value stores
(SILT [6], ChunkStash [5], MemC3 [9]): values live in an append-only log
on flash/disk, and a compact in-memory index maps each key to its log
offset.  The index is the hot, latency-critical structure — exactly the
role McCuckoo is designed for.

:class:`LogStructuredStore` composes the pieces this library already has:

* an append-only :class:`ValueLog` that is nothing but its byte image
  of self-describing (key, value) records;
* a :class:`ResizableMcCuckoo` index mapping key → the byte offset of
  its record in that image (growing online as the store fills), so a
  hit costs one decode of one record;
* compaction that copies only live records' bytes into a fresh image;
* crash recovery that restores a checkpointed index snapshot, when one
  validates, and scans and replays only the bytes after it, in order —
  the index is a pure function of its config and the log (compaction
  excepted).

Everything is in-memory but structured as the real system would be, with
all index traffic accounted through the usual :class:`MemoryModel`.
"""

from __future__ import annotations

import json
import pickle
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..core.config import DeletionMode, TableConfig
from ..core.engine import EngineLike
from ..core.errors import ReproError, TableFullError
from ..core.resize import ResizableMcCuckoo
from ..core.results import InsertOutcome
from ..core.snapshot import SNAPSHOT_VERSION, restore_resizable, snapshot_resizable
from ..faults import AppendFault, FaultPlan, InjectedCrash
from ..hashing import MASK64, Key, KeyLike, canonical_key
from ..memory.model import MemoryModel, Op, Tier

_TOMBSTONE = object()

#: The value of a delete in a write run (:meth:`LogStructuredStore.write_run`).
DELETE = _TOMBSTONE

# The write kernel's counter-read charge, resolved once (an Enum member
# lookup costs more than the charge itself).
_ON_CHIP, _READ = Tier.ON_CHIP, Op.READ

# ----------------------------------------------------------------------
# record codec
#
# A serialized record is ``u32 length`` followed by ``length`` bytes:
#   u64 key | u8 kind | u32 value-length | value bytes | u32 crc32
# where the CRC covers everything before it.  ``kind`` tags the value
# payload: raw bytes, UTF-8 string, JSON (other picklable-by-JSON values),
# or a tombstone (empty payload).  The length prefix lets recovery detect
# a torn tail; the CRC detects a torn write that happens to end on a
# record boundary, and bit rot.  Records are self-describing, so the log
# is nothing but its byte image and a record's address is the byte
# offset at which it starts.
# ----------------------------------------------------------------------

_REC_LEN = struct.Struct(">I")
_REC_HEAD = struct.Struct(">QBI")  # key, kind, value length
_REC_CRC = struct.Struct(">I")
_REC_PREFIX = struct.Struct(">IQBI")  # length prefix + header, one unpack
# record_at sits on every GET hit: its sizes and unpacker as plain globals
_PREFIX_SIZE = _REC_PREFIX.size
_FRAME_SIZE = _REC_HEAD.size + _REC_CRC.size
_unpack_prefix = _REC_PREFIX.unpack_from
_pack_prefix = _REC_PREFIX.pack
_pack_crc = _REC_CRC.pack

_KIND_BYTES = 0
_KIND_STR = 1
_KIND_JSON = 2
_KIND_TOMBSTONE = 3


class CorruptLogError(ReproError):
    """A durable log record failed its CRC away from the torn tail."""


def encode_record(key: Key, value: Any) -> bytes:
    """Serialize one record (``_TOMBSTONE`` sentinel encodes a delete):
    the length prefix and header in one pack, the CRC run over the header
    and then the payload, and one join."""
    if type(value) is bytes:  # every served value
        kind, payload = _KIND_BYTES, value
    elif value is _TOMBSTONE:
        kind, payload = _KIND_TOMBSTONE, b""
    elif isinstance(value, (bytes, bytearray, memoryview)):
        kind, payload = _KIND_BYTES, bytes(value)
    elif isinstance(value, str):
        kind, payload = _KIND_STR, value.encode("utf-8")
    else:
        kind, payload = _KIND_JSON, json.dumps(value, sort_keys=True).encode("utf-8")
    size = len(payload)
    head = _pack_prefix(size + _FRAME_SIZE, key, kind, size)
    crc = zlib.crc32(payload, zlib.crc32(head[_REC_LEN.size:]))
    return b"".join((head, payload, _pack_crc(crc)))


def record_at(
    buf: Any, offset: int, end: int, check_crc: bool = False
) -> Tuple[Key, int, int, int]:
    """Locate the record starting at byte ``offset`` of ``buf``, whose
    valid bytes end at ``end``: returns ``(key, kind, payload start,
    payload end)``.  Raises :class:`IndexError` when the record does not
    fit, its length prefix disagrees with its header, or — with
    ``check_crc``, for bytes another process may be rewriting — it fails
    its CRC.  A log in this process's memory needs no CRC check."""
    if not 0 <= offset <= end - _PREFIX_SIZE:
        raise IndexError(f"log offset {offset} out of range")
    length, key, kind, value_length = _unpack_prefix(buf, offset)
    start = offset + _PREFIX_SIZE
    stop = start + value_length
    if value_length + _FRAME_SIZE != length or stop + _REC_CRC.size > end:
        raise IndexError(f"no record at log offset {offset}")
    if check_crc and _REC_CRC.unpack_from(buf, stop)[0] != (
        zlib.crc32(buf[offset + _REC_LEN.size : stop]) & 0xFFFFFFFF
    ):
        raise IndexError(f"record at log offset {offset} failed its CRC")
    return key, kind, start, stop


def _decode_value(kind: int, payload: Any) -> Any:
    """The value a record's payload (any bytes-like object) encodes."""
    if kind == _KIND_BYTES:
        return bytes(payload)
    if kind == _KIND_STR:
        return str(payload, "utf-8")
    if kind == _KIND_JSON:
        return json.loads(str(payload, "utf-8"))
    assert kind == _KIND_TOMBSTONE
    return _TOMBSTONE


@dataclass
class RecoveryReport:
    """What :meth:`LogStructuredStore.recover_with_checkpoint` found and did.

    ``records_replayed`` is the recovered log's record count and
    ``bytes_scanned`` the bytes actually parsed.  When a checkpoint was
    restored the checkpoint/tail split is reported too: ``checkpoint_records``
    log records were covered by the restored index snapshot, only the
    bytes after it were scanned, and only ``tail_records_replayed``
    records (``tombstones_replayed`` of them tombstones) were replayed
    into the index.
    """

    records_replayed: int = 0
    tombstones_replayed: int = 0
    live_keys: int = 0
    bytes_scanned: int = 0
    bytes_truncated: int = 0
    torn_tail: bool = False
    checkpoint_loaded: bool = False
    checkpoint_records: int = 0
    tail_records_replayed: int = 0
    checkpoint_invalid: bool = False

    def render(self) -> str:
        base = (
            f"recovered {self.live_keys} live keys from "
            f"{self.records_replayed} records "
            f"({self.tombstones_replayed} tombstones); "
            f"scanned {self.bytes_scanned} bytes, "
            f"truncated {self.bytes_truncated} torn-tail bytes"
        )
        if self.checkpoint_loaded:
            base += (
                f"; checkpoint covered {self.checkpoint_records} records, "
                f"replayed a {self.tail_records_replayed}-record tail"
            )
        elif self.checkpoint_invalid:
            base += "; checkpoint missing/stale/torn -> full replay"
        return base


def scan_log_bytes(data: bytes) -> Tuple[List["LogRecord"], RecoveryReport]:
    """Parse a serialized log, truncating a torn tail instead of raising.

    A record that is cut short (not enough bytes for its declared length,
    or not even a full length prefix) or whose CRC fails *at the tail* is
    treated as a torn write: everything from its start onward is dropped
    and counted in ``bytes_truncated``.  A CRC failure with intact records
    after it is not a torn write and raises :class:`CorruptLogError`.
    Each record's ``size`` is its serialized footprint, so a record's
    offset in ``data`` is the sum of the sizes before it.
    """
    records: List[LogRecord] = []
    append = records.append
    report = RecoveryReport(bytes_scanned=len(data))
    end = len(data)
    pos = tombstones = 0
    # Fields are unpacked in place at their offsets: only the CRC'd span
    # and the payload are sliced out of ``data``.
    while pos < end:
        if pos + _REC_LEN.size > end:
            break  # torn length prefix
        (length,) = _REC_LEN.unpack_from(data, pos)
        stop = pos + _REC_LEN.size + length
        if stop > end:
            break  # torn record body
        if length < _REC_HEAD.size + _REC_CRC.size:
            break  # can't even hold a header + CRC: torn garbage tail
        crc_at = stop - _REC_CRC.size
        (crc,) = _REC_CRC.unpack_from(data, crc_at)
        if crc != (zlib.crc32(data[pos + _REC_LEN.size : crc_at]) & 0xFFFFFFFF):
            if stop < end:
                raise CorruptLogError(
                    f"record at byte {pos} failed CRC with "
                    f"{end - stop} bytes of log after it"
                )
            break  # tail record with bad CRC: torn write on the boundary
        _, key, kind, value_length = _unpack_prefix(data, pos)
        if _PREFIX_SIZE + value_length > _REC_LEN.size + length:
            break
        append(LogRecord(
            key,
            _decode_value(kind, data[pos + _PREFIX_SIZE : pos + _PREFIX_SIZE + value_length]),
            stop - pos,
        ))
        if kind == _KIND_TOMBSTONE:
            tombstones += 1
        pos = stop
    report.records_replayed = len(records)
    report.tombstones_replayed = tombstones
    report.bytes_truncated = end - pos
    report.torn_tail = report.bytes_truncated > 0
    return records, report


class LogRecord(NamedTuple):
    """One decoded record; ``value`` is ``_TOMBSTONE`` for deletions and
    ``size`` is the record's serialized footprint in bytes (length prefix
    included)."""

    key: Key
    value: Any
    size: int

    @property
    def is_tombstone(self) -> bool:
        return self.value is _TOMBSTONE


class ValueLog:
    """Append-only record log held as its serialized byte image.

    The image *is* the log: an offset is the byte position at which a
    record starts, and :meth:`read` decodes that one self-describing
    record.  ``len()`` is the record count.
    """

    _faults: Optional[FaultPlan] = None  # a plain log has no durability boundary
    _shard = 0

    def __init__(self) -> None:
        self._image = bytearray()
        self._count = 0

    def append(self, key: Key, value: Any) -> int:
        """Append a record; returns the byte offset it starts at."""
        offset = len(self._image)
        self._image += encode_record(key, value)
        self._count += 1
        return offset

    def append_tombstone(self, key: Key) -> int:
        return self.append(key, _TOMBSTONE)

    def extend(self, records: List[bytes], fault: Optional[AppendFault] = None) -> None:
        """Append encoded records with one image extend.  A plain log has
        no durability boundary, so ``fault`` is never set here."""
        self._image += b"".join(records)
        self._count += len(records)

    def copy_record(self, source: "ValueLog", offset: int) -> int:
        """Append ``source``'s record at ``offset`` byte for byte (no
        re-encode, no re-CRC); returns its offset here."""
        at = len(self._image)
        self._image += source._image[offset:offset + source.record_size(offset)]
        self._count += 1
        return at

    def read(self, offset: int) -> LogRecord:
        """Decode the record starting at byte ``offset`` (IndexError when
        no record fits there)."""
        image = self._image
        key, kind, start, stop = record_at(image, offset, len(image))
        return LogRecord(
            key, _decode_value(kind, image[start:stop]), stop + _REC_CRC.size - offset
        )

    def value_at(self, offset: int, key: Key) -> Any:
        """The value of ``key``'s live record at byte ``offset``, decoded
        straight from the image without building a :class:`LogRecord`."""
        image = self._image
        k, kind, start, stop = record_at(image, offset, len(image))
        assert k == key and kind != _KIND_TOMBSTONE
        return _decode_value(kind, image[start:stop])

    def record_size(self, offset: int) -> int:
        """Bytes of the record at ``offset``, read from its length prefix."""
        return _REC_LEN.size + _REC_LEN.unpack_from(self._image, offset)[0]

    def __len__(self) -> int:
        return self._count

    @property
    def image_bytes(self) -> bytes:
        """The serialized log as a crash would find it."""
        return bytes(self._image)

    @property
    def image_size(self) -> int:
        """Byte length of the image without copying it."""
        return len(self._image)

    @property
    def image_view(self) -> memoryview:
        """The image as a read-only view, without a copy.  The image
        cannot grow while the view is held (an append raises
        :class:`BufferError`), so release it before the next write."""
        return memoryview(self._image).toreadonly()


class DurableValueLog(ValueLog):
    """A :class:`ValueLog` whose appends cross a durability boundary.

    A :class:`FaultPlan` consulted at this append/fsync boundary can tear
    the write (persist only a prefix of the record) or crash right after
    it; either way :class:`~repro.faults.InjectedCrash` is raised and the
    owning store must be recovered from :attr:`image_bytes`, not used
    further.  An optional sink mirrors the image into a real file.
    """

    def __init__(
        self, faults: Optional[FaultPlan] = None, shard: int = 0
    ) -> None:
        super().__init__()
        self._faults = faults
        self._shard = shard
        self._sink = None  # optional real file backing the image
        self._synced = 0  # image bytes already flushed to the sink

    def attach_faults(self, faults: Optional[FaultPlan], shard: int) -> None:
        self._faults = faults
        self._shard = shard

    def attach_sink(self, sink, already_synced: bool = False) -> None:
        """Mirror the byte image into ``sink`` (a writable binary file).

        Needed when the log must survive the *process*, not just an
        in-memory crash simulation — worker processes attach their durable
        log file here so the supervisor can replay it after a hard kill.
        The current image is written out immediately; the caller owns
        truncation/positioning of the file.  ``already_synced=True`` skips
        that initial write — used after a compaction commit, where the new
        image was already written to a temp file and atomically renamed
        into place (re-writing through a truncating handle would reopen
        the very torn-file window the rename closed).
        """
        self._sink = sink
        self._synced = len(self._image) if already_synced else 0
        self._sync()

    def _sync(self) -> None:
        if self._sink is None or self._synced >= len(self._image):
            return
        self._sink.write(bytes(self._image[self._synced:]))
        self._sink.flush()
        self._synced = len(self._image)

    def append(self, key: Key, value: Any) -> int:
        record = encode_record(key, value)
        fault = self._faults.on_append(self._shard) if self._faults else None
        offset = len(self._image)
        self.extend([record], fault)
        return offset

    def extend(self, records: List[bytes], fault: Optional[AppendFault] = None) -> None:
        """Append encoded records with one image extend and one sink
        flush.  ``fault`` is what the plan answered for the last record
        (each earlier one was consulted clean): a torn write keeps only a
        prefix of it, a crash keeps all of it, and either raises
        :class:`InjectedCrash` after the flush."""
        # The sink flush sits in a finally so an injected torn/crash append
        # still persists exactly the bytes the image says survived — a real
        # crash tears the file the same way it tears the image.
        try:
            if fault is not None and fault.torn:
                record = records.pop()
                keep = fault.keep_bytes
                if keep is None:
                    keep = len(record) // 2
                self._image += b"".join(records)
                self._count += len(records)
                self._image += record[: max(0, min(keep, len(record) - 1))]
                raise InjectedCrash(
                    f"torn write after {len(self._image)} image bytes "
                    f"(shard {self._shard})"
                )
            self._image += b"".join(records)
            self._count += len(records)
            if fault is not None and fault.crash:
                crash = InjectedCrash(
                    f"crash after append #{self._count} (shard {self._shard})"
                )
                crash.persisted = True
                raise crash
        finally:
            self._sync()


# ----------------------------------------------------------------------
# checkpoint artifact codec
#
# A checkpoint is a self-validating single-slot artifact:
#   MAGIC | u32 length | pickle(payload) | u32 crc32(pickle bytes)
# The payload carries a full index snapshot (whose values are byte
# offsets into the log image) plus the log position it was taken at and
# ``prefix_crc`` — the CRC of the log image up to that position.  A
# checkpoint is always taken at an image end, so a prefix that still
# hashes to ``prefix_crc`` is the well-formed image it was then, and
# recovery scans only the bytes after it.  Compaction rewrites the image,
# so a stale checkpoint self-invalidates and recovery falls back to a full
# replay instead of restoring an index that points into the old layout.
# Version 1 artifacts held record ordinals where version 2 holds byte
# offsets; they are refused like any other unreadable checkpoint.
# ----------------------------------------------------------------------

CHECKPOINT_MAGIC = b"MCKP"
_CKPT_LEN = struct.Struct(">I")
_CKPT_CRC = struct.Struct(">I")
CHECKPOINT_VERSION = 2


def encode_checkpoint(payload: Dict[str, Any]) -> bytes:
    """Frame a checkpoint payload dict into a durable artifact."""
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return (
        CHECKPOINT_MAGIC
        + _CKPT_LEN.pack(len(blob))
        + blob
        + _CKPT_CRC.pack(zlib.crc32(blob) & 0xFFFFFFFF)
    )


def decode_checkpoint(data: Optional[bytes]) -> Optional[Dict[str, Any]]:
    """Parse a checkpoint artifact; ``None`` for missing/torn/corrupt.

    Never raises on bad input — an unreadable checkpoint simply means
    recovery falls back to a full log replay, exactly like no checkpoint.
    """
    if not data:
        return None
    header = len(CHECKPOINT_MAGIC) + _CKPT_LEN.size
    if len(data) < header + _CKPT_CRC.size:
        return None
    if data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        return None
    (length,) = _CKPT_LEN.unpack_from(data, len(CHECKPOINT_MAGIC))
    if header + length + _CKPT_CRC.size > len(data):
        return None  # torn mid-payload
    blob = data[header : header + length]
    (crc,) = _CKPT_CRC.unpack_from(data, header + length)
    if crc != (zlib.crc32(blob) & 0xFFFFFFFF):
        return None
    try:
        payload = pickle.loads(blob)
    except Exception:  # noqa: BLE001 — any unpickling failure = unusable
        return None
    if not isinstance(payload, dict) or payload.get("kind") != "checkpoint":
        return None
    if payload.get("version") != CHECKPOINT_VERSION:
        return None
    return payload


class LogStructuredStore:
    """Append-only KV store with a multi-copy cuckoo index.

    ``get`` costs one index lookup (mostly on-chip at moderate load) plus
    one log read; ``put`` appends and updates the index; ``delete`` appends
    a tombstone and drops the index entry.  ``garbage_ratio`` tracks dead
    log space; :meth:`compact` rewrites live records into a fresh log and
    rebuilds the index mapping in place.
    """

    def __init__(
        self,
        expected_items: int = 1024,
        seed: int = 0,
        mem: Optional[MemoryModel] = None,
        durable: bool = False,
        faults: Optional[FaultPlan] = None,
        shard_id: int = 0,
        engine: EngineLike = None,
        kick_policy: Optional[str] = None,
    ) -> None:
        if expected_items <= 0:
            raise ValueError("expected_items must be positive")
        self.mem = mem if mem is not None else MemoryModel()
        self._expected_items = expected_items
        self.config = TableConfig(
            n_buckets=max(8, expected_items // 2),  # d=3 -> ~66 % initial load
            d=3,
            seed=seed,
            grow_at=0.85,
            deletion_mode=DeletionMode.RESET,
            kick_policy=kick_policy,
            engine=engine,
        )
        """The index's config: recovery rebuilds the index from exactly this."""
        self._index = ResizableMcCuckoo(config=self.config, mem=self.mem)
        self._log = (
            DurableValueLog(faults=faults, shard=shard_id) if durable else ValueLog()
        )
        self._live = 0
        self._faults = faults
        self._shard_id = shard_id
        self._checkpoint: Optional[bytes] = None
        self._last_checkpoint_at: Optional[float] = None
        self._appends_total = 0
        self._appends_at_checkpoint = 0
        self.compactions = 0
        self.checkpoints = 0
        self.records_dropped = 0
        self.recovery_report: Optional[RecoveryReport] = None
        """Set on stores loaded by :meth:`recover_with_checkpoint`."""

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def put(self, key: KeyLike, value: Any) -> InsertOutcome:
        """Insert or update: a write run of one (see :meth:`write_run`)."""
        done: List[Any] = []
        self._apply_run([canonical_key(key)], [value], done)
        return done[0]

    def delete(self, key: KeyLike) -> bool:
        """Delete: a write run of one (see :meth:`write_run`)."""
        done: List[Any] = []
        self._apply_run([canonical_key(key)], [DELETE], done)
        return done[0]

    def write_run(self, ops: Sequence[Tuple[KeyLike, Any]], done: List[Any]) -> None:
        """Apply a run of writes in order: ``(key, value)`` pairs, with
        value :data:`DELETE` for a delete.

        Each applied op's outcome is appended to ``done``: the index's
        :class:`InsertOutcome` for a put, whether anything was deleted for
        a delete.  If an op raises, the ops before it stay applied and
        logged and the exception propagates, so ``len(done)`` says which
        op failed.  The run's index, log bytes, kicks, RNG draws and
        :class:`MemoryModel` totals equal those of one op at a time.
        """
        self._apply_run(
            [key & MASK64 if type(key) is int else canonical_key(key)
             for key, _ in ops],
            [value for _, value in ops],
            done,
        )

    def _apply_run(
        self,
        ks: List[Key],
        values: List[Any],
        done: List[Any],
        offsets: Optional[List[int]] = None,
    ) -> None:
        """The one write kernel: live writes (``offsets`` None) and log
        replay (the records are in the image already, at ``offsets``).

        The run is hashed once against the active index half (again for
        the rest of the run if a resize or rehash replaces it).  Each op
        then reads its counters fresh, since earlier ops and migration
        change them, and applies the update, insert or delete rule with
        its candidates in hand.  The index is updated before its record
        is staged, against the prospective offset, so a raising or
        failing index insert leaks no log record.  Live records are
        staged, the fault plan consulted per record, and the run's
        records land with one image extend and one sink flush; the
        counter reads are charged in one call, per counter.
        """
        index = self._index
        log = self._log
        replay = offsets is not None
        faults = None if replay else log._faults
        fault: Optional[AppendFault] = None
        staged: List[bytes] = []
        offset = len(log._image)
        table = functions = flat = None
        d = first = counter_reads = 0
        try:
            for i, k in enumerate(ks):
                active = index._active
                if active is not table or active._functions is not functions:
                    table, functions, d, first = active, active._functions, active.d, i
                    flat = table._candidate_ids(ks[i:])
                    if not isinstance(flat, list):
                        flat = flat.tolist()
                at = (i - first) * d
                cands = flat[at:at + d]
                vals = table._counters._unpack(cands)
                counter_reads += d
                value = values[i]
                if replay:
                    offset = offsets[i]
                if value is _TOMBSTONE:
                    outcome = index._delete_with(k, cands, vals).deleted
                    if not outcome:
                        done.append(False)
                        continue
                    self._live -= 1
                else:
                    outcome = index._update_with(k, offset, cands, vals)
                    if outcome is None:
                        outcome = index._insert_with(k, offset, cands)
                        if outcome.failed:
                            raise TableFullError(
                                f"index rejected key {k:#x}; store holds "
                                f"{self._live} items"
                            )
                        self._live += 1
                if not replay:
                    record = encode_record(k, value)
                    staged.append(record)
                    if faults is not None:
                        fault = faults.on_append(log._shard)
                        if fault is not None:
                            break  # op i is applied but never acknowledged
                    offset += len(record)
                done.append(outcome)
        finally:
            if counter_reads:
                self.mem.record(_ON_CHIP, _READ, "copy-counter", counter_reads)
            if staged:
                self._appends_total += len(staged) - (fault is not None)
                log.extend(staged, fault)

    def get(self, key: KeyLike, default: Any = None) -> Any:
        k = canonical_key(key)
        return self._read_values([k], [self._index.lookup(k)], default)[0]

    def get_many(self, keys: List[KeyLike], default: Any = None) -> List[Any]:
        """Batched :meth:`get`: one value (or ``default``) per key, in order.

        Index probes go through the batched lookup kernel; the log reads
        for the hits are charged in a single accounting call, so the
        off-chip totals equal a loop of scalar ``get`` calls.
        """
        ks = [key & MASK64 if type(key) is int else canonical_key(key) for key in keys]
        return self._read_values(ks, self._index.lookup_many(ks), default)

    def _read_values(self, ks: List[int], lookups: List[Any], default: Any) -> List[Any]:
        """The log-read tail of :meth:`get_many`: each hit's value is read
        with :meth:`ValueLog.value_at`, and the hits are charged in a
        single accounting call, so the off-chip totals equal a loop of
        scalar ``get`` calls."""
        value_at = self._log.value_at
        hits = 0
        out: List[Any] = []
        append = out.append
        for k, lookup in zip(ks, lookups):
            if lookup.found:
                hits += 1
                append(value_at(lookup.value, k))
            else:
                append(default)
        if hits:
            self.mem.offchip_read("value-log", hits)
        return out

    def __contains__(self, key: KeyLike) -> bool:
        return self._index.lookup(canonical_key(key)).found

    def __len__(self) -> int:
        return self._live

    def items(self) -> Iterator[Tuple[Key, Any]]:
        for key, offset in self._index.items():
            yield key, self._log.value_at(offset, key)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    @property
    def log_records(self) -> int:
        return len(self._log)

    @property
    def garbage_ratio(self) -> float:
        """Fraction of log records that are dead (superseded or tombstones)."""
        if not len(self._log):
            return 0.0
        return 1.0 - self._live / len(self._log)

    @property
    def log_size(self) -> int:
        """Serialized log size in bytes."""
        return self._log.image_size

    @property
    def dead_bytes(self) -> int:
        """Bytes of the log image held by dead records.

        Computed from the log, not tracked incrementally: live bytes are
        the summed sizes of the records the index still points at (read
        from their length prefixes), dead is the rest.  O(live) per call —
        this backs a stats gauge and the compaction policy, neither of
        which sits on the hot path.
        """
        live = sum(self._log.record_size(offset) for _, offset in self._index.items())
        return self._log.image_size - live

    @property
    def appends_since_checkpoint(self) -> int:
        """Log appends since the last successful checkpoint (or creation)."""
        return self._appends_total - self._appends_at_checkpoint

    def compact(self) -> int:
        """Rewrite live records into a fresh log; returns records dropped.

        Offsets change, so every surviving key's index entry is updated in
        place (all copies rewritten — an ordinary ``try_update``).  The
        actual rewrite lives in :class:`repro.maintenance.Compactor`
        (imported lazily to keep the package layering one-way), which also
        honours ``crash_during_compaction`` fault rules and keeps the old
        log image authoritative until the commit swap.
        """
        from ..maintenance.compactor import Compactor

        return Compactor().compact(self)

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------

    def checkpoint_artifact(self) -> bytes:
        """Encode a checkpoint of the index against the current log, and
        nothing else: the checkpoint slot is left alone and no fault rule
        is consulted (a migration source ships one of these)."""
        image = self._log._image
        return encode_checkpoint({
            "version": CHECKPOINT_VERSION,
            "kind": "checkpoint",
            "shard_id": self._shard_id,
            "log_position": len(image),
            "log_records": len(self._log),
            "live": self._live,
            "prefix_crc": zlib.crc32(image) & 0xFFFFFFFF,
            "index": snapshot_resizable(self._index),
        })

    def take_checkpoint(self) -> bytes:
        """Checkpoint the index against the current log.

        The artifact (see :meth:`checkpoint_artifact`) is stored on the
        store (the single checkpoint slot a crash would find — see
        :attr:`checkpoint_bytes`) and returned so a caller can also
        persist it to a real file.  A ``torn_checkpoint`` fault rule tears
        the slot and raises :class:`InjectedCrash`; the torn artifact
        fails CRC validation at recovery time and recovery falls back to
        a full log replay.
        """
        artifact = self.checkpoint_artifact()
        fault = (
            self._faults.on_checkpoint_write(self._shard_id)
            if self._faults is not None
            else None
        )
        if fault is not None and fault.torn:
            keep = fault.keep_bytes
            if keep is None:
                keep = len(artifact) // 2
            self._checkpoint = artifact[: max(0, min(keep, len(artifact) - 1))]
            raise InjectedCrash(
                f"torn checkpoint after {len(self._checkpoint)} of "
                f"{len(artifact)} bytes (shard {self._shard_id})"
            )
        self._checkpoint = artifact
        self.checkpoints += 1
        self._last_checkpoint_at = time.monotonic()
        self._appends_at_checkpoint = self._appends_total
        return artifact

    @property
    def checkpoint_bytes(self) -> Optional[bytes]:
        """The latest checkpoint artifact as a crash would find it (the
        slot holds a torn prefix after an injected torn checkpoint)."""
        return self._checkpoint

    def clear_checkpoint(self) -> None:
        self._checkpoint = None
        self._appends_at_checkpoint = self._appends_total

    @property
    def last_checkpoint_age_s(self) -> float:
        """Seconds since the last successful checkpoint; -1.0 if none."""
        if self._last_checkpoint_at is None:
            return -1.0
        return time.monotonic() - self._last_checkpoint_at

    @property
    def durable(self) -> bool:
        return isinstance(self._log, DurableValueLog)

    @property
    def shard_id(self) -> int:
        return self._shard_id

    def attach_log_sink(self, sink, already_synced: bool = False) -> None:
        """Mirror the durable log's byte image into a writable binary file
        (see :meth:`DurableValueLog.attach_sink`).  Raises on a non-durable
        store — there is no image to mirror."""
        if not isinstance(self._log, DurableValueLog):
            raise ValueError("attach_log_sink requires a durable store")
        self._log.attach_sink(sink, already_synced=already_synced)

    @property
    def log_bytes(self) -> bytes:
        """The serialized log — the crash image for a durable store."""
        return self._log.image_bytes

    @property
    def log_view(self) -> memoryview:
        """The serialized log without a copy (see :attr:`ValueLog.image_view`)."""
        return self._log.image_view

    def recover(self) -> "LogStructuredStore":
        """Crash recovery: a new store, built as this one was, loaded from
        this store's log (and its checkpoint, when that validates) by
        :meth:`recover_with_checkpoint`.  Returns the recovered store
        (self is untouched).
        """
        fresh = LogStructuredStore(
            self._expected_items,
            self.config.seed,
            durable=self.durable,
            shard_id=self._shard_id,
            engine=self.config.engine,
            kick_policy=self.config.kick_policy,
        )
        with self.log_view as image:
            fresh.recover_with_checkpoint(image, self._checkpoint)
        return fresh

    def recover_with_checkpoint(
        self, data: bytes, checkpoint: Optional[bytes] = None
    ) -> RecoveryReport:
        """Load a serialized (possibly torn) log image into this empty store.

        This is the one recovery path: shard restarts, worker restarts,
        migration installs and the offline CLI verbs all build an empty
        store the way the live one was built and call this.  A
        ``checkpoint`` is trusted only if it validates end to end: artifact
        CRC and versions intact, its ``log_position`` within the image, the
        image prefix up to there hashing to ``prefix_crc`` (compaction
        rewrites the image, so stale checkpoints self-invalidate), and the
        recorded index config equal to this store's.  A trusted
        checkpoint's index is restored bit-for-bit and only the bytes after
        its position are scanned and replayed; otherwise the whole image
        is, and ``checkpoint_invalid`` is flagged if an artifact was given.
        The scan truncates a torn tail (see :func:`scan_log_bytes`).
        Either way the log image is kept verbatim (minus a torn tail), so
        a later checkpoint still matches the same durable file.  Returns
        the report, also kept on ``recovery_report``.
        """
        if len(self._log):
            raise ValueError("recovery loads into an empty store")
        payload = decode_checkpoint(checkpoint)
        if payload is not None and not self._checkpoint_fits(payload, data):
            payload = None
        position = payload["log_position"] if payload is not None else 0
        records, report = scan_log_bytes(data[position:])
        report.checkpoint_invalid = checkpoint is not None and payload is None
        if payload is not None:
            self._index = restore_resizable(
                payload["index"], mem=self.mem, engine=self.config.engine
            )
            self._live = payload["live"]
            self._checkpoint = checkpoint
            self._last_checkpoint_at = time.monotonic()
            report.checkpoint_loaded = True
            report.checkpoint_records = payload["log_records"]
            report.tail_records_replayed = len(records)
            report.records_replayed += payload["log_records"]
        # A view, not a slice: the image is copied once, by _load.
        self._load(memoryview(data)[: len(data) - report.bytes_truncated],
                   position, records, report)
        return report

    def _checkpoint_fits(self, payload: Dict[str, Any], data: bytes) -> bool:
        position = payload["log_position"]
        index = payload["index"]
        return (
            0 <= position <= len(data)
            and zlib.crc32(memoryview(data)[:position]) & 0xFFFFFFFF
            == payload["prefix_crc"]
            and index.get("version") == SNAPSHOT_VERSION
            and index.get("config") == self.config.to_dict()
        )

    def _load(
        self,
        image: memoryview,
        position: int,
        records: List[LogRecord],
        report: RecoveryReport,
    ) -> None:
        """Install ``image`` as this store's log, then replay ``records``
        — the ones after byte ``position``, which a restored checkpoint
        does not cover — in log order, as one run through the write kernel
        live writes take (:meth:`_apply_run`).  The index then equals that
        of a store that never crashed; compaction is the one exception,
        since the index keeps history the compacted log no longer holds.
        """
        self._log._image = bytearray(image)
        self._log._count = report.records_replayed
        self._appends_total = report.records_replayed
        self._appends_at_checkpoint = report.checkpoint_records
        offsets: List[int] = []
        for record in records:
            offsets.append(position)
            position += record.size
        self._apply_run([record.key for record in records],
                        [record.value for record in records], [], offsets)
        report.live_keys = self._live
        self.recovery_report = report

    @property
    def index(self) -> ResizableMcCuckoo:
        return self._index
