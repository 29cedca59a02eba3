"""Shared-memory seqlock'd index images: the zero-hop read path.

PR 7 made the frontend→worker hop cheap; this module removes it for the
dominant operation.  Each worker publishes, per owned shard, a read-only
*image* of its McCuckoo index — bucket occupancy (keys), packed copy
counters, stash entries and value-log offsets — plus a mirror of the
shard's value-log byte image, into one ``multiprocessing.shared_memory``
segment per worker.  The frontend maps the same segment and answers
``GET`` requests (and all-GET batch runs) directly from the bytes,
without waking the worker process at all.

Coherence is a per-shard seqlock (see :mod:`repro.concurrency.seqlock`):
the writer bumps a u64 version to odd before touching a region and back
to even after, and a reader accepts a probe only if it observed an even,
unchanged version around the whole read.  A reader that cannot validate
falls back to the ring transport — the fallback ladder (region missing,
unservable, version churn, value-parse anomaly) is counted in the serve
stats, never silently absorbed.

Safety properties the serve layer builds on:

* **publish-before-ack** — a worker flushes every dirty shard's image
  before acking the mutation, so the image always covers all acked
  writes (read-your-writes holds for clients);
* **commit-point invalidation** — the frontend selects a region through
  its own routing table, which a migration flips atomically at the
  commit point; the source worker additionally marks its region
  unservable at release/abort;
* **torn values are impossible** — value bytes resolve through the
  region's log mirror with the durable record codec's length + CRC
  validation, and the mirror is rebuilt under the seqlock when the log's
  identity changes (compaction swap, crash recovery), so a half-swapped
  log can never be observed;
* **replicas are never published** — replica copies stay behind the ring
  transport, so an image can never serve a replica read staler than the
  owner (the ``replica_lag`` bound is trivially respected).

Regions describe their own geometry (``n_buckets``, ``d``, ``seed``), so
the frontend rebuilds the default hash family's functions and probes
exactly like the owning table would.  Stores built with a custom
:class:`~repro.hashing.HashFamily` are not publishable.
"""

from __future__ import annotations

import os
import struct
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .._numpy import numpy_or_none
from ..apps.kvstore import _KIND_BYTES, record_at
from ..core.counters import PackedArray
from ..core.errors import ConfigurationError
from ..hashing import DEFAULT_FAMILY
from .shm import shm_available

#: supported ``--read-path`` values (``auto`` resolves via the
#: ``REPRO_SERVE_READ_PATH`` environment variable, defaulting to ring)
READ_PATHS = ("auto", "ring", "shared")

IMAGE_MAGIC = 0x4D435349  # "MCSI"
IMAGE_LAYOUT_VERSION = 1

#: segment header: magic, layout version, n_shards, max_slots,
#: counter_bits, max_stash, log_capacity, region_stride
_SEG_HEAD = struct.Struct("<IIIIIIQQ")
_SEG_HEADER_BYTES = 64

#: region header: seqlock version, generation, servable, n_buckets, d,
#: seed (signed), n_slots, n_stash, log mirror length
_REGION_HEAD = struct.Struct("<QIIIIqIIQ")
_REGION_HEADER_BYTES = 64
_SERVABLE_OFFSET = 16  # byte offset of the servable flag inside a region

_STASH_ENTRY = struct.Struct("<QQ")
_U64 = struct.Struct("<Q")

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


def resolve_read_path(requested: str = "auto") -> str:
    """Resolve a ``--read-path`` value to a concrete ``"ring"``/``"shared"``.

    ``"auto"`` honours the ``REPRO_SERVE_READ_PATH`` environment variable
    (set by the CI read-path leg and the pytest ``--read-path`` option)
    and otherwise stays on the ring transport — the shared path is opt-in
    because its win depends on the read mix (see docs/performance.md).
    Requesting ``"shared"`` without working shared memory is a
    configuration error rather than a silent downgrade.
    """
    if requested not in READ_PATHS:
        raise ConfigurationError(
            f"unknown read path {requested!r}; expected one of {READ_PATHS}"
        )
    if requested == "ring":
        return "ring"
    if requested == "shared":
        if not shm_available():
            raise ConfigurationError(
                "read path 'shared' requested but multiprocessing."
                "shared_memory is unavailable on this platform; use "
                "--read-path ring"
            )
        return "shared"
    env = os.environ.get("REPRO_SERVE_READ_PATH", "").strip().lower()
    if env in ("ring", "shared"):
        return resolve_read_path(env)
    return "ring"


def _ceil64(value: int) -> int:
    return (value + 63) & ~63


class ImageLayout:
    """Geometry of one worker's image segment.

    All ``n_shards`` regions share one stride so a migration target can
    publish *any* shard it adopts into its own segment.  A shard whose
    live geometry outgrows the region (index resize past ``max_slots``,
    stash past ``max_stash``, log mirror past ``log_capacity``) is simply
    marked unservable and its reads fall back to the ring — capacity
    limits degrade throughput, never correctness.
    """

    def __init__(
        self,
        n_shards: int,
        max_slots: int,
        counter_bits: int = 2,
        max_stash: int = 64,
        log_capacity: int = 1 << 18,
    ) -> None:
        if n_shards <= 0 or max_slots <= 0 or log_capacity <= 0:
            raise ConfigurationError("image layout dimensions must be positive")
        if counter_bits not in (1, 2, 4, 8):
            raise ConfigurationError("counter_bits must be 1, 2, 4 or 8")
        self.n_shards = n_shards
        self.max_slots = max_slots
        self.counter_bits = counter_bits
        self.max_stash = max_stash
        self.log_capacity = log_capacity
        per_byte = 8 // counter_bits
        self.ctr_per_byte = per_byte
        self.ctr_shift = per_byte.bit_length() - 1
        self.ctr_mask = (1 << counter_bits) - 1
        self.keys_off = _REGION_HEADER_BYTES
        self.offsets_off = self.keys_off + 8 * max_slots
        self.counters_off = self.offsets_off + 8 * max_slots
        counter_bytes = _ceil64((max_slots * counter_bits + 7) // 8)
        self.stash_off = self.counters_off + counter_bytes
        self.log_off = self.stash_off + _STASH_ENTRY.size * max_stash
        self.region_stride = _ceil64(self.log_off + log_capacity)
        self.segment_bytes = _SEG_HEADER_BYTES + n_shards * self.region_stride

    @classmethod
    def for_store(
        cls,
        n_shards: int,
        expected_items: int,
        growth_headroom: int = 3,
        d: int = 3,
    ) -> "ImageLayout":
        """Size regions for a :class:`~repro.serve.store.ShardedLogStore`.

        Mirrors the store's own sizing rule (``per_shard // 2`` initial
        buckets, d=3) and leaves ``growth_headroom`` online doublings of
        room before a shard goes unservable.
        """
        per_shard = max(64, expected_items // max(1, n_shards))
        n_buckets = max(8, per_shard // 2)
        max_slots = d * (n_buckets << growth_headroom)
        log_capacity = max(1 << 18, 256 * per_shard)
        return cls(n_shards, max_slots, log_capacity=log_capacity)

    def region_offset(self, shard: int) -> int:
        if not 0 <= shard < self.n_shards:
            raise ConfigurationError(
                f"shard {shard} outside image layout of {self.n_shards} shards"
            )
        return _SEG_HEADER_BYTES + shard * self.region_stride

    def pack_header(self) -> bytes:
        return _SEG_HEAD.pack(
            IMAGE_MAGIC,
            IMAGE_LAYOUT_VERSION,
            self.n_shards,
            self.max_slots,
            self.counter_bits,
            self.max_stash,
            self.log_capacity,
            self.region_stride,
        )

    @classmethod
    def from_header(cls, buf) -> "ImageLayout":
        (magic, version, n_shards, max_slots, counter_bits, max_stash,
         log_capacity, stride) = _SEG_HEAD.unpack_from(buf, 0)
        if magic != IMAGE_MAGIC:
            raise ConfigurationError(f"bad image magic {magic:#x}")
        if version != IMAGE_LAYOUT_VERSION:
            raise ConfigurationError(f"unsupported image layout v{version}")
        layout = cls(
            n_shards,
            max_slots,
            counter_bits=counter_bits,
            max_stash=max_stash,
            log_capacity=log_capacity,
        )
        if layout.region_stride != stride:
            raise ConfigurationError("image layout stride mismatch")
        return layout


class SharedIndexImage:
    """Lifecycle owner of one worker's shared-memory image segment.

    Created by the worker pool *before* the worker process forks (the
    child inherits the mapping, exactly like the shm ring transport), and
    destroyed when the pool stops.  The segment survives worker restarts:
    a recovering worker republished its shards into the same regions.
    """

    def __init__(self, segment: Any, layout: ImageLayout, owner: bool) -> None:
        self._segment = segment
        self.layout = layout
        self._owner = owner

    @classmethod
    def create(cls, layout: ImageLayout) -> "SharedIndexImage":
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(
            create=True, size=layout.segment_bytes
        )
        segment.buf[: _SEG_HEAD.size] = layout.pack_header()
        return cls(segment, layout, owner=True)

    @classmethod
    def attach(cls, name: str) -> "SharedIndexImage":
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(name=name)
        return cls(segment, ImageLayout.from_header(segment.buf), owner=False)

    @property
    def name(self) -> str:
        return self._segment.name

    @property
    def buf(self):
        return self._segment.buf

    def close(self) -> None:
        try:
            self._segment.close()
        except (OSError, ValueError):  # pragma: no cover - platform quirks
            pass

    def destroy(self) -> None:
        self.close()
        if self._owner:
            try:
                self._segment.unlink()
            except (OSError, ValueError):  # pragma: no cover
                pass


class _ShardMirror:
    """Publisher-side bookkeeping for one shard's log mirror."""

    __slots__ = ("log_id", "mirror_len", "generation")

    def __init__(self, generation: int = 0) -> None:
        self.log_id = 0
        self.mirror_len = 0
        self.generation = generation


class ShardImagePublisher:
    """Worker-side writer: exports shard indexes into the image segment.

    ``publish`` is called with the shard's :class:`LogStructuredStore`
    after every mutation batch and *before* the batch is acked.  The
    whole write is bracketed by the seqlock version (odd while in flux).
    ``stall_hook(shard)`` — wired to the fault plan's ``stall_publisher``
    rule — may return a number of seconds to sleep *mid-write*, holding
    the region in its half-applied state so the audits can prove readers
    never accept it.
    """

    def __init__(
        self,
        image: SharedIndexImage,
        stall_hook: Optional[Callable[[int], Optional[float]]] = None,
    ) -> None:
        self._image = image
        self._buf = image.buf
        self._layout = image.layout
        self._stall = stall_hook
        self._mirrors: Dict[int, _ShardMirror] = {}
        self.publishes = 0

    def _mirror_for(self, shard: int, base: int) -> _ShardMirror:
        mirror = self._mirrors.get(shard)
        if mirror is None:
            # A fresh publisher incarnation (worker restart) starts past
            # whatever generation the previous one left in the region.
            old_gen = _REGION_HEAD.unpack_from(self._buf, base)[1]
            mirror = _ShardMirror(generation=old_gen + 1)
            self._mirrors[shard] = mirror
        return mirror

    def publish(self, shard: int, store: Any) -> None:
        """Export ``store``'s current index + log mirror for ``shard``."""
        layout = self._layout
        base = layout.region_offset(shard)
        buf = self._buf
        mirror = self._mirror_for(shard, base)

        index = store.index
        log = store._log
        image = log._image
        if mirror.log_id != id(log) or len(image) < mirror.mirror_len:
            # Log identity changed (compaction swap, crash recovery) or
            # shrank: the mirror is rebuilt from scratch under this
            # publish's seqlock bracket, and the generation bump tells
            # readers every cached assumption about the region is off.
            mirror.log_id = id(log)
            mirror.mirror_len = 0
            mirror.generation += 1
        # Index values are byte offsets into the log image and the mirror
        # is a copy of it, so a publish copies only the bytes appended
        # since the last one.
        overflow = len(image) > layout.log_capacity
        start = mirror.mirror_len
        fresh = b"" if overflow else image[start:]

        table = index.active_table
        n_slots = table.d * table.n_buckets
        stash = table._stash
        servable = (
            not index.resizing
            and not overflow
            and n_slots <= layout.max_slots
            and table._counters.bits == layout.counter_bits
            and (stash is None or len(stash) <= layout.max_stash)
            and _I64_MIN <= table._seed <= _I64_MAX
        )

        version = _U64.unpack_from(buf, base)[0]
        odd = version | 1  # re-enter an interrupted publish's odd version
        _U64.pack_into(buf, base, odd)
        # Log-mirror bytes are appended (or rewritten after a rebuild)
        # first: offsets published below must always point at valid bytes.
        log_base = base + layout.log_off + start
        buf[log_base: log_base + len(fresh)] = fresh
        mirror.mirror_len = start + len(fresh)
        if servable:
            self._write_index(base, table, mirror)
        n_stash = len(stash) if (servable and stash is not None) else 0
        _REGION_HEAD.pack_into(
            buf,
            base,
            odd,
            mirror.generation,
            1 if servable else 0,
            table.n_buckets,
            table.d,
            table._seed if servable else 0,
            n_slots,
            n_stash,
            mirror.mirror_len,
        )
        _U64.pack_into(buf, base, odd + 1)
        self.publishes += 1

    def _write_index(self, base: int, table: Any, mirror: _ShardMirror) -> None:
        buf = self._buf
        layout = self._layout
        n_slots = table.d * table.n_buckets
        log_len = mirror.mirror_len

        keys = [
            k if type(k) is int else 0  # noqa: E721 - exact-int hot path
            for k in table._keys
        ]
        packed = struct.pack(f"<{n_slots}Q", *keys)
        buf[base + layout.keys_off: base + layout.keys_off + len(packed)] = packed

        # The stall fault holds the region here — keys updated, offsets/
        # counters not — the exact half-applied state the seqlock must
        # keep readers from ever accepting.
        if self._stall is not None:
            seconds = self._stall_seconds(base)
            if seconds:
                time.sleep(seconds)

        offsets = [0] * n_slots
        values = table._values
        for slot in range(n_slots):
            value = values[slot]
            if type(value) is int and 0 <= value < log_len:  # noqa: E721
                offsets[slot] = value + 1
        packed = struct.pack(f"<{n_slots}Q", *offsets)
        off = base + layout.offsets_off
        buf[off: off + len(packed)] = packed

        counters = bytes(table._counters._data)
        off = base + layout.counters_off
        buf[off: off + len(counters)] = counters

        if table._stash is not None:
            off = base + layout.stash_off
            for key, value in table._stash.items():
                pointer = 0
                if type(value) is int and 0 <= value < log_len:  # noqa: E721
                    pointer = value + 1
                _STASH_ENTRY.pack_into(buf, off, key, pointer)
                off += _STASH_ENTRY.size

    def _stall_seconds(self, base: int) -> Optional[float]:
        # Resolved lazily so _write_index stays testable without a plan.
        shard = (base - _SEG_HEADER_BYTES) // self._layout.region_stride
        return self._stall(shard) if self._stall is not None else None

    def unpublish(self, shard: int) -> None:
        """Mark a region unservable (migration release/abort, shutdown)."""
        base = self._layout.region_offset(shard)
        buf = self._buf
        version = _U64.unpack_from(buf, base)[0]
        odd = version | 1
        _U64.pack_into(buf, base, odd)
        struct.pack_into("<I", buf, base + _SERVABLE_OFFSET, 0)
        _U64.pack_into(buf, base, odd + 1)

    def forget(self, shard: int) -> None:
        """Unpublish and drop mirror state (the shard left this worker)."""
        self.unpublish(shard)
        self._mirrors.pop(shard, None)


class SharedImageReader:
    """Frontend-side optimistic reader over one worker's image segment.

    Every public method returns ``None`` when the caller must fall back
    to the ring transport — a region that is missing, unservable, under
    too much version churn, or whose value bytes fail validation.  The
    cumulative ``retries`` counter feeds the ``shared_read_retries``
    stat.
    """

    #: batch size below which the vectorized counter screen is not worth
    #: its array-construction overhead
    _VECTOR_MIN = 16

    def __init__(self, image: SharedIndexImage, max_retries: int = 8) -> None:
        self._image = image
        self._buf = image.buf
        self._layout = image.layout
        self._max_retries = max_retries
        self._functions: Dict[Tuple[int, int], Any] = {}
        self.retries = 0

    @property
    def layout(self) -> ImageLayout:
        return self._layout

    def close(self) -> None:
        """Release this reader's view (the pool owns the segment)."""
        self._functions.clear()

    # -- seqlock read loop -------------------------------------------------

    def get(self, shard: int, key: int) -> Optional[Tuple[bool, bytes]]:
        """One GET.  ``(found, value)`` on success, ``None`` to fall back."""
        layout = self._layout
        if not 0 <= shard < layout.n_shards:
            return None
        base = layout.region_offset(shard)
        buf = self._buf
        spent = 0
        for _ in range(self._max_retries):
            before = _U64.unpack_from(buf, base)[0]
            if before & 1:
                spent += 1
                continue
            head = _REGION_HEAD.unpack_from(buf, base)
            if not head[2]:  # unservable: a stable fallback, not a retry
                if _U64.unpack_from(buf, base)[0] == before:
                    self.retries += spent
                    return None
                spent += 1
                continue
            status, payload = self._probe_key(base, head, key)
            if _U64.unpack_from(buf, base)[0] == before:
                self.retries += spent
                if status == "bad":
                    return None
                return (status == "hit", payload if payload is not None else b"")
            spent += 1
        self.retries += spent
        return None

    def get_run(
        self, shard: int, keys: Sequence[int]
    ) -> Optional[List[Tuple[bool, bytes]]]:
        """A whole all-GET run under one seqlock bracket (or ``None``)."""
        layout = self._layout
        if not 0 <= shard < layout.n_shards:
            return None
        base = layout.region_offset(shard)
        buf = self._buf
        spent = 0
        for _ in range(self._max_retries):
            before = _U64.unpack_from(buf, base)[0]
            if before & 1:
                spent += 1
                continue
            head = _REGION_HEAD.unpack_from(buf, base)
            if not head[2]:
                if _U64.unpack_from(buf, base)[0] == before:
                    self.retries += spent
                    return None
                spent += 1
                continue
            results = self._probe_run(base, head, keys)
            if _U64.unpack_from(buf, base)[0] == before:
                self.retries += spent
                return results
            spent += 1
        self.retries += spent
        return None

    # -- probing (only ever called under an even version snapshot) ---------

    def _functions_for(self, d: int, seed: int):
        cached = self._functions.get((d, seed))
        if cached is None:
            cached = DEFAULT_FAMILY.functions(d, seed)
            self._functions[(d, seed)] = cached
        return cached

    def _probe_key(
        self, base: int, head: Tuple[int, ...], key: int
    ) -> Tuple[str, Optional[bytes]]:
        _, _, _, n_buckets, d, seed, n_slots, n_stash, log_len = head
        layout = self._layout
        buf = self._buf
        if n_slots > layout.max_slots or n_buckets <= 0:
            return ("bad", None)
        functions = self._functions_for(d, seed)
        raw = DEFAULT_FAMILY.candidates(functions, key, n_buckets)
        counters_base = base + layout.counters_off
        bits = layout.counter_bits
        slot_mask = layout.ctr_per_byte - 1
        for table_index in range(d):
            slot = table_index * n_buckets + raw[table_index]
            if slot >= n_slots:
                return ("bad", None)
            counter = (
                buf[counters_base + (slot >> layout.ctr_shift)]
                >> ((slot & slot_mask) * bits)
            ) & layout.ctr_mask
            if not counter:
                continue
            stored = _U64.unpack_from(buf, base + layout.keys_off + 8 * slot)[0]
            if stored != key:
                continue
            pointer = _U64.unpack_from(
                buf, base + layout.offsets_off + 8 * slot
            )[0]
            if not pointer:
                return ("bad", None)
            return self._read_value(base, key, pointer - 1, log_len)
        stash_base = base + layout.stash_off
        for position in range(min(n_stash, layout.max_stash)):
            stored, pointer = _STASH_ENTRY.unpack_from(
                buf, stash_base + _STASH_ENTRY.size * position
            )
            if stored == key:
                if not pointer:
                    return ("bad", None)
                return self._read_value(base, key, pointer - 1, log_len)
        return ("miss", None)

    def _probe_run(
        self, base: int, head: Tuple[int, ...], keys: Sequence[int]
    ) -> Optional[List[Tuple[bool, bytes]]]:
        """Probe a run; ``None`` means fall back (parse anomaly)."""
        screen = self._counter_screen(base, head, keys)
        results: List[Tuple[bool, bytes]] = []
        for position, key in enumerate(keys):
            if screen is not None and not screen[position]:
                results.append((False, b""))
                continue
            status, payload = self._probe_key(base, head, key)
            if status == "bad":
                return None
            results.append(
                (status == "hit", payload if payload is not None else b"")
            )
        return results

    def _counter_screen(
        self, base: int, head: Tuple[int, ...], keys: Sequence[int]
    ) -> Optional[Any]:
        """Vectorized zero-counter screen over the shared counter bytes.

        Runs the existing :meth:`PackedArray.get_block_array` kernel over
        a view of the region's counter area: keys whose candidates are
        all zero-counter are proven absent from the main table (Theorem
        3's zero-counter rule) and skip per-key probing entirely.  Only
        used when the stash is empty — a stashed item is invisible to the
        counter screen.
        """
        np = numpy_or_none()
        _, _, _, n_buckets, d, seed, n_slots, n_stash, _ = head
        if np is None or n_stash or len(keys) < self._VECTOR_MIN:
            return None
        layout = self._layout
        functions = self._functions_for(d, seed)
        key_array = np.asarray(keys, dtype=np.uint64)
        matrix = DEFAULT_FAMILY.candidates_matrix(functions, key_array, n_buckets)
        matrix = matrix + np.arange(d, dtype=np.int64)[np.newaxis, :] * n_buckets
        counters = PackedArray(n_slots, bits=layout.counter_bits, mem=None)
        counter_bytes = (n_slots * layout.counter_bits + 7) // 8
        counters._data = self._buf[
            base + layout.counters_off: base + layout.counters_off + counter_bytes
        ]
        values = counters.get_block_array(matrix.reshape(-1))
        return values.reshape(matrix.shape).max(axis=1) > 0

    def _read_value(
        self, base: int, key: int, offset: int, log_len: int
    ) -> Tuple[str, Optional[bytes]]:
        """Parse one record from the log mirror with full validation: the
        record decode :meth:`ValueLog.read` uses, plus its CRC."""
        buf = self._buf
        log_base = base + self._layout.log_off
        if log_len > self._layout.log_capacity:
            return ("bad", None)
        try:
            stored, kind, start, stop = record_at(
                buf, log_base + offset, log_base + log_len, check_crc=True
            )
        except IndexError:
            return ("bad", None)
        if stored != key or kind != _KIND_BYTES:
            # A non-bytes kind (or a tombstone the index should never
            # point at) is not an error the reader can interpret — the
            # ring path handles it with full store semantics.
            return ("bad", None)
        return ("hit", bytes(buf[start:stop]))


__all__ = [
    "IMAGE_LAYOUT_VERSION",
    "IMAGE_MAGIC",
    "ImageLayout",
    "READ_PATHS",
    "ShardImagePublisher",
    "SharedImageReader",
    "SharedIndexImage",
    "resolve_read_path",
]
