"""Shared-memory SPSC ring transport between the frontend and workers.

This is the one IPC link of the multi-process server: a pair of
single-producer/single-consumer ring buffers per worker, backed by
:mod:`multiprocessing.shared_memory`, so a frame travels frontend →
worker as one ``memcpy`` into mapped memory, with no kernel round trip —
and batched GET key arrays never get copied at all: the worker hands the
ring slot's bytes straight to ``numpy.frombuffer`` as a ``uint64`` view
feeding the paged lookup (see
:meth:`repro.serve.store.ShardedLogStore.get_many`).

Layout of one ring (all integers little-endian)::

    offset  size  field
    ------  ----  -----------------------------------------------
    0       u32   magic ("MCR1")
    4       u32   capacity — data area size in bytes
    8       u64   head — consumer cursor (free-running byte count)
    16      u64   tail — producer cursor (free-running byte count)
    24      u16   epoch — current worker generation (see below)
    28      u32   stale_discarded — slots dropped by epoch filtering
    32..63        reserved
    64      ...   data area (capacity bytes)

Cursors free-run and are reduced ``% capacity`` on access, so
``tail - head`` is always the exact number of used bytes and the
full/empty ambiguity of wrapped indices never arises.  Each record
(slot) in the data area is::

    u32 len | u32 crc32(body) | u16 epoch | body          (10-byte header)

Records never straddle the end of the data area: when the contiguous
space to the end cannot hold the next record the producer writes a
``0xFFFFFFFF`` skip marker (when at least 4 bytes remain) and advances to
the start.  The consumer mirrors the rule, so a popped body is always one
contiguous ``memoryview`` — the property the zero-copy key path relies
on.  Publication order is: body and slot header first, the ``tail`` store
last; a consumer only reads below ``tail``, and the per-slot CRC turns
any torn or corrupted slot into a :class:`ProtocolError` instead of a
silently wrong frame (same contract as the wire framing).

The u16 **epoch** implements the supervisor's no-replay guarantee: every
slot is stamped with the producer's generation, the pool bumps the
generation on each worker restart and drains both rings first, and both
sides discard any slot whose epoch does not match the current one — a
restarted worker can never re-apply a request enqueued for its dead
predecessor.

Doorbells are plain pipes: the producer writes one byte (non-blocking —
a full pipe already guarantees a pending wakeup) and the consumer
``select``\\ s on the read end.  Pipe EOF doubles as the peer-death
signal: the frontend drains whatever a dead worker published, then fails
the rest of its in-flight ops.  A platform where
:func:`shm_available` is false cannot run the multi-process server.
"""

from __future__ import annotations

import errno
import os
import select
import struct
import zlib
from typing import Optional, Tuple, Union

from repro.core.errors import ReproError
from repro.serve.protocol import ProtocolError

__all__ = [
    "DEFAULT_RING_BYTES",
    "Doorbell",
    "RingFrameTooLarge",
    "RingFullError",
    "ShmRing",
    "ShmTransport",
    "ring_doorbell",
    "shm_available",
    "wait_doorbell",
]

#: Per-direction default ring capacity.  Comfortably above
#: ``MAX_FRAME_BYTES`` (1 MiB) so any single client frame fits.
DEFAULT_RING_BYTES = 1 << 22

_HEADER_BYTES = 64
_MAGIC = 0x3152434D  # "MCR1" little-endian
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_U16 = struct.Struct("<H")
_SLOT = struct.Struct("<IIH")  # len, crc32(body), epoch
SLOT_OVERHEAD = _SLOT.size
_SKIP = 0xFFFFFFFF
_MIN_CAPACITY = 4096

_OFF_MAGIC = 0
_OFF_CAPACITY = 4
_OFF_HEAD = 8
_OFF_TAIL = 16
_OFF_EPOCH = 24
_OFF_STALE = 28


class RingFullError(ReproError):
    """The ring has no room for this record right now (backpressure)."""


class RingFrameTooLarge(ReproError):
    """The record can never fit this ring, even when empty."""


# ----------------------------------------------------------------------
# platform probe


_SHM_PROBE: Optional[bool] = None


def shm_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` works here (cached probe)."""
    global _SHM_PROBE
    if _SHM_PROBE is None:
        try:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(create=True, size=64)
            try:
                segment.buf[0] = 0x5A
                ok = segment.buf[0] == 0x5A
            finally:
                segment.close()
                segment.unlink()
            _SHM_PROBE = bool(ok)
        except Exception:
            _SHM_PROBE = False
    return _SHM_PROBE



# ----------------------------------------------------------------------
# doorbell


def ring_doorbell(wfd: int) -> None:
    """Wake the fd's reader (non-blocking; a full pipe means a wakeup is
    already pending, and a vanished reader is reported by the data path)."""
    if wfd < 0:
        return
    try:
        os.write(wfd, b"\x01")
    except BlockingIOError:
        pass
    except OSError as exc:
        if exc.errno not in (errno.EPIPE, errno.EBADF):
            raise


def wait_doorbell(rfd: int, timeout: float) -> str:
    """Block on the fd until rung: ``"data"``, ``"eof"`` (the writer
    died) or ``"timeout"``."""
    ready, _, _ = select.select([rfd], [], [], timeout)
    if not ready:
        return "timeout"
    try:
        data = os.read(rfd, 4096)
    except OSError:
        return "eof"
    return "data" if data else "eof"


class Doorbell:
    """One-direction pipe wakeup: non-blocking writes, selectable reads.

    After ``fork`` both processes hold both ends; each side closes the end
    it does not use (:meth:`close_read` / :meth:`close_write`) so that the
    reader sees EOF when the writing process dies — the transport's
    peer-death signal.
    """

    def __init__(self) -> None:
        self.rfd, self.wfd = os.pipe()
        os.set_blocking(self.wfd, False)

    def ring(self) -> None:
        """Wake the reader.  A full pipe means a wakeup is already pending."""
        ring_doorbell(self.wfd)

    def wait(self, timeout: float) -> str:
        """Block until rung: ``"data"``, ``"eof"`` (writer died) or ``"timeout"``."""
        return wait_doorbell(self.rfd, timeout)

    def close_read(self) -> None:
        if self.rfd >= 0:
            os.close(self.rfd)
            self.rfd = -1

    def close_write(self) -> None:
        if self.wfd >= 0:
            os.close(self.wfd)
            self.wfd = -1

    def close(self) -> None:
        self.close_read()
        self.close_write()


# ----------------------------------------------------------------------
# ring


class ShmRing:
    """A single-producer/single-consumer byte ring over shared memory.

    One process pushes, the other pops; either side may additionally run
    the epoch-drain maintenance (:meth:`drain_all`) while the opposite
    side is known-dead.  All multi-byte header fields are read/written as
    single aligned 8-byte-or-smaller stores, which are atomic on every
    platform CPython's ``mmap`` supports.
    """

    def __init__(self, segment, capacity: int) -> None:
        self._segment = segment
        self._buf = segment.buf
        self.capacity = capacity
        self._pending_head: Optional[int] = None

    # -- construction ---------------------------------------------------

    @classmethod
    def create(cls, capacity: int) -> "ShmRing":
        from multiprocessing import shared_memory

        capacity = max(int(capacity), _MIN_CAPACITY)
        segment = shared_memory.SharedMemory(
            create=True, size=_HEADER_BYTES + capacity
        )
        ring = cls(segment, capacity)
        buf = ring._buf
        _U32.pack_into(buf, _OFF_MAGIC, _MAGIC)
        _U32.pack_into(buf, _OFF_CAPACITY, capacity)
        _U64.pack_into(buf, _OFF_HEAD, 0)
        _U64.pack_into(buf, _OFF_TAIL, 0)
        _U16.pack_into(buf, _OFF_EPOCH, 0)
        _U32.pack_into(buf, _OFF_STALE, 0)
        return ring

    def close(self) -> None:
        self._buf = None
        self._segment.close()

    def unlink(self) -> None:
        self._segment.unlink()

    # -- header accessors ----------------------------------------------

    @property
    def head(self) -> int:
        return _U64.unpack_from(self._buf, _OFF_HEAD)[0]

    @property
    def tail(self) -> int:
        return _U64.unpack_from(self._buf, _OFF_TAIL)[0]

    @property
    def epoch(self) -> int:
        return _U16.unpack_from(self._buf, _OFF_EPOCH)[0]

    def set_epoch(self, epoch: int) -> None:
        _U16.pack_into(self._buf, _OFF_EPOCH, epoch & 0xFFFF)

    @property
    def stale_discarded(self) -> int:
        return _U32.unpack_from(self._buf, _OFF_STALE)[0]

    def note_stale(self, count: int = 1) -> None:
        _U32.pack_into(
            self._buf, _OFF_STALE, (self.stale_discarded + count) & 0xFFFFFFFF
        )

    def used(self) -> int:
        return self.tail - self.head

    # -- producer -------------------------------------------------------

    def try_push(self, body: Union[bytes, memoryview], epoch: int) -> bool:
        """Append one record; ``False`` when the ring is currently full.

        Raises :class:`RingFrameTooLarge` when the record cannot fit even
        an empty ring (a permanent condition, unlike fullness).
        """
        body_len = len(body)
        need = SLOT_OVERHEAD + body_len
        # records at most half the capacity always fit an empty ring no
        # matter where the cursors sit (skip run + record <= capacity);
        # anything larger could stall forever at an awkward wrap offset
        if need > self.capacity // 2:
            raise RingFrameTooLarge(
                f"record of {body_len} bytes cannot fit a "
                f"{self.capacity}-byte ring"
            )
        buf = self._buf
        head = self.head
        tail = self.tail
        free = self.capacity - (tail - head)
        pos = tail % self.capacity
        contiguous = self.capacity - pos
        if contiguous < need:
            # skip to the start of the data area
            if contiguous + need > free:
                return False
            if contiguous >= 4:
                _U32.pack_into(buf, _HEADER_BYTES + pos, _SKIP)
            tail += contiguous
            pos = 0
        elif need > free:
            return False
        base = _HEADER_BYTES + pos
        buf[base + SLOT_OVERHEAD:base + SLOT_OVERHEAD + body_len] = body
        crc = zlib.crc32(body) & 0xFFFFFFFF
        _SLOT.pack_into(buf, base, body_len, crc, epoch & 0xFFFF)
        # the tail store publishes the record (consumer never reads past it)
        _U64.pack_into(buf, _OFF_TAIL, tail + need)
        return True

    # -- consumer -------------------------------------------------------

    def pop(self) -> Optional[Tuple[int, memoryview]]:
        """Peek the oldest record as ``(epoch, body-view)``, or ``None``.

        The returned view aliases ring memory and stays valid only until
        :meth:`advance` releases the slot back to the producer.  A CRC
        mismatch (torn or corrupted producer write) raises
        :class:`ProtocolError`.
        """
        if self._pending_head is not None:
            raise RuntimeError("pop() before advance() of the previous record")
        buf = self._buf
        while True:
            head = self.head
            if head == self.tail:
                return None
            pos = head % self.capacity
            contiguous = self.capacity - pos
            if contiguous >= 4:
                (length,) = _U32.unpack_from(buf, _HEADER_BYTES + pos)
                if length != _SKIP:
                    break
            # skip marker (explicit or the implicit <4-byte remnant)
            _U64.pack_into(buf, _OFF_HEAD, head + contiguous)
        if length > self.capacity or contiguous < SLOT_OVERHEAD + length:
            raise ProtocolError(
                f"corrupt ring slot: length {length} at offset {pos}"
            )
        base = _HEADER_BYTES + pos
        _, crc, epoch = _SLOT.unpack_from(buf, base)
        body = buf[base + SLOT_OVERHEAD:base + SLOT_OVERHEAD + length]
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            raise ProtocolError("ring slot CRC mismatch (torn producer write)")
        self._pending_head = head + SLOT_OVERHEAD + length
        return epoch, body

    def advance(self) -> None:
        """Release the record returned by the last :meth:`pop`."""
        if self._pending_head is None:
            return
        _U64.pack_into(self._buf, _OFF_HEAD, self._pending_head)
        self._pending_head = None

    def drain_all(self) -> int:
        """Discard every pending record; the count feeds the stale gauge.

        Used by the supervisor between worker generations, when the dead
        peer is known to be gone.  A torn slot (the peer died mid-write)
        just ends the walk — everything up to the tail is dropped either
        way.
        """
        self._pending_head = None
        count = 0
        while True:
            try:
                record = self.pop()
            except ProtocolError:
                count += 1
                break
            if record is None:
                _U64.pack_into(self._buf, _OFF_HEAD, self.head)
                return count
            count += 1
            self.advance()
        # CRC walk broke: reset the consumer cursor to the tail wholesale
        self._pending_head = None
        _U64.pack_into(self._buf, _OFF_HEAD, self.tail)
        return count


class ShmTransport:
    """The per-worker pair of rings: frontend→worker and worker→frontend."""

    def __init__(self, request: ShmRing, response: ShmRing) -> None:
        self.request = request
        self.response = response

    @classmethod
    def create(cls, ring_bytes: int = DEFAULT_RING_BYTES) -> "ShmTransport":
        request = ShmRing.create(ring_bytes)
        try:
            response = ShmRing.create(ring_bytes)
        except Exception:
            request.close()
            request.unlink()
            raise
        return cls(request, response)

    def set_epoch(self, epoch: int) -> None:
        self.request.set_epoch(epoch)
        self.response.set_epoch(epoch)

    def begin_generation(self, epoch: int) -> int:
        """Drain both rings and stamp the new epoch; returns slots dropped.

        Called by the supervisor after a worker death, before the
        replacement spawns: any request the dead worker never consumed
        (and any response the frontend never drained) is discarded here,
        and the epoch stamp guarantees anything that somehow survives is
        filtered on pop.
        """
        stale = self.request.drain_all() + self.response.drain_all()
        if stale:
            self.request.note_stale(stale)
        self.set_epoch(epoch)
        return stale

    def stale_discarded(self) -> int:
        return self.request.stale_discarded + self.response.stale_discarded

    def destroy(self) -> None:
        for ring in (self.request, self.response):
            try:
                ring.close()
            except Exception:
                pass
            try:
                ring.unlink()
            except Exception:
                pass
