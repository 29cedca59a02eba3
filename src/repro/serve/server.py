"""Asyncio TCP server fronting the sharded log-structured McCuckoo store.

Concurrency model — the paper's one-writer-many-readers discipline
(§III.H), lifted to the request path:

* **Reads** (GET, STATS) execute inline in the connection handler, so any
  number of connections read concurrently.
* **Writes** (PUT, DELETE) are applied inline where they are admitted.
  The event loop is the one writer of every shard: a run of writes (one
  scalar request, or a batch's consecutive writes) is applied in op
  order with no await in between, so each shard's mutations happen in
  admission order.
* **One executor**: reads and writes reach the store only through a
  :class:`~repro.serve.executor.ShardExecutor`, the class each worker
  process of :class:`~repro.serve.workers.WorkerServer` runs too.  It applies
  the write, builds the GET replies, heals an injected crash and ticks
  maintenance once per shard run.  Injected stalls (``writer_delay``,
  ``write_stall``) hold the run's replies after it is applied.
* **Backpressure** is explicit: each shard accepts at most
  ``writer_queue_depth`` held *ops* (ops whose replies an injected stall
  holds) and answers overflow with a per-op BUSY error frame immediately
  instead of buffering without bound.  Likewise a connection over the
  limit is greeted with BUSY and closed, and a request that exceeds the
  per-request timeout gets a TIMEOUT frame.

Every reply is a frame; the server never drops a request silently.  The
only event that closes a connection from the server side is a framing
violation (bad length prefix or an oversized frame), after which byte
boundaries are unrecoverable.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from ..faults import FaultPlan
from ..maintenance import MaintenanceConfig
from .executor import ShardExecutor, build_store
from .protocol import (
    MAX_FRAME_BYTES,
    NOT_FOUND,
    BatchReply,
    BatchRequest,
    DeleteRequest,
    ErrorCode,
    ErrorReply,
    GetRequest,
    ProtocolError,
    PutRequest,
    Reply,
    Request,
    SimpleReply,
    SimpleRequest,
    StatsReply,
    StatsRequest,
    ValueReply,
    decode_request,
    encode_reply,
    read_frame,
    write_frame,
)
from .stats import ServeStats
from .store import ShardedLogStore


@dataclass
class ServerConfig:
    """Tunables for one :class:`McCuckooServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 → OS-assigned; read back from ``server.address``
    n_shards: int = 4
    expected_items: int = 4096
    seed: int = 0
    max_connections: int = 64
    max_frame_bytes: int = MAX_FRAME_BYTES
    writer_queue_depth: int = 512
    """Per-shard (and, in the worker server, per-worker) in-flight op
    bound past which new ops draw BUSY.  Deep enough that a default
    closed-loop client (8 connections x 32-op batches = 256 in flight)
    never self-rejects when every op lands on one shard group; shallow
    enough to bound a flooded queue's memory.  The single-process server
    applies writes where they are admitted, so only ops whose replies an
    injected stall holds count against it: with no fault plan and no
    ``write_stall`` its ``writer_queue_depth`` gauge reads 0."""
    request_timeout: float = 5.0
    max_batch_ops: int = 1024
    write_stall: float = 0.0
    """Artificial per-write delay in seconds — a fault-injection hook used
    by backpressure/timeout tests and chaos experiments; keep 0 in prod."""
    durable: bool = False
    """Keep per-shard serialized log images so crashed shards can be
    rebuilt in place (forced on when a fault plan is set)."""
    engine: str = "auto"
    """Batch-kernel backend for the shard indexes ("python", "numpy",
    "auto"); "auto" uses the NumPy engine when the extra is installed."""
    kick_policy: Optional[str] = None
    """Victim-selection policy for the shard indexes, by registry name
    (see :data:`repro.core.policies.POLICIES`).  ``"bubbling"`` sustains
    higher index loads before resizing; ``None`` keeps the library default
    (random-walk)."""
    fault_plan: Optional[FaultPlan] = None
    """Deterministic fault injection (:mod:`repro.faults`): consulted by
    the store at append boundaries, per shard run of writes, by the
    dispatch path per write, and by the wire layer per outgoing frame.
    ``None`` (the default) injects nothing."""
    maintenance: Optional[MaintenanceConfig] = None
    """Background compaction/checkpoint policy, ticked per shard by the
    shard executor between write runs (:mod:`repro.maintenance`).  ``None``
    disables maintenance entirely."""
    shm_ring_bytes: int = 1 << 22
    """Capacity of each shm ring's data region (one request + one
    response ring per worker).  Must comfortably exceed the largest IPC
    record (``max_frame_bytes``); records above half the capacity are
    rejected with TOO_LARGE."""
    replicas: int = 0
    """Per-shard read replicas (:class:`WorkerServer` only; 0 disables).
    With ``replicas=1`` every shard is shadowed on the next worker
    (``(owner + 1) % n_workers``): acknowledged writes are forwarded to
    the replica off the ack path (best-effort, lag surfaced as the
    ``replica_lag`` gauge), and a GET whose owner is down is served
    read-only from the replica instead of erroring UNAVAILABLE.  Writes
    to a dead owner still draw BUSY — the shard degrades to read-only,
    it does not fork a second writer.  Requires ``n_workers >= 2``."""


class McCuckooServer:
    """TCP front end over a :class:`ShardedLogStore`."""

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        store: Optional[ShardedLogStore] = None,
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        self._faults = self.config.fault_plan
        self.stats = ServeStats()
        self.store = store if store is not None else self._make_store()
        self.executor: Optional[ShardExecutor] = None
        if self.store is not None:
            self.executor = ShardExecutor(self.config, self.store, self.stats)
        self._server: Optional[asyncio.AbstractServer] = None
        self._queued_ops: List[int] = []
        self._handlers: Set[asyncio.Task] = set()  # one per open connection

    def _make_store(self) -> Optional[ShardedLogStore]:
        """Build the backing store; subclasses that host their shards out
        of process return ``None`` instead."""
        return build_store(self.config)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); valid after :meth:`start`."""
        if self._server is None:
            raise RuntimeError("server is not running")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> Tuple[str, int]:
        """Start the write backend and begin accepting connections."""
        if self._server is not None:
            raise RuntimeError("server already started")
        await self._start_backend()
        self._server = await asyncio.start_server(
            self._on_connection, host=self.config.host, port=self.config.port
        )
        return self.address

    async def stop(self) -> None:
        """Stop accepting, end every connection handler, then the backend.

        The handlers are cancelled before ``wait_closed()``, which since
        Python 3.12 waits for every connection to close."""
        if self._server is not None:
            self._server.close()
            for task in self._handlers:
                task.cancel()
            await self._server.wait_closed()
            self._server = None
        await self._stop_backend()

    async def _start_backend(self) -> None:
        """Set up whatever executes writes — here, the per-shard counts of
        held ops.  Subclasses swap in a different topology (worker
        processes)."""
        self._queued_ops = [0] * self.store.n_shards

    async def _stop_backend(self) -> None:
        self._queued_ops = []

    async def drain_writes(self) -> None:
        """Wait until every admitted write has been applied.

        Used by chaos/verification harnesses to reach a quiescent point.
        Here a write is applied when it is admitted, so there is nothing
        to wait for; the worker server waits for its workers' rings.
        """

    async def disarm_faults(self) -> None:
        """Stop fault injection everywhere this server executes ops.

        Async because subclasses with out-of-process backends must
        broadcast the disarm to their worker plan instances too.
        """
        if self._faults is not None:
            self._faults.disarm()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    async def __aenter__(self) -> "McCuckooServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # write path: applied where admitted
    # ------------------------------------------------------------------

    def _busy_reply(self, shard: int) -> ErrorReply:
        self.stats.busy_rejections += 1
        return ErrorReply(
            ErrorCode.BUSY,
            f"shard {shard} has {self.config.writer_queue_depth} "
            "writes in flight",
        )

    def _injected_busy(self) -> Optional[ErrorReply]:
        """Per-dispatch BUSY injection (the ``busy=P`` fault rule)."""
        if self._faults is not None and self._faults.should_reject_busy():
            self.stats.busy_rejections += 1
            self.stats.injected_busy += 1
            return ErrorReply(ErrorCode.BUSY, "injected busy")
        return None

    async def _write_run(
        self,
        run: List[Tuple[int, SimpleRequest]],
        replies: List[Optional[SimpleReply]],
        unacked: Optional[Set[int]] = None,
    ) -> None:
        """Apply a run of writes where it is admitted: group it by shard,
        routing each op once, BUSY the ops past a shard's free slots (per
        op), and apply the rest with one executor write walk per shard,
        ticking maintenance once per shard.  Nothing is awaited until
        every admitted op is applied; only then does an injected stall
        (``writer_delay``, ``write_stall``) hold the replies, its ops
        keeping their slots.  The op indices of writes that answered
        INTERNAL though applied (a crash after a persisted record) are
        added to ``unacked``."""
        by_shard: dict = {}
        shard_index = self.store.shard_index
        for index, op in run:
            by_shard.setdefault(shard_index(op.key), []).append((index, op))
        executor = self.executor
        queued = self._queued_ops
        held: List[Tuple[int, int]] = []
        stall = 0.0
        for shard, ops in by_shard.items():
            free = max(0, self.config.writer_queue_depth - queued[shard])
            for index, _ in ops[free:]:
                replies[index] = self._busy_reply(shard)
            admitted = ops[:free]
            if not admitted:
                continue
            delay = executor.writer_delay(shard)
            crashed: List[int] = []
            applied = executor.write_run(shard, [op for _, op in admitted], crashed)
            for (index, _), reply in zip(admitted, applied):
                replies[index] = reply
            if unacked is not None:
                unacked.update(admitted[at][0] for at in crashed)
            executor.maintain(shard)
            delay += self.config.write_stall * len(admitted)
            if delay:
                held.append((shard, len(admitted)))
                stall = max(stall, delay)
        if not held:
            return
        for shard, count in held:
            queued[shard] += count
        try:
            await asyncio.sleep(stall)
        finally:
            for shard, count in held:
                queued[shard] -= count

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    async def _handle_request(self, request: Request) -> Reply:
        if isinstance(request, StatsRequest):
            self.stats.stats_calls += 1
            return StatsReply(await self._stats_snapshot())
        if isinstance(request, BatchRequest):
            if len(request.ops) > self.config.max_batch_ops:
                return ErrorReply(
                    ErrorCode.TOO_LARGE,
                    f"batch of {len(request.ops)} ops exceeds "
                    f"{self.config.max_batch_ops}",
                )
            self.stats.batches += 1
            self.stats.batch_ops += len(request.ops)
            return await self._handle_batch(request)
        if isinstance(request, (PutRequest, DeleteRequest)):
            injected = self._injected_busy()
            if injected is not None:
                return injected
        return await self._handle_op(request)

    async def _handle_op(self, request: SimpleRequest) -> SimpleReply:
        """One GET, PUT or DELETE: a GET reads inline, a write is a run
        of one."""
        if isinstance(request, GetRequest):
            return self.executor.get(request.key)
        replies: List[Optional[SimpleReply]] = [None]
        await self._write_run([(0, request)], replies)
        return replies[0]  # type: ignore[return-value]

    async def _handle_batch(self, request: BatchRequest) -> BatchReply:
        """An ordered batch.  STATS ops are barriers that cut it into
        segments; each sees everything before it.  Each segment is served
        in one pass (see :meth:`_serve_segment`)."""
        ops = request.ops
        replies: List[Optional[SimpleReply]] = [None] * len(ops)
        start = 0
        for index, op in enumerate(ops):
            if isinstance(op, StatsRequest):
                await self._serve_segment(ops, start, index, replies)
                replies[index] = await self._handle_request(op)
                start = index + 1
        await self._serve_segment(ops, start, len(ops), replies)
        assert all(reply is not None for reply in replies)
        return BatchReply(tuple(replies))  # type: ignore[arg-type]

    async def _serve_segment(
        self,
        ops: Sequence[Request],
        start: int,
        stop: int,
        replies: List[Optional[SimpleReply]],
    ) -> None:
        """Serve ``ops[start:stop]``, GETs and writes only, as if one op
        at a time: all GETs in one walk against the state before the
        segment, then all writes with one write walk per shard, then each
        GET takes the latest earlier write to its key that was applied —
        its value after a PUT, NOT_FOUND after a DELETE.  A write that
        drew BUSY or INTERNAL is not applied and not forwarded, except a
        write whose injected crash came after its record was persisted:
        recovery replays it, so a later GET sees it as an op-by-op server
        would.  Nothing yields between the walks, so no other request
        sees the segment half served."""
        gets: List[int] = []
        writes: List[Tuple[int, SimpleRequest]] = []
        for index in range(start, stop):
            op = ops[index]
            if isinstance(op, GetRequest):
                gets.append(index)
                continue
            injected = self._injected_busy()
            if injected is not None:
                replies[index] = injected
            else:
                writes.append((index, op))  # type: ignore[arg-type]
        if gets:
            walked = self.executor.get_run([ops[index].key for index in gets])
            for index, reply in zip(gets, walked):
                replies[index] = reply
        if writes:
            unacked: Set[int] = set()
            await self._write_run(writes, replies, unacked)
            if gets:
                self._forward(ops, start, stop, replies, unacked)

    def _forward(
        self,
        ops: Sequence[Request],
        start: int,
        stop: int,
        replies: List[Optional[SimpleReply]],
        unacked: Set[int],
    ) -> None:
        """Give each GET of a served segment the latest earlier write to
        its key that was applied, counting a changed hit or miss."""
        latest: dict = {}
        stats = self.stats
        for index in range(start, stop):
            op = ops[index]
            reply = replies[index]
            if isinstance(op, GetRequest):
                forwarded = latest.get(op.key)
                if forwarded is None:
                    continue
                if isinstance(reply, ValueReply) and reply.found != forwarded.found:
                    change = 1 if forwarded.found else -1
                    stats.get_hits += change
                    stats.get_misses -= change
                replies[index] = forwarded
            elif not isinstance(reply, ErrorReply) or index in unacked:
                latest[op.key] = (NOT_FOUND if isinstance(op, DeleteRequest)
                                  else ValueReply(True, op.value))

    async def _stats_snapshot(self) -> dict:
        self.stats.gauges = {
            "connections_active": len(self._handlers),
            "writer_queue_depth": sum(self._queued_ops),
            **self.store.stats_snapshot(),
        }
        if self._faults is not None:
            self.stats.gauges.update({
                f"fault_{name}": count
                for name, count in self._faults.fired_counts().items()
            })
        return self.stats.snapshot()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if len(self._handlers) >= self.config.max_connections:
            self.stats.connections_rejected += 1
            try:
                await write_frame(
                    writer,
                    encode_reply(
                        ErrorReply(
                            ErrorCode.BUSY,
                            f"connection limit {self.config.max_connections} "
                            "reached",
                        )
                    ),
                )
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        task = asyncio.current_task()
        self._handlers.add(task)
        self.stats.connections_opened += 1
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, OSError, asyncio.CancelledError):
            # the peer went away, or stop() ended this handler: return
            # quietly, since a cancellation escaping here makes the
            # stream-protocol callback log a spurious traceback
            pass
        finally:
            self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                body = await read_frame(reader, self.config.max_frame_bytes)
            except ProtocolError as error:
                # framing is lost; answer once and hang up
                self.stats.bad_frames += 1
                await write_frame(
                    writer,
                    encode_reply(ErrorReply(ErrorCode.TOO_LARGE, str(error))),
                )
                return
            if not body:
                return  # clean EOF
            reply = await self._answer(body)
            # injected frame faults (drop/corrupt) apply to replies only:
            # a dropped reply models an ack lost in flight, which is what
            # client retry/idempotency must survive
            await write_frame(writer, encode_reply(reply), faults=self._faults)

    async def _answer(self, body: bytes) -> Reply:
        try:
            request = decode_request(body)
        except ProtocolError as error:
            self.stats.bad_frames += 1
            return ErrorReply(ErrorCode.BAD_REQUEST, str(error))
        self.stats.requests += 1
        # One timer per request instead of wait_for's Task per frame: on
        # expiry it cancels this handler, and only that cancel becomes
        # the TIMEOUT reply; an outside cancel (server.stop(), loop
        # teardown) propagates.
        task = asyncio.current_task()
        fired = False

        def expire() -> None:
            nonlocal fired
            fired = True
            task.cancel()

        timer = asyncio.get_running_loop().call_later(
            self.config.request_timeout, expire
        )
        try:
            return await self._handle_request(request)
        except asyncio.CancelledError:
            uncancel = getattr(task, "uncancel", None)  # Python 3.11+
            if not fired or (uncancel is not None and uncancel() > 0):
                raise
            self.stats.timeouts += 1
            return ErrorReply(
                ErrorCode.TIMEOUT,
                f"request exceeded {self.config.request_timeout}s",
            )
        except Exception as error:
            self.stats.internal_errors += 1
            return ErrorReply(ErrorCode.INTERNAL, str(error))
        finally:
            timer.cancel()
