"""Asyncio TCP server fronting the sharded log-structured McCuckoo store.

Concurrency model — the paper's one-writer-many-readers discipline
(§III.H), lifted to the request path:

* **Reads** (GET, STATS) execute inline in the connection handler, so any
  number of connections read concurrently.
* **Writes** (PUT, DELETE) are routed to the owning shard's single writer
  task through its queue.  One writer per shard means mutations on a shard
  are totally ordered; writers on different shards never touch shared
  state.  A queue item is a *run* of ops: scalar requests enqueue runs of
  one, while the BATCH path submits each shard's consecutive writes as a
  single run, so a 32-op batch costs one queue round-trip per shard
  instead of 32.
* **One executor**: reads and writes reach the store only through a
  :class:`~repro.serve.executor.ShardExecutor`, the class each worker
  process of :class:`~repro.serve.workers.WorkerServer` runs too.  It applies
  the write, builds the GET replies, heals an injected crash and ticks
  maintenance.  A writer task adds only the asyncio side: the injected
  ``writer_delay`` and ``write_stall`` are ``asyncio.sleep`` calls, and
  maintenance ticks once after each queued run.
* **Backpressure** is explicit: each shard accepts at most
  ``writer_queue_depth`` queued *ops* (tracked by a per-shard counter, not
  the queue length, since runs vary in size) and answers overflow with a
  per-op BUSY error frame immediately instead of buffering without bound.
  Likewise a connection over the limit is greeted with BUSY and closed,
  and a request that exceeds the per-request timeout gets a TIMEOUT frame.

Every reply is a frame; the server never drops a request silently.  The
only event that closes a connection from the server side is a framing
violation (bad length prefix or an oversized frame), after which byte
boundaries are unrecoverable.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..faults import FaultPlan
from ..maintenance import MaintenanceConfig
from .executor import ShardExecutor, build_store
from .protocol import (
    MAX_FRAME_BYTES,
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
    enough to bound a flooded queue's memory."""
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
    the store at append boundaries, by each writer loop per iteration, by
    the dispatch path per write, and by the wire layer per outgoing frame.
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
        self._write_queues: List[asyncio.Queue] = []
        self._queued_ops: List[int] = []
        self._writer_tasks: List[asyncio.Task] = []
        self._connections = 0

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
        """Bind, spawn the write backend, and begin accepting connections."""
        if self._server is not None:
            raise RuntimeError("server already started")
        await self._start_backend()
        self._server = await asyncio.start_server(
            self._on_connection, host=self.config.host, port=self.config.port
        )
        return self.address

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._stop_backend()

    async def _start_backend(self) -> None:
        """Spawn whatever executes writes — here, per-shard writer tasks.
        Subclasses swap in a different topology (worker processes)."""
        # Queues are unbounded; the writer_queue_depth bound is enforced in
        # ops via _queued_ops so a grouped run of N writes occupies N slots
        # while filling a single queue entry.
        self._write_queues = [asyncio.Queue() for _ in range(self.store.n_shards)]
        self._queued_ops = [0] * self.store.n_shards
        self._writer_tasks = [
            asyncio.create_task(self._writer_loop(shard))
            for shard in range(self.store.n_shards)
        ]

    async def _stop_backend(self) -> None:
        for task in self._writer_tasks:
            task.cancel()
        for task in self._writer_tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._writer_tasks = []
        self._write_queues = []
        self._queued_ops = []

    async def drain_writes(self) -> None:
        """Wait until every queued write run has been fully applied.

        Used by chaos/verification harnesses to reach a quiescent point:
        after this returns (and with no new requests arriving), reads see
        the final effect of every write that ever reached a writer queue.
        """
        for queue in self._write_queues:
            await queue.join()

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
    # write path: one writer task per shard
    # ------------------------------------------------------------------

    async def _writer_loop(self, shard: int) -> None:
        """Apply the shard's queued runs through the executor; this loop
        adds only the asyncio sleeps for ``writer_delay`` and
        ``write_stall``."""
        queue = self._write_queues[shard]
        executor = self.executor
        while True:
            run = await queue.get()
            # Slots free as soon as the run is picked up, matching the old
            # bounded-queue behaviour where qsize dropped at get().
            self._queued_ops[shard] -= len(run)
            delay = executor.writer_delay(shard)
            if delay:
                await asyncio.sleep(delay)
            try:
                for position, (request, future) in enumerate(run):
                    try:
                        if self.config.write_stall:
                            await asyncio.sleep(self.config.write_stall)
                        reply = executor.write(request)
                        if not future.done():
                            future.set_result(reply)
                    except asyncio.CancelledError:
                        for _, later in run[position:]:
                            if not later.done():
                                later.set_exception(asyncio.CancelledError())
                        raise
                executor.maintain(shard)
            finally:
                queue.task_done()

    def _busy_reply(self, shard: int) -> ErrorReply:
        self.stats.busy_rejections += 1
        return ErrorReply(
            ErrorCode.BUSY,
            f"shard {shard} writer queue full "
            f"({self.config.writer_queue_depth} pending)",
        )

    def _injected_busy(self) -> Optional[ErrorReply]:
        """Per-dispatch BUSY injection (the ``busy=P`` fault rule)."""
        if self._faults is not None and self._faults.should_reject_busy():
            self.stats.busy_rejections += 1
            self.stats.injected_busy += 1
            return ErrorReply(ErrorCode.BUSY, "injected busy")
        return None

    async def _submit_write(self, request: SimpleRequest) -> SimpleReply:
        shard = self.store.shard_index(request.key)
        if self._queued_ops[shard] >= self.config.writer_queue_depth:
            return self._busy_reply(shard)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queued_ops[shard] += 1
        self._write_queues[shard].put_nowait([(request, future)])
        return await future

    def _enqueue_write_run(
        self,
        run: List[Tuple[int, SimpleRequest]],
        replies: List[Optional[SimpleReply]],
        pending: List[Tuple[int, "asyncio.Future"]],
    ) -> None:
        """Submit a batch's consecutive writes: group by shard, enqueue each
        shard's portion as ONE queue item, BUSY the ops past the shard's
        free capacity (per-op, like the scalar path)."""
        by_shard: dict = {}
        for index, op in run:
            injected = self._injected_busy()
            if injected is not None:
                replies[index] = injected
                continue
            by_shard.setdefault(self.store.shard_index(op.key), []).append(
                (index, op)
            )
        loop = asyncio.get_running_loop()
        depth = self.config.writer_queue_depth
        for shard, ops in by_shard.items():
            free = max(0, depth - self._queued_ops[shard])
            item: List[Tuple[SimpleRequest, asyncio.Future]] = []
            for index, op in ops[:free]:
                future: asyncio.Future = loop.create_future()
                item.append((op, future))
                pending.append((index, future))
            for index, _ in ops[free:]:
                replies[index] = self._busy_reply(shard)
            if item:
                self._queued_ops[shard] += len(item)
                self._write_queues[shard].put_nowait(item)

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
        """One GET, PUT or DELETE: a GET reads inline, a write goes to
        its shard's writer queue."""
        if isinstance(request, GetRequest):
            return self.executor.get(request.key)
        return await self._submit_write(request)

    async def _handle_batch(self, request: BatchRequest) -> BatchReply:
        """Ordered batch, served as runs rather than op-by-op: consecutive
        writes are grouped per shard and enqueued as single writer items
        (overflow still draws per-op BUSY), and consecutive GETs are served
        together through the store's bulk lookup kernel.  A read first
        flushes and drains every earlier write in the batch — so
        read-your-writes holds within a batch and per-shard write order is
        preserved — and a write run is only enqueued after earlier reads
        have executed."""
        replies: List[Optional[SimpleReply]] = [None] * len(request.ops)
        pending: List[Tuple[int, asyncio.Future]] = []
        writes: List[Tuple[int, SimpleRequest]] = []
        reads: List[Tuple[int, GetRequest]] = []

        async def drain() -> None:
            for index, future in pending:
                replies[index] = await future
            pending.clear()

        def flush_reads() -> None:
            if reads:
                run = self.executor.get_run([op.key for _, op in reads])
                for (index, _), reply in zip(reads, run):
                    replies[index] = reply
                reads.clear()

        def flush_writes() -> None:
            if writes:
                self._enqueue_write_run(writes, replies, pending)
                writes.clear()

        for index, op in enumerate(request.ops):
            if isinstance(op, (PutRequest, DeleteRequest)):
                flush_reads()
                writes.append((index, op))
            elif isinstance(op, GetRequest):
                flush_writes()
                if pending:
                    await drain()
                reads.append((index, op))
            else:  # STATS: a barrier — everything before it must be visible
                flush_reads()
                flush_writes()
                if pending:
                    await drain()
                replies[index] = await self._handle_request(op)
        flush_reads()
        flush_writes()
        if pending:
            await drain()
        assert all(reply is not None for reply in replies)
        return BatchReply(tuple(replies))  # type: ignore[arg-type]

    async def _stats_snapshot(self) -> dict:
        self.stats.gauges = {
            "connections_active": self._connections,
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
        if self._connections >= self.config.max_connections:
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
        self._connections += 1
        self.stats.connections_opened += 1
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, OSError):
            pass  # peer went away; nothing to answer
        finally:
            self._connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # swallowing cancellation here is deliberate: the handler is
                # already tearing down, and letting it escape makes the
                # stream-protocol callback log a spurious traceback
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
