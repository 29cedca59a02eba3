"""Multi-process shard-parallel serving: frontend, workers, supervisor.

:class:`WorkerServer` keeps the asyncio frontend of
:class:`~repro.serve.server.McCuckooServer` — connection accept, framing,
timeouts, backpressure — but executes every GET/PUT/DELETE in one of N
**shard worker processes**, each owning a disjoint shard group of the
keyspace (``shard % n_workers == worker``, see
:func:`repro.core.sharded.shards_of_worker`).  Each worker hosts its
group's :class:`~repro.serve.store.ShardedLogStore` slice — tables,
durable logs, and the executor that applies ops to them — so shards on
different workers execute truly in parallel across cores instead of
time-slicing one GIL.

Topology and transport::

    client ──TCP──▶ frontend (asyncio, routing, supervision)
                       │ per worker: SPSC shm ring pair + pipe doorbells,
                       │ CRC'd slots, pipelined
                       ├──▶ worker 0: shards {0, N, 2N, ...}
                       ├──▶ worker 1: shards {1, N+1, ...}
                       └──▶ ...

* **Transport**: one :class:`~repro.serve.shm.ShmTransport` ring pair
  per worker slot — one memcpy per frame, no kernel round trip.  Every
  ring slot carries a CRC'd body of ``u32 req_id + u8 kind + payload``.
  ``REQUEST`` payloads are ordinary protocol request/reply bodies (magic
  included), ``CONTROL`` payloads are JSON (handshake, stats, disarm,
  ping, stop), and ``BATCH_KEYS`` payloads are raw little-endian u64 key
  runs (all-GET batch runs) that the worker reads as a **zero-copy NumPy
  view** straight off the ring slot.  An answer too large for the
  response ring goes back as one TOO_LARGE error instead: the frontend
  gives it to every op of the run, and a migration phase fails on it.
  Platforms without ``multiprocessing.shared_memory`` cannot run the
  worker server; it refuses to start with a :class:`ConfigurationError`.
* **One GET path**: every GET, like every write, goes down the ring to
  the shard's owning worker, whose store runs the paper's lookup.
* **One executor**: a worker applies its ops through the
  :class:`~repro.serve.executor.ShardExecutor` the single-process server
  uses too.  Its FIFO loop adds only blocking sleeps for
  ``writer_delay`` and ``write_stall``, the ``kill_worker`` rule and its
  last gasp, the migration and replica phases, no maintenance for a
  shard mid-migration (else once per frame for each shard written), and
  re-publishing a shard's log file after the executor heals it.
* **Pipelining**: the frontend tags every in-flight op with a request id,
  so one worker link carries many outstanding ops; replies resolve
  futures by id.  A BATCH is forwarded as *one* IPC frame per worker run
  (the ops a worker owns, in batch order), mirroring the single-process
  server's one-queue-item-per-shard-run discipline.
* **Ordering**: a worker applies frames strictly FIFO, so per-worker —
  and therefore per-shard and per-key — operations retain the frontend's
  send order.  That is exactly the one-writer-per-shard total order the
  single-process server provides, which keeps the faultgen audit model
  sound in worker mode.
* **Supervision**: a worker that dies (e.g. the ``kill_worker`` fault
  rule's ``os._exit`` before an ack) fails its in-flight ops with
  ``UNAVAILABLE`` (outcome unknown; idempotent clients retry), and the
  supervisor forks a replacement that replays the worker's durable log
  files through :meth:`LogStructuredStore.recover_with_checkpoint` before
  re-registering — other workers' traffic never stops.  While the
  replacement boots, its shards answer BUSY.
* **Stats**: STATS merges the frontend's counters with every worker's
  (collected over CONTROL), plus per-worker gauges — ``worker<i>_up``,
  ``worker<i>_pending_ops``, ``worker<i>_ops_routed``,
  ``worker<i>_restarts`` — and the ``worker_restarts`` total.  Each
  worker answers one row of store gauges per shard, and the frontend
  merges them with :func:`~repro.serve.store.merge_gauge_rows`, as the
  single-process store does, so both servers report the same gauges.

Fault injection in worker mode re-parses the plan spec per process (the
frontend consults dispatch/frame sites; each worker consults its stores'
append sites, write delays, and the ``kill_worker`` site), so a count
rule like ``crash_after_appends=N`` triggers per worker process.  A
worker about to die from a kill rule pushes a last-gasp CONTROL event
carrying its counters onto its response ring, so fired-fault accounting
survives the kill; the doomed op's ack is still never sent.  The push
does not block, but the ring is the same shared memory the frontend
reads after the worker is gone: on the doorbell EOF the frontend drains
every slot the dead worker published, gasp included, before it fails
the worker's remaining in-flight ops.  A gasp is lost only if the
response ring is full at the instant of death, so ``worker_restarts``
stays the authoritative death count.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import multiprocessing
import os
import struct
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .._numpy import numpy_or_none
from ..core.errors import ConfigurationError, ReproError
from ..core.sharded import (
    RoutingTable, ShardRouter, shards_of_worker, worker_of_shard,
)
from ..faults import FaultPlan
from ..maintenance import MaintenanceDaemon
from .executor import ShardExecutor, build_store
from .protocol import (
    KEY_RUN_COUNT,
    BatchReply,
    BatchRequest,
    DeleteReply,
    DeleteRequest,
    ErrorCode,
    ErrorReply,
    FenceFrame,
    GetRequest,
    MigrateFrame,
    ProtocolError,
    PutReply,
    PutRequest,
    Reply,
    ReplicaFrame,
    Request,
    SimpleReply,
    StatsRequest,
    decode_key_run,
    decode_key_run_header,
    decode_migration_frame,
    decode_reply,
    decode_request,
    encode_fence,
    encode_key_run,
    encode_migrate,
    encode_replica,
    encode_reply_body,
    encode_request_body,
)
from .server import McCuckooServer, ServerConfig
from .shm import (
    RingFrameTooLarge,
    RingFullError,
    ShmTransport,
    ring_doorbell,
    shm_available,
    wait_doorbell,
)
from .stats import ServeStats
from .store import ShardedLogStore, merge_gauge_rows

#: head of every ring slot body: u32 req_id + u8 kind
_IPC_HEAD = struct.Struct(">IB")

KIND_REQUEST = 0
KIND_CONTROL = 1
#: an all-GET batch run as a raw little-endian u64 key array — the
#: zero-copy fast path (see :func:`repro.serve.protocol.encode_key_run`)
KIND_BATCH_KEYS = 2
#: a MIGRATE/FENCE/REPLICA body (:func:`repro.serve.protocol.
#: decode_migration_frame`) — live-resharding and replica traffic rides
#: the same CRC'd ring slots as every other frame
KIND_MIGRATE = 3

#: u64 log-byte marks inside migration payloads (source-log coordinates)
_MARK = struct.Struct(">Q")

#: req_id 0 is reserved for unsolicited worker → frontend CONTROL events
#: (the hello handshake and the dying last-gasp).
EVENT_ID = 0

#: worker counters the frontend folds into a merged STATS snapshot
_MERGED_COUNTERS = (
    "gets", "get_hits", "get_misses",
    "puts", "put_creates", "put_updates", "put_kicks", "put_stashed",
    "deletes", "delete_hits", "delete_misses",
    "injected_crashes", "shard_recoveries", "replica_applies",
    "internal_errors",
)


class WorkerDiedError(ReproError):
    """The worker process died with this op in flight; outcome unknown."""


class WorkerUnavailableError(ReproError):
    """The op's worker is down and its replacement is still booting."""


class MigrationError(ReproError):
    """A migration phase step failed on the worker side (the coordinator
    aborts or — post-commit — skips the best-effort cleanup step)."""


# ----------------------------------------------------------------------
# worker child process
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to build its shard slice.

    Carries the frontend's :class:`ServerConfig` itself, so a restarted
    worker rebuilds *identical* per-shard seeds and capacities — routing
    stability across restarts falls out of this, not of any state
    carried over the IPC link.
    """

    worker_id: int
    n_workers: int
    config: ServerConfig
    """The frontend's config with ``fault_plan=None`` — each worker
    re-parses ``fault_spec`` into its own plan — and ``durable`` forced
    on when the frontend has a fault plan."""
    fault_spec: Optional[str] = None
    fault_seed: int = 0
    armed: bool = True
    log_dir: Optional[str] = None
    epoch: int = 1
    """This incarnation's generation: every shm ring slot is stamped with
    it, and slots from other generations are discarded on pop — a
    restarted worker can never replay a dead predecessor's request.
    Distinct from the *routing* epoch stamped into migration frames."""
    owned_shards: Optional[Tuple[int, ...]] = None
    """The shard group this worker owns, per the frontend's routing table
    at spawn time.  ``None`` means the static round-robin assignment
    (routing epoch 0); after a live migration the pool passes the
    reassigned group explicitly, so a restarted worker re-hosts the
    shards it actually owns — including migrated-in ones."""
    replica_shards: Tuple[int, ...] = ()
    """Shards this worker hosts as read-only replicas (shadow copies fed
    by forwarded writes; never log-sinked — the owner's durable file
    stays the single on-disk authority)."""

    @property
    def shards(self) -> Tuple[int, ...]:
        if self.owned_shards is not None:
            return self.owned_shards
        return shards_of_worker(self.worker_id, self.config.n_shards,
                                self.n_workers)

    def log_path(self, shard: int) -> str:
        assert self.log_dir is not None
        return os.path.join(self.log_dir, f"shard-{shard}.log")

    def ckpt_path(self, shard: int) -> str:
        assert self.log_dir is not None
        return os.path.join(self.log_dir, f"shard-{shard}.ckpt")

    @property
    def spent_path(self) -> str:
        """Fault rules spent by earlier incarnations of this worker."""
        assert self.log_dir is not None
        return os.path.join(self.log_dir, f"worker-{self.worker_id}.spent")


def _read_file(path: str) -> Optional[bytes]:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return None


def _child_entry(
    spec: WorkerSpec, shm: ShmTransport, door_rfd: int, door_wfd: int,
    close_fds: Tuple[int, ...],
) -> None:
    # the fork duplicated the frontend's doorbell ends too; close them so
    # this process's death is observable as pipe EOF on both sides
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    code = 1
    try:
        channel = _ShmChildChannel(shm, spec.epoch, door_rfd, door_wfd)
        code = _ShardWorker(spec, channel).run()
    except BaseException:
        code = 1
    finally:
        # _exit: never run the frontend's inherited atexit/loop teardown
        os._exit(code)


class _ShmChildChannel:
    """Child side of the shm transport: pop requests, push responses.

    ``recv`` hands ``BATCH_KEYS`` payloads out as a **memoryview aliasing
    ring memory** — the caller must finish consuming it (the NumPy view
    feeds the lookup kernel synchronously) before ``done()`` releases the
    slot back to the producer.  ``REQUEST``/``CONTROL`` payloads are
    copied to ``bytes`` at recv time instead, because decoded values
    (e.g. ``PutRequest.value``) outlive the slot.
    """

    #: bound on a blocking response push; exceeding it means the frontend
    #: stopped draining (it is gone, or wedged beyond saving)
    SEND_DEADLINE_S = 10.0

    def __init__(self, shm: ShmTransport, epoch: int,
                 door_rfd: int, door_wfd: int) -> None:
        self._requests = shm.request
        self._responses = shm.response
        self._epoch = epoch
        self._door_rfd = door_rfd
        self._door_wfd = door_wfd
        self._ppid = os.getppid()
        self._hold = False

    def recv(self) -> Optional[Tuple[int, int, Any]]:
        assert not self._hold, "previous BATCH_KEYS slot was never released"
        while True:
            record = self._requests.pop()  # ProtocolError on a torn write
            if record is not None:
                epoch, view = record
                if epoch != self._epoch:
                    # another generation's slot: count it and never apply
                    self._requests.note_stale()
                    self._requests.advance()
                    continue
                req_id, kind = _IPC_HEAD.unpack_from(view, 0)
                payload: Any = view[_IPC_HEAD.size:]
                if kind == KIND_BATCH_KEYS:
                    self._hold = True  # zero-copy: released by done()
                else:
                    payload = bytes(payload)
                    self._requests.advance()
                return req_id, kind, payload
            state = wait_doorbell(self._door_rfd, 1.0)
            if state == "eof":
                return None  # frontend closed its doorbell end
            if state == "timeout" and os.getppid() != self._ppid:
                return None  # frontend died without closing the pipe

    def done(self) -> None:
        if self._hold:
            self._requests.advance()
            self._hold = False

    def send(self, req_id: int, kind: int, payload: bytes,
             block: bool = True) -> None:
        body = _IPC_HEAD.pack(req_id, kind) + payload
        deadline = time.monotonic() + self.SEND_DEADLINE_S
        while not self._responses.try_push(body, self._epoch):
            if not block:
                return  # best-effort (the dying last-gasp)
            if os.getppid() != self._ppid or time.monotonic() > deadline:
                raise BrokenPipeError(
                    "frontend is gone; response ring is not draining"
                )
            time.sleep(0.0005)
        ring_doorbell(self._door_wfd)


class _ShardWorker:
    """Synchronous FIFO apply loop owning one shard group (child side)."""

    def __init__(self, spec: WorkerSpec, channel) -> None:
        self.spec = spec
        self._channel = channel
        self.stats = ServeStats()
        self.faults = (
            FaultPlan.parse(spec.fault_spec, seed=spec.fault_seed)
            if spec.fault_spec else None
        )
        if self.faults is not None and not spec.armed:
            self.faults.disarm()
        if self.faults is not None and spec.log_dir is not None:
            spent = _read_file(spec.spent_path)
            if spent is not None:
                self.faults.mark_spent(json.loads(spent))
        self._sinks: Dict[int, Any] = {}
        self.recovered_shards: List[int] = []
        self.recovered_records = 0
        #: shards mid-migration away from this worker — maintenance is
        #: suspended for them so ``log_bytes`` stays append-only and the
        #: coordinator's delta marks remain valid byte offsets
        self._migrating_out: set = set()
        #: shard → {"buffer": bytearray, "checkpoint": bytes} for shards
        #: mid-migration *into* this worker (see ``_migrate_apply``)
        self._inbound: Dict[int, Dict[str, Any]] = {}
        owned = sorted(set(spec.shards) | set(spec.replica_shards))
        #: the frontend's config, carrying this process's own fault plan
        self.config = dataclasses.replace(spec.config, fault_plan=self.faults)
        self.store = build_store(self.config, owned)
        #: shards mirror into log files the next incarnation recovers from
        self._on_disk = on_disk = (self.store.durable
                                   and spec.log_dir is not None)
        self.executor = ShardExecutor(
            self.config, self.store, self.stats,
            on_recover=self._publish_log if on_disk else None,
            interrupt=self._maintenance_interrupt,
            checkpoint_writer=self._write_checkpoint_file if on_disk else None,
            # the daemon checkpoints again right after a compaction
            on_commit=(lambda store: self._publish_log(
                store.shard_id, drop_checkpoint=True)) if on_disk else None,
        )
        if on_disk:
            for shard in spec.shards:
                self._open_shard_log(shard)

    @property
    def daemon(self) -> Optional[MaintenanceDaemon]:
        return self.executor.daemon

    # ------------------------------------------------------------------
    # durable log files
    # ------------------------------------------------------------------

    def _open_shard_log(self, shard: int) -> None:
        """(Re)build one shard from its on-disk log, then mirror into it.

        A non-empty log file means a previous incarnation of this worker
        died; replay it through the recovery path — restoring the shard's
        checkpoint file first when one validates, so only the tail is
        replayed.  A checkpoint file that did not validate (torn, stale,
        or without log bytes) never will, so it is dropped.
        """
        data = _read_file(self.spec.log_path(shard))
        checkpoint = _read_file(self.spec.ckpt_path(shard))
        stale = checkpoint is not None
        if data:
            report = self.store.load_shard_from_bytes(
                shard, data, checkpoint=checkpoint
            )
            self.recovered_shards.append(shard)
            self.recovered_records += report.records_replayed
            self.stats.shard_recoveries += 1
            stale = stale and report.checkpoint_invalid
        self._publish_log(shard, drop_checkpoint=stale)

    def _publish_log(self, shard: int, drop_checkpoint: bool = False) -> None:
        """Make the shard's image its log file and mirror appends into it.

        ``os.replace`` publishes a temp file, so a kill at any point
        leaves the complete old file or the complete new one.  After a
        rewrite the old checkpoint file can never validate (its prefix
        CRC hashed the old image), so the caller drops it.
        """
        store = self.store.shard(shard)
        path = self.spec.log_path(shard)
        with open(path + ".tmp", "wb") as handle:
            handle.write(store.log_bytes)
        os.replace(path + ".tmp", path)
        if drop_checkpoint:
            try:
                os.unlink(self.spec.ckpt_path(shard))
            except OSError:
                pass
        self._close_sink(shard)
        self._sinks[shard] = sink = open(path, "ab")
        store.attach_log_sink(sink, already_synced=True)

    def _close_sink(self, shard: int) -> None:
        sink = self._sinks.pop(shard, None)
        if sink is not None:
            sink.close()

    # ------------------------------------------------------------------
    # maintenance (compaction + checkpoints), ticked after a frame's writes
    # ------------------------------------------------------------------

    def _last_gasp_exit(self, code: int) -> None:
        """Emit the dying event (best-effort) and hard-exit the process."""
        try:
            self._send_event({
                "event": "dying",
                "worker": self.spec.worker_id,
                "counters": self.stats.snapshot(),
                "faults": (self.faults.fired_counts()
                           if self.faults is not None else {}),
            }, block=False)
        except Exception:
            pass
        os._exit(code)

    def _maintenance_interrupt(self, site: str, shard: int) -> None:
        """Per-record compaction hook: honour ``kill_worker_during``.

        Dying here leaves the on-disk shard file untouched (compaction
        commits via atomic rename only after every record is copied), so
        the restarted worker recovers the exact pre-compaction state.
        """
        if self.faults is not None and self.faults.should_kill_maintenance(
                site, self.spec.worker_id):
            self._maintenance_kill()

    def _maintenance_kill(self) -> None:
        """Die inside maintenance, recording the spent strike for the
        replacement (see :meth:`FaultPlan.mark_spent`)."""
        if self.spec.log_dir is not None:
            with open(self.spec.spent_path, "w") as handle:
                json.dump(self.faults.spent_maintenance_kills(), handle)
        self._last_gasp_exit(24)

    def _write_checkpoint_file(self, shard: int, artifact: bytes) -> None:
        """Persist a checkpoint by overwriting the shard's single slot.

        Deliberately NOT write-temp-then-rename: the checkpoint file
        models an overwrite-in-place slot so that dying mid-write (the
        ``kill_worker_during=checkpoint`` rule) leaves a torn artifact on
        disk — which recovery must then reject by CRC and fall back to a
        full log replay.
        """
        half = len(artifact) // 2
        with open(self.spec.ckpt_path(shard), "wb") as handle:
            handle.write(artifact[:half])
            handle.flush()
            if self.faults is not None and self.faults.should_kill_maintenance(
                    "checkpoint", self.spec.worker_id):
                self._maintenance_kill()
            handle.write(artifact[half:])
            handle.flush()

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self) -> int:
        self._send_event({
            "event": "hello",
            "worker": self.spec.worker_id,
            "pid": os.getpid(),
            "shards": list(self.spec.shards),
            "replica_shards": list(self.spec.replica_shards),
            "recovered_shards": self.recovered_shards,
            "recovered_records": self.recovered_records,
        })
        while True:
            item = self._channel.recv()
            if item is None:
                return 0  # frontend went away
            req_id, kind, payload = item
            try:
                if kind == KIND_CONTROL:
                    if not self._handle_control(req_id, payload):
                        return 0
                    continue
                if kind == KIND_MIGRATE:
                    try:
                        answer = self._handle_migration(
                            decode_migration_frame(bytes(payload)))
                    except Exception as error:
                        # A failed phase step must never wedge the link:
                        # answer with an ErrorReply (KIND_REQUEST) that
                        # WorkerHandle.migrate surfaces as MigrationError.
                        self._send_reply(req_id, self.executor.internal(error))
                    else:
                        self._send(req_id, KIND_MIGRATE, answer)
                elif kind == KIND_BATCH_KEYS:
                    self._send_reply(req_id, self._apply_key_run(payload))
                else:
                    self._send_reply(req_id, self._apply(decode_request(payload)))
            finally:
                # releases a zero-copy BATCH_KEYS slot; no-op otherwise
                self._channel.done()

    def _send(self, req_id: int, kind: int, payload: bytes) -> None:
        """Push one answer; one too large for the response ring is
        answered TOO_LARGE instead (per op of a run, or a failed
        migration phase the coordinator aborts)."""
        try:
            self._channel.send(req_id, kind, payload)
        except RingFrameTooLarge as error:
            self._send_reply(req_id, ErrorReply(ErrorCode.TOO_LARGE, str(error)))

    def _send_reply(self, req_id: int, reply: Reply) -> None:
        self._send(req_id, KIND_REQUEST, encode_reply_body(reply))

    def _send_event(self, payload: dict, block: bool = True) -> None:
        self._channel.send(EVENT_ID, KIND_CONTROL,
                           json.dumps(payload).encode(), block=block)

    def _handle_control(self, req_id: int, payload: bytes) -> bool:
        """Returns False when the worker should exit (stop command)."""
        command = json.loads(payload.decode())
        cmd = command.get("cmd")
        if cmd == "stats":
            answer = {
                "counters": self.stats.snapshot(),
                "store": self.store.gauge_rows(),
                "faults": (self.faults.fired_counts()
                           if self.faults is not None else {}),
            }
        elif cmd == "disarm":
            if self.faults is not None:
                self.faults.disarm()
            answer = {"ok": True}
        elif cmd == "ping":
            # FIFO makes this a write barrier: by the time the pong is
            # read, every earlier frame on this link has been applied.
            answer = {"ok": True}
        elif cmd == "stop":
            self._send(req_id, KIND_CONTROL, b'{"ok": true}')
            return False
        else:
            answer = {"error": f"unknown control command {cmd!r}"}
        self._send(req_id, KIND_CONTROL, json.dumps(answer).encode())
        return True

    # ------------------------------------------------------------------
    # live shard migration (worker side)
    # ------------------------------------------------------------------

    def _migration_interrupt(self) -> None:
        """Honour ``kill_worker_during=migration`` at a phase boundary.

        Consulted once per migration frame (abort excluded), in the fixed
        coordinator phase order, so rule count N selects an exact crash
        point: source consults at snapshot=1, delta=2, fence=3, final
        delta=4, release=5; target at install=1, apply=2, final apply=3,
        activate=4.
        """
        if self.faults is not None and self.faults.should_kill_maintenance(
                "migration", self.spec.worker_id):
            self._last_gasp_exit(25)

    def _handle_migration(self, frame) -> bytes:
        if isinstance(frame, FenceFrame):
            if frame.action != "fence":
                raise MigrationError(f"unexpected fence action {frame.action!r}")
            self._migration_interrupt()
            # FIFO drain barrier: by the time this ack is read, every
            # write enqueued before the fence has been applied above.
            return encode_fence(FenceFrame("ack", frame.shard, frame.epoch))
        if isinstance(frame, ReplicaFrame):
            return self._handle_replica(frame)
        assert isinstance(frame, MigrateFrame)
        if frame.phase != "abort":
            self._migration_interrupt()
        handler = {
            "snapshot": self._migrate_snapshot,
            "install": self._migrate_install,
            "delta": self._migrate_delta,
            "apply": self._migrate_apply,
            "activate": self._migrate_activate,
            "release": self._migrate_release,
            "abort": self._migrate_abort,
        }[frame.phase]
        payload = handler(frame.shard, frame.payload)
        return encode_migrate(
            MigrateFrame(frame.phase, frame.shard, frame.epoch, payload))

    # -- source-side phases --------------------------------------------

    def _migrate_snapshot(self, shard: int, payload: bytes) -> bytes:
        """Freeze maintenance for the shard and ship its full log image,
        followed by a checkpoint of its index against that image.

        The returned mark is the image length in bytes; later ``delta``
        requests pass a mark back and receive only the records appended
        since (valid because maintenance — which would rewrite the log —
        is suspended until release/abort).  The checkpoint is what makes
        the target's index the source's: after a compaction the index
        keeps history the log no longer holds, so a replay of the image
        alone would lay it out differently.  Encoding it leaves the
        source's own checkpoint slot and fault plan untouched.
        """
        self._migrating_out.add(shard)
        store = self.store.shard(shard)
        data = store.log_bytes
        return _MARK.pack(len(data)) + data + store.checkpoint_artifact()

    def _migrate_delta(self, shard: int, payload: bytes) -> bytes:
        (mark,) = _MARK.unpack(payload[:_MARK.size])
        data = self.store.shard(shard).log_bytes
        if mark > len(data):
            raise MigrationError(
                f"delta mark {mark} beyond log end {len(data)} "
                f"(shard {shard} log was rewritten mid-migration)"
            )
        return _MARK.pack(len(data)) + data[mark:]

    def _migrate_release(self, shard: int, payload: bytes) -> bytes:
        """Post-commit: drop the shard (the target owns it now)."""
        self._migrating_out.discard(shard)
        self._close_sink(shard)
        self.store.release_shard(shard)
        return b""

    # -- target-side phases --------------------------------------------

    def _migrate_install(self, shard: int, payload: bytes) -> bytes:
        """Adopt the shard from the snapshot image and checkpoint, and
        prime delta replay.

        Recovery keeps the streamed image verbatim, so the target's log is
        byte-identical to the source's, and restores the source's index
        from the shipped checkpoint.  The checkpoint taken here lets each
        subsequent ``apply`` append the source tail (records are
        self-delimiting, so concatenation is a valid log) and replay only
        that tail.
        """
        (mark,) = _MARK.unpack_from(payload)
        data = payload[_MARK.size:_MARK.size + mark]
        checkpoint = payload[_MARK.size + mark:] or None
        self.store.adopt_shard(shard, data, checkpoint)
        target = self.store.shard(shard)
        artifact = target.take_checkpoint()
        self._inbound[shard] = {
            "buffer": bytearray(target.log_bytes),
            "checkpoint": artifact,
        }
        return b""

    def _migrate_apply(self, shard: int, payload: bytes) -> bytes:
        entry = self._inbound.get(shard)
        if entry is None:
            raise MigrationError(f"apply for shard {shard} without install")
        tail = payload[_MARK.size:]
        if tail:
            entry["buffer"].extend(tail)
            self.store.load_shard_from_bytes(
                shard, bytes(entry["buffer"]),
                checkpoint=entry["checkpoint"],
            )
            target = self.store.shard(shard)
            entry["checkpoint"] = target.take_checkpoint()
            entry["buffer"] = bytearray(target.log_bytes)
        return b""

    def _migrate_activate(self, shard: int, payload: bytes) -> bytes:
        """Post-commit: take over the shard's durable file and sink.  The
        file swap is atomic (:meth:`_publish_log`), so a kill mid-activate
        leaves either the source's complete image or the target's."""
        self._inbound.pop(shard, None)
        if self._on_disk:
            self._publish_log(shard, drop_checkpoint=True)
        return b""

    def _migrate_abort(self, shard: int, payload: bytes) -> bytes:
        """Roll back either role's in-progress state (idempotent)."""
        self._migrating_out.discard(shard)
        entry = self._inbound.pop(shard, None)
        if (entry is not None and shard in self.store.owned
                and shard not in self.spec.shards
                and shard not in self.spec.replica_shards):
            self._close_sink(shard)
            self.store.release_shard(shard)
        return b""

    # -- read replicas -------------------------------------------------

    def _handle_replica(self, frame) -> bytes:
        if frame.action != "apply":
            raise MigrationError(f"unexpected replica action {frame.action!r}")
        request = decode_request(frame.payload)
        if not isinstance(request, (PutRequest, DeleteRequest)):
            raise MigrationError(
                f"replica apply carries {type(request).__name__}")
        shard = self.store.shard_index(request.key)
        if shard not in self.store.owned:
            # lazily shadow a shard this worker was not spawned with
            # (e.g. routing moved the owner after spawn)
            self.store.adopt_shard(shard)
        if isinstance(request, PutRequest):
            self.store.put(request.key, request.value)
        else:
            self.store.delete(request.key)
        self.stats.replica_applies += 1
        return encode_replica(ReplicaFrame("ack", shard, frame.epoch))

    # ------------------------------------------------------------------
    # op application
    # ------------------------------------------------------------------

    def _apply(self, request: Request) -> Reply:
        """Apply one forwarded frame — a scalar op, or a batch run of the
        ops this worker owns — in order, then tick maintenance once for
        each shard the frame wrote."""
        batch = isinstance(request, BatchRequest)
        ops = request.ops if batch else (request,)
        replies: List[SimpleReply] = []
        for op in ops:
            if isinstance(op, GetRequest):
                replies.append(self.executor.get(op.key))
            elif isinstance(op, (PutRequest, DeleteRequest)):
                replies.append(self._apply_write(op))
            else:
                replies.append(ErrorReply(
                    ErrorCode.BAD_REQUEST,
                    f"worker cannot serve {type(op).__name__}",
                ))
        for shard in dict.fromkeys(
                self.store.shard_index(op.key) for op in ops
                if isinstance(op, (PutRequest, DeleteRequest))):
            # not mid-migration: compaction would rewrite the log and
            # invalidate the coordinator's delta marks
            if shard not in self._migrating_out and shard not in self._inbound:
                self.executor.maintain(shard)
        return BatchReply(tuple(replies)) if batch else replies[0]

    def _apply_key_run(self, payload) -> Reply:
        """Serve an all-GET run shipped as a raw u64 key array.

        With NumPy the payload — still sitting in the transport buffer —
        is wrapped as a ``uint64`` view and handed to the store's paged
        lookup directly (zero copies, zero per-op decode); without it the
        payload is unpacked into ints.  Replies are per-op, exactly as if
        the run had arrived as a BATCH of GETs.
        """
        np = numpy_or_none()
        if np is not None:
            keys = np.frombuffer(
                payload, dtype="<u8", count=decode_key_run_header(payload),
                offset=KEY_RUN_COUNT.size,
            )
        else:
            keys = decode_key_run(payload)
        return BatchReply(tuple(self.executor.get_run(keys)))

    def _apply_write(self, request) -> SimpleReply:
        shard = self.store.shard_index(request.key)
        delay = self.executor.writer_delay(shard)
        if delay:
            time.sleep(delay)
        if self.config.write_stall:
            time.sleep(self.config.write_stall)
        reply = self.executor.write(request)
        if isinstance(reply, ErrorReply):
            return reply  # no ack for kill_worker to withhold
        if self.faults is not None and self.faults.should_kill_worker(
                self.spec.worker_id):
            # kill_worker: the write IS applied and persisted, but the
            # whole process dies before the ack — the client sees
            # UNAVAILABLE (outcome unknown).  The last-gasp event keeps
            # fired/counter accounting observable without acking the op.
            self._last_gasp_exit(23)
        return reply


# ----------------------------------------------------------------------
# frontend side: handle, pool, server
# ----------------------------------------------------------------------


class WorkerHandle:
    """One live worker process plus its pipelined IPC link: an
    :class:`~repro.serve.shm.ShmTransport` ring pair plus doorbell pipes.
    Replies resolve their futures by request id."""

    def __init__(self, spec: WorkerSpec, on_death, on_event,
                 shm: ShmTransport) -> None:
        self.spec = spec
        self.worker_id = spec.worker_id
        self._on_death = on_death
        self._on_event = on_event
        self._process: Optional[multiprocessing.process.BaseProcess] = None
        self._shm = shm
        self._epoch = spec.epoch
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._door_req_w = -1
        self._door_resp_r = -1
        self._hello_future: Optional[asyncio.Future] = None
        self._link_closed = False
        self._pending: Dict[int, Tuple[asyncio.Future, int]] = {}
        self._next_id = 1
        self.pending_ops = 0
        self.ops_routed = 0
        self.alive = False
        self.hello: Dict[str, Any] = {}

    async def spawn(self) -> None:
        """Fork the worker with the ring pair inherited directly (no
        pickling: the fork start method shares the mapped segments) and
        fresh per-generation doorbell pipes."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        req_r, req_w = os.pipe()
        resp_r, resp_w = os.pipe()
        os.set_blocking(req_w, False)
        os.set_blocking(resp_r, False)
        context = multiprocessing.get_context("fork")
        process = context.Process(
            target=_child_entry,
            args=(self.spec, self._shm, req_r, resp_w, (req_w, resp_r)),
            daemon=True,
        )
        process.start()
        # close the child's ends so its death is observable as pipe EOF
        os.close(req_r)
        os.close(resp_w)
        self._process = process
        self._door_req_w = req_w
        self._door_resp_r = resp_r
        self._hello_future = loop.create_future()
        loop.add_reader(resp_r, self._on_shm_readable)
        try:
            self.hello = await asyncio.wait_for(self._hello_future,
                                                timeout=30.0)
        except BaseException:
            self._teardown_shm_link()
            if process.is_alive():
                process.terminate()
            raise
        self.alive = True

    # ------------------------------------------------------------------

    def _on_shm_readable(self) -> None:
        """Doorbell callback: drain the pipe, then the response ring.

        Pipe EOF (the worker died — its doorbell write end closed) still
        drains the ring first, so responses the worker published before
        dying are delivered rather than failed.
        """
        if self._link_closed:
            return
        eof = False
        try:
            while True:
                data = os.read(self._door_resp_r, 65536)
                if not data:
                    eof = True
                    break
                if len(data) < 65536:
                    break
        except BlockingIOError:
            pass
        except OSError:
            eof = True
        self._drain_responses()
        if eof:
            self._shm_link_down()

    def _drain_responses(self) -> None:
        ring = self._shm.response
        while True:
            try:
                record = ring.pop()
            except ProtocolError:
                # torn worker write: nothing past it is trustworthy
                ring.drain_all()
                return
            if record is None:
                return
            epoch, view = record
            if epoch != self._epoch:
                ring.note_stale()
                ring.advance()
                continue
            req_id, kind = _IPC_HEAD.unpack_from(view, 0)
            payload = bytes(view[_IPC_HEAD.size:])
            ring.advance()
            self._dispatch_frame(req_id, kind, payload)

    def _dispatch_frame(self, req_id: int, kind: int, payload: bytes) -> None:
        """Route one response slot: events, or reply-future resolution."""
        if req_id == EVENT_ID and kind == KIND_CONTROL:
            event = json.loads(payload.decode())
            if (self._hello_future is not None
                    and not self._hello_future.done()
                    and event.get("event") == "hello"):
                self._hello_future.set_result(event)
                return
            self._on_event(self, event)
            return
        entry = self._pending.pop(req_id, None)
        if entry is None:
            return  # reply to an op whose waiter timed out
        future, ops = entry
        self.pending_ops -= ops
        if not future.done():
            future.set_result((kind, payload))

    def _teardown_shm_link(self) -> None:
        if self._link_closed:
            return
        self._link_closed = True
        if self._loop is not None and self._door_resp_r >= 0:
            try:
                self._loop.remove_reader(self._door_resp_r)
            except Exception:
                pass
        for fd in (self._door_req_w, self._door_resp_r):
            if fd >= 0:
                try:
                    os.close(fd)
                except OSError:
                    pass
        self._door_req_w = self._door_resp_r = -1

    def _shm_link_down(self) -> None:
        """The worker is gone: deliver what it published, fail the rest."""
        if self._link_closed:
            return
        self._drain_responses()
        self._teardown_shm_link()
        if self._hello_future is not None and not self._hello_future.done():
            self._hello_future.set_exception(WorkerDiedError(
                f"worker {self.worker_id} died during the handshake"
            ))
        self._fail_pending()
        was_alive = self.alive
        self.alive = False
        if was_alive:
            self._on_death(self)

    def _fail_pending(self) -> None:
        error = WorkerDiedError(
            f"worker {self.worker_id} died with the op in flight"
        )
        for future, _ in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()
        self.pending_ops = 0

    # ------------------------------------------------------------------

    def _submit(self, kind: int, payload: bytes, ops: int) -> asyncio.Future:
        if not self.alive:
            raise WorkerDiedError(f"worker {self.worker_id} is down")
        req_id = self._next_id
        self._next_id += 1
        # push before any bookkeeping: on failure the op was simply
        # never submitted (RingFullError surfaces as per-op BUSY)
        if not self._shm.request.try_push(
                _IPC_HEAD.pack(req_id, kind) + payload, self._epoch):
            raise RingFullError(
                f"worker {self.worker_id} request ring is full"
            )
        ring_doorbell(self._door_req_w)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[req_id] = (future, ops)
        self.pending_ops += ops
        self.ops_routed += ops
        return future

    async def call(self, request_body: bytes, ops: int = 1) -> bytes:
        """Forward one protocol request body; returns the reply body."""
        kind, payload = await self._submit(KIND_REQUEST, request_body, ops)
        if kind != KIND_REQUEST:
            raise ProtocolError("worker answered a REQUEST with CONTROL")
        return payload

    async def control(self, command: dict) -> dict:
        kind, payload = await self._submit(
            KIND_CONTROL, json.dumps(command).encode(), ops=0
        )
        if kind != KIND_CONTROL:
            raise ProtocolError("worker answered CONTROL with a REQUEST")
        return json.loads(payload.decode())

    async def migrate(self, body: bytes):
        """Submit an encoded migration/fence/replica frame body.

        Returns the decoded answer frame.  A worker-side phase failure
        comes back as an ErrorReply on the REQUEST kind and is raised
        here as :class:`MigrationError`.
        """
        kind, payload = await self._submit(KIND_MIGRATE, body, ops=0)
        if kind == KIND_REQUEST:
            reply = decode_reply(payload)
            message = (reply.message if isinstance(reply, ErrorReply)
                       else repr(reply))
            raise MigrationError(
                f"worker {self.worker_id}: {message}")
        if kind != KIND_MIGRATE:
            raise ProtocolError("worker answered MIGRATE with CONTROL")
        return decode_migration_frame(payload)

    # ------------------------------------------------------------------

    async def shutdown(self, graceful: bool = True) -> None:
        """Stop the process and close its link; never raises.

        The link is torn down here, after the join, so no doorbell
        callback can touch the rings once the pool destroys them.
        """
        if graceful and self.alive:
            try:
                await asyncio.wait_for(self.control({"cmd": "stop"}),
                                       timeout=2.0)
            except Exception:
                pass
        self.alive = False
        process = self._process
        if process is not None and process.is_alive():
            await asyncio.get_running_loop().run_in_executor(
                None, self._join_or_kill, process
            )
        if process is not None:
            self._shm_link_down()

    @staticmethod
    def _join_or_kill(process) -> None:
        process.join(timeout=2.0)
        if process.is_alive():
            process.terminate()
            process.join(timeout=2.0)


class WorkerPool:
    """Spawns, routes to, and supervises the shard worker processes.

    The pool owns one persistent :class:`~repro.serve.shm.ShmTransport`
    ring pair per worker slot: the rings outlive worker incarnations (a
    restart bumps the slot's u16 epoch and drains stale slots via
    ``begin_generation``), and the pool unlinks the segments at
    :meth:`stop`.
    """

    RESTART_ATTEMPTS = 5

    def __init__(
        self,
        config: ServerConfig,
        n_workers: int,
        stats: ServeStats,
        log_dir: str,
        routing: Optional[RoutingTable] = None,
    ) -> None:
        self.config = config
        self.n_workers = n_workers
        self.stats = stats
        self.log_dir = log_dir
        self.routing = routing
        self._transports: List[Optional[ShmTransport]] = [None] * n_workers
        self._epochs = [1] * n_workers
        self._handles: List[Optional[WorkerHandle]] = [None] * n_workers
        self._restarting: Dict[int, asyncio.Task] = {}
        self.restart_counts = [0] * n_workers
        self._armed = config.fault_plan is not None and config.fault_plan.armed
        #: counters/fired totals absorbed from workers' dying events, so a
        #: killed worker's accounting survives its death
        self._absorbed: List[Dict[str, Dict[str, float]]] = [
            {"counters": {}, "faults": {}} for _ in range(n_workers)
        ]
        self._stopping = False

    def _transport_for(self, worker_id: int) -> ShmTransport:
        pair = self._transports[worker_id]
        if pair is None:
            pair = ShmTransport.create(self.config.shm_ring_bytes)
            pair.set_epoch(self._epochs[worker_id])
            self._transports[worker_id] = pair
        return pair

    def ring_stale_discarded(self) -> int:
        """Total stale-generation ring slots dropped across the pool."""
        return sum(
            pair.stale_discarded()
            for pair in self._transports
            if pair is not None
        )

    def _replica_shards(self, worker_id: int) -> Tuple[int, ...]:
        """Shards this worker shadows: the next worker ring-wise after
        each shard's owner (so an owner death leaves a warm read copy)."""
        if self.config.replicas <= 0 or self.n_workers < 2:
            return ()
        routing = self.routing
        shards = []
        for shard in range(self.config.n_shards):
            owner = (routing.worker_of_shard(shard) if routing is not None
                     else worker_of_shard(shard, self.n_workers))
            if owner != worker_id and (owner + 1) % self.n_workers == worker_id:
                shards.append(shard)
        return tuple(shards)

    def _spec(self, worker_id: int) -> WorkerSpec:
        plan = self.config.fault_plan
        return WorkerSpec(
            worker_id=worker_id,
            n_workers=self.n_workers,
            config=dataclasses.replace(
                self.config, fault_plan=None,
                durable=self.config.durable or plan is not None,
            ),
            fault_spec=plan.spec() if plan is not None else None,
            fault_seed=plan.seed if plan is not None else 0,
            armed=self._armed,
            log_dir=self.log_dir,
            epoch=self._epochs[worker_id],
            owned_shards=(self.routing.shards_of_worker(worker_id)
                          if self.routing is not None else None),
            replica_shards=self._replica_shards(worker_id),
        )

    def _make_handle(self, worker_id: int) -> WorkerHandle:
        return WorkerHandle(self._spec(worker_id),
                            self._handle_death, self._handle_event,
                            self._transport_for(worker_id))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        try:
            for worker_id in range(self.n_workers):
                handle = self._make_handle(worker_id)
                await handle.spawn()
                self._handles[worker_id] = handle
        except BaseException:
            await self.stop()
            raise

    async def stop(self) -> None:
        self._stopping = True
        for task in list(self._restarting.values()):
            task.cancel()
        for task in list(self._restarting.values()):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._restarting.clear()
        for handle in self._handles:
            if handle is not None:
                await handle.shutdown()
        self._handles = [None] * self.n_workers
        for worker_id, pair in enumerate(self._transports):
            if pair is not None:
                pair.destroy()
                self._transports[worker_id] = None

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def handle_for_worker(self, worker_id: int) -> WorkerHandle:
        handle = self._handles[worker_id]
        if handle is None or not handle.alive:
            raise WorkerUnavailableError(
                f"worker {worker_id} is restarting; retry shortly"
            )
        return handle

    def live_handles(self) -> List[Tuple[int, Optional[WorkerHandle]]]:
        return [
            (worker_id, handle if handle is not None and handle.alive else None)
            for worker_id, handle in enumerate(self._handles)
        ]

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------

    def _handle_event(self, handle: WorkerHandle, event: dict) -> None:
        if event.get("event") == "dying":
            absorbed = self._absorbed[handle.worker_id]
            for section in ("counters", "faults"):
                for name, value in event.get(section, {}).items():
                    absorbed[section][name] = (
                        absorbed[section].get(name, 0) + value
                    )

    def _handle_death(self, handle: WorkerHandle) -> None:
        if self._stopping:
            return
        worker_id = handle.worker_id
        if self._handles[worker_id] is not handle:
            return  # already superseded
        self._handles[worker_id] = None
        if worker_id not in self._restarting:
            self._restarting[worker_id] = asyncio.create_task(
                self._restart(worker_id)
            )

    async def _restart(self, worker_id: int) -> None:
        """Fork a replacement; its durable log files drive recovery.

        Every attempt starts a new *generation*: the slot epoch is bumped and ``begin_generation`` drains both
        rings, so a restarted worker can never replay a pre-crash
        request (and the frontend drops any response the dead — or a
        failed-spawn — incarnation left behind)."""
        try:
            for attempt in range(self.RESTART_ATTEMPTS):
                if self._stopping:
                    return
                try:
                    self._epochs[worker_id] = (
                        (self._epochs[worker_id] % 0xFFFF) + 1
                    )
                    self._transport_for(worker_id).begin_generation(
                        self._epochs[worker_id]
                    )
                    handle = self._make_handle(worker_id)
                    await handle.spawn()
                except Exception:
                    await asyncio.sleep(0.05 * (attempt + 1))
                    continue
                self.restart_counts[worker_id] += 1
                self.stats.worker_restarts += 1
                self._handles[worker_id] = handle
                return
        finally:
            self._restarting.pop(worker_id, None)

    async def await_restarts(self) -> None:
        for task in list(self._restarting.values()):
            try:
                await asyncio.shield(task)
            except (asyncio.CancelledError, Exception):
                pass

    # ------------------------------------------------------------------
    # pool-wide operations
    # ------------------------------------------------------------------

    async def barrier(self) -> None:
        """Quiescence point: every op sent before this call has applied.

        Waits out in-flight restarts, then pings every worker; FIFO
        ordering makes each pong prove the worker drained its inbox.
        """
        await self.await_restarts()
        for worker_id, handle in self.live_handles():
            if handle is None:
                continue
            try:
                await handle.control({"cmd": "ping"})
            except (WorkerDiedError, ProtocolError):
                pass

    async def broadcast_disarm(self) -> None:
        """Stop fault injection pool-wide, including future respawns."""
        self._armed = False
        await self.await_restarts()
        for _, handle in self.live_handles():
            if handle is None:
                continue
            try:
                await handle.control({"cmd": "disarm"})
            except (WorkerDiedError, ProtocolError):
                pass

    async def collect_stats(self) -> List[dict]:
        """Every live worker's report, plus the counters and fired faults
        absorbed from dead incarnations' last gasps."""
        reports = list(self._absorbed)
        for _, handle in self.live_handles():
            if handle is not None:
                try:
                    reports.append(await handle.control({"cmd": "stats"}))
                except (WorkerDiedError, ProtocolError):
                    pass
        return reports


class _BatchWaiter:
    """Completion latch for one client batch's ops in the run aggregator.

    Each op the batch hands to the aggregator bumps ``remaining``; every
    per-op resolution (a worker sub-reply, a BUSY rejection, a death
    error) decrements it, and ``wait`` unblocks when the batch's ops are
    all answered.  One batch awaiting its latch never waits on another
    batch's ops, even though their ops travel in shared frames.
    """

    __slots__ = ("remaining", "_event")

    def __init__(self) -> None:
        self.remaining = 0
        self._event = asyncio.Event()
        self._event.set()

    def add(self) -> None:
        self.remaining += 1
        self._event.clear()

    def done_one(self) -> None:
        self.remaining -= 1
        if self.remaining <= 0:
            self._event.set()

    async def wait(self) -> None:
        await self._event.wait()


#: where one aggregated op's answer lands: (batch reply slots, slot
#: index, the owning batch's completion latch)
_OpSink = Tuple[List[Optional[SimpleReply]], int, _BatchWaiter]


class WorkerServer(McCuckooServer):
    """Multi-process McCuckoo server: asyncio frontend + N shard workers.

    The frontend keeps the base server's connection handling, framing,
    per-request timeout, and BUSY backpressure, but owns no store —
    every op is forwarded over the worker pool.  ``writer_queue_depth``
    bounds each *worker's* in-flight ops (reads included: a worker's
    inbox is its queue), answered with per-op BUSY like the base server.
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        n_workers: int = 2,
    ) -> None:
        if n_workers <= 0:
            raise ConfigurationError("n_workers must be positive")
        if not shm_available():
            # checked at construction so an unsupported platform fails
            # here, not mid-serve
            raise ConfigurationError(
                "the multi-process server needs "
                "multiprocessing.shared_memory, which is unavailable on "
                "this platform; serve single-process (--workers 0)"
            )
        super().__init__(config)
        # more workers than shards would leave idle processes owning
        # nothing; clamp so every worker owns at least one shard
        self.n_workers = min(n_workers, self.config.n_shards)
        self._router = ShardRouter(self.config.n_shards,
                                   seed=self.config.seed)
        #: dynamic shard → worker map; migrations bump its epoch at the
        #: routing flip (the migration commit point)
        self._routing = RoutingTable(self.config.n_shards, self.n_workers)
        #: shard → cleared Event while a migration fence holds writes to
        #: that shard; lifted (set + removed) when the migration ends
        self._fences: Dict[int, asyncio.Event] = {}
        self.migrations = {"started": 0, "committed": 0, "aborted": 0}
        self._migrations_active = 0
        self._replica_pending = 0
        self._replica_errors = 0
        self._pool: Optional[WorkerPool] = None
        self._log_dir: Optional[str] = None
        # tick-coalescing run aggregator: batch ops from every client
        # connection admitted in the same event-loop tick share one
        # frame per worker (see _enqueue_op/_flush_runs)
        self._run_pending: Dict[int, List[Tuple[Any, _OpSink]]] = {}
        self._flush_scheduled = False

    def _make_store(self) -> Optional[ShardedLogStore]:
        return None  # shards live in the worker processes

    @property
    def pool(self) -> WorkerPool:
        if self._pool is None:
            raise RuntimeError("server is not running")
        return self._pool

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------

    async def _start_backend(self) -> None:
        import tempfile
        self._log_dir = tempfile.mkdtemp(prefix="mccuckoo-worker-logs-")
        self._pool = WorkerPool(self.config, self.n_workers, self.stats,
                                self._log_dir,
                                routing=self._routing)
        await self._pool.start()

    async def _stop_backend(self) -> None:
        if self._pool is not None:
            await self._pool.stop()
            self._pool = None
        if self._log_dir is not None:
            import shutil
            shutil.rmtree(self._log_dir, ignore_errors=True)
            self._log_dir = None

    async def drain_writes(self) -> None:
        await self.pool.barrier()

    async def disarm_faults(self) -> None:
        await super().disarm_faults()
        if self._pool is not None:
            await self._pool.broadcast_disarm()

    # ------------------------------------------------------------------
    # dynamic routing, fences, replicas
    # ------------------------------------------------------------------

    @property
    def routing(self) -> RoutingTable:
        return self._routing

    @property
    def routing_epoch(self) -> int:
        return self._routing.epoch

    @property
    def replicas(self) -> int:
        """Effective replica count (0 with a single worker: a replica on
        the owner itself would protect nothing)."""
        return self.config.replicas if self.n_workers >= 2 else 0

    def replica_of_shard(self, shard: int) -> Optional[int]:
        if self.replicas <= 0:
            return None
        return (self._routing.worker_of_shard(shard) + 1) % self.n_workers

    def fence_shard(self, shard: int) -> None:
        """Hold new writes to ``shard`` until :meth:`lift_fence`.

        Reads keep flowing; fenced writes park on the event and recompute
        their worker from the routing table once it is lifted, so a write
        admitted during a migration lands on whichever side owns the
        shard *after* the flip.
        """
        if shard not in self._fences:
            self._fences[shard] = asyncio.Event()

    def lift_fence(self, shard: int) -> None:
        event = self._fences.pop(shard, None)
        if event is not None:
            event.set()

    async def _await_fence(self, shard: int) -> None:
        while shard in self._fences:
            await self._fences[shard].wait()

    async def reshard(self, shard: int, target_worker: int):
        """Migrate ``shard`` to ``target_worker`` live; returns the
        :class:`~repro.serve.resharding.MigrationReport`."""
        from .resharding import ReshardCoordinator
        return await ReshardCoordinator(self).migrate_shard(
            shard, target_worker)

    def note_migration_start(self) -> None:
        self.migrations["started"] += 1
        self._migrations_active += 1

    def note_migration_end(self, committed: bool) -> None:
        self.migrations["committed" if committed else "aborted"] += 1
        self._migrations_active -= 1

    def _maybe_replicate(self, request) -> None:
        """Fire-and-forget: mirror one acked write to the shard's replica.

        Replication is asynchronous by design — the ack already went out
        on the owner's durable write, so replica lag costs staleness on
        failover reads, never durability.  ``_replica_pending`` is the
        lag gauge; submit failures only bump ``_replica_errors`` (the
        owner's log remains the source of truth).
        """
        if self.replicas <= 0:
            return
        shard = self._router.shard_of(request.key)
        replica = self.replica_of_shard(shard)
        if replica is None:
            return
        try:
            handle = self.pool.handle_for_worker(replica)
            body = encode_replica(ReplicaFrame(
                "apply", shard, self._routing.epoch,
                encode_request_body(request),
            ))
            future = handle._submit(KIND_MIGRATE, body, ops=0)
        except (WorkerUnavailableError, WorkerDiedError, RingFullError,
                RingFrameTooLarge, ProtocolError):
            self._replica_errors += 1
            return
        self._replica_pending += 1
        future.add_done_callback(self._replica_done)

    def _replica_done(self, future: "asyncio.Future") -> None:
        self._replica_pending -= 1
        try:
            kind, _payload = future.result()
        except Exception:
            self._replica_errors += 1
            return
        if kind != KIND_MIGRATE:
            self._replica_errors += 1

    # ------------------------------------------------------------------
    # dispatch: forward over the pool
    # ------------------------------------------------------------------

    def _worker_of_key(self, key: int) -> int:
        return self._routing.worker_of_shard(self._router.shard_of(key))

    def _worker_busy_reply(self, worker_id: int) -> ErrorReply:
        self.stats.busy_rejections += 1
        return ErrorReply(
            ErrorCode.BUSY,
            f"worker {worker_id} has {self.config.writer_queue_depth} "
            "ops in flight",
        )

    def _worker_down_reply(self, error: Exception) -> ErrorReply:
        self.stats.busy_rejections += 1
        return ErrorReply(ErrorCode.BUSY, str(error))

    def _ring_busy_reply(self, worker_id: int) -> ErrorReply:
        """Ring-full backpressure: the transport itself is the queue."""
        self.stats.busy_rejections += 1
        return ErrorReply(
            ErrorCode.BUSY,
            f"worker {worker_id} request ring is full",
        )

    async def _handle_op(self, request) -> Reply:
        """Forward one GET, PUT or DELETE to the shard's worker."""
        shard = self._router.shard_of(request.key)
        is_write = isinstance(request, (PutRequest, DeleteRequest))
        if is_write and shard in self._fences:
            await self._await_fence(shard)
        worker_id = self._routing.worker_of_shard(shard)
        try:
            handle = self.pool.handle_for_worker(worker_id)
        except WorkerUnavailableError as error:
            if not is_write:
                return await self._replica_read(request, shard, error)
            return self._worker_down_reply(error)
        if handle.pending_ops >= self.config.writer_queue_depth:
            return self._worker_busy_reply(worker_id)
        try:
            reply_body = await handle.call(
                encode_request_body(request), ops=1
            )
        except RingFullError:
            return self._ring_busy_reply(worker_id)
        except RingFrameTooLarge as error:
            return ErrorReply(ErrorCode.TOO_LARGE, str(error))
        except WorkerDiedError as error:
            if not is_write:
                return await self._replica_read(request, shard, error)
            return ErrorReply(ErrorCode.UNAVAILABLE, str(error))
        reply = decode_reply(reply_body)
        if is_write and isinstance(reply, (PutReply, DeleteReply)):
            self._maybe_replicate(request)
        return reply

    async def _replica_read(self, request, shard: int,
                            error: Exception) -> Reply:
        """Owner-down GET failover: serve from the shard's read replica.

        The replica applies acked writes asynchronously, so a failover
        read may be stale by the replica lag; writes are never failed
        over (the shard degrades to read-only until the owner restarts).
        """
        replica = self.replica_of_shard(shard)
        if replica is None:
            return self._worker_down_reply(error)
        try:
            handle = self.pool.handle_for_worker(replica)
            reply_body = await handle.call(
                encode_request_body(request), ops=1
            )
        except (WorkerUnavailableError, WorkerDiedError, RingFullError,
                RingFrameTooLarge):
            return self._worker_down_reply(error)
        self.stats.replica_reads += 1
        return decode_reply(reply_body)

    async def _handle_batch(self, request: BatchRequest) -> BatchReply:
        """Tick-coalesced forwarding: each op joins a per-worker run
        SHARED with every other client batch admitted in the same
        event-loop tick, and one flush per tick sends each worker ONE
        frame (relative op order preserved, so per-key order is intact
        — a key always maps to one worker).  Coalescing across
        connections amortises the fixed per-frame cost — encode, ring
        push, doorbell, worker wakeup, reply decode — over every
        concurrent client, which is what keeps two workers from losing
        to one on a starved box.  Ops past a worker's free capacity
        draw per-op BUSY; a worker death fails its whole run with
        per-op UNAVAILABLE."""
        replies: List[Optional[SimpleReply]] = [None] * len(request.ops)
        waiter = _BatchWaiter()
        for index, op in enumerate(request.ops):
            if isinstance(op, StatsRequest):
                # barrier: everything before the STATS must be visible,
                # so flush the shared runs early and wait for OUR ops
                self._flush_runs()
                await waiter.wait()
                replies[index] = await self._handle_request(op)
                continue
            if isinstance(op, (PutRequest, DeleteRequest)):
                # migration fence: park the write until the routing flip,
                # then route by the post-flip table (no awaits between
                # the fence check and the enqueue below, so a write can
                # never slip under a fence raised this tick)
                shard = self._router.shard_of(op.key)
                if shard in self._fences:
                    await self._await_fence(shard)
                injected = self._injected_busy()
                if injected is not None:
                    replies[index] = injected
                    continue
            waiter.add()
            self._enqueue_op(self._worker_of_key(op.key), op,
                             (replies, index, waiter))
        await waiter.wait()
        assert all(reply is not None for reply in replies)
        return BatchReply(tuple(replies))  # type: ignore[arg-type]

    def _enqueue_op(self, worker_id: int, op: Any, sink: _OpSink) -> None:
        self._run_pending.setdefault(worker_id, []).append((op, sink))
        if not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush_runs)

    def _flush_runs(self) -> None:
        self._flush_scheduled = False
        pending, self._run_pending = self._run_pending, {}
        for worker_id, run in pending.items():
            self._send_run(worker_id, run)

    @staticmethod
    def _resolve_op(sink: _OpSink, reply: SimpleReply) -> None:
        slots, index, waiter = sink
        slots[index] = reply
        waiter.done_one()

    def _reroute_gets(self, worker_id: int,
                      run: List[Tuple[Any, _OpSink]],
                      error: Exception) -> None:
        """Owner-down run salvage: resend the GETs to the replica worker.

        Writes in the run draw the usual down-reply (read-only
        degradation); ``rerouted=True`` on the resend stops a dead
        replica from bouncing the ops around the ring forever.
        """
        gets: List[Tuple[Any, _OpSink]] = []
        for op, sink in run:
            if isinstance(op, GetRequest):
                gets.append((op, sink))
            else:
                self._resolve_op(sink, self._worker_down_reply(error))
        if gets:
            self.stats.replica_reads += len(gets)
            self._send_run((worker_id + 1) % self.n_workers, gets,
                           rerouted=True)

    def _send_run(self, worker_id: int,
                  run: List[Tuple[Any, _OpSink]],
                  rerouted: bool = False) -> None:
        try:
            handle = self.pool.handle_for_worker(worker_id)
        except WorkerUnavailableError as error:
            if not rerouted and self.replicas > 0:
                self._reroute_gets(worker_id, run, error)
                return
            for _, sink in run:
                self._resolve_op(sink, self._worker_down_reply(error))
            return
        free = max(0, self.config.writer_queue_depth - handle.pending_ops)
        admitted, rejected = run[:free], run[free:]
        for _, sink in rejected:
            self._resolve_op(sink, self._worker_busy_reply(worker_id))
        if not admitted:
            return
        # All-GET runs go as a raw u64 key array (KIND_BATCH_KEYS): the
        # worker answers with the same BatchReply shape, but reads the
        # keys straight out of the transport buffer — on the shm ring
        # that is a zero-copy NumPy view with no per-op decode.
        if all(isinstance(op, GetRequest) for op, _ in admitted):
            kind = KIND_BATCH_KEYS
            body = encode_key_run([op.key for op, _ in admitted])
        else:
            kind = KIND_REQUEST
            sub_batch = BatchRequest(tuple(op for op, _ in admitted))
            body = encode_request_body(sub_batch)
        try:
            future = handle._submit(kind, body, ops=len(admitted))
        except RingFullError:
            for _, sink in admitted:
                self._resolve_op(sink, self._ring_busy_reply(worker_id))
            return
        except RingFrameTooLarge as error:
            reply = ErrorReply(ErrorCode.TOO_LARGE, str(error))
            for _, sink in admitted:
                self._resolve_op(sink, reply)
            return
        except WorkerDiedError as error:
            reply = ErrorReply(ErrorCode.UNAVAILABLE, str(error))
            for _, sink in admitted:
                self._resolve_op(sink, reply)
            return
        future.add_done_callback(
            lambda fut, admitted=admitted: self._complete_run(fut, admitted)
        )

    def _complete_run(self, future: "asyncio.Future",
                      admitted: List[Tuple[Any, _OpSink]]) -> None:
        try:
            _kind, payload = future.result()
            batch = decode_reply(payload)
            if isinstance(batch, ErrorReply):
                # the run's answer could not fit the response ring
                batch = BatchReply((batch,) * len(admitted))
            if (not isinstance(batch, BatchReply)
                    or len(batch.replies) != len(admitted)):
                raise ProtocolError(
                    f"worker {type(batch).__name__} reply does not match "
                    f"a {len(admitted)}-op run"
                )
            for (op, sink), sub in zip(admitted, batch.replies):
                if (isinstance(op, (PutRequest, DeleteRequest))
                        and isinstance(sub, (PutReply, DeleteReply))):
                    self._maybe_replicate(op)
                self._resolve_op(sink, sub)
        except (WorkerDiedError, asyncio.CancelledError) as error:
            reply = ErrorReply(ErrorCode.UNAVAILABLE,
                               str(error) or "worker call cancelled")
            for _, sink in admitted:
                self._resolve_op(sink, reply)
        except Exception as error:
            self.stats.internal_errors += 1
            reply = ErrorReply(ErrorCode.INTERNAL, str(error))
            for _, sink in admitted:
                self._resolve_op(sink, reply)

    # ------------------------------------------------------------------
    # merged stats
    # ------------------------------------------------------------------

    async def _stats_snapshot(self) -> Dict[str, float]:
        reports = await self.pool.collect_stats()
        gauges: Dict[str, float] = {
            "connections_active": len(self._handlers),
            "ring_stale_discarded": self.pool.ring_stale_discarded(),
            "workers": self.n_workers,
            "workers_up": sum(
                1 for _, handle in self.pool.live_handles()
                if handle is not None
            ),
            "writer_queue_depth": sum(
                handle.pending_ops
                for _, handle in self.pool.live_handles()
                if handle is not None
            ),
            "routing_epoch": self._routing.epoch,
            "migrations_started": self.migrations["started"],
            "migrations_committed": self.migrations["committed"],
            "migrations_aborted": self.migrations["aborted"],
            "migrations_active": self._migrations_active,
            "fenced_shards": len(self._fences),
            "replica_enabled": 1 if self.replicas > 0 else 0,
            "replica_lag": self._replica_pending,
            "replica_errors": self._replica_errors,
        }
        for worker_id, handle in self.pool.live_handles():
            gauges[f"worker{worker_id}_up"] = 1 if handle is not None else 0
            gauges[f"worker{worker_id}_pending_ops"] = (
                handle.pending_ops if handle is not None else 0
            )
            gauges[f"worker{worker_id}_ops_routed"] = (
                handle.ops_routed if handle is not None else 0
            )
            gauges[f"worker{worker_id}_restarts"] = (
                self.pool.restart_counts[worker_id]
            )
        gauges.update(merge_gauge_rows([
            row for report in reports for row in report.get("store", ())
        ]))
        fired: Dict[str, float] = {}
        if self._faults is not None:
            fired.update(self._faults.fired_counts())
        for report in reports:
            for name, value in report["faults"].items():
                fired[name] = fired.get(name, 0) + value
        gauges.update({f"fault_{name}": count
                       for name, count in fired.items()})
        self.stats.gauges = gauges
        snapshot = self.stats.snapshot()
        for report in reports:
            counters = report["counters"]
            for name in _MERGED_COUNTERS:
                if name in counters:
                    snapshot[name] = snapshot.get(name, 0) + counters[name]
        return snapshot


__all__ = [
    "KIND_BATCH_KEYS",
    "KIND_CONTROL",
    "KIND_MIGRATE",
    "KIND_REQUEST",
    "MigrationError",
    "WorkerDiedError",
    "WorkerHandle",
    "WorkerPool",
    "WorkerServer",
    "WorkerSpec",
    "WorkerUnavailableError",
]
