"""Chaos harness: drive load at a fault-injected server and verify safety.

``repro faultgen`` starts an in-process :class:`McCuckooServer` with a
durable store and a :class:`~repro.faults.FaultPlan`, drives a seeded
random workload through retrying clients, and then audits the surviving
state against a Jepsen-style acceptability model:

* every key is owned by exactly one worker, so per-key operation order is
  the worker's issue order;
* an **acknowledged** write pins the key's acceptable state to exactly the
  written value (or absence, for a delete);
* an **unacknowledged** write (BUSY storm that outlived the retries, a
  client deadline, an injected crash surfacing as INTERNAL, a dropped
  connection on the ack) may or may not have applied, so its value joins
  the acceptable set instead of replacing it;
* a successful read collapses the set back to what was observed (reads are
  linearization points: the worker owns the key, so nothing else can have
  moved it).

After the drive phase the plan is disarmed and every key is read back:

* a key whose acceptable set is a single acknowledged value but reads
  differently is a **lost acknowledged write** — the one thing this
  harness exists to catch;
* a key reading a value outside its acceptable set is a **phantom** (a
  write nobody issued, or an unacknowledged write resurrected wrongly).

The whole run is bounded by a wall-clock budget, so an injected hang shows
up as a reported failure instead of a stuck process.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Set

from ..faults import FaultPlan
from ..maintenance import MaintenanceConfig
from .client import (
    McCuckooClient,
    RequestTimeoutError,
    RetryPolicy,
    ServeError,
)
from .loadgen import value_bytes
from .protocol import ProtocolError
from .server import McCuckooServer, ServerConfig
from .workers import WorkerServer

#: a deliberately nasty default: one full-record crash, one torn write,
#: BUSY storms, corrupted and dropped reply frames, and one laggy shard
DEFAULT_FAULT_SPEC = (
    "crash_after_appends=150; torn_write=400; busy=0.02; "
    "corrupt_frame=0.01; drop_connection=0.01; delay_shard=0:0.002:7"
)

_ABSENT = b"\x00__absent__"  # sentinel inside acceptable-value sets

#: what a request may raise once the client's retries are spent; an
#: injected fault surfaces as one of these, never as a raised run
_CLIENT_ERRORS = (RequestTimeoutError, ServeError, ProtocolError,
                  ConnectionError, OSError)


@dataclass(frozen=True)
class FaultgenConfig:
    """Shape of one chaos run."""

    n_ops: int = 2_000
    n_keys: int = 256
    concurrency: int = 4
    n_shards: int = 4
    value_size: int = 32
    seed: int = 0
    faults: str = DEFAULT_FAULT_SPEC
    max_attempts: int = 8
    deadline: float = 5.0
    run_timeout: float = 60.0
    """Wall-clock budget for the whole run; exceeding it is a reported
    hang, not a stuck process."""
    n_workers: int = 0
    """0 drives the single-process server; N > 0 drives a
    :class:`~repro.serve.workers.WorkerServer` with N shard worker
    processes, where ``kill_worker`` rules become meaningful and every
    count-triggered rule fires per worker process."""
    maintenance: bool = False
    """Run the maintenance daemon (aggressive thresholds) during the
    drive and extend the fault plan to strike *inside* maintenance:
    crash/kill during an in-flight compaction and a torn/killed
    checkpoint write.  The audit model is unchanged — maintenance must
    never cost an acknowledged write."""
    migrate: bool = False
    """Run live shard migrations *during* the drive (worker mode with
    ≥ 2 workers; ignored otherwise): a background task repeatedly moves
    a shard to the next worker ring-wise while the drivers hammer it.
    The audit model is parameterized by the routing epoch — an
    acknowledged write must survive the move, on whichever worker owns
    the shard at read-back time."""

    def __post_init__(self) -> None:
        if self.n_ops <= 0 or self.n_keys <= 0:
            raise ValueError("n_ops and n_keys must be positive")
        if self.concurrency <= 0:
            raise ValueError("concurrency must be positive")

    @classmethod
    def smoke(cls, seed: int = 0, maintenance: bool = False) -> "FaultgenConfig":
        """A seconds-scale configuration for CI."""
        return cls(n_ops=600, n_keys=96, concurrency=4, seed=seed,
                   run_timeout=30.0, maintenance=maintenance)

    def effective_faults(self) -> str:
        """The drive plan: the configured spec, plus — in maintenance
        mode — rules that strike mid-compaction and mid-checkpoint.
        Worker mode kills the whole process at those sites; the
        single-process server takes an in-process crash / torn artifact
        instead (there is no process to kill)."""
        if not self.maintenance:
            return self.faults
        if self.n_workers > 0:
            extra = ("kill_worker_during=compaction:1; "
                     "kill_worker_during=checkpoint:1")
        else:
            extra = "crash_during_compaction=1; torn_checkpoint=1"
        return f"{self.faults}; {extra}" if self.faults else extra


@dataclass
class FaultgenReport:
    """Outcome of one chaos run; ``ok`` is the pass/fail verdict."""

    seed: int
    fault_plan: str
    n_workers: int = 0
    ops_issued: int = 0
    ops_acked: int = 0
    ops_unacked: int = 0
    reads_checked: int = 0
    retries: int = 0
    elapsed_s: float = 0.0
    faults_fired: Dict[str, int] = field(default_factory=dict)
    shard_recoveries: int = 0
    worker_restarts: int = 0
    verified_keys: int = 0
    lost_acked_writes: int = 0
    phantom_values: int = 0
    migrations_committed: int = 0
    migrations_aborted: int = 0
    routing_epoch: int = 0
    hung: bool = False
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.hung

    def render(self) -> str:
        mode = (f"{self.n_workers} worker processes"
                if self.n_workers else "single process")
        lines = [
            f"faultgen seed={self.seed}: "
            f"{self.ops_issued} ops ({self.ops_acked} acked, "
            f"{self.ops_unacked} unacked) in {self.elapsed_s:.2f}s "
            f"[{mode}]",
            f"  plan      {self.fault_plan}",
            "  faults    "
            + (" ".join(f"{name}={count}"
                        for name, count in sorted(self.faults_fired.items()))
               or "(none fired)"),
            f"  recovery  shard_recoveries={self.shard_recoveries}  "
            f"worker_restarts={self.worker_restarts}",
            f"  reshard   committed={self.migrations_committed}  "
            f"aborted={self.migrations_aborted}  "
            f"routing_epoch={self.routing_epoch}",
            f"  client    retries={self.retries}  "
            f"reads_checked={self.reads_checked}",
            f"  verify    keys={self.verified_keys}  "
            f"lost_acked_writes={self.lost_acked_writes}  "
            f"phantom_values={self.phantom_values}",
        ]
        if self.hung:
            lines.append("  HUNG: run exceeded its wall-clock budget")
        for failure in self.failures[:20]:
            lines.append(f"  FAIL  {failure}")
        if len(self.failures) > 20:
            lines.append(f"  ... {len(self.failures) - 20} more failures")
        lines.append(f"  verdict   {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


class _KeyState:
    """Acceptable-state tracker for one key (single-owner ops).

    Soundness notes, which lean on the server's one writer per shard
    (the single-process server applies writes inline at admission, in
    admission order; a worker applies its shards' writes in its FIFO
    loop):

    * An *acknowledged* write collapses the set — its ack proves every
      earlier write on the key (all routed to the same shard's writer)
      has already been applied, so nothing older can resurface.
    * A read may only collapse the set when no unacknowledged write is
      unresolved (``acked_only``): a worker's reads do NOT flush its
      FIFO inbox, so a timed-out write can legally apply *after* a read
      observed the older value.  (In the single-process server a
      timed-out write was applied at admission; the rule is only
      stricter than it needs to be there.)
    * The owner map is no longer static: a live migration re-homes the
      key's shard mid-run.  Each transition is stamped with the routing
      epoch it happened under, and a read may only collapse the set when
      its epoch is **at least** the state's — a read that raced an older
      epoch must not overrule a write acknowledged under a newer one.
    """

    __slots__ = ("acceptable", "acked_only", "epoch")

    def __init__(self) -> None:
        self.acceptable: Set[bytes] = {_ABSENT}
        self.acked_only = True  # no unacked write is still unresolved
        self.epoch = 0  # routing epoch of the newest recorded transition

    def acked_write(self, value: bytes, epoch: int = 0) -> None:
        self.acceptable = {value}
        self.acked_only = True
        self.epoch = max(self.epoch, epoch)

    def unacked_write(self, value: bytes, epoch: int = 0) -> None:
        self.acceptable.add(value)
        self.acked_only = False
        self.epoch = max(self.epoch, epoch)

    def observed(self, value: bytes, epoch: int = 0) -> None:
        if self.acked_only and epoch >= self.epoch:
            self.acceptable = {value}


async def run_faultgen(config: FaultgenConfig) -> FaultgenReport:
    """One full chaos run: drive, disarm, verify.  Never raises for an
    injected fault — violations land in the report's ``failures``."""
    plan = FaultPlan.parse(config.effective_faults(), seed=config.seed)
    report = FaultgenReport(seed=config.seed, fault_plan=plan.describe(),
                            n_workers=config.n_workers)
    server_config = ServerConfig(
        host="127.0.0.1",
        port=0,
        n_shards=config.n_shards,
        expected_items=max(4096, 4 * config.n_keys),
        seed=config.seed,
        request_timeout=2.0,
        durable=True,
        fault_plan=plan,
        maintenance=(MaintenanceConfig.aggressive()
                     if config.maintenance else None),
    )
    if config.n_workers > 0:
        server: McCuckooServer = WorkerServer(server_config,
                                              n_workers=config.n_workers)
    else:
        server = McCuckooServer(server_config)
    began = time.perf_counter()
    async with server:
        try:
            await asyncio.wait_for(
                _drive_and_verify(server, config, report),
                timeout=config.run_timeout,
            )
        except asyncio.TimeoutError:
            report.hung = True
            report.failures.append(
                f"run exceeded {config.run_timeout}s wall-clock budget "
                "(injected hang not survived)"
            )
        report.shard_recoveries = max(report.shard_recoveries,
                                      server.stats.shard_recoveries)
        report.worker_restarts = max(report.worker_restarts,
                                     server.stats.worker_restarts)
    # frontend-site fired counts; worker-site counts were merged from the
    # post-drive STATS snapshot inside _drive_and_verify
    for name, count in plan.fired_counts().items():
        report.faults_fired[name] = max(
            report.faults_fired.get(name, 0), count
        )
    report.elapsed_s = time.perf_counter() - began
    return report


async def _drive_and_verify(
    server: McCuckooServer,
    config: FaultgenConfig,
    report: FaultgenReport,
) -> None:
    host, port = server.address
    retry = RetryPolicy(
        max_attempts=config.max_attempts,
        base_delay=0.002,
        max_delay=0.05,
        jitter=0.2,
        deadline=config.deadline,
        seed=config.seed,
    )
    states: Dict[int, _KeyState] = {}
    epoch_of = (
        (lambda: server.routing_epoch)
        if isinstance(server, WorkerServer) else (lambda: 0)
    )
    async with McCuckooClient(host, port, pool_size=config.concurrency,
                              retry=retry) as client:
        workers = [
            _worker(client, config, worker_id, states, report, epoch_of)
            for worker_id in range(config.concurrency)
        ]
        migrator: "asyncio.Task | None" = None
        if (config.migrate and isinstance(server, WorkerServer)
                and server.n_workers >= 2):
            migrator = asyncio.create_task(
                _migrator(server, config, report))
        try:
            await asyncio.gather(*workers)
        finally:
            if migrator is not None:
                migrator.cancel()
                try:
                    await migrator
                except asyncio.CancelledError:
                    pass
        report.routing_epoch = epoch_of()

        # --------------------------------------------------------------
        # verification: stop injecting (in every process), reach
        # quiescence (every admitted write — in a worker's inbox too —
        # has applied), then audit
        # --------------------------------------------------------------
        await server.disarm_faults()
        await server.drain_writes()
        report.retries = client.retries
        try:
            snapshot = await client.stats()
        except _CLIENT_ERRORS:
            snapshot = {}
        report.shard_recoveries = int(snapshot.get("shard_recoveries", 0))
        report.worker_restarts = int(snapshot.get("worker_restarts", 0))
        report.faults_fired = {
            name[len("fault_"):]: int(count)
            for name, count in snapshot.items()
            if name.startswith("fault_")
        }
        for key, state in sorted(states.items()):
            try:
                value = await client.get(key)
            except _CLIENT_ERRORS as error:
                report.failures.append(
                    f"key {key:#x}: verification read failed: {error}"
                )
                continue
            report.verified_keys += 1
            observed = _ABSENT if value is None else value
            if observed in state.acceptable:
                continue
            if state.acked_only:
                report.lost_acked_writes += 1
                report.failures.append(
                    f"key {key:#x}: lost acknowledged write — expected "
                    f"{_render_values(state.acceptable)}, read "
                    f"{_render_values({observed})}"
                )
            else:
                report.phantom_values += 1
                report.failures.append(
                    f"key {key:#x}: phantom value — read "
                    f"{_render_values({observed})}, acceptable "
                    f"{_render_values(state.acceptable)}"
                )


async def _migrator(
    server: WorkerServer,
    config: FaultgenConfig,
    report: FaultgenReport,
) -> None:
    """Move shards between workers while the drivers are hammering them.

    Each round migrates shard ``round % n_shards`` from its current
    owner to the next worker ring-wise.  Injected faults may abort a
    round (counted, not failed) — the audit only cares that no
    acknowledged write is lost either way."""
    for round_no in range(3):
        await asyncio.sleep(0.1)
        shard = round_no % config.n_shards
        owner = server.routing.worker_of_shard(shard)
        target = (owner + 1) % server.n_workers
        try:
            outcome = await server.reshard(shard, target)
        except asyncio.CancelledError:
            raise
        except Exception as error:  # a coordinator bug, not an injected fault
            report.failures.append(
                f"migrator: reshard({shard}, {target}) raised "
                f"{type(error).__name__}: {error}"
            )
            return
        if outcome.committed:
            report.migrations_committed += 1
        else:
            report.migrations_aborted += 1


async def _worker(
    client: McCuckooClient,
    config: FaultgenConfig,
    worker_id: int,
    states: Dict[int, _KeyState],
    report: FaultgenReport,
    epoch_of,
) -> None:
    """Drive this worker's share of ops over the keys it owns."""
    rng = random.Random((config.seed * 0x9E3779B1) ^ (worker_id * 0x85EBCA6B))
    owned = [key + 1 for key in range(config.n_keys)
             if key % config.concurrency == worker_id]
    if not owned:
        return
    n_ops = config.n_ops // config.concurrency
    version = 0
    for _ in range(n_ops):
        key = owned[rng.randrange(len(owned))]
        state = states.setdefault(key, _KeyState())
        roll = rng.random()
        report.ops_issued += 1
        if roll < 0.55:  # put
            version += 1
            value = value_bytes(key, (worker_id << 20) | version,
                                config.value_size)
            acked = await _issue(client.put(key, value), report)
            if acked:
                state.acked_write(value, epoch_of())
            else:
                state.unacked_write(value, epoch_of())
        elif roll < 0.75:  # delete
            acked = await _issue(client.delete(key), report)
            if acked:
                state.acked_write(_ABSENT, epoch_of())
            else:
                state.unacked_write(_ABSENT, epoch_of())
        else:  # get: audit mid-run and collapse the acceptable set
            epoch_before = epoch_of()
            try:
                value = await client.get(key)
            except _CLIENT_ERRORS:
                report.ops_unacked += 1
                continue
            epoch_after = epoch_of()
            report.ops_acked += 1
            report.reads_checked += 1
            observed = _ABSENT if value is None else value
            if epoch_before != epoch_after:
                # the read was in flight across a routing flip: it may
                # legally have been served by either side of the
                # migration, so it neither convicts nor collapses
                continue
            if observed not in state.acceptable:
                if state.acked_only and epoch_after >= state.epoch:
                    report.lost_acked_writes += 1
                    report.failures.append(
                        f"key {key:#x}: mid-run read lost an acknowledged "
                        f"write — expected {_render_values(state.acceptable)},"
                        f" read {_render_values({observed})}"
                    )
                elif not state.acked_only:
                    report.phantom_values += 1
                    report.failures.append(
                        f"key {key:#x}: mid-run phantom — read "
                        f"{_render_values({observed})}, acceptable "
                        f"{_render_values(state.acceptable)}"
                    )
            state.observed(observed, epoch_after)


async def _issue(operation, report: FaultgenReport) -> bool:
    """Await a write; True = acknowledged, False = outcome unknown."""
    try:
        await operation
    except _CLIENT_ERRORS:
        report.ops_unacked += 1
        return False
    report.ops_acked += 1
    return True


def _render_values(values: Set[bytes]) -> str:
    parts = []
    for value in sorted(values):
        if value == _ABSENT:
            parts.append("<absent>")
        else:
            parts.append(value[:16].hex() + ("…" if len(value) > 16 else ""))
    return "{" + ", ".join(parts) + "}"


__all__ = [
    "DEFAULT_FAULT_SPEC",
    "FaultgenConfig",
    "FaultgenReport",
    "run_faultgen",
]
