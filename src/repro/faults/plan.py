"""Deterministic, seed-driven fault injection for the serving stack.

A :class:`FaultPlan` is a list of :class:`FaultRule` objects plus a seed.
Components of the serve stack *consult* the plan at well-defined sites and
the plan answers "does a fault fire here?":

========================  ====================================================
site                      consulted by
========================  ====================================================
``append``                :class:`~repro.apps.kvstore.DurableValueLog` before
                          each record is persisted (the append **is** the
                          fsync boundary in this in-memory model)
``writer``                :class:`~repro.serve.server.McCuckooServer` once per
                          writer-loop iteration, per shard
``dispatch``              the server's write-submission path, per write op
``frame``                 :func:`~repro.serve.protocol.write_frame`, per
                          outgoing frame
``compaction``            :class:`~repro.maintenance.Compactor` before each
                          live record is copied into the fresh log segment
``checkpoint``            :class:`~repro.maintenance.Checkpointer` at the
                          checkpoint-write boundary
``maintenance_kill``      the worker serve path, once per compaction record
                          and once mid-checkpoint-write, for the
                          ``kill_worker_during`` rule
========================  ====================================================

Determinism contract: every rule owns a private ``random.Random`` seeded
from ``(plan seed, rule index)``, and counter-triggered rules depend only
on how many times their site has been consulted.  Given the same seed and
the same sequence of consults, the fault schedule is identical — which is
what lets a failing run be replayed from its printed seed.

Rule grammar (``FaultPlan.parse``) — rules separated by ``;`` or ``,``:

``crash_after_appends=N[@SHARD]``
    The N-th append (1-based, optionally counting only shard SHARD)
    completes, then the store raises :class:`InjectedCrash`.  The record
    *is* persisted; the write is never acknowledged.
``torn_write=N[:KEEP][@SHARD]``
    The N-th append persists only the first KEEP bytes of the serialized
    record (default: half) and raises :class:`InjectedCrash` — a crash
    mid-write, leaving a torn tail for recovery to truncate.
``delay_shard=SHARD:SECONDS[:EVERY]``
    Shard SHARD's writer stalls SECONDS on each EVERY-th run it applies
    (default every run): a worker sleeps before the run, the
    single-process server holds the run's replies after applying it.
    Models a slow / partitioned shard.
``busy=P``
    Each write dispatch is rejected with a BUSY error frame with
    probability P, regardless of actual queue depth.
``drop_connection=P``
    Each outgoing frame is dropped with probability P and the connection
    is severed (the peer sees EOF mid-conversation).
``corrupt_frame=P``
    Each outgoing frame has one body byte flipped with probability P.
    Framing (the length prefix) is preserved so the peer reads a complete
    but undecodable body — a clean decode error, not a hang.
``kill_worker=N[@WORKER]``
    The N-th applied write (1-based, optionally counting only ops applied
    by worker process WORKER) is persisted and applied, then the whole
    worker process dies via ``os._exit`` *before* the ack is sent.  The
    supervisor must restart the worker from its durable log; the write is
    never acknowledged but may legally survive.  Consulted at the
    ``worker_op`` site by :mod:`repro.serve.workers`.
``crash_during_compaction=N[@SHARD]``
    The N-th record-copy boundary inside a compaction raises
    :class:`InjectedCrash` *before* the commit swap, so the old log image
    stays authoritative and recovery sees the pre-compaction state.
``torn_checkpoint=N[:KEEP][@SHARD]``
    The N-th checkpoint write persists only the first KEEP bytes of the
    checkpoint artifact (default: half) and raises :class:`InjectedCrash`;
    recovery must detect the torn artifact via its CRC and fall back to a
    full log replay.
``kill_worker_during=SITE:N[@WORKER]``
    SITE is ``compaction``, ``checkpoint``, or ``migration``.  The N-th
    consult of that maintenance boundary in worker WORKER kills the whole
    worker process via ``os._exit`` — mid-compaction (old log file intact
    on disk), mid-checkpoint-write (torn checkpoint file on disk), or at
    a live-resharding phase boundary (the migration coordinator must
    abort or complete without losing an acknowledged write).  The
    supervisor restarts the worker from its durable files.  A compaction
    or checkpoint strike fires once per worker slot, not once per
    incarnation: the replacement starts with it spent.  Migration
    phases consult in a fixed order per role (source: snapshot, delta,
    fence, delta, release; target: install, apply, apply, activate), so
    N selects a deterministic phase boundary to die at.

Example spec::

    crash_after_appends=200; torn_write=450; corrupt_frame=0.01; busy=0.02
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import ReproError


class FaultSpecError(ReproError):
    """A fault-plan spec string could not be parsed."""


class InjectedCrash(ReproError):
    """An injected crash at an append/fsync boundary.

    The raising store must be treated as dead: its in-memory index may be
    ahead of its durable log.  Recover a fresh store from the log bytes
    (:meth:`LogStructuredStore.recover_with_checkpoint`) instead of continuing.
    """

    persisted = False
    """True when the failing write's whole record reached the log before
    the crash (``crash_after_appends``): recovery replays it, so the write
    is applied though never acknowledged."""


#: frame-site verdicts
FRAME_OK = "ok"
FRAME_DROP = "drop"
FRAME_CORRUPT = "corrupt"


@dataclass
class AppendFault:
    """What an ``append`` consult decided."""

    crash: bool = False
    torn: bool = False
    keep_bytes: Optional[int] = None  # None = tear at the record midpoint


class FaultRule:
    """One parsed rule; subclass-free — behaviour keyed on ``kind``."""

    KINDS = (
        "crash_after_appends",
        "torn_write",
        "delay_shard",
        "busy",
        "drop_connection",
        "corrupt_frame",
        "kill_worker",
        "crash_during_compaction",
        "torn_checkpoint",
        "kill_worker_during",
    )

    #: valid SITE values for ``kill_worker_during``
    MAINTENANCE_SITES = ("compaction", "checkpoint", "migration")

    def __init__(
        self,
        kind: str,
        *,
        count: int = 0,
        keep_bytes: Optional[int] = None,
        shard: Optional[int] = None,
        seconds: float = 0.0,
        every: int = 1,
        probability: float = 0.0,
        site: Optional[str] = None,
    ) -> None:
        if kind not in self.KINDS:
            raise FaultSpecError(f"unknown fault rule {kind!r}")
        self.kind = kind
        self.count = count
        self.keep_bytes = keep_bytes
        self.shard = shard
        self.seconds = seconds
        self.every = max(1, every)
        self.probability = probability
        self.site = site
        self._seen = 0  # consults relevant to this rule
        self._spent = False  # one-shot rules fire once
        self._rng = random.Random()  # reseeded by the plan

    # ------------------------------------------------------------------

    def bind(self, plan_seed: int, index: int) -> "FaultRule":
        """Give the rule its private deterministic RNG."""
        self._rng = random.Random((plan_seed * 0x9E3779B1 + index) & 0xFFFFFFFF)
        return self

    def reset(self) -> None:
        self._seen = 0
        self._spent = False

    def describe(self) -> str:
        if self.kind in ("crash_after_appends", "torn_write"):
            at = f"@{self.shard}" if self.shard is not None else ""
            keep = f":{self.keep_bytes}" if self.keep_bytes is not None else ""
            return f"{self.kind}={self.count}{keep}{at}"
        if self.kind == "kill_worker":
            # ``shard`` doubles as the worker scope for this rule.
            at = f"@{self.shard}" if self.shard is not None else ""
            return f"kill_worker={self.count}{at}"
        if self.kind == "crash_during_compaction":
            at = f"@{self.shard}" if self.shard is not None else ""
            return f"crash_during_compaction={self.count}{at}"
        if self.kind == "torn_checkpoint":
            at = f"@{self.shard}" if self.shard is not None else ""
            keep = f":{self.keep_bytes}" if self.keep_bytes is not None else ""
            return f"torn_checkpoint={self.count}{keep}{at}"
        if self.kind == "kill_worker_during":
            # ``shard`` doubles as the worker scope for this rule.
            at = f"@{self.shard}" if self.shard is not None else ""
            return f"kill_worker_during={self.site}:{self.count}{at}"
        if self.kind == "delay_shard":
            return f"{self.kind}={self.shard}:{self.seconds}:{self.every}"
        return f"{self.kind}={self.probability}"

    # ------------------------------------------------------------------
    # site evaluators (return None when the rule does not fire)
    # ------------------------------------------------------------------

    def on_append(self, shard: int) -> Optional[AppendFault]:
        if self.kind not in ("crash_after_appends", "torn_write") or self._spent:
            return None
        if self.shard is not None and shard != self.shard:
            return None
        self._seen += 1
        if self._seen < self.count:
            return None
        self._spent = True
        if self.kind == "crash_after_appends":
            return AppendFault(crash=True)
        return AppendFault(crash=True, torn=True, keep_bytes=self.keep_bytes)

    def on_worker_op(self, worker_id: int) -> bool:
        """One-shot kill trigger, consulted once per applied worker write."""
        if self.kind != "kill_worker" or self._spent:
            return False
        if self.shard is not None and worker_id != self.shard:
            return False
        self._seen += 1
        if self._seen < self.count:
            return False
        self._spent = True
        return True

    def on_compaction(self, shard: int) -> bool:
        """One-shot crash trigger, consulted per compaction record copy."""
        if self.kind != "crash_during_compaction" or self._spent:
            return False
        if self.shard is not None and shard != self.shard:
            return False
        self._seen += 1
        if self._seen < self.count:
            return False
        self._spent = True
        return True

    def on_checkpoint(self, shard: int) -> Optional[AppendFault]:
        """One-shot torn-artifact trigger, consulted per checkpoint write."""
        if self.kind != "torn_checkpoint" or self._spent:
            return None
        if self.shard is not None and shard != self.shard:
            return None
        self._seen += 1
        if self._seen < self.count:
            return None
        self._spent = True
        return AppendFault(crash=True, torn=True, keep_bytes=self.keep_bytes)

    def on_maintenance_kill(self, site: str, worker_id: int) -> bool:
        """One-shot worker-kill trigger at a maintenance boundary."""
        if self.kind != "kill_worker_during" or self._spent:
            return False
        if site != self.site:
            return False
        if self.shard is not None and worker_id != self.shard:
            return False
        self._seen += 1
        if self._seen < self.count:
            return False
        self._spent = True
        return True

    def on_writer(self, shard: int) -> float:
        if self.kind != "delay_shard" or shard != self.shard:
            return 0.0
        self._seen += 1
        return self.seconds if self._seen % self.every == 0 else 0.0

    def on_dispatch(self) -> bool:
        if self.kind != "busy":
            return False
        return self._rng.random() < self.probability

    def on_frame(self) -> str:
        if self.kind == "drop_connection":
            if self._rng.random() < self.probability:
                return FRAME_DROP
        elif self.kind == "corrupt_frame":
            if self._rng.random() < self.probability:
                return FRAME_CORRUPT
        return FRAME_OK

    def corrupt_offset(self, body_len: int) -> Tuple[int, int]:
        """(byte offset within the body, xor mask) for a corruption hit."""
        offset = self._rng.randrange(body_len) if body_len else 0
        mask = self._rng.randrange(1, 256)
        return offset, mask


class FaultPlan:
    """A seeded set of fault rules plus fired-fault accounting."""

    def __init__(self, rules: Sequence[FaultRule] = (), seed: int = 0) -> None:
        self.seed = seed
        self.rules: List[FaultRule] = [
            rule.bind(seed, index) for index, rule in enumerate(rules)
        ]
        self.fired: Dict[str, int] = {}
        self._armed = True

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a spec string (see module docstring for the grammar)."""
        rules: List[FaultRule] = []
        for chunk in spec.replace(",", ";").split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            rules.append(_parse_rule(chunk))
        if not rules:
            raise FaultSpecError(f"no rules in fault spec {spec!r}")
        return cls(rules, seed=seed)

    def describe(self) -> str:
        inner = "; ".join(rule.describe() for rule in self.rules)
        return f"FaultPlan(seed={self.seed}, rules=[{inner}])"

    def spec(self) -> str:
        """The plan's rules as a spec string ``parse`` accepts — the shape
        shipped to worker processes so each can rebuild the plan locally."""
        return "; ".join(rule.describe() for rule in self.rules)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def disarm(self) -> None:
        """Stop injecting (used for a post-run verification phase)."""
        self._armed = False

    def arm(self) -> None:
        self._armed = True

    @property
    def armed(self) -> bool:
        return self._armed

    def spent_maintenance_kills(self) -> List[int]:
        """Indices of the ``kill_worker_during=compaction|checkpoint``
        rules that have fired (see :meth:`mark_spent`)."""
        return [
            index for index, rule in enumerate(self.rules)
            if rule.kind == "kill_worker_during"
            and rule.site in ("compaction", "checkpoint") and rule._spent
        ]

    def mark_spent(self, indices: Sequence[int]) -> None:
        """Start the given one-shot rules already fired.  A worker killed
        inside maintenance hands its spent strike to its replacement:
        recovery keeps the log as it was, so the replacement resumes the
        interrupted compaction or checkpoint, and re-firing the strike
        there would kill every incarnation in turn."""
        for index in indices:
            self.rules[index]._spent = True

    def reset(self) -> None:
        """Rewind all counters/one-shots and re-derive every rule's RNG."""
        self.fired.clear()
        for index, rule in enumerate(self.rules):
            rule.reset()
            rule.bind(self.seed, index)
        self._armed = True

    def _note(self, name: str) -> None:
        self.fired[name] = self.fired.get(name, 0) + 1

    def fired_counts(self) -> Dict[str, int]:
        return dict(self.fired)

    # ------------------------------------------------------------------
    # consult sites
    # ------------------------------------------------------------------

    def on_append(self, shard: int = 0) -> Optional[AppendFault]:
        """Consulted by the durable log right before persisting a record."""
        if not self._armed:
            return None
        for rule in self.rules:
            fault = rule.on_append(shard)
            if fault is not None:
                self._note("torn_write" if fault.torn else "crash")
                return fault
        return None

    def writer_delay(self, shard: int) -> float:
        """Seconds the shard's writer should stall this run."""
        if not self._armed:
            return 0.0
        delay = 0.0
        for rule in self.rules:
            fired = rule.on_writer(shard)
            if fired:
                self._note("delay")
                delay += fired
        return delay

    def should_kill_worker(self, worker_id: int) -> bool:
        """Consulted once per applied worker write, after the write is
        persisted and applied but before its ack frame is sent."""
        if not self._armed:
            return False
        for rule in self.rules:
            if rule.on_worker_op(worker_id):
                self._note("kill_worker")
                return True
        return False

    def on_compaction_record(self, shard: int = 0) -> bool:
        """Consulted by the compactor before each live record is copied.

        True means "crash here": the compactor must abandon the in-progress
        segment and raise :class:`InjectedCrash` *without* committing, so
        the old log image stays authoritative.
        """
        if not self._armed:
            return False
        for rule in self.rules:
            if rule.on_compaction(shard):
                self._note("crash_during_compaction")
                return True
        return False

    def on_checkpoint_write(self, shard: int = 0) -> Optional[AppendFault]:
        """Consulted by the checkpointer right before a checkpoint persists.

        A returned fault means the artifact is torn at ``keep_bytes``
        (default: its midpoint) and :class:`InjectedCrash` is raised; the
        torn artifact must fail CRC validation at recovery time.
        """
        if not self._armed:
            return None
        for rule in self.rules:
            fault = rule.on_checkpoint(shard)
            if fault is not None:
                self._note("torn_checkpoint")
                return fault
        return None

    def should_kill_maintenance(self, site: str, worker_id: int = 0) -> bool:
        """Consulted at worker maintenance boundaries (``site`` is
        ``compaction``, ``checkpoint``, or ``migration``); True kills the
        worker process."""
        if not self._armed:
            return False
        for rule in self.rules:
            if rule.on_maintenance_kill(site, worker_id):
                self._note("kill_worker_during")
                return True
        return False

    def should_reject_busy(self) -> bool:
        """Consulted per write dispatch; True forces a BUSY error frame."""
        if not self._armed:
            return False
        for rule in self.rules:
            if rule.on_dispatch():
                self._note("busy")
                return True
        return False

    def on_frame_send(self, body: bytes) -> Tuple[str, bytes]:
        """Consulted per outgoing frame.

        Returns ``(verdict, body)`` where verdict is one of
        :data:`FRAME_OK` / :data:`FRAME_DROP` / :data:`FRAME_CORRUPT`;
        for a corruption the returned body has one byte flipped.
        """
        if not self._armed:
            return FRAME_OK, body
        for rule in self.rules:
            verdict = rule.on_frame()
            if verdict == FRAME_DROP:
                self._note("drop_connection")
                return FRAME_DROP, body
            if verdict == FRAME_CORRUPT:
                self._note("corrupt_frame")
                offset, mask = rule.corrupt_offset(len(body))
                if not body:
                    return FRAME_OK, body
                mutated = bytearray(body)
                mutated[offset] ^= mask
                return FRAME_CORRUPT, bytes(mutated)
        return FRAME_OK, body


def _parse_rule(chunk: str) -> FaultRule:
    if "=" not in chunk:
        raise FaultSpecError(f"rule {chunk!r} is missing '=<args>'")
    name, args = chunk.split("=", 1)
    name = name.strip()
    args = args.strip()
    shard: Optional[int] = None
    if "@" in args:
        args, shard_text = args.rsplit("@", 1)
        shard = _int(shard_text, chunk)
    parts = [part for part in args.split(":") if part != ""]
    try:
        if name == "crash_after_appends":
            return FaultRule(name, count=_positive(_int(parts[0], chunk), chunk),
                             shard=shard)
        if name == "torn_write":
            keep = _int(parts[1], chunk) if len(parts) > 1 else None
            return FaultRule(name, count=_positive(_int(parts[0], chunk), chunk),
                             keep_bytes=keep, shard=shard)
        if name == "kill_worker":
            # ``@WORKER`` rides the generic ``@`` suffix into ``shard``.
            return FaultRule(name, count=_positive(_int(parts[0], chunk), chunk),
                             shard=shard)
        if name == "crash_during_compaction":
            return FaultRule(name, count=_positive(_int(parts[0], chunk), chunk),
                             shard=shard)
        if name == "torn_checkpoint":
            keep = _int(parts[1], chunk) if len(parts) > 1 else None
            return FaultRule(name, count=_positive(_int(parts[0], chunk), chunk),
                             keep_bytes=keep, shard=shard)
        if name == "kill_worker_during":
            if len(parts) < 2:
                raise FaultSpecError(f"rule {chunk!r} needs SITE:N[@WORKER]")
            site = parts[0].strip()
            if site not in FaultRule.MAINTENANCE_SITES:
                raise FaultSpecError(
                    f"rule {chunk!r}: site must be one of "
                    f"{list(FaultRule.MAINTENANCE_SITES)}"
                )
            # ``@WORKER`` rides the generic ``@`` suffix into ``shard``.
            return FaultRule(name, site=site,
                             count=_positive(_int(parts[1], chunk), chunk),
                             shard=shard)
        if name == "delay_shard":
            if len(parts) < 2:
                raise FaultSpecError(
                    f"rule {chunk!r} needs SHARD:SECONDS[:EVERY]"
                )
            every = _int(parts[2], chunk) if len(parts) > 2 else 1
            return FaultRule(name, shard=_int(parts[0], chunk),
                             seconds=float(parts[1]), every=every)
        if name in ("busy", "drop_connection", "corrupt_frame"):
            probability = float(parts[0])
            if not 0.0 <= probability <= 1.0:
                raise FaultSpecError(
                    f"rule {chunk!r}: probability must be in [0, 1]"
                )
            return FaultRule(name, probability=probability)
    except (IndexError, ValueError) as error:
        raise FaultSpecError(f"cannot parse rule {chunk!r}: {error}") from error
    raise FaultSpecError(f"unknown fault rule {name!r}")


def _int(text: str, chunk: str) -> int:
    try:
        return int(text)
    except ValueError as error:
        raise FaultSpecError(f"rule {chunk!r}: {text!r} is not an integer") from error


def _positive(value: int, chunk: str) -> int:
    if value <= 0:
        raise FaultSpecError(f"rule {chunk!r}: count must be positive")
    return value


__all__ = [
    "AppendFault",
    "FRAME_CORRUPT",
    "FRAME_DROP",
    "FRAME_OK",
    "FaultPlan",
    "FaultRule",
    "FaultSpecError",
    "InjectedCrash",
]
