"""Closed-loop load generator for the McCuckoo KV service.

Builds an operation list from the existing workload generators
(:mod:`repro.workloads`: Zipf, YCSB mixes, mixed traces with deletes) and
drives it through :class:`~repro.serve.client.McCuckooClient` with N
closed-loop workers — each worker issues its next operation only after the
previous one completed, so offered load tracks service capacity and the
measured latencies are honest (no coordinated-omission inflation from an
open-loop backlog).

The op list construction is a pure function (:func:`build_workload`) so
correctness tests can replay the identical operations against a dict model.
"""

from __future__ import annotations

import asyncio
import bisect
import math
import random
import struct
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..workloads import (
    DiurnalLoadGenerator,
    HotKeyChurnGenerator,
    OpKind,
    TraceGenerator,
    YCSBConfig,
    YCSBWorkload,
    ZipfSampler,
)
from ..workloads.keys import distinct_keys
from .client import (
    McCuckooClient,
    RequestTimeoutError,
    RetryPolicy,
    ServeError,
    ServerBusyError,
)
from .protocol import ErrorCode, ErrorReply

#: ops are client batch tuples: ("get", key) / ("put", key, value) / ("delete", key)
Op = Tuple

WORKLOADS = ("zipf", "uniform", "mixed", "churn", "diurnal", "ycsb-A",
             "ycsb-B", "ycsb-C", "ycsb-D", "ycsb-F")


@dataclass(frozen=True)
class LoadgenConfig:
    """Shape of one load-generation run."""

    workload: str = "zipf"
    n_ops: int = 10_000
    n_keys: int = 1_000
    concurrency: int = 8
    batch_size: int = 1
    value_size: int = 64
    zipf_s: float = 0.99
    get_ratio: float = 0.70
    put_ratio: float = 0.25
    delete_ratio: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; options: {WORKLOADS}"
            )
        if self.n_ops <= 0 or self.n_keys <= 0:
            raise ValueError("n_ops and n_keys must be positive")
        if self.concurrency <= 0 or self.batch_size <= 0:
            raise ValueError("concurrency and batch_size must be positive")
        if min(self.get_ratio, self.put_ratio, self.delete_ratio) < 0:
            raise ValueError("mix ratios must be non-negative")
        if (self.get_ratio + self.put_ratio + self.delete_ratio) <= 0:
            raise ValueError("mix ratios must have a positive sum")


def parse_mix(spec: str) -> Dict[str, float]:
    """Parse a ``--mix`` value like ``"get=0.95,put=0.05"`` into ratios.

    Returns a complete ``{"get", "put", "delete"}`` dict (kinds absent
    from the spec are 0.0), ready to splat into
    :class:`LoadgenConfig`'s ``*_ratio`` fields.  Ratios need not sum to
    one — they are weights — but must be non-negative with a positive
    sum, and every kind may appear at most once.
    """
    ratios = {"get": 0.0, "put": 0.0, "delete": 0.0}
    seen = set()
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        kind, _, raw = chunk.partition("=")
        kind = kind.strip().lower()
        if kind not in ratios:
            raise ValueError(
                f"unknown op kind {kind!r} in mix {spec!r}; "
                f"expected get/put/delete"
            )
        if kind in seen:
            raise ValueError(f"op kind {kind!r} appears twice in mix {spec!r}")
        seen.add(kind)
        try:
            ratio = float(raw)
        except ValueError:
            raise ValueError(
                f"mix entry {chunk!r} is not KIND=RATIO"
            ) from None
        if ratio < 0 or not math.isfinite(ratio):
            raise ValueError(f"mix ratio for {kind!r} must be >= 0 and finite")
        ratios[kind] = ratio
    if sum(ratios.values()) <= 0:
        raise ValueError(f"mix {spec!r} must have a positive ratio sum")
    return ratios


def value_bytes(key: int, version: int, size: int) -> bytes:
    """Deterministic payload: (key, version) header padded to ``size``."""
    header = struct.pack(">QQ", key & (2**64 - 1), version & (2**64 - 1))
    if size <= len(header):
        return header[:max(size, 1)]
    return header + b"\x5a" * (size - len(header))


def build_workload(config: LoadgenConfig) -> Tuple[List[Op], List[Op]]:
    """(preload ops, timed ops) for one run — pure and reproducible.

    Preload ops are all puts and establish the working set; the timed ops
    are the measured phase.
    """
    if config.workload.startswith("ycsb-"):
        return _build_ycsb(config)
    if config.workload == "mixed":
        return [], _build_mixed(config)
    if config.workload == "churn":
        return _build_churn(config)
    if config.workload == "diurnal":
        return [], _build_diurnal(config)
    return _build_skewed(config)


def _build_skewed(config: LoadgenConfig) -> Tuple[List[Op], List[Op]]:
    keys = distinct_keys(config.n_keys, seed=config.seed)
    preload: List[Op] = [
        ("put", key, value_bytes(key, 0, config.value_size)) for key in keys
    ]
    rng = random.Random(config.seed ^ 0x10AD)
    zipf = ZipfSampler(len(keys), s=config.zipf_s, seed=config.seed + 1)
    kinds = ("get", "put", "delete")
    weights = (config.get_ratio, config.put_ratio, config.delete_ratio)
    ops: List[Op] = []
    version = 1
    for _ in range(config.n_ops):
        if config.workload == "zipf":
            key = keys[zipf.sample()]
        else:  # uniform
            key = keys[rng.randrange(len(keys))]
        kind = rng.choices(kinds, weights=weights)[0]
        if kind == "put":
            ops.append(("put", key, value_bytes(key, version, config.value_size)))
            version += 1
        elif kind == "delete":
            ops.append(("delete", key))
        else:
            ops.append(("get", key))
    return preload, ops


def _build_ycsb(config: LoadgenConfig) -> Tuple[List[Op], List[Op]]:
    workload = YCSBWorkload(
        YCSBConfig(
            workload=config.workload.split("-", 1)[1],
            n_records=config.n_keys,
            n_ops=config.n_ops,
            zipf_s=config.zipf_s,
            seed=config.seed,
        )
    )
    preload = [
        ("put", op.key, value_bytes(op.key, op.value or 0, config.value_size))
        for op in workload.load_phase()
    ]
    return preload, list(_map_trace(workload.run_phase(), config))


def _build_mixed(config: LoadgenConfig) -> List[Op]:
    total = config.get_ratio + config.put_ratio + config.delete_ratio
    trace = TraceGenerator(
        config.n_ops,
        insert_ratio=config.put_ratio / total,
        lookup_ratio=config.get_ratio / total * 0.75,
        missing_ratio=config.get_ratio / total * 0.25,
        delete_ratio=config.delete_ratio / total,
        seed=config.seed,
    )
    return list(_map_trace(iter(trace), config))


def _build_churn(config: LoadgenConfig) -> Tuple[List[Op], List[Op]]:
    """Rotating-hot-set churn; the generator's preload INSERTs become the
    warm-up phase and its get/update/replace mix becomes the timed ops."""
    generator = HotKeyChurnGenerator(
        config.n_ops,
        n_keys=config.n_keys,
        hot_size=max(1, config.n_keys // 16),
        rotate_every=max(1, config.n_ops // 8),
        zipf_s=config.zipf_s,
        get_ratio=config.get_ratio,
        update_ratio=config.put_ratio,
        churn_ratio=config.delete_ratio,
        seed=config.seed,
        preload=True,
    )
    ops = list(_map_trace(iter(generator), config))
    return ops[:config.n_keys], ops[config.n_keys:]


def _build_diurnal(config: LoadgenConfig) -> List[Op]:
    """Day-cycle occupancy ramp: two periods between n_keys/4 and n_keys,
    starting from an empty store (there is nothing to preload)."""
    generator = DiurnalLoadGenerator(
        config.n_ops,
        base_keys=max(1, config.n_keys // 4),
        peak_keys=config.n_keys,
        period=max(2, config.n_ops // 2),
        get_ratio=config.get_ratio,
        zipf_s=config.zipf_s,
        seed=config.seed,
    )
    return list(_map_trace(iter(generator), config))


def _map_trace(trace: Iterator, config: LoadgenConfig) -> Iterator[Op]:
    for op in trace:
        if op.kind in (OpKind.INSERT, OpKind.UPDATE):
            yield ("put", op.key, value_bytes(op.key, op.value or 0,
                                              config.value_size))
        elif op.kind is OpKind.DELETE:
            yield ("delete", op.key)
        else:  # LOOKUP / LOOKUP_MISSING
            yield ("get", op.key)


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------


def percentile(sorted_latencies: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sample (q in [0,100])."""
    if not sorted_latencies:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_latencies)))
    return sorted_latencies[min(rank, len(sorted_latencies)) - 1]


#: log2-spaced histogram bucket upper bounds, in milliseconds
#: (50µs .. ~3.3s; one overflow bucket catches the rest).
HIST_BOUNDS_MS: Tuple[float, ...] = tuple(0.05 * (2 ** i) for i in range(17))


def latency_histogram(
    sorted_ms: Sequence[float],
    bounds: Sequence[float] = HIST_BOUNDS_MS,
) -> List[Tuple[float, int]]:
    """Bucket a sorted latency sample (ms) into ``(upper_bound_ms, count)``
    pairs; the final bucket has an infinite bound and absorbs the tail."""
    out: List[Tuple[float, int]] = []
    prev = 0
    for bound in bounds:
        pos = bisect.bisect_right(sorted_ms, bound)
        out.append((bound, pos - prev))
        prev = pos
    out.append((math.inf, len(sorted_ms) - prev))
    return out


def summarize_latencies(sorted_s: Sequence[float]) -> Dict[str, float]:
    """count/p50/p95/p99/mean (ms) of an already-sorted sample (seconds)."""
    mean = sum(sorted_s) / len(sorted_s) if sorted_s else 0.0
    return {
        "count": len(sorted_s),
        "p50_ms": percentile(sorted_s, 50) * 1e3,
        "p95_ms": percentile(sorted_s, 95) * 1e3,
        "p99_ms": percentile(sorted_s, 99) * 1e3,
        "mean_ms": mean * 1e3,
    }


@dataclass
class LoadReport:
    """Throughput and latency summary of one run."""

    workload: str
    n_ops: int
    completed: int
    elapsed_s: float
    ops_per_sec: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    busy: int
    timeouts: int
    errors: int
    per_kind: Dict[str, int] = field(default_factory=dict)
    kind_latency: Dict[str, Dict[str, float]] = field(default_factory=dict)
    """Per-op-kind latency summary: kind → count/p50_ms/p95_ms/p99_ms/mean_ms."""
    histogram: List[Tuple[float, int]] = field(default_factory=list)
    """Global latency histogram: (upper_bound_ms, count); last bound is inf."""

    def render(self) -> str:
        lines = [
            f"workload {self.workload}: {self.completed}/{self.n_ops} ops "
            f"in {self.elapsed_s:.2f}s ({self.ops_per_sec:,.0f} ops/s)",
            f"  latency   p50={self.p50_ms:.3f}ms  p95={self.p95_ms:.3f}ms  "
            f"p99={self.p99_ms:.3f}ms  mean={self.mean_ms:.3f}ms",
            f"  rejected  busy={self.busy}  timeouts={self.timeouts}  "
            f"errors={self.errors}",
            "  mix       "
            + "  ".join(f"{kind}={count}"
                        for kind, count in sorted(self.per_kind.items())),
        ]
        for kind, summary in sorted(self.kind_latency.items()):
            lines.append(
                f"  {kind:<9} n={int(summary['count'])}  "
                f"p50={summary['p50_ms']:.3f}ms  "
                f"p95={summary['p95_ms']:.3f}ms  "
                f"p99={summary['p99_ms']:.3f}ms  "
                f"mean={summary['mean_ms']:.3f}ms"
            )
        populated = [(bound, count) for bound, count in self.histogram
                     if count > 0]
        if populated:
            lines.append(
                "  hist      "
                + "  ".join(
                    (f">{HIST_BOUNDS_MS[-1]:g}ms:{count}"
                     if math.isinf(bound) else f"<={bound:g}ms:{count}")
                    for bound, count in populated
                )
            )
        return "\n".join(lines)

    def summary_json(self) -> Dict[str, object]:
        """The whole report as one JSON-safe dict (``repro loadgen --json``)."""
        return {
            "workload": self.workload,
            "n_ops": self.n_ops,
            "completed": self.completed,
            "elapsed_s": self.elapsed_s,
            "ops_per_sec": self.ops_per_sec,
            "latency_ms": {
                "p50": self.p50_ms,
                "p95": self.p95_ms,
                "p99": self.p99_ms,
                "mean": self.mean_ms,
            },
            "rejected": {
                "busy": self.busy,
                "timeouts": self.timeouts,
                "errors": self.errors,
            },
            "per_kind": dict(sorted(self.per_kind.items())),
            "per_kind_ops_per_sec": {
                # completed ops only (kind_latency samples), so per-kind
                # throughput decomposes the headline ops_per_sec exactly
                kind: (summary["count"] / self.elapsed_s
                       if self.elapsed_s > 0 else 0.0)
                for kind, summary in sorted(self.kind_latency.items())
            },
            "kind_latency": {
                kind: dict(summary)
                for kind, summary in sorted(self.kind_latency.items())
            },
            "histogram": [
                {"le_ms": None if math.isinf(bound) else bound,
                 "count": count}
                for bound, count in self.histogram
            ],
        }


async def run_loadgen(
    host: str,
    port: int,
    config: LoadgenConfig,
    preload: bool = True,
    retry: Optional[RetryPolicy] = None,
) -> LoadReport:
    """Preload the working set, then drive the timed phase closed-loop.

    A ``retry`` policy makes the workers resilient to BUSY storms and
    connection loss (useful against a fault-injected server); without one,
    failures count into the report as before.
    """
    preload_ops, ops = build_workload(config)
    async with McCuckooClient(host, port, pool_size=config.concurrency,
                              retry=retry) as client:
        if preload and preload_ops:
            await _preload(client, preload_ops)

        latencies: List[float] = []
        per_kind: Dict[str, int] = {}
        kind_lats: Dict[str, List[float]] = {}
        busy = timeouts = errors = completed = 0
        queue: Iterator[Op] = iter(ops)

        async def worker() -> None:
            nonlocal busy, timeouts, errors, completed
            requeued: List[Op] = []
            while True:
                # ops the server bounced with a per-op BUSY retry first —
                # closed-loop semantics: an op is not done until accepted
                chunk: List[Op] = requeued[:config.batch_size]
                del requeued[:len(chunk)]
                # single-threaded event loop: pulling from the shared
                # iterator between awaits is race-free
                for op in queue:
                    chunk.append(op)
                    if len(chunk) >= config.batch_size:
                        break
                if not chunk:
                    return
                begin = time.perf_counter()
                replies: Optional[Sequence] = None
                try:
                    if config.batch_size == 1:
                        await _issue_one(client, chunk[0])
                    else:
                        replies = await client.batch(chunk)
                except ServerBusyError:
                    busy += len(chunk)
                except RequestTimeoutError:
                    timeouts += len(chunk)
                except ServeError:
                    errors += len(chunk)
                except (ConnectionError, OSError):
                    errors += len(chunk)
                else:
                    # a batch frame succeeds as a whole, but each op inside
                    # answers for itself: count per-op BUSY (backpressure)
                    # and error sub-replies instead of taking the frame's
                    # success at face value
                    done = list(chunk)
                    if replies is not None:
                        done = []
                        for op, reply in zip(chunk, replies):
                            if isinstance(reply, ErrorReply):
                                if reply.code is ErrorCode.BUSY:
                                    busy += 1
                                    requeued.append(op)
                                else:
                                    errors += 1
                                    per_kind[op[0]] = (
                                        per_kind.get(op[0], 0) + 1
                                    )
                                continue
                            done.append(op)
                    completed += len(done)
                    if done:
                        cost = (time.perf_counter() - begin) / len(done)
                        for op in done:
                            latencies.append(cost)
                            kind_lats.setdefault(op[0], []).append(cost)
                            per_kind[op[0]] = per_kind.get(op[0], 0) + 1
                    continue
                for op in chunk:
                    per_kind[op[0]] = per_kind.get(op[0], 0) + 1

        wall_start = time.perf_counter()
        await asyncio.gather(*(worker() for _ in range(config.concurrency)))
        elapsed = time.perf_counter() - wall_start

    latencies.sort()
    mean = sum(latencies) / len(latencies) if latencies else 0.0
    kind_latency: Dict[str, Dict[str, float]] = {}
    for kind, sample in kind_lats.items():
        sample.sort()
        kind_latency[kind] = summarize_latencies(sample)
    return LoadReport(
        workload=config.workload,
        n_ops=len(ops),
        completed=completed,
        elapsed_s=elapsed,
        ops_per_sec=completed / elapsed if elapsed > 0 else 0.0,
        p50_ms=percentile(latencies, 50) * 1e3,
        p95_ms=percentile(latencies, 95) * 1e3,
        p99_ms=percentile(latencies, 99) * 1e3,
        mean_ms=mean * 1e3,
        busy=busy,
        timeouts=timeouts,
        errors=errors,
        per_kind=per_kind,
        kind_latency=kind_latency,
        histogram=latency_histogram([v * 1e3 for v in latencies]),
    )


async def _preload(
    client: McCuckooClient, ops: List[Op], rounds: int = 10
) -> None:
    """Load the working set, retrying ops the server bounced with BUSY."""
    pending = ops
    for _ in range(rounds):
        bounced: List[Op] = []
        for start in range(0, len(pending), 128):
            chunk = pending[start:start + 128]
            replies = await client.batch(chunk)
            bounced.extend(
                op
                for op, reply in zip(chunk, replies)
                if isinstance(reply, ErrorReply)
                and reply.code is ErrorCode.BUSY
            )
        if not bounced:
            return
        pending = bounced
        await asyncio.sleep(0.01)
    raise ServeError(ErrorCode.BUSY,
                     f"{len(pending)} preload ops still bounced after "
                     f"{rounds} rounds")


async def _issue_one(client: McCuckooClient, op: Op) -> None:
    verb = op[0]
    if verb == "get":
        await client.get(op[1])
    elif verb == "put":
        await client.put(op[1], op[2])
    elif verb == "delete":
        await client.delete(op[1])
    else:
        raise ValueError(f"unknown op verb {verb!r}")
