"""Network serving layer: binary protocol, asyncio server/client, loadgen.

Turns the in-process sharded McCuckoo KV store into a service: a
length-prefixed binary wire protocol (:mod:`~repro.serve.protocol`), an
asyncio TCP server with one writer task per shard and explicit
backpressure (:mod:`~repro.serve.server`), a pooled async client with
pipelined batches (:mod:`~repro.serve.client`), per-op serving counters
behind the STATS verb (:mod:`~repro.serve.stats`), and a closed-loop load
generator reporting ops/sec with p50/p95/p99 latency
(:mod:`~repro.serve.loadgen`).  :mod:`~repro.serve.workers` lifts the
same frontend onto N supervised shard worker processes for true
multi-core parallelism.  Every op, GETs included, travels to its shard's
owning worker over a pair of shared-memory SPSC rings
(:mod:`~repro.serve.shm`); that is the worker server's one transport and
one GET path, and a platform without ``multiprocessing.shared_memory``
serves single-process only.  :mod:`~repro.serve.resharding` migrates
shards between live workers (snapshot → delta → fence → flip) and the
worker server can host per-shard read replicas for owner-down
degradation.
"""

from .client import (
    McCuckooClient,
    RequestTimeoutError,
    RetryPolicy,
    ServeError,
    ServerBusyError,
    ServerUnavailableError,
)
from .faultgen import (
    DEFAULT_FAULT_SPEC,
    FaultgenConfig,
    FaultgenReport,
    run_faultgen,
)
from .loadgen import LoadgenConfig, LoadReport, build_workload, run_loadgen
from .protocol import (
    BatchReply,
    BatchRequest,
    DeleteReply,
    DeleteRequest,
    ErrorCode,
    ErrorReply,
    FenceFrame,
    GetRequest,
    MigrateFrame,
    Opcode,
    ProtocolError,
    PutReply,
    PutRequest,
    ReplicaFrame,
    StatsReply,
    StatsRequest,
    ValueReply,
    decode_migration_frame,
    decode_reply,
    decode_request,
    encode_fence,
    encode_migrate,
    encode_replica,
    encode_reply,
    encode_request,
    read_frame,
    write_frame,
)
from .resharding import MigrationReport, ReshardCoordinator
from .server import McCuckooServer, ServerConfig
from .shm import (
    RingFrameTooLarge,
    RingFullError,
    ShmRing,
    ShmTransport,
    shm_available,
)
from .stats import ServeStats
from .store import ShardedLogStore
from .workers import (
    MigrationError,
    WorkerDiedError,
    WorkerPool,
    WorkerServer,
    WorkerSpec,
    WorkerUnavailableError,
)

__all__ = [
    "BatchReply",
    "BatchRequest",
    "DEFAULT_FAULT_SPEC",
    "DeleteReply",
    "DeleteRequest",
    "ErrorCode",
    "ErrorReply",
    "FaultgenConfig",
    "FaultgenReport",
    "FenceFrame",
    "GetRequest",
    "MigrateFrame",
    "MigrationError",
    "MigrationReport",
    "ReplicaFrame",
    "ReshardCoordinator",
    "LoadReport",
    "LoadgenConfig",
    "McCuckooClient",
    "McCuckooServer",
    "Opcode",
    "ProtocolError",
    "PutReply",
    "PutRequest",
    "RequestTimeoutError",
    "RetryPolicy",
    "RingFrameTooLarge",
    "RingFullError",
    "ServeError",
    "ServeStats",
    "ServerBusyError",
    "ServerUnavailableError",
    "ServerConfig",
    "ShardedLogStore",
    "ShmRing",
    "ShmTransport",
    "StatsReply",
    "StatsRequest",
    "ValueReply",
    "WorkerDiedError",
    "WorkerPool",
    "WorkerServer",
    "WorkerSpec",
    "WorkerUnavailableError",
    "build_workload",
    "decode_migration_frame",
    "decode_reply",
    "decode_request",
    "encode_fence",
    "encode_migrate",
    "encode_replica",
    "encode_reply",
    "encode_request",
    "read_frame",
    "run_faultgen",
    "run_loadgen",
    "shm_available",
    "write_frame",
]
