"""Core McCuckoo implementation: single-slot and blocked multi-copy tables."""

from .batch import BatchResult, batched_lookup, serial_epochs
from .blocked import BlockedMcCuckoo
from .config import DeletionMode, FailurePolicy, SiblingTracking, TableConfig
from .counters import BitArray, PackedArray
from .engine import BACKENDS, EngineConfig
from .errors import (
    ConfigurationError,
    InvariantViolationError,
    ReproError,
    TableFullError,
    UnsupportedOperationError,
)
from .interface import HashTable
from .invariants import check_blocked, check_mccuckoo
from .mccuckoo import McCuckoo
from .multimap import McCuckooMultiMap
from .resize import ResizableMcCuckoo
from .sharded import (ShardedMcCuckoo, ShardRouter, shards_of_worker,
                      worker_of_shard)
from .policies import (
    BubblingPolicy,
    KickPolicy,
    MinCounterPolicy,
    RandomWalkPolicy,
    WearAwarePolicy,
    make_policy,
)
from .snapshot import load as load_snapshot
from .snapshot import save as save_snapshot
from .results import (
    DeleteOutcome,
    InsertOutcome,
    InsertStatus,
    LookupOutcome,
    TableEvents,
)
from .stash import OffChipStash, OnChipStash

__all__ = [
    "BACKENDS",
    "BatchResult",
    "BitArray",
    "BlockedMcCuckoo",
    "BubblingPolicy",
    "ConfigurationError",
    "EngineConfig",
    "DeleteOutcome",
    "DeletionMode",
    "FailurePolicy",
    "HashTable",
    "InsertOutcome",
    "InsertStatus",
    "InvariantViolationError",
    "KickPolicy",
    "LookupOutcome",
    "McCuckoo",
    "McCuckooMultiMap",
    "MinCounterPolicy",
    "WearAwarePolicy",
    "OffChipStash",
    "OnChipStash",
    "PackedArray",
    "RandomWalkPolicy",
    "ResizableMcCuckoo",
    "ShardRouter",
    "shards_of_worker",
    "worker_of_shard",
    "ShardedMcCuckoo",
    "ReproError",
    "SiblingTracking",
    "TableConfig",
    "TableEvents",
    "TableFullError",
    "UnsupportedOperationError",
    "batched_lookup",
    "check_blocked",
    "check_mccuckoo",
    "make_policy",
    "load_snapshot",
    "save_snapshot",
    "serial_epochs",
]
