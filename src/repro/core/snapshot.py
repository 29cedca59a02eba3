"""Snapshot and restore table state.

A deduplication index or flow table must survive restarts without a full
rebuild (re-inserting millions of keys would also re-randomise the layout
and invalidate warm counters).  These helpers capture the complete state of
a :class:`McCuckoo` or :class:`BlockedMcCuckoo` — bucket contents, on-chip
counters, flags, tombstones, sibling metadata, stash, RNG state, event
milestones and kick-policy state (bubbling labels, MinCounter history,
wear counts) — and restore it bit-for-bit, so a restored table makes the
same choices the original would have.

Snapshots are plain picklable dicts; :func:`save` / :func:`load` wrap them
in a versioned pickle file.  Restored tables are verified against the
structural invariant checkers before being returned.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict

from .blocked import BlockedMcCuckoo
from .config import DeletionMode, FailurePolicy, SiblingTracking, TableConfig
from .errors import ConfigurationError
from .invariants import check_blocked, check_mccuckoo
from .mccuckoo import McCuckoo
from .policies import make_policy
from .results import TableEvents

SNAPSHOT_VERSION = 2


def _check_kind(data: Dict[str, Any], kind: str, what: str) -> Dict[str, Any]:
    if data.get("kind") != kind:
        raise ConfigurationError(f"snapshot is not {what}")
    if data.get("version") != SNAPSHOT_VERSION:
        raise ConfigurationError(f"unsupported snapshot version {data.get('version')}")
    return data["config"]


def _stash_state(table) -> Dict[str, Any]:
    if table._stash is None:
        return {"present": False}
    return {
        "present": True,
        "n_buckets": len(table._stash._buckets),
        "items": list(table._stash.items()),
    }


def _restore_stash(table, state: Dict[str, Any]) -> None:
    if not state["present"]:
        return
    stash = table._stash
    for chain in stash._buckets:
        chain.clear()
    stash._count = 0
    for key, value in state["items"]:
        stash._bucket_of(key).append((key, value))
        stash._count += 1


def _policy_state(table) -> Dict[str, Any]:
    """Kick-policy state (bubbling labels, MinCounter history) and the wear
    counts a wear-aware policy reads."""
    wear = getattr(table, "_wear", None)
    return {
        "policy": table._policy.state(),
        "wear": (list(wear._counts), wear._total) if wear is not None else None,
    }


def _restore_policy_state(table, state: Dict[str, Any]) -> None:
    if state["policy"] is not None:
        table._policy.load_state(state["policy"])
    wear = getattr(table, "_wear", None)
    if wear is not None and state["wear"] is not None:
        wear._counts, wear._total = list(state["wear"][0]), state["wear"][1]


def _table_state(table) -> Dict[str, Any]:
    """The state both multi-copy table kinds share."""
    return {
        "keys": list(table._keys),
        "values": list(table._values),
        "counters": bytes(table._counters._data),
        "flags": bytes(table._flags._data),
        "tombstones": (
            bytes(table._tombstones._data) if table._tombstones is not None else None
        ),
        "n_main": table._n_main,
        "total_kicks": table.total_kicks,
        "rng_state": table._rng.getstate(),
        "events": (
            table.events.first_collision_items,
            table.events.first_failure_items,
        ),
        "stash": _stash_state(table),
        "policy": _policy_state(table),
    }


def _restore_table_state(table, data: Dict[str, Any]) -> None:
    table._keys = list(data["keys"])
    table._values = list(data["values"])
    table._counters._data = bytearray(data["counters"])
    table._flags._data = bytearray(data["flags"])
    if table._tombstones is not None and data["tombstones"] is not None:
        table._tombstones._data = bytearray(data["tombstones"])
    table._n_main = data["n_main"]
    table.total_kicks = data["total_kicks"]
    table._rng.setstate(data["rng_state"])
    table.events = TableEvents(*data["events"])
    _restore_stash(table, data["stash"])
    _restore_policy_state(table, data["policy"])


def _stash_buckets(table) -> int:
    return len(table._stash._buckets) if table._stash is not None else 0


def _policy(cfg: Dict[str, Any]):
    """The kick policy a snapshot config names, rebuilt with its recorded
    constructor arguments (absent from snapshots that predate them)."""
    return make_policy(cfg["kick_policy"], **cfg.get("kick_policy_params", {}))


def snapshot_mccuckoo(table: McCuckoo) -> Dict[str, Any]:
    """Capture a single-slot McCuckoo table's full state."""
    return {
        "version": SNAPSHOT_VERSION,
        "kind": "mccuckoo",
        "config": {
            "n_buckets": table.n_buckets,
            "d": table.d,
            "seed": table._seed,
            "maxloop": table.maxloop,
            "on_failure": table.on_failure.value,
            "deletion_mode": table.deletion_mode.value,
            "sibling_tracking": table.sibling_tracking.value,
            "stash_buckets": _stash_buckets(table),
            "kick_policy": table._policy.name,
            "kick_policy_params": table._policy.params(),
        },
        "masks": list(table._masks) if table._masks is not None else None,
        **_table_state(table),
    }


def _load_mccuckoo(table: McCuckoo, data: Dict[str, Any]) -> McCuckoo:
    _restore_table_state(table, data)
    if table._masks is not None and data["masks"] is not None:
        table._masks = list(data["masks"])
    check_mccuckoo(table)
    return table


def restore_mccuckoo(data: Dict[str, Any], *, mem=None, engine=None) -> McCuckoo:
    """Rebuild a McCuckoo table from :func:`snapshot_mccuckoo` output.

    ``mem`` / ``engine`` optionally attach a live memory model and batch
    engine to the restored table (snapshots never carry either — a counter
    object and a compute backend are runtime wiring, not state).
    """
    cfg = _check_kind(data, "mccuckoo", "a single-slot McCuckoo table")
    table = McCuckoo(
        cfg["n_buckets"],
        d=cfg["d"],
        seed=cfg["seed"],
        maxloop=cfg["maxloop"],
        kick_policy=_policy(cfg),
        on_failure=FailurePolicy(cfg["on_failure"]),
        deletion_mode=DeletionMode(cfg["deletion_mode"]),
        sibling_tracking=SiblingTracking(cfg["sibling_tracking"]),
        stash_buckets=max(1, cfg["stash_buckets"]),
        mem=mem,
        engine=engine,
    )
    return _load_mccuckoo(table, data)


def snapshot_blocked(table: BlockedMcCuckoo) -> Dict[str, Any]:
    """Capture a blocked B-McCuckoo table's full state."""
    return {
        "version": SNAPSHOT_VERSION,
        "kind": "blocked",
        "config": {
            "n_buckets": table.n_buckets,
            "d": table.d,
            "slots": table.slots,
            "seed": table._seed,
            "maxloop": table.maxloop,
            "on_failure": table.on_failure.value,
            "deletion_mode": table.deletion_mode.value,
            "stash_buckets": _stash_buckets(table),
            "kick_policy": table._policy.name,
            "kick_policy_params": table._policy.params(),
        },
        "slotmaps": list(table._slotmaps),
        **_table_state(table),
    }


def restore_blocked(data: Dict[str, Any]) -> BlockedMcCuckoo:
    """Rebuild a B-McCuckoo table from :func:`snapshot_blocked` output."""
    cfg = _check_kind(data, "blocked", "a blocked B-McCuckoo table")
    table = BlockedMcCuckoo(
        cfg["n_buckets"],
        d=cfg["d"],
        slots=cfg["slots"],
        seed=cfg["seed"],
        maxloop=cfg["maxloop"],
        kick_policy=_policy(cfg),
        on_failure=FailurePolicy(cfg["on_failure"]),
        deletion_mode=DeletionMode(cfg["deletion_mode"]),
        stash_buckets=max(1, cfg["stash_buckets"]),
    )
    _restore_table_state(table, data)
    table._slotmaps = list(data["slotmaps"])
    check_blocked(table)
    return table


def snapshot_resizable(table) -> Dict[str, Any]:
    """Capture a :class:`~repro.core.resize.ResizableMcCuckoo`: its
    :class:`~repro.core.config.TableConfig` (all but the engine), and an
    in-flight migration (both halves plus the cursor position)."""
    return {
        "version": SNAPSHOT_VERSION,
        "kind": "resizable",
        "config": table.config.to_dict(),
        "cursor": table._cursor,
        "generations": table.generations,
        "active": snapshot_mccuckoo(table.active_table),
        "retiring": (
            snapshot_mccuckoo(table.retiring_table)
            if table.retiring_table is not None
            else None
        ),
    }


def restore_resizable(data: Dict[str, Any], *, mem=None, engine=None):
    """Rebuild a ResizableMcCuckoo from :func:`snapshot_resizable` output.

    The table is built from the recorded config, so each generation gets
    the recorded kick policy, and then takes on its recorded state.
    """
    from .resize import ResizableMcCuckoo

    cfg = _check_kind(data, "resizable", "a ResizableMcCuckoo table")
    table = ResizableMcCuckoo(config=TableConfig.from_dict(cfg, engine=engine), mem=mem)

    def generation(state: Dict[str, Any]) -> McCuckoo:
        _check_kind(state, "mccuckoo", "a single-slot McCuckoo table")
        half = table._make_table(state["config"]["n_buckets"], state["config"]["seed"])
        return _load_mccuckoo(half, state)

    table._active = generation(data["active"])
    table._retiring = (
        generation(data["retiring"]) if data["retiring"] is not None else None
    )
    table._cursor = data["cursor"]
    table.generations = data["generations"]
    return table


def save(table, path: str) -> None:
    """Snapshot a table (McCuckoo, BlockedMcCuckoo, or ResizableMcCuckoo)
    to a pickle file."""
    from .resize import ResizableMcCuckoo

    if isinstance(table, McCuckoo):
        data = snapshot_mccuckoo(table)
    elif isinstance(table, BlockedMcCuckoo):
        data = snapshot_blocked(table)
    elif isinstance(table, ResizableMcCuckoo):
        data = snapshot_resizable(table)
    else:
        raise ConfigurationError(
            f"cannot snapshot a {type(table).__name__}; only the multi-copy "
            "tables are supported"
        )
    with open(path, "wb") as handle:
        pickle.dump(data, handle, protocol=pickle.HIGHEST_PROTOCOL)


def load(path: str):
    """Restore a table saved with :func:`save`."""
    with open(path, "rb") as handle:
        data = pickle.load(handle)
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigurationError("file does not contain a repro snapshot")
    if data["kind"] == "mccuckoo":
        return restore_mccuckoo(data)
    if data["kind"] == "blocked":
        return restore_blocked(data)
    if data["kind"] == "resizable":
        return restore_resizable(data)
    raise ConfigurationError(f"unknown snapshot kind {data['kind']!r}")
