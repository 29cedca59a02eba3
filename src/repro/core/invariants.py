"""Structural invariant checkers for the multi-copy tables.

These walk the private state of a table (unaccounted) and verify every
property the algorithms rely on.  They are used heavily by the test suite —
in particular the property-based tests call them after every operation — and
raise :class:`InvariantViolationError` listing all broken conditions.
"""

from __future__ import annotations

from typing import Any, List

from .._numpy import numpy_or_none
from .blocked import BlockedMcCuckoo
from .config import DeletionMode
from .errors import InvariantViolationError
from .mccuckoo import McCuckoo


def check_mccuckoo(table: McCuckoo) -> None:
    """Verify a single-slot McCuckoo table's invariants.

    1. A live bucket's key hashes to that bucket.
    2. The counter of every live bucket equals the item's actual number of
       live copies, and all copies agree on value and stored payload.
    3. In METADATA mode the copy bitmap of every live entry matches reality.
    4. Distinct live keys equal the table's item count.
    5. Without deletions, every stashed item still sees counter 1 and a set
       flag on all of its candidates.

    With NumPy importable, :func:`_mccuckoo_sound` screens all five as
    array operations first; the per-bucket loop of
    :func:`_mccuckoo_problems` runs only when it finds an anomaly (and
    always without NumPy), and it alone names what is broken.
    """
    np = numpy_or_none()
    if np is not None and _mccuckoo_sound(table, np):
        return
    problems = _mccuckoo_problems(table)
    if problems:
        raise InvariantViolationError("; ".join(problems))


def _mccuckoo_sound(table: McCuckoo, np: Any) -> bool:
    """Array pre-screen of :func:`check_mccuckoo`: ``True`` when every
    invariant holds, ``False`` on any anomaly (or on a key or bitmap that
    does not even fit the arrays), leaving the diagnosis to the loop.

    Every copy of an item lies among its candidates, so a live bucket's
    copies are the candidates whose owner is its key; when each live
    bucket's copy count equals its counter, all copies share one counter.
    """
    counters = table._counters.peek_array()
    live = np.flatnonzero(counters)
    live_buckets = live.tolist()
    keys = table._keys
    live_keys = [keys[bucket] for bucket in live_buckets]
    if None in live_keys or len(set(live_keys)) != table.main_items:
        return False
    try:
        key_arr = np.array(live_keys, dtype=np.uint64)
    except (OverflowError, TypeError, ValueError):
        return False
    d, n = table.d, table.n_buckets
    offsets = np.arange(d, dtype=np.int64) * np.int64(n)
    cands = table._family.candidates_matrix(table._functions, key_arr, n) + offsets
    if not (cands[np.arange(live.size), live // n] == live).all():
        return False  # a key does not hash to its bucket
    owner = np.zeros(table.capacity, dtype=np.uint64)
    owner[live] = key_arr
    is_copy = (counters[cands] > 0) & (owner[cands] == key_arr[:, None])
    live_counters = counters[live]
    if not (is_copy.sum(axis=1) == live_counters).all():
        return False
    if table._masks is not None:
        try:
            masks = np.array(
                [table._masks[bucket] for bucket in live_buckets], dtype=np.int64
            )
        except (OverflowError, TypeError, ValueError):
            return False
        position_bits = np.int64(1) << np.arange(d, dtype=np.int64)
        if not ((is_copy * position_bits).sum(axis=1) == masks).all():
            return False
    values = table._values
    first_value = {}
    for i in np.flatnonzero(live_counters > 1).tolist():
        value = values[live_buckets[i]]
        if first_value.setdefault(live_keys[i], value) != value:
            return False
    stash = table.stash
    if stash is not None and len(stash) and table.deletion_mode is DeletionMode.DISABLED:
        try:
            stashed = np.array([key for key, _ in stash.items()], dtype=np.uint64)
        except (OverflowError, TypeError, ValueError):
            return False
        scands = table._family.candidates_matrix(table._functions, stashed, n) + offsets
        if not (counters[scands] == 1).all():
            return False
        if not table._flags.peek_array()[scands].all():
            return False
    return True


def _mccuckoo_problems(table: McCuckoo) -> List[str]:
    """The reference per-bucket check: every broken condition, described."""
    problems: List[str] = []
    live_keys = {}
    for bucket in range(table.capacity):
        value = table._counters.peek(bucket)
        if value == 0:
            continue
        key = table._keys[bucket]
        if key is None:
            problems.append(f"bucket {bucket}: counter {value} but no entry")
            continue
        cands = table._candidates(key)
        if bucket not in cands:
            problems.append(f"bucket {bucket}: key {key:#x} does not hash here")
            continue
        copies = [
            b
            for b in cands
            if table._counters.peek(b) > 0 and table._keys[b] == key
        ]
        if len(copies) != value:
            problems.append(
                f"bucket {bucket}: counter {value} but key {key:#x} has "
                f"{len(copies)} live copies"
            )
        for other in copies:
            if table._counters.peek(other) != value:
                problems.append(
                    f"key {key:#x}: copies disagree on counter value "
                    f"({bucket} vs {other})"
                )
            if table._values[other] != table._values[bucket]:
                problems.append(f"key {key:#x}: copies disagree on stored value")
        if table._masks is not None:
            expected_mask = 0
            for b in copies:
                expected_mask |= 1 << table._position_of(b)
            if table._masks[bucket] != expected_mask:
                problems.append(
                    f"bucket {bucket}: stale copy bitmap "
                    f"{table._masks[bucket]:#b} != {expected_mask:#b}"
                )
        live_keys[key] = True
    if len(live_keys) != table.main_items:
        problems.append(
            f"main-table count {table.main_items} != {len(live_keys)} live keys"
        )
    if table.stash is not None and table.deletion_mode is DeletionMode.DISABLED:
        for key, _ in table.stash.items():
            for b in table._candidates(key):
                if table._counters.peek(b) != 1:
                    problems.append(
                        f"stashed key {key:#x}: candidate {b} has counter "
                        f"{table._counters.peek(b)} != 1"
                    )
                if not table._flags.test(b):
                    problems.append(f"stashed key {key:#x}: flag unset at {b}")
    return problems


def check_blocked(table: BlockedMcCuckoo) -> None:
    """Verify a blocked B-McCuckoo table's invariants.

    Mirrors :func:`check_mccuckoo` at slot granularity and additionally
    checks that every live entry's sibling-slot metadata is fresh.
    """
    problems: List[str] = []
    live_keys = {}
    n_bucket_total = table.d * table.n_buckets
    for bucket in range(n_bucket_total):
        for slot in range(table.slots):
            index = table._slot_index(bucket, slot)
            value = table._counters.peek(index)
            if value == 0:
                continue
            key = table._keys[index]
            if key is None:
                problems.append(f"slot ({bucket},{slot}): counter but no entry")
                continue
            cands = table._candidates(key)
            if bucket not in cands:
                problems.append(
                    f"slot ({bucket},{slot}): key {key:#x} does not hash here"
                )
                continue
            copies = table.copies_of(key)
            if len(copies) != value:
                problems.append(
                    f"slot ({bucket},{slot}): counter {value} but key {key:#x} "
                    f"has {len(copies)} live copies"
                )
            slotmap = table._slotmaps[index]
            if slotmap is None:
                problems.append(f"slot ({bucket},{slot}): missing sibling metadata")
            else:
                actual = [None] * table.d
                for copy_bucket, copy_slot in copies:
                    actual[table._position_of(copy_bucket)] = copy_slot
                if tuple(actual) != slotmap:
                    problems.append(
                        f"slot ({bucket},{slot}): stale sibling metadata "
                        f"{slotmap} != {tuple(actual)}"
                    )
            live_keys[key] = True
    if len(live_keys) != table.main_items:
        problems.append(
            f"main-table count {table.main_items} != {len(live_keys)} live keys"
        )
    if table.stash is not None and table.deletion_mode is DeletionMode.DISABLED:
        for key, _ in table.stash.items():
            for bucket in table._candidates(key):
                word = [
                    table._counters.peek(table._slot_index(bucket, s))
                    for s in range(table.slots)
                ]
                if any(v != 1 for v in word):
                    problems.append(
                        f"stashed key {key:#x}: bucket {bucket} counters {word}"
                    )
                if not table._flags.test(bucket):
                    problems.append(f"stashed key {key:#x}: flag unset at {bucket}")
    if problems:
        raise InvariantViolationError("; ".join(problems))
