"""Property: the array pre-screen of ``check_mccuckoo`` agrees with the
reference per-bucket loop.

Healthy tables built by random put/update/delete histories pass both
paths: every deletion mode, METADATA sibling tracking, an overfull table
spilling into its stash, and a resizable table caught mid-migration with
a retiring half.  Corrupting one field of such a table (a counter, a
key, a value, a copy bitmap, the item count, a stash flag), or planting
a stray copy of an item outside its candidates, is rejected by both.

Skips cleanly when NumPy is not installed (the pre-screen needs it).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._numpy import numpy_available, numpy_or_none
from repro.core import invariants
from repro.core.config import DeletionMode, SiblingTracking
from repro.core.mccuckoo import McCuckoo
from repro.core.resize import ResizableMcCuckoo

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="the array pre-screen needs NumPy"
)

KEYS = st.integers(min_value=0, max_value=(1 << 64) - 1)

OPS = st.lists(
    st.tuples(st.sampled_from(["put", "update", "delete"]), st.integers(0, 119)),
    min_size=1,
    max_size=160,
)


def build(mode, tracking, resizable, seed, ops, keys):
    """Replay ``ops`` (op, key index) into a fresh table; returns the
    McCuckoo tables it consists of."""
    if resizable:
        table = ResizableMcCuckoo(
            12, d=3, seed=seed, deletion_mode=mode, sibling_tracking=tracking,
            maxloop=8, grow_at=0.5, migrate_batch=1,
        )
    else:
        table = McCuckoo(
            12, d=3, seed=seed, deletion_mode=mode, sibling_tracking=tracking,
            maxloop=8, stash_buckets=4,
        )
    for i, (op, index) in enumerate(ops):
        key = keys[index % len(keys)]
        if op == "delete" and mode is not DeletionMode.DISABLED:
            table.delete(key)
        elif op == "update":
            if table.try_update(key, ("v", i)) is None:
                table.put(key, ("v", i))
        elif not table.lookup(key).found:
            table.put(key, ("v", i))
    if resizable:
        return [t for t in (table.active_table, table.retiring_table) if t is not None]
    return [table]


def sound(table):
    return invariants._mccuckoo_sound(table, numpy_or_none())


def corruptions(table):
    """Single-field corruptions every table state must reject, as
    (name, apply) pairs."""
    peek = table._counters.peek
    live = [b for b in range(table.capacity) if peek(b)]
    dead = [b for b in range(table.capacity) if not peek(b)]
    found = []

    def poke(bucket, value):
        return lambda: table._counters.poke(bucket, value)

    def set_key(bucket, key):
        return lambda: table._keys.__setitem__(bucket, key)

    for bucket in live[:4]:
        v = peek(bucket)
        found.append(("zero-counter", poke(bucket, 0)))
        other = 1 if v != 1 else 2
        if other <= table._counters.max_value:
            found.append(("counter-value", poke(bucket, other)))
        found.append(("no-entry", set_key(bucket, None)))
        key = table._keys[bucket]
        for bit in range(64):
            moved = key ^ (1 << bit)
            if bucket not in table._candidates(moved):
                found.append(("misplaced-key", set_key(bucket, moved)))
                break
        if table._masks is not None:
            mask = table._masks[bucket] ^ (1 << (bucket // table.n_buckets))
            found.append(("stale-mask", lambda b=bucket, m=mask: table._masks.__setitem__(b, m)))
        if v >= 2:
            found.append(
                ("value-divergence",
                 lambda b=bucket: table._values.__setitem__(b, ("diverged", b)))
            )
    for bucket in dead[:2]:
        found.append(("dead-counter", poke(bucket, 1)))
    for bucket in live[:2]:
        # A stray copy: the item's key, counter and value in a dead bucket
        # outside its candidates, so its copy count still adds up.
        key, v = table._keys[bucket], peek(bucket)
        stray = [b for b in dead if b not in table._candidates(key)][:1]
        for b in stray:
            found.append(("stray-copy", lambda b=b, key=key, v=v, src=bucket: (
                table._keys.__setitem__(b, key),
                table._values.__setitem__(b, table._values[src]),
                table._counters.poke(b, v),
            )))
    found.append(("count-drift", lambda: setattr(table, "_n_main", table._n_main + 1)))
    stash = table.stash
    if stash is not None and len(stash) and table.deletion_mode is DeletionMode.DISABLED:
        key = next(iter(stash.items()))[0]
        flag_bucket = table._candidates(key)[0]
        found.append(("stash-flag", lambda: table._flags.clear_bit(flag_bucket)))
    return found


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    mode=st.sampled_from(list(DeletionMode)),
    tracking=st.sampled_from(list(SiblingTracking)),
    resizable=st.booleans(),
    seed=st.integers(0, 1 << 16),
    keys=st.lists(KEYS, min_size=4, max_size=120, unique=True),
    ops=OPS,
    data=st.data(),
)
def test_prescreen_agrees_with_reference(mode, tracking, resizable, seed, keys,
                                         ops, data):
    resizable = resizable and mode is not DeletionMode.DISABLED
    for table in build(mode, tracking, resizable, seed, ops, keys):
        assert invariants._mccuckoo_problems(table) == []
        assert sound(table)
        choices = corruptions(table)
        name, corrupt = data.draw(st.sampled_from(choices), label="corruption")
        corrupt()
        assert invariants._mccuckoo_problems(table), name
        assert not sound(table), name


def test_mid_resize_history_passes_both_paths():
    """The property's histories do reach a retiring half; pin one."""
    keys = list(range(1000, 1060))
    ops = [("put", i) for i in range(60)] + [("delete", i) for i in range(0, 60, 7)]
    tables = build(DeletionMode.RESET, SiblingTracking.METADATA, True, 3, ops, keys)
    assert len(tables) == 2
    for table in tables:
        assert invariants._mccuckoo_problems(table) == []
        assert sound(table)
