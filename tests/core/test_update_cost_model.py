"""The update and delete kernels charge exactly the paper's cost model.

``McCuckoo.try_update`` and ``McCuckoo.delete`` find an item's copies
with the deletion principles and charge, per call: d on-chip counter
reads, one off-chip read per probed bucket, and one off-chip write per
rewritten copy (or one on-chip counter write per deleted copy).  The
kernels batch those charges into a few record calls; this suite replays
a seeded history twice, once through the kernels and once through a
reference written access by access with the table's own accounted
accessors, and asserts every call's outcome, access delta and trace
match, in both counter-charging modes.
"""

import random

import pytest

from repro import McCuckoo, SiblingTracking
from repro.core.config import DeletionMode
from repro.core.results import DeleteOutcome, InsertOutcome, InsertStatus
from repro.memory.model import CounterCharging, MemoryModel
from tests.seeding import derive


def reference_find_copies(table, k, cands, vals):
    """The deletion principles' copy search, one charged access at a time."""
    flags_read = []
    for v, members in table._partitions(cands, vals):
        if len(members) < v:
            continue
        limit = len(members) - v + 1
        found_at = []
        for index, bucket in enumerate(members):
            if not found_at and index >= limit:
                break
            stored_key, _, flag, _ = table._read_entry(bucket)
            flags_read.append(flag)
            if stored_key == k:
                found_at.append(bucket)
                if len(found_at) == v:
                    break
        if found_at:
            assert len(found_at) == v
            return found_at, flags_read
    return [], flags_read


def reference_counters(table, key):
    k = table._canonical(key)
    cands = table._candidates(k)
    return k, cands, [table._counters.get(bucket) for bucket in cands]


def reference_try_update(table, key, value):
    k, cands, vals = reference_counters(table, key)
    if table._never_inserted(cands, vals):
        return None
    copies, flags_read = reference_find_copies(table, k, cands, vals)
    if copies:
        mask = table._mask_for(copies)
        for bucket in copies:
            table._write_entry(bucket, k, value, mask)
        return InsertOutcome(InsertStatus.UPDATED, copies=len(copies))
    stash = table._stash
    if stash is not None and len(stash) and all(flags_read):
        if stash.delete(k):
            stash.add(k, value)
            return InsertOutcome(InsertStatus.UPDATED, copies=1)
    return None


def reference_delete(table, key):
    k, cands, vals = reference_counters(table, key)
    if table._never_inserted(cands, vals):
        return DeleteOutcome(deleted=False)
    copies, flags_read = reference_find_copies(table, k, cands, vals)
    if copies:
        for bucket in copies:
            table._counters.set(bucket, 0)
            if table._tombstones is not None:
                table._tombstones.mark(bucket)
        table._n_main -= 1
        return DeleteOutcome(deleted=True, copies_removed=len(copies))
    stash = table._stash
    if stash is not None and len(stash) and all(flags_read):
        if stash.delete(k):
            return DeleteOutcome(deleted=True, copies_removed=1, from_stash=True,
                                 checked_stash=True)
        return DeleteOutcome(deleted=False, checked_stash=True)
    return DeleteOutcome(deleted=False)


def twins(mode, tracking, charging, d, policy):
    def make():
        mem = MemoryModel(trace_capacity=32, counter_charging=charging)
        return McCuckoo(40, d=d, seed=derive(5), deletion_mode=mode,
                        sibling_tracking=tracking, maxloop=20, mem=mem,
                        kick_policy=policy)
    return make(), make()


def call_cost(table, op, *args):
    mem = table.mem
    before = mem.snapshot()
    outcome = op(table, *args)
    delta = mem.snapshot() - before
    return outcome, (delta.on_chip.reads, delta.on_chip.writes,
                     delta.off_chip.reads, delta.off_chip.writes), mem.trace


def same_state(kernel, reference):
    assert bytes(kernel._counters._data) == bytes(reference._counters._data)
    assert kernel._keys == reference._keys
    assert kernel._values == reference._values
    assert kernel._masks == reference._masks
    assert sorted(kernel.items()) == sorted(reference.items())
    if kernel.wear_meter is not None:
        assert kernel.wear_meter._counts == reference.wear_meter._counts


@pytest.mark.parametrize("charging", list(CounterCharging), ids=lambda c: c.name.lower())
@pytest.mark.parametrize("mode", list(DeletionMode), ids=lambda m: m.name.lower())
@pytest.mark.parametrize("tracking", list(SiblingTracking), ids=lambda t: t.name.lower())
@pytest.mark.parametrize("d, policy", [(3, "bubbling"), (4, "wear-aware")])
def test_kernels_charge_the_reference_cost(charging, mode, tracking, d, policy):
    kernel, reference = twins(mode, tracking, charging, d, policy)
    rng = random.Random(derive(41))
    keys = []
    for i in range(1000):
        roll = rng.random()
        if roll < 0.35 or not keys:
            key = rng.getrandbits(64)
            keys.append(key)
            kernel.put(key, i)
            reference.put(key, i)
            continue
        key = rng.choice(keys) if rng.random() < 0.85 else rng.getrandbits(64)
        if roll < 0.8 or mode is DeletionMode.DISABLED:
            ours = call_cost(kernel, McCuckoo.try_update, key, ("v", i))
            theirs = call_cost(reference, reference_try_update, key, ("v", i))
        else:
            ours = call_cost(kernel, McCuckoo.delete, key)
            theirs = call_cost(reference, reference_delete, key)
        assert ours == theirs, (i, key)
    same_state(kernel, reference)
    assert kernel.mem.summary() == reference.mem.summary()
