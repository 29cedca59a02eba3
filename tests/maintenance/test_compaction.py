"""Compactor correctness and crash safety.

Compaction's safety story is ordering, not locking: the copy loop is
side-effect free on the store (it reads the old log and appends into a
private fresh one), and the commit — log swap, offset patch, checkpoint
invalidation — happens only after every live record is copied.  These
tests crash the copy loop at *every* record boundary and prove the old
image stays authoritative, byte for byte.
"""

import copy

import pytest

from repro.apps import LogStructuredStore
from repro.apps.kvstore import ValueLog
from repro.core import McCuckoo
from repro.core.snapshot import snapshot_mccuckoo, snapshot_resizable
from repro.faults import FaultPlan, InjectedCrash
from repro.maintenance import Compactor
from tests.seeding import derive


def _churned_store(seed, faults=None, n_keys=40, rounds=3, deletes=7):
    """A durable store with real garbage: overwrites plus tombstones."""
    store = LogStructuredStore(
        expected_items=256, seed=seed, durable=True, faults=faults
    )
    for round_ in range(rounds):
        for key in range(1, n_keys + 1):
            store.put(key, b"r%d-k%d" % (round_, key))
    for key in range(1, n_keys + 1, deletes):
        store.delete(key)
    return store


def _model(store):
    return dict(store.items())


def _recover(data, seed, checkpoint=None):
    store = LogStructuredStore(expected_items=256, seed=seed, durable=True)
    store.recover_with_checkpoint(data, checkpoint)
    return store


class TestCompactor:
    def test_drops_garbage_preserves_live_data(self):
        store = _churned_store(derive(0xC0))
        model = _model(store)
        before_records = store.log_records
        dropped = Compactor().compact(store)
        assert dropped == before_records - len(model)
        assert store.log_records == len(model)
        assert store.garbage_ratio == 0.0
        assert _model(store) == model
        assert store.compactions == 1
        assert store.records_dropped == dropped

    def test_compaction_patches_index_offsets(self):
        store = _churned_store(derive(0xC1))
        Compactor().compact(store)
        # every get must hit the rewritten log at the patched offset
        for key, value in _model(store).items():
            assert store.get(key) == value
        # and the rewritten image replays to the same state
        recovered = _recover(store.log_bytes, derive(0xC1))
        assert _model(recovered) == _model(store)

    def test_compaction_clears_checkpoint(self):
        store = _churned_store(derive(0xC2))
        store.take_checkpoint()
        assert store.checkpoint_bytes is not None
        Compactor().compact(store)
        assert store.checkpoint_bytes is None

    def test_commit_hook_runs_after_swap(self):
        store = _churned_store(derive(0xC3))
        seen = []
        Compactor().compact(
            store, on_commit=lambda s: seen.append(s.garbage_ratio)
        )
        assert seen == [0.0]  # hook observes the already-compacted store

    def test_store_compact_delegates_to_compactor(self):
        # store.compact() and Compactor().compact(store) are the same path
        a = _churned_store(derive(0xC4))
        b = _churned_store(derive(0xC4))
        assert a.compact() == Compactor().compact(b)
        assert a.log_bytes == b.log_bytes


class TestCommitWalk:
    """The commit patches offsets in one walk of the index with the old →
    new offset map; the index ends exactly as one ``try_update`` per live
    key left it."""

    def test_walk_equals_patching_key_by_key_mid_resize(self):
        store = LogStructuredStore(expected_items=64, seed=derive(0xCA),
                                   durable=True)
        keys = 0
        while not store.index.resizing:
            keys += 1
            store.put(keys, b"first")
        for key in range(1, 4):
            store.put(key, b"again")
        store.delete(5)
        assert store.index.resizing  # both halves hold live keys
        assert len(store.index.retiring_table) and len(store.index.active_table)
        twin = copy.deepcopy(store)
        Compactor().compact(store)

        fresh = ValueLog()
        moved = [(key, fresh.copy_record(twin._log, offset))
                 for key, offset in list(twin.index.items())]
        for key, offset in moved:
            assert twin.index.try_update(key, offset) is not None
        assert snapshot_resizable(store.index) == snapshot_resizable(twin.index)
        assert store.log_bytes == bytes(fresh._image)

    def test_walk_rewrites_stashed_values(self):
        table = McCuckoo(8, seed=derive(0xCB), maxloop=0)
        for key in range(40):
            table.put(key, key)
        assert len(table.stash) > 0
        twin = copy.deepcopy(table)
        mapping = {key: 1000 + key for key in range(40)}
        assert table.remap_values(mapping) > len(table.stash)
        for key in range(40):
            twin.try_update(key, 1000 + key)
        assert snapshot_mccuckoo(table) == snapshot_mccuckoo(twin)


class TestCompactionCrashSafety:
    def test_crash_at_every_record_boundary_leaves_old_image(self):
        """crash_during_compaction=N for every N: the pre-compaction
        image stays byte-identical and fully recoverable."""
        reference = _churned_store(derive(0xC5))
        live_records = len(_model(reference))
        image_before = reference.log_bytes
        model = _model(reference)

        for boundary in range(1, live_records + 1):
            plan = FaultPlan.parse(
                f"crash_during_compaction={boundary}", seed=derive(1)
            )
            store = _churned_store(derive(0xC5), faults=plan)
            with pytest.raises(InjectedCrash):
                store.compact()
            assert store.log_bytes == image_before
            assert store.compactions == 0
            assert _model(store) == model
            recovered = _recover(store.log_bytes, derive(0xC5))
            assert _model(recovered) == model

    def test_crash_then_retry_compacts_clean(self):
        """After a crashed attempt, a plain retry commits normally."""
        plan = FaultPlan.parse("crash_during_compaction=2", seed=derive(2))
        store = _churned_store(derive(0xC6), faults=plan)
        model = _model(store)
        with pytest.raises(InjectedCrash):
            store.compact()
        dropped = store.compact()  # one-shot rule is spent
        assert dropped > 0
        assert _model(store) == model
        assert store.garbage_ratio == 0.0

    def test_shard_scoped_rule_leaves_other_shards_alone(self):
        plan = FaultPlan.parse("crash_during_compaction=1@1", seed=derive(3))
        unaffected = _churned_store(derive(0xC7), faults=plan)
        assert unaffected.compact() > 0  # shard_id defaults to 0, rule is @1

    def test_interrupt_hook_fires_per_record(self):
        store = _churned_store(derive(0xC8))
        live = len(_model(store))
        sites = []
        Compactor().compact(
            store, interrupt=lambda site, shard: sites.append((site, shard))
        )
        assert len(sites) == live
        assert set(sites) == {("compaction", 0)}


class TestStaleCheckpointAfterCompaction:
    def test_checkpoint_self_invalidates_against_rewritten_image(self):
        """An old checkpoint must fail prefix-CRC validation once
        compaction rewrites the log, falling back to full replay."""
        store = _churned_store(derive(0xC9))
        stale = store.take_checkpoint()
        store.compact()
        model = _model(store)
        recovered = _recover(store.log_bytes, derive(0xC9), stale)
        report = recovered.recovery_report
        assert report.checkpoint_invalid
        assert not report.checkpoint_loaded
        assert _model(recovered) == model
