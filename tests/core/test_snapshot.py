"""Snapshot/restore round-trips for the multi-copy tables."""

import pickle

import pytest

from repro import BlockedMcCuckoo, CuckooTable, DeletionMode, McCuckoo, SiblingTracking
from repro.core import check_blocked, check_mccuckoo
from repro.core.errors import ConfigurationError
from repro.core.policies import BubblingPolicy
from repro.core.snapshot import (
    load,
    restore_blocked,
    restore_mccuckoo,
    save,
    snapshot_blocked,
    snapshot_mccuckoo,
)
from repro.workloads import distinct_keys, key_stream


def busy_mccuckoo(seed=600, **kwargs):
    table = McCuckoo(48, d=3, seed=seed, maxloop=20,
                     deletion_mode=DeletionMode.RESET, **kwargs)
    keys = distinct_keys(130, seed=seed + 1)
    for key in keys:
        table.put(key, key % 31)
    for victim in keys[::5]:
        table.delete(victim)
    return table, [k for i, k in enumerate(keys) if i % 5 != 0]


def busy_blocked(seed=610):
    table = BlockedMcCuckoo(16, d=3, slots=3, seed=seed, maxloop=20,
                            deletion_mode=DeletionMode.RESET)
    keys = distinct_keys(130, seed=seed + 1)
    for key in keys:
        table.put(key, -key)
    return table, keys


class TestMcCuckooRoundTrip:
    def test_items_preserved(self):
        table, live = busy_mccuckoo()
        restored = restore_mccuckoo(snapshot_mccuckoo(table))
        for key in live:
            outcome = restored.lookup(key)
            assert outcome.found and outcome.value == key % 31
        assert len(restored) == len(table)

    def test_layout_identical(self):
        table, _ = busy_mccuckoo(seed=601)
        restored = restore_mccuckoo(snapshot_mccuckoo(table))
        assert restored._keys == table._keys
        assert bytes(restored._counters._data) == bytes(table._counters._data)
        assert bytes(restored._flags._data) == bytes(table._flags._data)

    def test_invariants_checked_on_restore(self):
        table, _ = busy_mccuckoo(seed=602)
        data = snapshot_mccuckoo(table)
        data["n_main"] += 1  # corrupt
        with pytest.raises(Exception):
            restore_mccuckoo(data)

    def test_rng_state_resumes_identically(self):
        table, _ = busy_mccuckoo(seed=603)
        twin = restore_mccuckoo(snapshot_mccuckoo(table))
        keys = distinct_keys(60, seed=700)
        for key in keys:
            a = table.put(key)
            b = twin.put(key)
            assert (a.status, a.kicks, a.copies) == (b.status, b.kicks, b.copies)
        assert table._keys == twin._keys

    @pytest.mark.parametrize("restore, snapshot, build", [
        (restore_mccuckoo, snapshot_mccuckoo,
         lambda policy: McCuckoo(64, d=3, seed=605, maxloop=50,
                                 kick_policy=policy)),
        (restore_blocked, snapshot_blocked,
         lambda policy: BlockedMcCuckoo(24, d=3, slots=3, seed=606,
                                        maxloop=50, kick_policy=policy)),
    ], ids=["mccuckoo", "blocked"])
    def test_policy_constructor_parameters_survive(self, restore, snapshot,
                                                   build):
        """A porat-shalem bubbling policy with its own give-up threshold
        must come back as itself, not as a default bubbling policy."""
        table = build(BubblingPolicy(variant="porat-shalem", give_up_at=6))
        for key in distinct_keys(150, seed=607):
            table.put(key, 1)
        twin = restore(snapshot(table))
        assert twin._policy.params() == table._policy.params()
        for key in distinct_keys(40, seed=608):
            a, b = table.put(key, 2), twin.put(key, 2)
            assert (a.status, a.kicks, a.stashed) == (b.status, b.kicks, b.stashed)
        assert table._keys == twin._keys

    def test_events_preserved(self):
        table, _ = busy_mccuckoo(seed=604)
        restored = restore_mccuckoo(snapshot_mccuckoo(table))
        assert restored.events.first_collision_items == table.events.first_collision_items

    def test_stash_contents_preserved(self):
        table = McCuckoo(8, d=3, seed=605, maxloop=0,
                         deletion_mode=DeletionMode.RESET)
        keys = key_stream(seed=606)
        while len(table.stash) < 3:
            table.put(next(keys))
        restored = restore_mccuckoo(snapshot_mccuckoo(table))
        assert len(restored.stash) == len(table.stash)
        for key, _ in table.stash.items():
            assert restored.lookup(key).found

    def test_metadata_mode_masks_preserved(self):
        table, live = busy_mccuckoo(
            seed=607, sibling_tracking=SiblingTracking.METADATA
        )
        restored = restore_mccuckoo(snapshot_mccuckoo(table))
        assert restored._masks == table._masks
        check_mccuckoo(restored)

    def test_tombstone_mode(self):
        table = McCuckoo(32, d=3, seed=608, deletion_mode=DeletionMode.TOMBSTONE)
        keys = distinct_keys(60, seed=609)
        for key in keys:
            table.put(key)
        table.delete(keys[0])
        restored = restore_mccuckoo(snapshot_mccuckoo(table))
        assert not restored.lookup(keys[0]).found
        assert restored.lookup(keys[1]).found

    def test_kind_mismatch_rejected(self):
        table, _ = busy_blocked()
        with pytest.raises(ConfigurationError):
            restore_mccuckoo(snapshot_blocked(table))

    def test_version_mismatch_rejected(self):
        table, _ = busy_mccuckoo(seed=611)
        data = snapshot_mccuckoo(table)
        data["version"] = 99
        with pytest.raises(ConfigurationError):
            restore_mccuckoo(data)


class TestBlockedRoundTrip:
    def test_items_preserved(self):
        table, keys = busy_blocked()
        restored = restore_blocked(snapshot_blocked(table))
        for key in keys:
            outcome = restored.lookup(key)
            assert outcome.found and outcome.value == -key
        check_blocked(restored)

    def test_slotmaps_preserved(self):
        table, _ = busy_blocked(seed=612)
        restored = restore_blocked(snapshot_blocked(table))
        assert restored._slotmaps == table._slotmaps

    def test_resume_identical(self):
        table, _ = busy_blocked(seed=613)
        twin = restore_blocked(snapshot_blocked(table))
        for key in distinct_keys(40, seed=614):
            table.put(key)
            twin.put(key)
        assert table._keys == twin._keys


class TestFileRoundTrip:
    def test_save_load_mccuckoo(self, tmp_path):
        table, live = busy_mccuckoo(seed=615)
        path = str(tmp_path / "table.snap")
        save(table, path)
        restored = load(path)
        assert isinstance(restored, McCuckoo)
        for key in live[:20]:
            assert restored.lookup(key).found

    def test_save_load_blocked(self, tmp_path):
        table, keys = busy_blocked(seed=616)
        path = str(tmp_path / "blocked.snap")
        save(table, path)
        restored = load(path)
        assert isinstance(restored, BlockedMcCuckoo)
        assert len(restored) == len(table)

    def test_save_rejects_other_tables(self, tmp_path):
        with pytest.raises(ConfigurationError):
            save(CuckooTable(8), str(tmp_path / "x.snap"))

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.snap"
        with open(path, "wb") as handle:
            pickle.dump([1, 2, 3], handle)
        with pytest.raises(ConfigurationError):
            load(str(path))
