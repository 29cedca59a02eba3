"""Property-based crash-recovery tests for the durable log store.

The durable store's log image is "the disk".  These tests crash the store
at *every* record boundary and at offsets inside records (a torn write),
recover from the truncated image, and check the recovered state against a
dict model replayed to the same point — the definition of "no acknowledged
write is lost, no unacknowledged write is resurrected" at the store layer.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    CorruptLogError,
    LogStructuredStore,
    RecoveryReport,
    scan_log_bytes,
)
from repro.faults import FaultPlan, InjectedCrash
from tests.seeding import derive


def _apply_ops(store, ops):
    """Apply (verb, key, value) ops; yield a boundary after each append.

    Returns ``[(byte_offset, model_snapshot), ...]`` starting at offset 0
    with the empty model — one entry per state the disk ever showed.
    """
    model = {}
    boundaries = [(0, {})]
    for verb, key, value in ops:
        if verb == "put":
            store.put(key, value)
            model[key] = value
        else:
            existed = store.delete(key)
            assert existed == (key in model)
            if not existed:
                continue  # nothing appended, no new boundary
            model.pop(key)
        boundaries.append((len(store.log_bytes), dict(model)))
    return boundaries


def _random_ops(rng, n_ops, key_space=24):
    """A seeded mixed op sequence over a small key space."""
    ops = []
    for index in range(n_ops):
        key = rng.randrange(1, key_space)
        if rng.random() < 0.70:
            kind = rng.random()
            if kind < 0.5:
                value = bytes([index % 256]) * rng.randrange(0, 40)
            elif kind < 0.8:
                value = f"value-{index}"
            else:
                value = {"op": index, "k": key}
            ops.append(("put", key, value))
        else:
            ops.append(("delete", key, None))
    return ops


def _recover(data, seed=1):
    store = LogStructuredStore(expected_items=64, seed=seed, durable=True)
    store.recover_with_checkpoint(data)
    return store


class TestCrashAtEveryBoundary:
    def test_full_boundary_matrix(self):
        """Crash cleanly between any two records: exact replay, no tail."""
        rng = random.Random(derive(0x600D))
        store = LogStructuredStore(expected_items=64, seed=derive(41),
                                   durable=True)
        boundaries = _apply_ops(store, _random_ops(rng, 60))
        image = store.log_bytes
        assert boundaries[-1][0] == len(image)

        appends = 0
        for offset, model in boundaries:
            recovered = _recover(image[:offset], seed=derive(42))
            assert dict(recovered.items()) == model
            report = recovered.recovery_report
            assert report.records_replayed == appends
            assert report.live_keys == len(model)
            assert report.bytes_truncated == 0
            assert not report.torn_tail
            appends += 1

    def test_mid_record_offsets_truncate_torn_tail(self):
        """Crash inside a record: the torn tail is dropped, state rolls
        back to the last complete record, and the report says how much."""
        rng = random.Random(derive(0xBAD))
        store = LogStructuredStore(expected_items=64, seed=derive(43),
                                   durable=True)
        boundaries = _apply_ops(store, _random_ops(rng, 40))
        image = store.log_bytes

        for (prev, model), (nxt, _) in zip(boundaries, boundaries[1:]):
            cuts = {prev + 1, (prev + nxt) // 2, nxt - 1} - {prev, nxt}
            for cut in cuts:
                recovered = _recover(image[:cut], seed=derive(44))
                assert dict(recovered.items()) == model
                report = recovered.recovery_report
                assert report.torn_tail
                assert report.bytes_truncated == cut - prev
                assert report.bytes_scanned == cut

    def test_torn_tail_after_checkpoint_truncates_like_full_scan(self):
        """With a trusted checkpoint only the tail is scanned, and a cut
        anywhere in it is truncated exactly as the full scan truncates it:
        same state, same torn bytes, same surviving image."""
        rng = random.Random(derive(0x7A11))
        store = LogStructuredStore(expected_items=64, seed=derive(54),
                                   durable=True)
        _apply_ops(store, _random_ops(rng, 30))
        artifact = store.take_checkpoint()
        position = len(store.log_bytes)
        # the tail touches only its own keys, so _apply_ops's model holds
        tail = _apply_ops(store, [
            (verb, 100 + key, value)
            for verb, key, value in _random_ops(rng, 12, key_space=4)
            if verb == "put"
        ] + [("delete", 101, None), ("put", 101, "again")])[1:]
        image = store.log_bytes

        for prev, nxt in zip([position] + [at for at, _ in tail],
                             [at for at, _ in tail]):
            for cut in {prev + 1, (prev + nxt) // 2, nxt - 1, nxt}:
                full = _recover(image[:cut], seed=derive(54))
                fast = LogStructuredStore(expected_items=64, seed=derive(54),
                                          durable=True)
                report = fast.recover_with_checkpoint(image[:cut], artifact)
                assert report.checkpoint_loaded
                assert report.bytes_scanned == cut - position
                expected = full.recovery_report
                assert report.torn_tail == expected.torn_tail
                assert report.bytes_truncated == expected.bytes_truncated
                assert report.records_replayed == expected.records_replayed
                assert fast.log_bytes == full.log_bytes
                assert dict(fast.items()) == dict(full.items())

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(),
           op_seed=st.integers(min_value=0, max_value=1 << 20),
           n_ops=st.integers(min_value=1, max_value=25))
    def test_any_prefix_recovers_some_boundary_state(self, data, op_seed,
                                                     n_ops):
        """Property: recovery of ANY byte prefix of the image lands exactly
        on one of the states the disk passed through."""
        store = LogStructuredStore(expected_items=64, seed=1, durable=True)
        boundaries = _apply_ops(store, _random_ops(random.Random(op_seed),
                                                   n_ops))
        image = store.log_bytes
        cut = data.draw(st.integers(min_value=0, max_value=len(image)),
                        label="cut")
        recovered = _recover(image[:cut], seed=2)
        states = [model for offset, model in boundaries if offset <= cut]
        assert dict(recovered.items()) == states[-1]


class TestCorruptionDetection:
    def test_mid_log_bitflip_raises(self):
        store = LogStructuredStore(expected_items=64, seed=derive(45),
                                   durable=True)
        for key in range(1, 30):
            store.put(key, b"x" * 20)
        image = bytearray(store.log_bytes)
        image[10] ^= 0xFF  # inside the first record, not the tail
        with pytest.raises(CorruptLogError):
            _recover(bytes(image))

    def test_tail_bitflip_is_a_torn_write(self):
        store = LogStructuredStore(expected_items=64, seed=derive(46),
                                   durable=True)
        store.put(1, b"a")
        store.put(2, b"b")
        image = bytearray(store.log_bytes)
        image[-1] ^= 0x01  # corrupts the LAST record's CRC: torn, not fatal
        recovered = _recover(bytes(image))
        assert dict(recovered.items()) == {1: b"a"}
        assert recovered.recovery_report.torn_tail


class TestInjectedCrashes:
    def test_torn_write_injection_loses_only_the_torn_record(self):
        plan = FaultPlan.parse("torn_write=5", seed=derive(47))
        store = LogStructuredStore(expected_items=64, seed=derive(48),
                                   durable=True, faults=plan)
        written = {}
        with pytest.raises(InjectedCrash):
            for key in range(1, 100):
                store.put(key, bytes([key]) * 8)
                written[key] = bytes([key]) * 8
        assert len(written) == 4  # the 5th append tore before acking
        recovered = _recover(store.log_bytes)
        assert dict(recovered.items()) == written
        assert recovered.recovery_report.torn_tail
        assert recovered.recovery_report.bytes_truncated > 0

    def test_crash_after_append_keeps_the_record(self):
        plan = FaultPlan.parse("crash_after_appends=3", seed=derive(49))
        store = LogStructuredStore(expected_items=64, seed=derive(50),
                                   durable=True, faults=plan)
        with pytest.raises(InjectedCrash):
            for key in range(1, 100):
                store.put(key, b"v")
        # crash_after_appends persists the record before crashing: the
        # un-acked 3rd write may legitimately survive recovery
        recovered = _recover(store.log_bytes)
        assert dict(recovered.items()) == {1: b"v", 2: b"v", 3: b"v"}
        assert not recovered.recovery_report.torn_tail

    def test_recovered_store_is_usable_and_fault_free(self):
        plan = FaultPlan.parse("torn_write=3", seed=derive(51))
        store = LogStructuredStore(expected_items=64, seed=derive(52),
                                   durable=True, faults=plan)
        with pytest.raises(InjectedCrash):
            for key in range(1, 50):
                store.put(key, b"v")
        recovered = _recover(store.log_bytes)
        # no fault plan attached: the recovered store must take writes
        for key in range(100, 150):
            recovered.put(key, b"w")
        assert recovered.get(120) == b"w"


class TestReportShape:
    def test_report_counts_and_render(self):
        store = LogStructuredStore(expected_items=64, seed=derive(53),
                                   durable=True)
        store.put(1, b"a")
        store.put(2, b"b")
        store.put(1, b"a2")
        store.delete(2)
        records, report = scan_log_bytes(store.log_bytes)
        assert len(records) == 4
        assert report.records_replayed == 4
        assert report.tombstones_replayed == 1
        assert report.bytes_scanned == len(store.log_bytes)
        recovered = store.recover()
        assert isinstance(recovered.recovery_report, RecoveryReport)
        assert recovered.recovery_report.live_keys == 1
        text = recovered.recovery_report.render()
        assert "1 live keys" in text and "4 records" in text
