"""Tests for the log-structured KV store application layer."""

import pytest

from repro.apps import (
    CorruptLogError,
    LogStructuredStore,
    ValueLog,
    scan_log_bytes,
)
from repro.apps.kvstore import encode_record
from repro.core.errors import TableFullError
from repro.core.results import InsertOutcome, InsertStatus
from repro.core.snapshot import snapshot_resizable
from repro.workloads import distinct_keys


class TestValueLog:
    """The log is its byte image: an offset is where a record starts."""

    def test_append_returns_sequential_offsets(self):
        log = ValueLog()
        offsets = [log.append(key, "v" * key) for key in range(1, 6)]
        assert offsets[0] == 0
        for previous, offset in zip(offsets, offsets[1:]):
            assert offset == previous + log.read(previous).size
        last = offsets[-1]
        assert log.image_size == last + log.read(last).size
        assert len(log) == 5

    def test_read_roundtrip(self):
        """bytes, str and JSON values come back as themselves from
        ``read`` and ``value_at``, each at the offset its append
        returned, between other records."""
        log = ValueLog()
        values = [b"raw\x00bytes", "text \u00e9", {"x": 1, "y": [2, 3]}, 17]
        offsets = [log.append(key, value) for key, value in enumerate(values)]
        for key, (offset, value) in enumerate(zip(offsets, values)):
            record = log.read(offset)
            assert record.key == key and record.value == value
            assert type(record.value) is type(value)
            assert not record.is_tombstone
            assert record.size == len(encode_record(key, value))
            assert log.value_at(offset, key) == value
            assert type(log.value_at(offset, key)) is type(value)

    def test_tombstones(self):
        log = ValueLog()
        log.append(9, b"live")
        offset = log.append_tombstone(9)
        record = log.read(offset)
        assert record.key == 9 and record.is_tombstone
        assert offset + record.size == log.image_size

    def test_read_out_of_range(self):
        with pytest.raises(IndexError):
            ValueLog().read(0)
        log = ValueLog()
        log.append(1, b"x")
        for offset in (-1, log.image_size, log.image_size + 100):
            with pytest.raises(IndexError):
                log.read(offset)


class TestStoreBasics:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            LogStructuredStore(expected_items=0)

    def test_put_get(self):
        store = LogStructuredStore(expected_items=100, seed=1)
        store.put("user:1", {"name": "ada"})
        assert store.get("user:1") == {"name": "ada"}
        assert "user:1" in store
        assert store.get("user:2", "absent") == "absent"

    def test_update_points_to_newest(self):
        store = LogStructuredStore(expected_items=100, seed=2)
        store.put("k", "v1")
        store.put("k", "v2")
        assert store.get("k") == "v2"
        assert len(store) == 1
        assert store.log_records == 2  # old record is garbage

    def test_delete(self):
        store = LogStructuredStore(expected_items=100, seed=3)
        store.put("k", 1)
        assert store.delete("k")
        assert "k" not in store
        assert not store.delete("k")
        assert len(store) == 0

    def test_many_items(self):
        store = LogStructuredStore(expected_items=500, seed=4)
        keys = distinct_keys(500, seed=5)
        for index, key in enumerate(keys):
            store.put(key, index)
        assert len(store) == 500
        for index, key in enumerate(keys):
            assert store.get(key) == index

    def test_items_iterates_live_set(self):
        store = LogStructuredStore(expected_items=100, seed=6)
        store.put(1, "a")
        store.put(2, "b")
        store.delete(1)
        assert dict(store.items()) == {2: "b"}

    def test_index_grows_online(self):
        store = LogStructuredStore(expected_items=64, seed=7)
        keys = distinct_keys(1000, seed=8)
        for key in keys:
            store.put(key, key & 0xFF)
        assert store.index.generations >= 1
        for key in keys[::17]:
            assert store.get(key) == key & 0xFF


class TestPutAtomicity:
    """A rejected index insert must not leak an unreachable log record."""

    def test_raising_index_put_leaks_no_log_record(self, monkeypatch):
        store = LogStructuredStore(expected_items=100, seed=30)
        store.put("settled", "v")
        records_before = store.log_records
        garbage_before = store.garbage_ratio

        def explode(key, value, cands):
            raise RuntimeError("injected index failure")

        # the insert step of the store's write kernel
        monkeypatch.setattr(store.index, "_insert_with", explode)
        with pytest.raises(RuntimeError, match="injected"):
            store.put("doomed", "v")
        monkeypatch.undo()

        assert store.log_records == records_before
        assert store.garbage_ratio == garbage_before
        assert "doomed" not in store
        assert len(store) == 1
        # the store keeps working afterwards
        store.put("next", "w")
        assert store.get("next") == "w"

    def test_failed_index_put_leaks_no_log_record(self, monkeypatch):
        store = LogStructuredStore(expected_items=100, seed=31)
        monkeypatch.setattr(
            store.index,
            "_insert_with",
            lambda key, value, cands: InsertOutcome(InsertStatus.FAILED),
        )
        with pytest.raises(TableFullError):
            store.put("doomed", "v")
        monkeypatch.undo()
        assert store.log_records == 0
        assert len(store) == 0
        assert store.garbage_ratio == 0.0

    def test_put_reports_index_outcome(self):
        store = LogStructuredStore(expected_items=100, seed=32)
        assert store.put("k", "v1").status is InsertStatus.STORED
        assert store.put("k", "v2").status is InsertStatus.UPDATED


class TestGarbageAndCompaction:
    def test_garbage_ratio_tracks_dead_records(self):
        store = LogStructuredStore(expected_items=100, seed=9)
        assert store.garbage_ratio == 0.0
        store.put("k", "v1")
        store.put("k", "v2")
        assert store.garbage_ratio == pytest.approx(0.5)

    def test_compact_drops_garbage_preserves_data(self):
        store = LogStructuredStore(expected_items=200, seed=10)
        keys = distinct_keys(150, seed=11)
        for key in keys:
            store.put(key, "old")
        for key in keys[:75]:
            store.put(key, "new")
        for key in keys[75:100]:
            store.delete(key)
        dropped = store.compact()
        assert dropped > 0
        assert store.garbage_ratio == 0.0
        for key in keys[:75]:
            assert store.get(key) == "new"
        for key in keys[75:100]:
            assert key not in store
        for key in keys[100:]:
            assert store.get(key) == "old"

    def test_compact_empty_store(self):
        store = LogStructuredStore(expected_items=10, seed=12)
        assert store.compact() == 0


class TestRecovery:
    def test_recover_replays_log(self):
        store = LogStructuredStore(expected_items=200, seed=13)
        keys = distinct_keys(120, seed=14)
        for index, key in enumerate(keys):
            store.put(key, index)
        for key in keys[:30]:
            store.delete(key)
        for key in keys[30:60]:
            store.put(key, "updated")
        recovered = store.recover()
        assert len(recovered) == len(store)
        for key in keys[:30]:
            assert key not in recovered
        for key in keys[30:60]:
            assert recovered.get(key) == "updated"
        for index, key in enumerate(keys):
            if index >= 60:
                assert recovered.get(key) == index

    def test_recovered_store_keeps_the_log_image(self):
        """Recovery keeps the surviving log as it is, superseded records
        and tombstones included, so the recovered index equals the one
        that never crashed; garbage is reclaimed only by compaction."""
        store = LogStructuredStore(expected_items=200, seed=33, durable=True)
        keys = distinct_keys(80, seed=34)
        for key in keys:
            store.put(key, "v1")
        for key in keys[:40]:
            store.put(key, "v2")  # superseded records
        for key in keys[40:60]:
            store.delete(key)  # tombstones
        garbage = store.garbage_ratio
        assert garbage > 0.0

        recovered = store.recover()
        assert recovered.log_bytes == store.log_bytes
        assert recovered.log_records == store.log_records == 140
        assert recovered.garbage_ratio == garbage
        assert snapshot_resizable(recovered.index) == snapshot_resizable(store.index)
        for key in keys[:40]:
            assert recovered.get(key) == "v2"
        for key in keys[40:60]:
            assert key not in recovered
        for key in keys[60:]:
            assert recovered.get(key) == "v1"

        assert recovered.compact() == 80
        assert recovered.garbage_ratio == 0.0
        assert recovered.log_records == len(recovered) == 60

    def test_non_durable_store_recovers_through_its_image(self):
        """Every store's log is its byte image, so a non-durable store
        recovers by the same path: checkpoint restore plus a tail scan."""
        store = LogStructuredStore(expected_items=200, seed=36)
        keys = distinct_keys(60, seed=37)
        for key in keys:
            store.put(key, {"v": key & 0xFF})
        store.take_checkpoint()
        covered = store.log_size
        for key in keys[:10]:
            store.delete(key)
        recovered = store.recover()
        report = recovered.recovery_report
        assert report.checkpoint_loaded
        assert report.bytes_scanned == store.log_size - covered
        assert report.tail_records_replayed == report.tombstones_replayed == 10
        assert recovered.log_bytes == store.log_bytes
        assert dict(recovered.items()) == dict(store.items())

    def test_recover_empty_store(self):
        recovered = LogStructuredStore(expected_items=10, seed=35).recover()
        assert len(recovered) == 0
        assert recovered.garbage_ratio == 0.0

    def test_recover_after_compaction(self):
        store = LogStructuredStore(expected_items=100, seed=15)
        keys = distinct_keys(50, seed=16)
        for key in keys:
            store.put(key, "v")
        store.delete(keys[0])
        store.compact()
        recovered = store.recover()
        assert len(recovered) == 49
        assert keys[0] not in recovered


class TestAccounting:
    def test_get_costs_index_plus_one_log_read(self):
        store = LogStructuredStore(expected_items=400, seed=17)
        keys = distinct_keys(100, seed=18)
        for key in keys:
            store.put(key, "v")
        before = store.mem.off_chip.reads
        store.get(keys[0])
        reads = store.mem.off_chip.reads - before
        # index probes (0-3) + exactly one value-log read
        assert 1 <= reads <= 4

    def test_missing_get_often_free(self):
        """The counter screen means most missing gets never touch off-chip
        memory at all — the property that makes McCuckoo a good KV index."""
        store = LogStructuredStore(expected_items=800, seed=19)
        present = distinct_keys(200, seed=20)
        for key in present:
            store.put(key, "v")
        from repro.workloads import missing_keys

        absent = missing_keys(200, set(present), seed=21)
        free = 0
        for key in absent:
            before = store.mem.off_chip.reads
            assert store.get(key) is None
            if store.mem.off_chip.reads == before:
                free += 1
        assert free > len(absent) // 2


class TestScanLogBytes:
    """scan_log_bytes edge cases: the torn-tail boundary must be exact."""

    def _image(self, n_records=5, seed=37):
        store = LogStructuredStore(expected_items=64, seed=seed, durable=True)
        for index in range(n_records):
            store.put(index, b"payload-%02d" % index)
        return store.log_bytes

    def test_empty_log(self):
        records, report = scan_log_bytes(b"")
        assert records == []
        assert report.records_replayed == 0
        assert report.bytes_scanned == 0
        assert report.bytes_truncated == 0
        assert not report.torn_tail

    def test_log_ending_exactly_at_record_boundary(self):
        image = self._image(n_records=5)
        records, report = scan_log_bytes(image)
        assert len(records) == 5
        assert not report.torn_tail
        assert report.bytes_truncated == 0
        assert sum(record.size for record in records) == len(image)
        # any clean record-boundary prefix is also not torn
        cut = image[: records[0].size + records[1].size]
        prefix, prefix_report = scan_log_bytes(cut)
        assert len(prefix) == 2
        assert not prefix_report.torn_tail

    def test_cut_inside_trailing_crc_field(self):
        """A record missing the last 2 bytes of its CRC is a torn write:
        the whole record drops, every record before it survives."""
        image = self._image(n_records=5)
        records, _ = scan_log_bytes(image)
        cut = image[: len(image) - 2]  # mid-CRC of the final record
        kept, report = scan_log_bytes(cut)
        assert len(kept) == 4
        assert report.torn_tail
        assert report.bytes_truncated == records[-1].size - 2
        assert [record.key for record in kept] == \
               [record.key for record in records[:4]]

    def test_cut_inside_length_prefix(self):
        image = self._image(n_records=3)
        records, _ = scan_log_bytes(image)
        boundary = records[0].size + records[1].size
        cut = image[: boundary + 2]  # 2 of the 4 length-prefix bytes
        kept, report = scan_log_bytes(cut)
        assert len(kept) == 2
        assert report.torn_tail
        assert report.bytes_truncated == 2

    def test_flipped_byte_in_tail_record_truncates(self):
        image = bytearray(self._image(n_records=4))
        image[-6] ^= 0x01  # payload byte of the final record
        kept, report = scan_log_bytes(bytes(image))
        assert len(kept) == 3
        assert report.torn_tail

    def test_flipped_byte_mid_log_raises(self):
        image = bytearray(self._image(n_records=4))
        records, _ = scan_log_bytes(bytes(image))
        image[records[0].size + 8] ^= 0x01  # inside record 1, not the tail
        with pytest.raises(CorruptLogError):
            scan_log_bytes(bytes(image))
