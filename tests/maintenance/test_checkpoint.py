"""Checkpointer round trips and torn-artifact fallback.

A checkpoint bounds restart time: recovery restores the index snapshot
bit-for-bit and replays only the post-checkpoint tail.  The flip side is
that the artifact is a single overwrite-in-place slot, so every way it
can be damaged — torn at an arbitrary byte, bad magic, truncated header,
garbage — must degrade to a full log replay, never to a half-trusted
index.
"""

import pytest

from repro.apps import CorruptLogError, LogStructuredStore
from repro.apps import kvstore
from repro.apps.kvstore import (
    CHECKPOINT_VERSION,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.faults import FaultPlan, InjectedCrash
from repro.maintenance import Checkpointer
from tests.seeding import derive


def _store_with_history(seed, n_ops=120, expected_items=512):
    store = LogStructuredStore(
        expected_items=expected_items, seed=seed, durable=True
    )
    for op in range(n_ops):
        store.put(op % 48, b"v%06d" % op)
        if op % 17 == 16:
            store.delete((op + 3) % 48)
    return store


def _model(store):
    return dict(store.items())


def _recover(data, seed, checkpoint):
    store = LogStructuredStore(expected_items=512, seed=seed, durable=True)
    store.recover_with_checkpoint(data, checkpoint)
    return store


class TestCheckpointRoundTrip:
    def test_checkpoint_plus_tail_recovers_exact_state(self):
        store = _store_with_history(derive(0xCE))
        artifact = Checkpointer().checkpoint(store)
        # tail: writes after the checkpoint
        for op in range(40):
            store.put(1000 + op, b"tail%04d" % op)
        store.delete(1001)
        model = _model(store)

        recovered = _recover(store.log_bytes, derive(0xCE), artifact)
        assert _model(recovered) == model
        report = recovered.recovery_report
        assert report.checkpoint_loaded
        assert not report.checkpoint_invalid

    def test_report_splits_checkpoint_and_tail(self):
        store = _store_with_history(derive(0xCF))
        at_checkpoint = store.log_records
        artifact = store.take_checkpoint()
        tail = 25
        for op in range(tail):
            store.put(2000 + op, b"t%d" % op)

        recovered = _recover(store.log_bytes, derive(0xCF), artifact)
        report = recovered.recovery_report
        assert report.checkpoint_records == at_checkpoint
        assert report.tail_records_replayed == tail
        assert report.records_replayed == at_checkpoint + tail

    def test_writer_hook_persists_artifact(self):
        store = _store_with_history(derive(0xD0))
        written = []
        artifact = Checkpointer().checkpoint(store, writer=written.append)
        assert written == [artifact]
        assert store.checkpoint_bytes == artifact

    def test_missing_checkpoint_full_replay_without_invalid_flag(self):
        store = _store_with_history(derive(0xD1))
        recovered = _recover(store.log_bytes, derive(0xD1), None)
        assert _model(recovered) == _model(store)
        report = recovered.recovery_report
        assert not report.checkpoint_loaded
        assert not report.checkpoint_invalid  # absent, not damaged

    def test_trusted_checkpoint_scans_only_the_tail(self, monkeypatch):
        """Recovery CRCs the checkpointed prefix and parses only the bytes
        after ``log_position``: the one ``scan_log_bytes`` call sees
        exactly the tail."""
        store = _store_with_history(derive(0xC0))
        artifact = store.take_checkpoint()
        position = decode_checkpoint(artifact)["log_position"]
        for op in range(30):
            store.put(op % 7, b"tail%04d" % op)
        store.delete(3)
        image = store.log_bytes
        assert position == len(image) - sum(
            record.size for record in kvstore.scan_log_bytes(image[position:])[0]
        )

        scanned = []
        scan = kvstore.scan_log_bytes
        monkeypatch.setattr(
            kvstore, "scan_log_bytes",
            lambda data: scanned.append(len(data)) or scan(data),
        )
        recovered = _recover(image, derive(0xC0), artifact)
        report = recovered.recovery_report
        assert scanned == [len(image) - position]
        assert report.bytes_scanned == len(image) - position
        assert report.checkpoint_loaded
        assert report.tail_records_replayed == 31
        assert report.records_replayed == store.log_records
        assert recovered.log_bytes == image
        assert _model(recovered) == _model(store)
        assert dict(recovered.index.items()) == dict(store.index.items())

    def test_render_mentions_checkpoint_coverage(self):
        store = _store_with_history(derive(0xD2))
        artifact = store.take_checkpoint()
        store.put(9000, b"after")
        recovered = _recover(store.log_bytes, derive(0xD2), artifact)
        assert "checkpoint" in recovered.recovery_report.render()


class TestTornCheckpoint:
    def test_torn_rule_tears_slot_and_raises(self):
        plan = FaultPlan.parse("torn_checkpoint=1", seed=derive(4))
        store = LogStructuredStore(
            expected_items=512, seed=derive(0xD3), durable=True, faults=plan
        )
        for op in range(60):
            store.put(op, b"x%d" % op)
        with pytest.raises(InjectedCrash):
            store.take_checkpoint()
        torn = store.checkpoint_bytes
        assert torn is not None
        assert store.checkpoints == 0  # never counted as successful

        recovered = _recover(store.log_bytes, derive(0xD3), torn)
        assert _model(recovered) == _model(store)
        report = recovered.recovery_report
        assert report.checkpoint_invalid
        assert not report.checkpoint_loaded

    @pytest.mark.parametrize("keep", [0, 1, 4, 9, 64, 300])
    def test_torn_at_specific_byte_always_falls_back(self, keep):
        plan = FaultPlan.parse(f"torn_checkpoint=1:{keep}", seed=derive(5))
        store = LogStructuredStore(
            expected_items=512, seed=derive(0xD4), durable=True, faults=plan
        )
        for op in range(80):
            store.put(op % 32, b"y%06d" % op)
        model = _model(store)
        with pytest.raises(InjectedCrash):
            store.take_checkpoint()
        torn = store.checkpoint_bytes
        assert len(torn) <= max(keep, 0)

        recovered = _recover(store.log_bytes, derive(0xD4), torn)
        assert _model(recovered) == model
        assert recovered.recovery_report.checkpoint_invalid

    def test_checkpointer_writer_sees_torn_prefix(self):
        """The durable file must be torn the same way as the in-memory
        slot, so cross-process recovery exercises the same fallback."""
        plan = FaultPlan.parse("torn_checkpoint=1:10", seed=derive(6))
        store = LogStructuredStore(
            expected_items=512, seed=derive(0xD5), durable=True, faults=plan
        )
        for op in range(40):
            store.put(op, b"z%d" % op)
        written = []
        with pytest.raises(InjectedCrash):
            Checkpointer().checkpoint(store, writer=written.append)
        assert written == [store.checkpoint_bytes]
        assert len(written[0]) <= 10

    def test_retry_after_torn_checkpoint_succeeds(self):
        plan = FaultPlan.parse("torn_checkpoint=1", seed=derive(7))
        store = LogStructuredStore(
            expected_items=512, seed=derive(0xD6), durable=True, faults=plan
        )
        for op in range(30):
            store.put(op, b"w%d" % op)
        with pytest.raises(InjectedCrash):
            store.take_checkpoint()
        artifact = store.take_checkpoint()  # one-shot rule is spent
        assert store.checkpoints == 1
        recovered = _recover(store.log_bytes, derive(0xD6), artifact)
        assert recovered.recovery_report.checkpoint_loaded


class TestDecodeCheckpoint:
    def test_decode_round_trip(self):
        payload = {"version": CHECKPOINT_VERSION, "kind": "checkpoint", "n": 42}
        assert decode_checkpoint(encode_checkpoint(payload)) == payload

    @pytest.mark.parametrize(
        "blob",
        [
            None,
            b"",
            b"MC",  # truncated magic
            b"XXXX\x00\x00\x00\x04abcd\x00\x00\x00\x00",  # bad magic
            b"MCKP\x00\x00\x00",  # truncated length field
            b"MCKP\xff\xff\xff\xffabc",  # length past end of blob
        ],
        ids=["none", "empty", "short-magic", "bad-magic", "short-len",
             "len-overrun"],
    )
    def test_decode_rejects_garbage(self, blob):
        assert decode_checkpoint(blob) is None

    def test_decode_rejects_flipped_bit(self):
        artifact = bytearray(encode_checkpoint({"version": 1, "x": 1}))
        artifact[len(artifact) // 2] ^= 0x40
        assert decode_checkpoint(bytes(artifact)) is None


class TestCheckpointMustFitTheStore:
    def test_old_snapshot_version_falls_back_to_full_replay(self):
        """A CRC-valid artifact from an older snapshot format is invalid,
        not an error: a worker restarting beside an old checkpoint file
        must come up by full replay."""
        store = _store_with_history(derive(0xD7))
        payload = decode_checkpoint(store.take_checkpoint())
        payload["index"]["version"] = 1
        old = encode_checkpoint(payload)
        assert decode_checkpoint(old) is not None

        recovered = _recover(store.log_bytes, derive(0xD7), old)
        report = recovered.recovery_report
        assert report.checkpoint_invalid
        assert not report.checkpoint_loaded
        assert _model(recovered) == _model(store)

    def test_version_1_artifact_falls_back_to_full_replay(self):
        """Version 1 indexes held record ordinals, not byte offsets: such
        an artifact would pass every other check and then serve the wrong
        records, so it must mean a full replay."""
        store = _store_with_history(derive(0xDA))
        payload = decode_checkpoint(store.take_checkpoint())
        payload["version"] = 1
        old = encode_checkpoint(payload)

        recovered = _recover(store.log_bytes, derive(0xDA), old)
        report = recovered.recovery_report
        assert report.checkpoint_invalid
        assert not report.checkpoint_loaded
        assert report.bytes_scanned == len(store.log_bytes)
        assert _model(recovered) == _model(store)

    def test_corrupt_prefix_distrusts_checkpoint_and_full_scan_raises(self):
        """A byte flipped inside the checkpointed prefix fails the prefix
        CRC, so the checkpoint is not trusted and the full scan finds the
        mid-log corruption exactly as it would without one."""
        store = _store_with_history(derive(0xDB))
        artifact = store.take_checkpoint()
        store.put(4000, b"after the checkpoint")
        image = bytearray(store.log_bytes)
        image[12] ^= 0x20  # inside the first record
        scanned = []
        scan = kvstore.scan_log_bytes

        def spy(data):
            scanned.append(len(data))
            return scan(data)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kvstore, "scan_log_bytes", spy)
            with pytest.raises(CorruptLogError):
                _recover(bytes(image), derive(0xDB), artifact)
        assert scanned == [len(image)]

    def test_checkpoint_taken_under_another_kick_policy_is_not_trusted(self):
        bubbling = LogStructuredStore(expected_items=512, seed=derive(0xD8),
                                      durable=True, kick_policy="bubbling")
        for op in range(300):
            bubbling.put(op, b"b%d" % op)
        artifact = bubbling.take_checkpoint()

        recovered = _recover(bubbling.log_bytes, derive(0xD8), artifact)
        assert recovered.config.kick_policy is None
        assert recovered.recovery_report.checkpoint_invalid
        assert _model(recovered) == _model(bubbling)
