"""End-to-end faultgen harness tests: the zero-lost-acked-writes check.

These run the real server + client + fault plan in-process.  The smoke
shape keeps runtime low; the assertions are the acceptance criteria —
verdict PASS, faults actually fired, recoveries actually happened, and
nothing hung.
"""

import asyncio
import dataclasses

import pytest

from repro.serve import FaultgenConfig, run_faultgen
from repro.serve.faultgen import DEFAULT_FAULT_SPEC
from tests.seeding import derive


def run_config(config):
    return asyncio.run(run_faultgen(config))


class TestSmokeRun:
    def test_smoke_passes_with_zero_lost_acked_writes(self):
        config = FaultgenConfig.smoke(seed=derive(0))
        report = run_config(config)
        assert report.ok, report.render()
        assert report.lost_acked_writes == 0
        assert report.phantom_values == 0
        assert not report.hung
        assert report.ops_acked + report.ops_unacked == report.ops_issued
        assert report.ops_issued == config.n_ops
        # the run was actually hostile: the fault classes fired
        assert report.faults_fired.get("busy", 0) > 0
        assert report.faults_fired.get("crash", 0) + \
            report.faults_fired.get("torn_write", 0) > 0
        assert report.shard_recoveries > 0

    def test_report_render_mentions_seed_and_verdict(self):
        config = FaultgenConfig.smoke(seed=derive(3))
        report = run_config(config)
        text = report.render()
        assert f"seed={config.seed}" in text
        assert "verdict" in text
        assert "PASS" in text

    @pytest.mark.parametrize("seed_tag", [1, 2])
    def test_multiple_seeds_pass(self, seed_tag):
        report = run_config(FaultgenConfig.smoke(seed=derive(seed_tag)))
        assert report.ok, report.render()


class TestClientErrorsAreReported:
    def test_protocol_errors_on_reads_land_in_the_report(self, monkeypatch):
        """A read whose retries end in a ProtocolError (a reply frame that
        kept failing its checksum) is an unacked op mid-run and a failed
        verification read at the end; STATS failing the same way leaves
        the counters at zero.  None of it may raise out of the run."""
        from repro.serve.client import McCuckooClient
        from repro.serve.protocol import ProtocolError

        async def corrupt(self, *args, **kwargs):
            raise ProtocolError("frame checksum mismatch")

        monkeypatch.setattr(McCuckooClient, "get", corrupt)
        monkeypatch.setattr(McCuckooClient, "stats", corrupt)
        config = dataclasses.replace(
            FaultgenConfig.smoke(seed=derive(9)), faults="busy=0.01")
        report = run_config(config)
        assert not report.ok
        assert report.reads_checked == 0
        assert report.verified_keys == 0
        assert report.failures
        assert all("verification read failed: frame checksum mismatch"
                   in failure for failure in report.failures)
        assert report.ops_acked + report.ops_unacked == report.ops_issued
        assert report.shard_recoveries == 0


class TestConfigShapes:
    def test_custom_fault_spec(self):
        config = dataclasses.replace(
            FaultgenConfig.smoke(seed=derive(5)),
            faults="busy=0.05; drop_connection=0.02",
        )
        report = run_config(config)
        assert report.ok, report.render()
        assert report.faults_fired.get("busy", 0) > 0
        # no crash rules configured: no recoveries should happen
        assert report.shard_recoveries == 0

    def test_default_spec_is_the_hostile_one(self):
        assert "crash_after_appends" in DEFAULT_FAULT_SPEC
        assert "torn_write" in DEFAULT_FAULT_SPEC
        assert "corrupt_frame" in DEFAULT_FAULT_SPEC


class TestMaintenanceAudit:
    """Maintenance must never cost an acknowledged write — even when the
    faults strike *inside* a compaction or a checkpoint write."""

    def test_effective_faults_extends_spec_per_mode(self):
        single = FaultgenConfig.smoke(seed=0, maintenance=True)
        assert "crash_during_compaction=1" in single.effective_faults()
        assert "torn_checkpoint=1" in single.effective_faults()
        worker = dataclasses.replace(single, n_workers=2)
        assert "kill_worker_during=compaction:1" in worker.effective_faults()
        assert "kill_worker_during=checkpoint:1" in worker.effective_faults()
        plain = FaultgenConfig.smoke(seed=0)
        assert plain.effective_faults() == plain.faults

    def test_smoke_passes_with_maintenance_strikes(self):
        config = FaultgenConfig.smoke(seed=derive(7), maintenance=True)
        report = run_config(config)
        assert report.ok, report.render()
        assert report.lost_acked_writes == 0
        assert report.phantom_values == 0
        # the strikes landed inside maintenance, and recovery absorbed them
        fired = report.faults_fired
        assert fired.get("crash_during_compaction", 0) > 0
        assert fired.get("torn_checkpoint", 0) > 0
        assert report.shard_recoveries > 0
