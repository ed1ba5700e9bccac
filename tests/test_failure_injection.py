"""Tests for dynamic failure injection in the running simulation."""

import pytest

from repro.core.sim import SimConfig, SimKernel
from repro.workload.generator import WorkloadGenerator


def _sim(seed=40, rate=1.0, hours=0.5, num_platters=950, **kwargs):
    generator = WorkloadGenerator(seed=seed)
    trace, start, end = generator.interval_trace(
        rate,
        interval_hours=hours,
        warmup_hours=0.1,
        cooldown_hours=0.1,
        fixed_size=20_000_000,
    )
    kernel = SimKernel(SimConfig(num_platters=num_platters, seed=seed, **kwargs))
    kernel.lifecycle.assign_trace(trace, start, end)
    return kernel


class TestShuttleFailure:
    def test_all_requests_still_complete(self):
        kernel = _sim()
        kernel.faults.schedule_shuttle_failure(600.0, shuttle_id=5)
        report = kernel.run()
        assert kernel.ctx.counters.faults_injected.value == 1
        assert kernel.robotics.shuttles[5].shuttle.failed
        assert report.requests_completed == report.requests_submitted

    def test_partition_coverage_reassigned(self):
        kernel = _sim()
        failed_partition = kernel.robotics.shuttles[5].shuttle.partition
        kernel.faults.schedule_shuttle_failure(600.0, shuttle_id=5)
        kernel.run()
        cover = kernel.dispatch.partition_cover[failed_partition]
        assert cover != failed_partition
        assert not kernel.robotics.shuttles[cover].shuttle.failed

    def test_blast_zone_platters_rerouted_through_recovery(self):
        # Fail at t=0 while the shuttle sits at its storage-region home, so
        # the blast zone is a storage shelf with platters on it. (A shuttle
        # that dies parked at a read rack blocks no stored platters.)
        kernel = _sim()
        kernel.faults.schedule_shuttle_failure(0.0, shuttle_id=3)
        report = kernel.run()
        # Some platters went unavailable, and all their reads completed via
        # cross-platter fan-out anyway.
        assert len(kernel.lifecycle.unavailable) > 0
        assert report.requests_completed == report.requests_submitted
        recovered = [
            r
            for r in kernel.lifecycle.all_requests
            if r.parent is None and r.children and r.platter_id in kernel.lifecycle.unavailable
        ]
        for parent in recovered:
            assert parent.done

    def test_failure_degrades_but_does_not_break_tail(self):
        healthy = _sim(seed=41)
        healthy_report = healthy.run()
        degraded = _sim(seed=41)
        for shuttle_id in (2, 9):
            degraded.faults.schedule_shuttle_failure(300.0, shuttle_id)
        degraded_report = degraded.run()
        assert degraded.ctx.counters.faults_injected.value == 2
        assert (
            degraded_report.requests_completed == degraded_report.requests_submitted
        )
        # Losing shuttles cannot make things faster.
        assert (
            degraded_report.completions.tail
            >= healthy_report.completions.tail * 0.8
        )

    def test_invalid_shuttle_rejected(self):
        kernel = _sim()
        with pytest.raises(IndexError):
            kernel.faults.schedule_shuttle_failure(10.0, shuttle_id=99)


class TestDriveFailure:
    def test_requests_complete_around_dead_drive(self):
        kernel = _sim(seed=42)
        kernel.faults.schedule_drive_failure(600.0, drive_id=0)
        report = kernel.run()
        assert kernel.robotics.drives[0].failed
        assert report.requests_completed == report.requests_submitted

    def test_partitions_rerouted_to_alive_drive(self):
        kernel = _sim(seed=43)
        victims = [
            p.index for p in kernel.robotics.policy.partitions if p.drive_id == 0
        ]
        kernel.faults.schedule_drive_failure(600.0, drive_id=0)
        kernel.run()
        for pid in victims:
            override = kernel.dispatch.drive_override.get(pid)
            assert override is not None and override != 0
            assert not kernel.robotics.drives[override].failed

    def test_dead_drive_does_not_serve(self):
        kernel = _sim(seed=44)
        kernel.faults.schedule_drive_failure(100.0, drive_id=1)
        kernel.run()
        drives = kernel.robotics.drives
        drive = drives[1]
        # Drive accounting stops accruing after failure: its read share is
        # below the fleet average.
        fleet_mean = sum(d.read_seconds for d in drives) / len(drives)
        assert drive.read_seconds <= fleet_mean

    def test_invalid_drive_rejected(self):
        kernel = _sim()
        with pytest.raises(IndexError):
            kernel.faults.schedule_drive_failure(10.0, drive_id=99)


class TestCombinedFailures:
    def test_shuttle_and_drive_failures_together(self):
        kernel = _sim(seed=45, rate=0.7)
        kernel.faults.schedule_shuttle_failure(400.0, shuttle_id=7)
        kernel.faults.schedule_drive_failure(500.0, drive_id=3)
        report = kernel.run()
        assert kernel.ctx.counters.faults_injected.value == 2
        assert report.requests_completed == report.requests_submitted
        assert report.completions.within_slo()


class TestRepairLifecycle:
    def test_shuttle_repairs_and_returns_to_service(self):
        kernel = _sim(seed=46)
        kernel.faults.schedule_shuttle_failure(300.0, shuttle_id=5, repair_after=200.0)
        report = kernel.run()
        shuttle = kernel.robotics.shuttles[5].shuttle
        assert not shuttle.failed
        assert kernel.ctx.counters.faults_repaired.value == 1
        res = report.resilience
        assert res is not None
        assert res.faults_injected == 1 and res.faults_repaired == 1
        assert 0.0 < res.mean_time_to_repair
        assert res.availability < 1.0
        assert report.requests_completed == report.requests_submitted

    def test_repair_restores_partition_cover(self):
        kernel = _sim(seed=46)
        pid = kernel.robotics.shuttles[5].shuttle.partition
        kernel.faults.schedule_shuttle_failure(300.0, shuttle_id=5, repair_after=200.0)
        kernel.run()
        assert kernel.dispatch.partition_cover[pid] == pid

    def test_repair_restores_blast_zone_platters(self):
        kernel = _sim(seed=46)
        kernel.faults.schedule_shuttle_failure(0.0, shuttle_id=3, repair_after=300.0)
        kernel.run()
        # Every platter the blast zone blocked is reachable again.
        assert len(kernel.lifecycle.unavailable) == 0

    def test_drive_repairs_and_routing_restored(self):
        kernel = _sim(seed=47)
        victims = [p.index for p in kernel.robotics.policy.partitions if p.drive_id == 0]
        kernel.faults.schedule_drive_failure(300.0, drive_id=0, repair_after=400.0)
        report = kernel.run()
        assert not kernel.robotics.drives[0].failed
        assert kernel.ctx.counters.faults_repaired.value == 1
        for pid in victims:
            assert pid not in kernel.dispatch.drive_override
        assert report.requests_completed == report.requests_submitted

    def test_overlapping_faults_partial_repair(self):
        """Repairing one shuttle must not free platters another still
        blocks (the simulator twin of FailureState.resolve semantics)."""
        kernel = _sim(seed=48)
        kernel.faults.schedule_shuttle_failure(0.0, shuttle_id=3, repair_after=100.0)
        kernel.faults.schedule_shuttle_failure(0.0, shuttle_id=4, repair_after=5000.0)
        kernel.run()
        assert kernel.ctx.counters.faults_repaired.value == 2
        assert len(kernel.lifecycle.unavailable) == 0

    def test_repaired_run_beats_failstop_run(self):
        failstop = _sim(seed=49)
        for shuttle_id in (2, 7, 12):
            failstop.faults.schedule_shuttle_failure(300.0, shuttle_id)
        failstop_report = failstop.run()
        repaired = _sim(seed=49)
        for shuttle_id in (2, 7, 12):
            repaired.faults.schedule_shuttle_failure(300.0, shuttle_id, repair_after=240.0)
        repaired_report = repaired.run()
        assert (
            repaired_report.resilience.availability
            > failstop_report.resilience.availability
        )


class TestMetadataOutage:
    def test_requests_park_and_retry_through_outage(self):
        kernel = _sim(seed=50)
        kernel.faults.schedule_metadata_outage(300.0, duration=400.0)
        report = kernel.run()
        assert kernel.faults.metadata_available
        assert kernel.ctx.counters.metadata_retries.value > 0
        assert report.resilience.metadata_retries == kernel.ctx.counters.metadata_retries.value
        assert report.requests_completed == report.requests_submitted

    def test_unrepaired_outage_strands_requests_without_livelock(self):
        kernel = _sim(seed=50)
        kernel.faults.schedule_metadata_outage(300.0, duration=None)
        report = kernel.run()
        assert not kernel.faults.metadata_available
        # Arrivals after the outage park forever; nothing completes late
        # and the run still terminates (no retry storm).
        assert report.requests_completed < report.requests_submitted
        assert report.resilience.availability < 1.0

    def test_outage_counts_toward_downtime(self):
        quiet = _sim(seed=51)
        quiet_report = quiet.run()
        noisy = _sim(seed=51)
        noisy.faults.schedule_metadata_outage(100.0, duration=600.0)
        noisy_report = noisy.run()
        assert quiet_report.resilience.availability == 1.0
        assert noisy_report.resilience.availability < 1.0


class TestTransientReadErrors:
    def test_retry_ladder_counters(self):
        kernel = _sim(seed=52, transient_read_error_prob=0.1)
        report = kernel.run()
        res = report.resilience
        assert res.reread_retries > 0
        assert report.requests_completed == report.requests_submitted

    def test_zero_probability_is_byte_identical_to_baseline(self):
        """The ladder must not consume RNG draws when disabled."""
        base = _sim(seed=53).run()
        gated = _sim(seed=53, transient_read_error_prob=0.0).run()
        assert gated.completions.tail == base.completions.tail
        assert gated.completions.median == base.completions.median

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            _sim(transient_read_error_prob=1.5)
