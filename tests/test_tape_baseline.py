"""Tests for the tape-library baseline simulator."""

import pytest

from repro.core.sim import SimConfig, SimKernel
from repro.core.tape_baseline import TapeConfig, TapeLibrarySimulation
from repro.workload.generator import WorkloadGenerator


def _trace(rate=0.5, hours=0.3, seed=50, fixed_size=8_000_000):
    generator = WorkloadGenerator(seed=seed)
    return generator.interval_trace(
        rate,
        interval_hours=hours,
        warmup_hours=0.05,
        cooldown_hours=0.05,
        fixed_size=fixed_size,
    )


def _run_tape(trace_args=None, **config_kwargs):
    trace, start, end = _trace(**(trace_args or {}))
    config_kwargs.setdefault("seed", 50)
    sim = TapeLibrarySimulation(TapeConfig(**config_kwargs))
    sim.assign_trace(trace, start, end)
    return sim, sim.run()


class TestMechanics:
    def test_all_requests_complete(self):
        sim, report = _run_tape()
        assert report.requests_completed == report.requests_submitted

    def test_mount_cycle_is_minutes(self):
        """The Section 1 premise: tape does minutes of mechanics per mount."""
        sim, report = _run_tape()
        mechanics_per_mount = (
            report.drive_busy_seconds + report.robot_busy_seconds
        ) / max(1, report.mounts)
        assert mechanics_per_mount > 60.0

    def test_robots_serialize(self):
        """One robot bottlenecks mount throughput versus two."""
        slow_args = {"rate": 1.0, "hours": 0.3, "seed": 51}
        _, one = _run_tape(slow_args, num_robots=1, seed=51)
        _, two = _run_tape(slow_args, num_robots=2, seed=51)
        assert two.completions.tail <= one.completions.tail

    def test_more_drives_help(self):
        args = {"rate": 1.0, "hours": 0.3, "seed": 52}
        _, few = _run_tape(args, num_drives=4, seed=52)
        _, many = _run_tape(args, num_drives=16, seed=52)
        assert many.completions.tail < few.completions.tail

    def test_seeks_capped(self):
        sim, _ = _run_tape()
        for _ in range(500):
            assert sim._sample_seek() <= sim.config.spool_seek_max_seconds

    def test_deterministic(self):
        _, a = _run_tape(seed=53)
        _, b = _run_tape(seed=53)
        assert a.completions.tail == b.completions.tail


class TestVersusSilica:
    def test_silica_beats_tape_on_small_reads(self):
        """The paper's core motivation: on the small-read-dominated cloud
        archival workload, per-mount minutes (tape) lose to per-mount
        seconds (Silica) at matched drive counts."""
        trace, start, end = _trace(rate=1.5, hours=0.5, seed=54, fixed_size=4_000_000)
        tape = TapeLibrarySimulation(TapeConfig(num_drives=20, seed=54))
        tape.assign_trace(trace, start, end)
        tape_report = tape.run()
        silica = SimKernel(SimConfig(num_drives=20, num_platters=500, seed=54))
        silica.lifecycle.assign_trace(trace, start, end)
        silica_report = silica.run()
        assert (
            silica_report.completions.tail < tape_report.completions.tail / 3
        )

    def test_tape_throughput_advantage_is_not_enough(self):
        """Tape drives are 6x faster (360 vs 60 MB/s) — and still lose on
        this workload, because throughput is not the bottleneck (§2)."""
        tape_config = TapeConfig()
        assert tape_config.drive_throughput_mbps == 360.0
