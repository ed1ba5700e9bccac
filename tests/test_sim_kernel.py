"""Unit tests for the decomposed ``repro.core.sim`` kernel subsystems.

Each subsystem is exercised standalone against a stub :class:`SimContext`
(the context is deliberately small enough to build directly), and the
protocol seams of :mod:`repro.core.sim.hooks` are exercised with plain
fake objects — proving the kernel composes against *anything* satisfying
the protocols, not just the real tenancy / fault / observability layers.
"""

import dataclasses

import pytest

from repro.core.sim import (
    DispatchSubsystem,
    FaultSubsystem,
    RequestLifecycle,
    RoboticsSubsystem,
    SimConfig,
    SimContext,
    SimKernel,
    VerificationSubsystem,
)
from repro.core.sim.dispatch import dispatch_policy_for
from repro.workload.generator import WorkloadGenerator
from repro.workload.traces import ReadRequest


def _ctx(**overrides):
    defaults = dict(num_platters=200, num_drives=6, num_shuttles=6, seed=4)
    defaults.update(overrides)
    return SimContext(SimConfig(**defaults))


def _advance(ctx, seconds):
    """Drive the engine clock forward with an empty event."""
    ctx.sim.schedule_at(ctx.sim.now + seconds, lambda: None, label="tick")
    ctx.sim.run()


class TestSimContext:
    def test_clock_follows_engine(self):
        ctx = _ctx()
        assert ctx.now == 0.0
        _advance(ctx, 12.5)
        assert ctx.now == 12.5

    def test_disabled_tracer_collapses_to_none(self):
        from repro.observability import Tracer

        ctx = SimContext(SimConfig(), tracer=Tracer(enabled=False))
        assert ctx.tracer is None

    def test_default_dispatch_hook_is_noop(self):
        ctx = _ctx()
        ctx.request_dispatch()  # must not raise before composition

    def test_qos_counters_only_with_tenancy(self):
        assert _ctx().counters.admission_rejects is None

        class Tenancy:
            pass

        ctx = SimContext(SimConfig(tenancy=Tenancy()))
        assert ctx.counters.admission_rejects is not None
        assert ctx.counters.deadline_misses is not None

    def test_counter_names_match_legacy_export(self):
        names = set(_ctx().metrics.names())
        for expected in (
            "sim_bytes_read_total",
            "sim_recharges_total",
            "sim_work_steals_total",
            "sim_shuttle_travel_seconds",
            "sim_request_completion_seconds",
        ):
            assert expected in names


class TestRobotics:
    def test_placement_is_seed_deterministic(self):
        a, b = RoboticsSubsystem(_ctx()), RoboticsSubsystem(_ctx())
        assert a.home_slot == b.home_slot
        assert a.platters == b.platters

    def test_drive_count_honours_config(self):
        robotics = RoboticsSubsystem(_ctx(num_drives=6))
        assert len(robotics.drives) == 6

    def test_every_platter_has_a_home(self):
        robotics = RoboticsSubsystem(_ctx())
        assert set(robotics.platters) == set(robotics.home_slot)


class TestVerification:
    def test_backlog_drains_at_aggregate_idle_rate(self):
        ctx = _ctx(drive_throughput_mbps=60.0)
        verification = VerificationSubsystem(ctx, num_drives=2)
        verification.submit_verification(120e6)
        assert verification.backlog_bytes == 120e6
        _advance(ctx, 1.0)  # 2 drives * 60 MB/s * 1 s = 120 MB drained
        verification.update_fluid()
        assert verification.backlog_bytes == 0.0
        assert verification.verify_latencies == [pytest.approx(1.0)]

    def test_stopped_drives_pause_the_drain(self):
        ctx = _ctx(drive_throughput_mbps=60.0)
        verification = VerificationSubsystem(ctx, num_drives=1)
        verification.submit_verification(60e6)
        verification.drive_stops_verifying()
        _advance(ctx, 10.0)
        verification.update_fluid()
        assert verification.backlog_bytes == 60e6

    def test_resume_is_capped_at_pool_size(self):
        ctx = _ctx()
        verification = VerificationSubsystem(ctx, num_drives=3)
        for _ in range(5):
            verification.drive_resumes_verifying()
        assert verification._verifying_drives == 3


class TestDispatch:
    def test_policy_names_resolve(self):
        for name in ("silica", "sp", "ns"):
            assert dispatch_policy_for(name).name == name

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError):
            dispatch_policy_for("teleport")

    def test_partition_structures_exist_only_for_silica(self):
        def build(policy):
            ctx = _ctx(policy=policy)
            robotics = RoboticsSubsystem(ctx)
            lifecycle = RequestLifecycle(ctx, robotics)
            return DispatchSubsystem(ctx, robotics, lifecycle)

        assert build("silica").partition_heaps
        assert build("sp").partition_heaps == {}

    def test_dispatch_requests_coalesce(self):
        ctx = _ctx()
        robotics = RoboticsSubsystem(ctx)
        lifecycle = RequestLifecycle(ctx, robotics)
        dispatch = DispatchSubsystem(ctx, robotics, lifecycle)
        dispatch.request_dispatch()
        dispatch.request_dispatch()
        # Both calls coalesce into one scheduled dispatch pass.
        assert ctx.sim.pending == 1


class TestLifecycle:
    def test_request_ids_are_monotonic(self):
        ctx = _ctx()
        lifecycle = RequestLifecycle(ctx, RoboticsSubsystem(ctx))
        assert [lifecycle._new_id() for _ in range(3)] == [1, 2, 3]

    def test_unavailable_platters_sampled_from_config(self):
        ctx = _ctx(unavailable_fraction=0.25)
        lifecycle = RequestLifecycle(ctx, RoboticsSubsystem(ctx))
        # The target is 25% of 200, reduced by the per-platter-set cap of R
        # (the blast-zone invariant keeps every set recoverable).
        assert 0 < len(lifecycle.unavailable) <= 50
        assert lifecycle.unavailable <= set(lifecycle.robotics.platters)

    def test_large_requests_shard(self):
        kernel = SimKernel(SimConfig(num_platters=200, seed=4))
        trace, start, end = WorkloadGenerator(seed=4).interval_trace(
            0.01,
            interval_hours=0.05,
            warmup_hours=0.0,
            cooldown_hours=0.0,
            fixed_size=int(
                kernel.config.track_payload_bytes * kernel.config.shard_tracks_limit * 3
            ),
        )
        kernel.lifecycle.assign_trace(trace, start, end)
        parents = [r for r in kernel.lifecycle.all_requests if r.parent is None]
        shards = [r for r in kernel.lifecycle.all_requests if r.parent is not None]
        assert parents and shards
        assert all(s.parent in parents for s in shards)

    def test_submit_returns_the_top_level_request(self):
        kernel = SimKernel(SimConfig(num_platters=200, seed=4))
        lifecycle = kernel.lifecycle
        platter = kernel.robotics.platters[0]
        plain = lifecycle.submit(ReadRequest(0.0, "plain", 4_000_000), platter, True)
        assert plain is lifecycle.all_requests[-1]
        assert plain.parent is None and not plain.children
        big = kernel.config.track_payload_bytes * kernel.config.shard_tracks_limit * 3
        parent = lifecycle.submit(ReadRequest(0.0, "big", big), platter, True)
        assert parent.parent is None and len(parent.children) == 3
        assert all(shard.parent is parent for shard in parent.children)
        assert parent in lifecycle.all_requests

    def test_submit_returns_none_when_admission_rejects(self):
        tenancy = FakeTenancy()
        tenancy.admission.admit = lambda tenant, size_bytes, time: False
        kernel = SimKernel(SimConfig(num_platters=200, tenancy=tenancy, seed=4))
        platter = kernel.robotics.platters[0]
        request = ReadRequest(0.0, "refused", 4_000_000)
        assert kernel.lifecycle.submit(request, platter, True) is None
        assert kernel.lifecycle.all_requests == []


class FakeSLO:
    name = "gold"
    deadline_seconds = 3600.0
    weight = 1.0


class FakeAdmission:
    """AdmissionLike stub: admits everything, counts the calls."""

    def __init__(self):
        self.calls = 0

    def admit(self, tenant, size_bytes, time):
        self.calls += 1
        return True

    def stats_dict(self):
        return {}


class FakeTenancy:
    """TenancyLike stub — no repro.tenancy import anywhere near it."""

    def __init__(self):
        self.admission = FakeAdmission()

    def class_of(self, tenant):
        return FakeSLO()

    def admission_controller(self):
        return self.admission

    def fetch_policy_for(self, name):
        return None


class TestProtocolSeams:
    def test_kernel_runs_against_fake_tenancy(self):
        """The TenancyLike seam needs duck typing only, not the real layer."""
        tenancy = FakeTenancy()
        kernel = SimKernel(
            SimConfig(num_platters=200, num_drives=6, num_shuttles=6,
                      tenancy=tenancy, seed=8)
        )
        trace, start, end = WorkloadGenerator(seed=8).interval_trace(
            0.3, interval_hours=0.2, warmup_hours=0.05, cooldown_hours=0.05,
            fixed_size=4_000_000,
        )
        kernel.lifecycle.assign_trace(trace, start, end)
        report = kernel.run()
        assert tenancy.admission.calls == len(trace)
        assert report.requests_completed == report.requests_submitted
        assert report.qos is not None
        assert all(r.slo_class == "gold" for r in kernel.lifecycle.all_requests)

    def test_fault_schedule_seam_is_duck_typed(self):
        """FaultScheduleLike takes plain objects, not repro.faults types."""

        @dataclasses.dataclass
        class Event:
            component: str
            target: int
            start: float
            duration: float

            @property
            def repairs(self):
                return self.duration > 0

        class Schedule:
            def __init__(self, events):
                self._events = events

            def __iter__(self):
                return iter(self._events)

        kernel = SimKernel(SimConfig(num_platters=200, num_drives=6,
                                     num_shuttles=6, seed=12))
        kernel.faults.apply_fault_schedule(
            Schedule([
                Event("shuttle", 0, 10.0, 60.0),
                Event("read_drive", 1, 20.0, 60.0),
                Event("metadata", 0, 30.0, 15.0),
            ])
        )
        kernel.ctx.sim.run()
        assert kernel.ctx.counters.faults_injected.value == 3
        assert kernel.ctx.counters.faults_repaired.value == 3
        assert kernel.faults.metadata_available

    def test_fault_subsystem_marks_blast_zone(self):
        ctx = _ctx()
        robotics = RoboticsSubsystem(ctx)
        lifecycle = RequestLifecycle(ctx, robotics)
        dispatch = DispatchSubsystem(ctx, robotics, lifecycle)
        verification = VerificationSubsystem(ctx, len(robotics.drives))
        faults = FaultSubsystem(ctx, robotics, lifecycle, dispatch, verification)
        robotics.wire(dispatch, lifecycle, verification)
        lifecycle.wire(dispatch, faults)
        dispatch.wire(faults)
        faults.schedule_shuttle_failure(5.0, 0, repair_after=None)
        ctx.sim.run()
        assert robotics.shuttles[0].shuttle.failed
        assert lifecycle.unavailable  # the dead shelf's platters
