"""Golden replay: the kernel's alternate paths are the same machine.

Two configuration switches keep a reference path live beside the fast
one: rescan dispatch beside incremental dispatch, and fine motion events
beside closed-form trips. These tests pin each pair the strongest way
available: under matched seeds, both runs must produce the *identical*
report (every metric, compared as dicts), the identical structured-trace
event stream, and the identical metrics export — across dispatch
policies, under fault schedules, and with tenancy enabled. Any divergence
means a fast path changed behaviour, which the bench comparator's EXACT
gate would also catch — this test just catches it earlier and names the
event.
"""

import pytest

from repro.core.sim import SimConfig, SimKernel
from repro.faults import ChaosConfig, FaultModel, FaultSchedule
from repro.observability import Tracer
from repro.tenancy import skewed_mix
from repro.workload.generator import WorkloadGenerator
from repro.workload.traces import ReadTrace


def _trace(rate=0.5, hours=0.4, seed=11, registry=None):
    generator = WorkloadGenerator(seed=seed)
    if registry is not None:
        return generator.multi_tenant_trace(
            registry, interval_hours=hours, warmup_hours=0.1, cooldown_hours=0.1
        )
    return generator.interval_trace(
        rate,
        interval_hours=hours,
        warmup_hours=0.1,
        cooldown_hours=0.1,
        fixed_size=4_000_000,
    )


def _assert_identical(left, right):
    l_report, l_events, l_metrics = left
    r_report, r_events, r_metrics = right
    assert l_report.as_dict() == r_report.as_dict()
    assert len(l_events) == len(r_events)
    for l_event, r_event in zip(l_events, r_events):
        assert l_event == r_event
    assert l_metrics == r_metrics


def _mode_run(config_kwargs, trace, start, end, schedule=None, incremental=True):
    tracer = Tracer()
    config = SimConfig(incremental_dispatch=incremental, **config_kwargs)
    kernel = SimKernel(config, tracer=tracer)
    kernel.lifecycle.assign_trace(trace, start, end)
    if schedule is not None:
        kernel.faults.apply_fault_schedule(schedule)
    report = kernel.run()
    metrics = kernel.ctx.metrics.as_dict()
    # The short-circuit counter measures the incremental fast path itself
    # (the rescan reference never takes it); everything else must match.
    metrics.pop("sim_dispatch_short_circuits_total", None)
    return report, tracer.events(), metrics


@pytest.mark.parametrize("policy", ["silica", "sp", "ns"])
def test_incremental_dispatch_replays_rescan(policy):
    """Incremental dispatch is byte-equal to the full-rescan reference."""
    kwargs = dict(policy=policy, num_platters=400, num_drives=8,
                  num_shuttles=8, seed=5)
    trace, start, end = _trace()
    _assert_identical(
        _mode_run(kwargs, trace, start, end, incremental=True),
        _mode_run(kwargs, trace, start, end, incremental=False),
    )


def test_incremental_dispatch_replays_rescan_under_faults():
    """Fault/repair-driven cover and routing rewrites replay identically."""
    kwargs = dict(num_platters=400, num_drives=8, num_shuttles=8,
                  transient_read_error_prob=0.02, seed=7)
    trace, start, end = _trace(seed=13)
    chaos = ChaosConfig(
        horizon_seconds=end + 0.1 * 3600.0,
        shuttle=FaultModel(mtbf_seconds=900.0, mttr_seconds=120.0),
        drive=FaultModel(mtbf_seconds=1200.0, mttr_seconds=240.0),
        metadata=FaultModel(mtbf_seconds=1800.0, mttr_seconds=60.0),
        seed=7,
    )
    schedule = FaultSchedule.generate(chaos, 8, 8)
    _assert_identical(
        _mode_run(kwargs, trace, start, end, schedule, incremental=True),
        _mode_run(kwargs, trace, start, end, schedule, incremental=False),
    )


def test_incremental_dispatch_replays_rescan_with_tenancy():
    """QoS-scheduled (deadline fetch) runs replay identically."""
    registry = skewed_mix(num_tenants=4, seed=3, total_rate_per_second=0.6,
                          zero_quota_tenant=True)
    trace, start, end = _trace(registry=registry)
    kwargs = dict(num_platters=400, num_drives=8, num_shuttles=8,
                  tenancy=registry, fetch_policy="deadline", seed=3)
    _assert_identical(
        _mode_run(kwargs, trace, start, end, incremental=True),
        _mode_run(kwargs, trace, start, end, incremental=False),
    )


def _motion_run(config_kwargs, trace, start, end, fine):
    tracer = Tracer()
    config = SimConfig(fine_motion_events=fine, **config_kwargs)
    kernel = SimKernel(config, tracer=tracer)
    kernel.lifecycle.assign_trace(trace, start, end)
    report = kernel.run()
    metrics = kernel.ctx.metrics.as_dict()
    # Closed-form trips exist to schedule fewer events, so the engine
    # counters differ by design; everything else must be byte-equal.
    for key in list(metrics):
        if key.startswith("sim_engine_"):
            metrics.pop(key)
    # Coarse mode emits a whole trip's trace records when the trip is
    # planned (stamped with their true future timestamps); fine mode
    # emits each as its event fires. Same records, different emission
    # order — compare as sorted canonical JSON lines.
    events = sorted(event.to_json() for event in tracer.events())
    return report, events, metrics


@pytest.mark.parametrize("policy", ["silica", "sp"])
def test_coarse_motion_replays_fine_when_serialized(policy):
    """Closed-form trips are byte-equal to fine motion on one drive/shuttle.

    The equality only holds on serialized geometry: with a second drive,
    its seek-jitter draws interleave with a trip's draws mid-flight in
    fine mode but not in coarse mode, and the shared RNG stream reorders.
    One drive plus one shuttle removes every interleaving source, so the
    draw sequences — and therefore every simulated metric and trace
    record — must match exactly.
    """
    kwargs = dict(policy=policy, num_platters=120, num_drives=1,
                  num_shuttles=1, seed=5)
    trace, start, end = _trace(rate=0.2)
    _assert_identical(
        _motion_run(kwargs, trace, start, end, fine=True),
        _motion_run(kwargs, trace, start, end, fine=False),
    )


def test_request_population_matches_kernel_iterator():
    """The lifecycle's request list, filtered, is the measured iterator."""
    config = SimConfig(num_platters=400, num_drives=8, num_shuttles=8, seed=21)
    trace, start, end = _trace(seed=21)
    kernel = SimKernel(config)
    kernel.lifecycle.assign_trace(trace, start, end)
    kernel.run()
    filtered = [
        r
        for r in kernel.lifecycle.all_requests
        if r.measured and r.done and r.parent is None
    ]
    assert filtered == list(kernel.measured_completed())
    assert len(ReadTrace(list(trace))) == len(trace)
