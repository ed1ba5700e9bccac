"""Golden replay: the kernel's dispatch decisions and motion paths, pinned.

Dispatch keeps the quantities each pass needs in dirty-flagged caches
(:mod:`repro.core.sim.dispatch`). ``test_dispatch_matches_golden`` pins
what they decide: for five cells (the three policies, a fault/repair
schedule, and deadline-fetch tenancy) the ordered log of every fetch,
return and mount, the report, the structured-trace stream and the metrics
export must hash to the digests committed in
``tests/golden/dispatch_decisions.json``. The per-pass cache oracle in
``test_dispatch_incremental.py`` checks the caches themselves.

Fine motion events and closed-form trips are still two live paths; under
matched seeds on serialized geometry both must produce the *identical*
report, trace stream and metrics export. Any divergence means a path
changed behaviour, which the bench comparator's EXACT gate would also
catch — these tests just catch it earlier and name the cell.

Re-record the fixture only for an intended behaviour change::

    PYTHONPATH=src python tests/test_sim_golden_replay.py
"""

import hashlib
import json
from pathlib import Path

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


#: The committed decision digests (see :func:`_decision_digest`).
GOLDEN_PATH = Path(__file__).parent / "golden" / "dispatch_decisions.json"

#: One cell per dispatch regime: the three policies, fault/repair-driven
#: cover and routing rewrites, and QoS (deadline fetch) tenancy.
DISPATCH_CELLS = ["silica", "sp", "ns", "faults", "tenancy"]


def _dispatch_cell(name):
    """(config kwargs, trace, start, end, fault schedule) for one cell."""
    if name in ("silica", "sp", "ns"):
        kwargs = dict(policy=name, num_platters=400, num_drives=8,
                      num_shuttles=8, seed=5)
        return (kwargs, *_trace(), None)
    if name == "faults":
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
        return kwargs, trace, start, end, FaultSchedule.generate(chaos, 8, 8)
    registry = skewed_mix(num_tenants=4, seed=3, total_rate_per_second=0.6,
                          zero_quota_tenant=True)
    kwargs = dict(num_platters=400, num_drives=8, num_shuttles=8,
                  tenancy=registry, fetch_policy="deadline", seed=3)
    return (kwargs, *_trace(registry=registry), None)


def _record_decisions(robotics, engine):
    """Log every fetch, return and mount decision, in order, with its time.

    NS teleports platters straight into drives, so its decisions are the
    ``on_customer_arrival`` mounts; under silica/sp each fetch logs its
    assignment and, on arrival, its mount.
    """
    log = []
    start_fetch = robotics.start_fetch
    start_return = robotics.start_return
    on_customer_arrival = robotics.on_customer_arrival

    def fetch(shuttle_sim, platter, drive):
        log.append(("fetch", engine.now, shuttle_sim.shuttle.shuttle_id,
                    platter, drive.drive_id))
        return start_fetch(shuttle_sim, platter, drive)

    def return_(shuttle_sim, drive):
        log.append(("return", engine.now, shuttle_sim.shuttle.shuttle_id,
                    drive.drive_id))
        return start_return(shuttle_sim, drive)

    def mount(drive, platter, **kwargs):
        log.append(("mount", engine.now, drive.drive_id, platter))
        return on_customer_arrival(drive, platter, **kwargs)

    robotics.start_fetch = fetch
    robotics.start_return = return_
    robotics.on_customer_arrival = mount
    return log


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _decision_digest(name):
    """Run one cell; digest its decision log, report, trace and metrics."""
    kwargs, trace, start, end, schedule = _dispatch_cell(name)
    tracer = Tracer()
    kernel = SimKernel(SimConfig(**kwargs), tracer=tracer)
    kernel.lifecycle.assign_trace(trace, start, end)
    if schedule is not None:
        kernel.faults.apply_fault_schedule(schedule)
    log = _record_decisions(kernel.robotics, kernel.ctx.sim)
    report = kernel.run()
    return {
        "decisions": len(log),
        "decisions_sha256": _sha256(json.dumps(log)),
        "report_sha256": _sha256(json.dumps(report.as_dict(), sort_keys=True)),
        "trace_sha256": _sha256(
            "\n".join(event.to_json() for event in tracer.events())
        ),
        "metrics_sha256": _sha256(
            json.dumps(kernel.ctx.metrics.as_dict(), sort_keys=True)
        ),
    }


@pytest.mark.parametrize("cell", DISPATCH_CELLS)
def test_dispatch_matches_golden(cell):
    """Dispatch decisions, report, trace and metrics match the fixture.

    The fixture was recorded while a full-rescan reference dispatcher
    still lived beside the cached one, and both produced the same
    decision log, report and trace in every cell, so a cache that drifts
    from a from-scratch recomputation shows up here as a changed digest.
    """
    golden = json.loads(GOLDEN_PATH.read_text())
    assert _decision_digest(cell) == golden[cell]


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


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {cell: _decision_digest(cell) for cell in DISPATCH_CELLS},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
