"""Extension bench: transient-fault lifecycle (chaos with repair clocks).

Extends the static failure bench with the full fault *lifecycle*: stochastic
MTBF/MTTR schedules from ``repro.faults`` drive shuttles, read drives and
the metadata service down and — when repair is enabled — back into service.
The design claim (Section 4): library mechanics fail transiently and are
repaired in place, so the service sees a short degraded window rather than
a permanent capacity loss. The control is the *same* fault schedule with
every repair clock removed (fail-stop): availability must drop and the
completion tail must stretch.

Reproduce from the command line with the ``chaos`` subcommand, e.g.::

    python -m repro --seed 16 chaos --hours 1.0 --platters 1900 \
        --shuttle-mtbf 10000 --drive-mtbf 15000 [--no-repair]
"""

from repro.core.sim import SimConfig, SimKernel
from repro.faults import ChaosConfig, FaultModel, FaultSchedule
from repro.workload.generator import WorkloadGenerator

from conftest import hours, print_series

HORIZON_SECONDS = 1.3 * 3600.0  # trace span incl. warmup/cooldown


def _run(schedule, seed=16, read_error_prob=0.02):
    generator = WorkloadGenerator(seed=seed)
    trace, start, end = generator.interval_trace(
        1.2,
        interval_hours=1.0,
        warmup_hours=0.15,
        cooldown_hours=0.15,
        fixed_size=20_000_000,
    )
    kernel = SimKernel(
        SimConfig(
            num_platters=1900,
            seed=seed,
            transient_read_error_prob=read_error_prob,
        )
    )
    kernel.lifecycle.assign_trace(trace, start, end)
    kernel.faults.apply_fault_schedule(schedule)
    return kernel, kernel.run()


def _schedule(shuttle_mtbf, drive_mtbf, metadata_mtbf=0.0, seed=16):
    chaos = ChaosConfig(
        horizon_seconds=HORIZON_SECONDS,
        shuttle=FaultModel(mtbf_seconds=shuttle_mtbf, mttr_seconds=240.0),
        drive=FaultModel(mtbf_seconds=drive_mtbf, mttr_seconds=480.0),
        metadata=(
            FaultModel(mtbf_seconds=metadata_mtbf, mttr_seconds=120.0)
            if metadata_mtbf
            else None
        ),
        seed=seed,
    )
    return FaultSchedule.generate(chaos, num_shuttles=20, num_drives=20)


def test_chaos_repair_vs_failstop(once):
    """The acceptance experiment: same schedule, repair on vs fail-stop."""

    def experiment():
        schedule = _schedule(shuttle_mtbf=10_000.0, drive_mtbf=15_000.0)
        repaired = _run(schedule)
        failstop = _run(schedule.without_repair())
        rerun = _run(schedule)  # determinism check
        return schedule, repaired, failstop, rerun

    schedule, (_, repaired), (_, failstop), (_, rerun) = once(experiment)
    rows = []
    for name, report in [("repair on", repaired), ("fail-stop", failstop)]:
        res = report.resilience
        rows.append(
            f"{name:10s}: availability {res.availability * 100:6.2f} %   "
            f"tail {hours(report.completions.tail):5.2f} h   "
            f"repaired {res.faults_repaired}/{res.faults_injected}   "
            f"degraded {res.degraded_requests}"
        )
    print_series(
        "Extension: chaos with repair clocks vs fail-stop",
        f"{len(schedule)} scheduled faults, MTTR << horizon",
        rows,
    )
    # Every scheduled fault carries a repair clock shorter than the run.
    assert all(e.repair_time < HORIZON_SECONDS for e in schedule if e.repairs)
    # Nothing is lost in either mode (partition re-cover absorbs fail-stop).
    for report in (repaired, failstop):
        assert report.requests_completed == report.requests_submitted
    # Repair restores capacity: higher availability, shorter tail.
    assert repaired.resilience.availability > failstop.resilience.availability
    assert repaired.completions.tail < failstop.completions.tail
    assert repaired.resilience.faults_repaired == repaired.resilience.faults_injected
    assert failstop.resilience.faults_repaired == 0
    # Fixed seed => byte-identical metrics on a re-run.
    assert rerun.resilience.availability == repaired.resilience.availability
    assert rerun.completions.tail == repaired.completions.tail
    assert rerun.resilience.reread_retries == repaired.resilience.reread_retries


def test_chaos_fault_rate_sweep(once):
    """Availability and tail degrade gracefully as the fault rate climbs."""

    def experiment():
        results = {}
        for label, shuttle_mtbf, drive_mtbf in [
            ("light", 15_000.0, 20_000.0),
            ("moderate", 8_000.0, 12_000.0),
            ("heavy", 1_500.0, 2_000.0),
        ]:
            schedule = _schedule(shuttle_mtbf, drive_mtbf, metadata_mtbf=4_000.0)
            results[label] = _run(schedule)
        return results

    results = once(experiment)
    rows = []
    for label, (kernel, report) in results.items():
        res = report.resilience
        rows.append(
            f"{label:9s}: faults {res.faults_injected:3d}   "
            f"availability {res.availability * 100:6.2f} %   "
            f"mttr {res.mean_time_to_repair:5.0f} s   "
            f"tail {hours(report.completions.tail):5.2f} h   "
            f"retries(reread/deep) {res.reread_retries}/{res.deep_decodes}   "
            f"metadata retries {res.metadata_retries}"
        )
    print_series(
        "Extension: chaos fault-rate sweep (repair on)",
        "regime", rows,
    )
    for label, (kernel, report) in results.items():
        res = report.resilience
        # With repair enabled every injected fault returns to service and
        # every request completes, whatever the fault rate.
        assert res.faults_repaired == res.faults_injected, label
        assert report.requests_completed == report.requests_submitted, label
        assert res.reread_retries > 0, label
        # Metadata outages are felt (requests park and retry) yet absorbed.
        assert res.metadata_retries > 0, label
    light = results["light"][1].resilience
    heavy = results["heavy"][1].resilience
    assert heavy.faults_injected > light.faults_injected
    assert heavy.availability < light.availability
