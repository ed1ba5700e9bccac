"""Extension bench: dynamic failure resilience.

Beyond Figure 8's static unavailability, this injects live shuttle and
drive failures mid-run and measures the degradation. The design claim
(Section 4): "Failures in the library mechanics should minimize impact on
unavailability and performance" — every request must still complete (via
partition reassignment, drive re-routing, and cross-platter recovery), with
graceful tail growth.
"""

import pytest

from repro.core.metrics import SLO_SECONDS
from repro.core.sim import SimConfig, SimKernel
from repro.workload.generator import WorkloadGenerator

from conftest import hours, print_series


def _run(failures, seed=16):
    generator = WorkloadGenerator(seed=seed)
    trace, start, end = generator.interval_trace(
        1.2,
        interval_hours=1.0,
        warmup_hours=0.15,
        cooldown_hours=0.15,
        fixed_size=20_000_000,
    )
    kernel = SimKernel(SimConfig(num_platters=1900, seed=seed))
    kernel.lifecycle.assign_trace(trace, start, end)
    for kind, time, target in failures:
        if kind == "shuttle":
            kernel.faults.schedule_shuttle_failure(time, target)
        else:
            kernel.faults.schedule_drive_failure(time, target)
    return kernel, kernel.run()


def test_failure_resilience(once):
    def experiment():
        scenarios = {
            "healthy": [],
            "1 shuttle": [("shuttle", 0.0, 4)],
            "3 shuttles": [("shuttle", 0.0, 4), ("shuttle", 0.0, 11), ("shuttle", 0.0, 17)],
            "3 shuttles + 2 drives": [
                ("shuttle", 0.0, 4),
                ("shuttle", 0.0, 11),
                ("shuttle", 0.0, 17),
                ("drive", 300.0, 0),
                ("drive", 300.0, 10),
            ],
        }
        return {name: _run(f) for name, f in scenarios.items()}

    results = once(experiment)
    rows = []
    for name, (kernel, report) in results.items():
        rows.append(
            f"{name:22s}: tail {hours(report.completions.tail):5.2f} h   "
            f"unavailable platters {len(kernel.lifecycle.unavailable):3d}   "
            f"completed {report.requests_completed}/{report.requests_submitted}"
        )
    print_series("Extension: dynamic failure resilience", "scenario", rows)
    healthy = results["healthy"][1]
    for name, (kernel, report) in results.items():
        # Nothing is ever lost: every request completes, within SLO.
        assert report.requests_completed == report.requests_submitted, name
        assert report.completions.tail < SLO_SECONDS, name
    # Degradation is monotone-ish: the worst scenario is the slowest.
    worst = results["3 shuttles + 2 drives"][1]
    assert worst.completions.tail >= healthy.completions.tail
