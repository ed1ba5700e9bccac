"""Benchmark runner: execute scenarios, check them, stamp provenance.

The runner is a behaviour gate, not a stopwatch. For each scenario it
builds two fresh :class:`~repro.bench.registry.ScenarioRun` objects and
executes the first *bare*, the second *monitored*: when the scenario
exposes its kernel, a sim-time
:class:`~repro.observability.monitor.TimeSeriesMonitor` is attached
first and its gauge series becomes the artifact's ``timeseries`` block.
Both executions must return identical simulated metrics; a mismatch
raises :class:`~repro.bench.registry.BenchError`, because it means the
scenario is not deterministic (it could never be baselined) or the
monitor disturbed the run it watched.

No wall clock is read here. How fast the twin runs is measured by
``perfbench/`` (see ``BENCHMARK.json``), whose traced layer times add up
to the traced wall.

The artifact schema (``BENCH_SCHEMA_VERSION``) is the cross-run contract:
bump it on any breaking key change, and keep
:meth:`BenchResult.as_dict` stable-keyed so artifacts diff cleanly.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..observability.monitor import TimeSeriesMonitor
from .registry import BenchError, Scenario, ScenarioRegistry

#: Version stamp of the BENCH_*.json artifact schema.
BENCH_SCHEMA_VERSION = "repro.bench/2"

#: Sim-seconds between monitor samples on the monitored execution. The
#: monitor's halving downsampler bounds the reservoir, so one fixed
#: cadence serves seconds-scale and paper-scale scenarios alike.
MONITOR_INTERVAL_SECONDS = 30.0


def git_sha(short: bool = True) -> str:
    """The repo's current commit, or ``"unknown"`` outside a checkout."""
    args = ["git", "rev-parse", "--short" if short else "HEAD"]
    if short:
        args.append("HEAD")
    try:
        out = subprocess.run(
            args, capture_output=True, text=True, timeout=10, check=False
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


@dataclass
class BenchResult:
    """One scenario's checked outcome, ready to serialize."""

    scenario: str
    description: str
    suite: str
    seed: int
    sha: str
    simulated_metrics: Dict[str, float] = field(default_factory=dict)
    timeseries: Optional[Dict[str, Any]] = None

    def as_dict(self) -> Dict[str, Any]:
        """Stable-keyed artifact payload (the BENCH_*.json contract)."""
        payload: Dict[str, Any] = {
            "schema": BENCH_SCHEMA_VERSION,
            "scenario": self.scenario,
            "description": self.description,
            "suite": self.suite,
            "seed": self.seed,
            "git_sha": self.sha,
            "simulated_metrics": dict(sorted(self.simulated_metrics.items())),
        }
        # The timeseries carries its own schema stamp; the comparator
        # ignores it.
        if self.timeseries is not None:
            payload["timeseries"] = self.timeseries
        return payload

    def summary(self) -> str:
        """One human line: what was checked for this scenario."""
        line = (
            f"{self.scenario:<26s} seed={self.seed:<3d} "
            f"metrics={len(self.simulated_metrics):<3d}"
        )
        if self.timeseries is not None:
            line += f" monitor samples={self.timeseries['samples']}"
        return line


class BenchRunner:
    """Runs registry scenarios and produces :class:`BenchResult` objects."""

    def __init__(self, registry: ScenarioRegistry) -> None:
        self.registry = registry
        self._sha = git_sha()

    def run_scenario(self, scenario: Scenario) -> BenchResult:
        """Execute ``scenario`` bare, then monitored; require equal metrics."""
        metrics = scenario.build().execute()
        run = scenario.build()
        monitor: Optional[TimeSeriesMonitor] = None
        if run.kernel is not None:
            monitor = TimeSeriesMonitor(MONITOR_INTERVAL_SECONDS)
            monitor.attach(run.kernel)
        if run.execute() != metrics:
            raise BenchError(
                f"scenario {scenario.name!r} is not deterministic: the "
                f"monitored execution changed simulated metrics "
                f"(seed {scenario.seed})"
            )
        result = BenchResult(
            scenario=scenario.name,
            description=scenario.description,
            suite=scenario.suite,
            seed=scenario.seed,
            sha=self._sha,
            simulated_metrics=dict(metrics),
        )
        if monitor is not None and len(monitor):
            result.timeseries = monitor.as_dict()
        return result

    def run_suite(self, suite: str) -> List[BenchResult]:
        """Every scenario of ``suite``, in stable name order."""
        scenarios = self.registry.by_suite(suite)
        if not scenarios:
            raise BenchError(f"suite {suite!r} has no registered scenarios")
        return [self.run_scenario(scenario) for scenario in scenarios]

    def run_named(self, names: List[str]) -> List[BenchResult]:
        """The named scenarios, in the order given."""
        return [self.run_scenario(self.registry.get(name)) for name in names]
