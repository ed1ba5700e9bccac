"""Behaviour gate: scenario registry, runner, exact baseline compare.

Every scenario is seeded and the simulator is deterministic, so a
scenario's simulated metrics are a fingerprint of the twin's behaviour.
This package records them and fails when one changes:

- :mod:`~repro.bench.registry` — named, seeded, suite-tagged scenarios
  (``fast`` runs on every PR, ``full`` at paper scale);
- :mod:`~repro.bench.scenarios` — the scenario definitions themselves,
  shared with ``benchmarks/conftest.py`` so pytest benchmarks and the
  gate run identical workloads;
- :mod:`~repro.bench.runner` — one bare and one monitored execution per
  scenario, which must agree, plus git-SHA provenance and the
  schema-versioned ``BENCH_<scenario>.json`` artifacts;
- :mod:`~repro.bench.compare` — exact diffing against the committed
  baselines in ``benchmarks/baselines/``: under the same seed every
  simulated metric must match (drift is a behaviour change).

Speed is not measured here: ``perfbench/`` (see ``BENCHMARK.json``)
measures the twin end to end and per layer.

CLI: ``python -m repro bench {list,run,compare,update-baseline}``.

Units: ``simulated_metrics`` values are simulated time, counts, bytes
and ratios.
"""

from .compare import (
    ComparisonReport,
    MetricComparison,
    ScenarioComparison,
    compare_dirs,
    compare_scenario,
    load_artifact,
    load_artifact_dir,
)
from .registry import (
    SUITES,
    BenchError,
    Scenario,
    ScenarioRegistry,
    ScenarioRun,
)
from .runner import (
    BENCH_SCHEMA_VERSION,
    BenchResult,
    BenchRunner,
    git_sha,
)
from .scenarios import (
    BENCH_SCALE,
    FULL_SCALE,
    SMALL_SCALE,
    BenchScale,
    build_full_library_sim,
    build_library_sim,
    default_registry,
    headline_metrics,
    scale_for,
)

__all__ = [
    "ComparisonReport",
    "MetricComparison",
    "ScenarioComparison",
    "compare_dirs",
    "compare_scenario",
    "load_artifact",
    "load_artifact_dir",
    "SUITES",
    "BenchError",
    "Scenario",
    "ScenarioRegistry",
    "ScenarioRun",
    "BENCH_SCHEMA_VERSION",
    "BenchResult",
    "BenchRunner",
    "git_sha",
    "BENCH_SCALE",
    "FULL_SCALE",
    "SMALL_SCALE",
    "BenchScale",
    "build_full_library_sim",
    "build_library_sim",
    "default_registry",
    "headline_metrics",
    "scale_for",
]
