"""Exact behaviour comparison between bench artifacts.

The simulator is deterministic, so for a same-seed comparison every
simulated-time metric must match its baseline **exactly**. Any
difference is a :data:`DRIFT` verdict — a behaviour change (perhaps an
intended one, in which case the baseline is updated deliberately), never
noise. A metric present on only one side is drift too: a gate that
disappears must not pass silently. When seeds differ the comparison is
skipped.

Exit-code policy lives in :meth:`ComparisonReport.exit_code`: drift and
a scenario missing from the candidate run fail. Speed is not compared
here; ``perfbench/`` measures it (see ``BENCHMARK.json``).
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .registry import BenchError
from .runner import BENCH_SCHEMA_VERSION

# Verdicts, worst first.
DRIFT = "drift"  # changed, or present on one side only, under the same seed
MATCH = "match"  # identical under the same seed
SKIPPED = "skipped"  # seeds differ


@dataclass
class MetricComparison:
    """One metric's verdict with the numbers behind it."""

    metric: str
    baseline: Optional[float]
    candidate: Optional[float]
    verdict: str

    @property
    def delta(self) -> float:
        """Candidate minus baseline (0.0 when either side is absent)."""
        if self.baseline is None or self.candidate is None:
            return 0.0
        return self.candidate - self.baseline

    @property
    def delta_percent(self) -> float:
        """The delta as a percentage of the baseline's magnitude."""
        if not self.baseline:
            return 0.0
        return self.delta / abs(self.baseline) * 100.0

    def row(self) -> str:
        """One aligned table line: metric, both sides, delta, verdict."""
        base = "-" if self.baseline is None else f"{self.baseline:12.6g}"
        cand = "-" if self.candidate is None else f"{self.candidate:12.6g}"
        delta = (
            f"{self.delta:+12.6g} ({self.delta_percent:+6.1f}%)"
            if self.baseline is not None and self.candidate is not None
            else " " * 22
        )
        return f"    {self.metric:<28s} {base} -> {cand} {delta}  {self.verdict}"


@dataclass
class ScenarioComparison:
    """All metric verdicts for one scenario."""

    scenario: str
    seed_matched: bool
    comparisons: List[MetricComparison] = field(default_factory=list)

    def worst(self) -> str:
        """The scenario's most severe verdict (drift worst, skipped least)."""
        verdicts = {c.verdict for c in self.comparisons}
        for verdict in (DRIFT, MATCH):
            if verdict in verdicts:
                return verdict
        return SKIPPED

    def has(self, verdict: str) -> bool:
        """Whether any metric of this scenario carries ``verdict``."""
        return any(c.verdict == verdict for c in self.comparisons)


@dataclass
class ComparisonReport:
    """The full baseline-vs-candidate comparison across scenarios."""

    scenarios: List[ScenarioComparison] = field(default_factory=list)
    missing_in_candidate: List[str] = field(default_factory=list)
    missing_in_baseline: List[str] = field(default_factory=list)

    def exit_code(self) -> int:
        """0 = clean; 1 on drift or a scenario missing from the candidate."""
        if self.missing_in_candidate:
            return 1
        return 1 if any(s.has(DRIFT) for s in self.scenarios) else 0

    def format(self, verbose: bool = False) -> str:
        """Human table: per-scenario verdicts, flagged metrics, totals."""
        lines: List[str] = []
        counts: Dict[str, int] = {}
        for scenario in self.scenarios:
            worst = scenario.worst()
            counts[worst] = counts.get(worst, 0) + 1
            marker = "!!" if worst == DRIFT else "ok"
            lines.append(f"  [{marker}] {scenario.scenario:<26s} {worst}")
            for comparison in scenario.comparisons:
                if verbose or comparison.verdict == DRIFT:
                    lines.append(comparison.row())
        for name in self.missing_in_candidate:
            lines.append(f"  [!!] {name:<26s} missing from candidate run")
        for name in self.missing_in_baseline:
            lines.append(f"  [??] {name:<26s} no baseline yet (new scenario)")
        totals = ", ".join(f"{v}={counts[v]}" for v in sorted(counts))
        lines.append(
            f"compared {len(self.scenarios)} scenario(s): {totals or 'none'}"
        )
        return "\n".join(lines)


def compare_scenario(
    baseline: Dict[str, Any], candidate: Dict[str, Any]
) -> ScenarioComparison:
    """Compare two BENCH documents for the same scenario."""
    for doc, side in ((baseline, "baseline"), (candidate, "candidate")):
        if doc.get("schema") != BENCH_SCHEMA_VERSION:
            raise BenchError(
                f"{side} artifact for {doc.get('scenario')!r} has schema "
                f"{doc.get('schema')!r}, expected {BENCH_SCHEMA_VERSION!r}"
            )
    seed_matched = baseline.get("seed") == candidate.get("seed")
    result = ScenarioComparison(
        scenario=str(candidate.get("scenario")), seed_matched=seed_matched
    )
    base_sim = baseline.get("simulated_metrics") or {}
    cand_sim = candidate.get("simulated_metrics") or {}
    for name in sorted(set(base_sim) | set(cand_sim)):
        base_value = base_sim.get(name)
        cand_value = cand_sim.get(name)
        if not seed_matched:
            verdict = SKIPPED
        elif name in base_sim and name in cand_sim and base_value == cand_value:
            verdict = MATCH
        else:
            verdict = DRIFT
        result.comparisons.append(
            MetricComparison(f"sim:{name}", base_value, cand_value, verdict)
        )
    return result


def load_artifact(path: str) -> Dict[str, Any]:
    """Load and sanity-check one BENCH_*.json document."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or "scenario" not in doc:
        raise BenchError(f"{path} is not a bench artifact (no 'scenario' key)")
    return doc


def load_artifact_dir(
    directory: str, missing_ok: bool = False
) -> Dict[str, Dict[str, Any]]:
    """scenario name -> document for every ``BENCH_*.json`` in a directory.

    With ``missing_ok`` a nonexistent or artifact-free directory yields an
    empty mapping instead of raising — the shape a fresh checkout (no
    committed baselines yet) presents to ``bench compare``.
    """
    if not os.path.isdir(directory):
        if missing_ok:
            return {}
        raise BenchError(f"no such artifact directory: {directory}")
    docs: Dict[str, Dict[str, Any]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        doc = load_artifact(path)
        docs[str(doc["scenario"])] = doc
    if not docs and not missing_ok:
        raise BenchError(f"no BENCH_*.json artifacts found in {directory}")
    return docs


def compare_dirs(
    baseline_dir: str,
    candidate_dir: str,
    names: Optional[List[str]] = None,
) -> ComparisonReport:
    """Compare every candidate artifact against its committed baseline.

    ``names`` restricts the comparison to those scenarios (a name missing
    from *both* sides is an error — likely a typo). A missing or empty
    baseline directory is tolerated: every candidate then reports as a
    new scenario, so first-run workflows don't need a bootstrap step.
    """
    baselines = load_artifact_dir(baseline_dir, missing_ok=True)
    candidates = load_artifact_dir(candidate_dir)
    if names is not None:
        unknown = [n for n in names if n not in baselines and n not in candidates]
        if unknown:
            raise BenchError(f"scenario(s) not found on either side: {unknown}")
        baselines = {n: d for n, d in baselines.items() if n in names}
        candidates = {n: d for n, d in candidates.items() if n in names}
    report = ComparisonReport()
    for name in sorted(set(baselines) | set(candidates)):
        if name not in candidates:
            report.missing_in_candidate.append(name)
        elif name not in baselines:
            report.missing_in_baseline.append(name)
        else:
            report.scenarios.append(
                compare_scenario(baselines[name], candidates[name])
            )
    return report
