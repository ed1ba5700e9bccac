"""Tests for repro.bench: registry, runner, artifacts, comparator."""

import json
import os

import pytest

from repro.bench import (
    BENCH_SCHEMA_VERSION,
    BenchError,
    BenchRunner,
    Scenario,
    ScenarioRegistry,
    ScenarioRun,
    compare_dirs,
    compare_scenario,
    default_registry,
    headline_metrics,
    load_artifact,
    load_artifact_dir,
)
from repro.bench.compare import DRIFT, MATCH, SKIPPED
from repro.core import SimConfig, SimKernel
from repro.core.events import Simulation
from repro.observability import RunArtifacts
from repro.workload import WorkloadGenerator

#: The keys a schema-2 artifact may carry.
ARTIFACT_KEYS = {
    "schema",
    "scenario",
    "description",
    "suite",
    "seed",
    "git_sha",
    "simulated_metrics",
    "timeseries",
}


def tiny_scenario(name="tiny", seed=1, metrics=None):
    """A registry scenario that drains a 100-event engine near-instantly."""

    def build():
        sim = Simulation()

        def execute():
            for i in range(100):
                sim.schedule(i * 0.01, lambda: None, label="tick")
            sim.run()
            return dict(metrics or {"simulated_seconds": sim.now})

        return ScenarioRun(execute=execute)

    return Scenario(
        name=name,
        description="tiny test scenario",
        suite="fast",
        seed=seed,
        build=build,
    )


def small_kernel():
    """A seconds-scale library twin with its trace assigned, not yet run."""
    kernel = SimKernel(
        SimConfig(num_shuttles=4, num_drives=4, num_platters=100, seed=5)
    )
    trace, start, end = WorkloadGenerator(seed=5).interval_trace(
        0.05, interval_hours=0.1, warmup_hours=0.0, cooldown_hours=0.1
    )
    kernel.lifecycle.assign_trace(trace, start, end)
    return kernel


def make_doc(scenario="tiny", seed=1, simulated=None, schema=BENCH_SCHEMA_VERSION):
    """A minimal BENCH document for comparator tests."""
    return {
        "schema": schema,
        "scenario": scenario,
        "seed": seed,
        "simulated_metrics": dict(simulated or {"tail_seconds": 100.0}),
    }


class TestRegistry:
    def test_default_registry_has_fast_suite(self):
        registry = default_registry()
        fast = registry.by_suite("fast")
        assert len(fast) >= 5
        assert all(s.suite == "fast" for s in fast)
        # Name-sorted for stable run order.
        assert [s.name for s in fast] == sorted(s.name for s in fast)

    def test_default_registry_has_full_suite(self):
        assert len(default_registry().by_suite("full")) >= 1

    def test_duplicate_registration_rejected(self):
        registry = ScenarioRegistry()
        registry.register(tiny_scenario())
        with pytest.raises(BenchError, match="already registered"):
            registry.register(tiny_scenario())

    def test_unknown_scenario_rejected(self):
        registry = ScenarioRegistry()
        registry.register(tiny_scenario())
        with pytest.raises(BenchError, match="unknown scenario"):
            registry.get("nope")

    def test_unknown_suite_rejected(self):
        with pytest.raises(BenchError, match="unknown suite"):
            ScenarioRegistry().by_suite("medium")

    def test_scenario_validation(self):
        with pytest.raises(BenchError, match="suite"):
            Scenario("x", "d", "medium", 0, lambda: None)
        assert Scenario("x", "d", "full", 0, lambda: None).suite == "full"

    def test_iteration_and_contains(self):
        registry = ScenarioRegistry()
        registry.register(tiny_scenario("b"))
        registry.register(tiny_scenario("a"))
        assert [s.name for s in registry] == ["a", "b"]
        assert "a" in registry and "zzz" not in registry
        assert len(registry) == 2


class TestRunner:
    def test_result_carries_metrics_schema_and_sha(self):
        registry = ScenarioRegistry()
        registry.register(tiny_scenario())
        result = BenchRunner(registry).run_scenario(registry.get("tiny"))
        assert result.simulated_metrics == {"simulated_seconds": pytest.approx(0.99)}
        assert result.timeseries is None  # no kernel, nothing to monitor
        payload = result.as_dict()
        assert payload["schema"] == BENCH_SCHEMA_VERSION
        assert payload["git_sha"]
        assert set(payload) == ARTIFACT_KEYS - {"timeseries"}
        assert "metrics=1" in result.summary()

    def test_nondeterministic_scenario_rejected(self):
        drifting = {"count": 0}

        def build():
            def execute():
                drifting["count"] += 1
                return {"value": float(drifting["count"])}

            return ScenarioRun(execute=execute)

        registry = ScenarioRegistry()
        registry.add("drifty", "changes every run", "fast", 0, build)
        with pytest.raises(BenchError, match="not deterministic"):
            BenchRunner(registry).run_scenario(registry.get("drifty"))

    def test_sampler_dependent_scenario_rejected(self):
        """Metrics that change once a sampler is installed fail the run."""

        class SamplerAwareKernel:
            def __init__(self):
                self.sampled = False

            def sample_state(self):
                return {}

            def attach_sampler(self, interval, callback):
                self.sampled = True

        def build():
            kernel = SamplerAwareKernel()
            return ScenarioRun(
                execute=lambda: {"sampled": float(kernel.sampled)}, kernel=kernel
            )

        registry = ScenarioRegistry()
        registry.add("observed", "depends on the sampler", "fast", 0, build)
        with pytest.raises(BenchError, match="monitored execution"):
            BenchRunner(registry).run_scenario(registry.get("observed"))

    def test_real_kernel_monitored_matches_bare(self):
        def build():
            kernel = small_kernel()
            return ScenarioRun(
                execute=lambda: headline_metrics(kernel.run()), kernel=kernel
            )

        registry = ScenarioRegistry()
        registry.add("small_twin", "seconds-scale twin", "fast", 5, build)
        result = BenchRunner(registry).run_scenario(registry.get("small_twin"))
        assert result.simulated_metrics == headline_metrics(small_kernel().run())
        assert result.simulated_metrics["requests_completed"] > 0
        assert result.timeseries is not None
        assert result.timeseries["samples"] > 0
        assert set(result.as_dict()) == ARTIFACT_KEYS

    def test_run_suite_empty_rejected(self):
        with pytest.raises(BenchError, match="no registered scenarios"):
            BenchRunner(ScenarioRegistry()).run_suite("fast")


class TestArtifactRoundTrip:
    def test_write_and_load(self, tmp_path):
        registry = ScenarioRegistry()
        registry.register(tiny_scenario())
        result = BenchRunner(registry).run_scenario(registry.get("tiny"))
        artifacts = RunArtifacts(str(tmp_path))
        path = artifacts.write_bench(result)
        assert os.path.basename(path) == "BENCH_tiny.json"
        doc = load_artifact(path)
        assert doc == result.as_dict()
        assert load_artifact_dir(str(tmp_path)) == {"tiny": doc}
        # Stable keys: serialization is sorted.
        text = open(path).read()
        assert json.loads(text) == doc

    def test_non_artifact_rejected(self, tmp_path):
        path = tmp_path / "BENCH_bogus.json"
        path.write_text('{"no": "scenario"}')
        with pytest.raises(BenchError, match="not a bench artifact"):
            load_artifact(str(path))

    def test_summary_empty_run(self, tmp_path):
        artifacts = RunArtifacts(str(tmp_path / "never_written"))
        summary = artifacts.summary()
        assert "(no artifacts written)" in summary
        # Nothing was created on disk either.
        assert not os.path.exists(str(tmp_path / "never_written"))


class TestComparator:
    def verdict_of(self, report, metric):
        return {c.metric: c.verdict for c in report.comparisons}[metric]

    def test_exact_metric_drift_same_seed(self):
        base = make_doc(simulated={"tail_seconds": 100.0})
        cand = make_doc(simulated={"tail_seconds": 100.0000001})
        report = compare_scenario(base, cand)
        assert self.verdict_of(report, "sim:tail_seconds") == DRIFT
        assert report.worst() == DRIFT

    def test_exact_metric_match_same_seed(self):
        report = compare_scenario(make_doc(), make_doc())
        assert self.verdict_of(report, "sim:tail_seconds") == MATCH

    def test_metric_on_one_side_is_drift(self):
        # A gated metric that disappears (or appears) under the same seed
        # is a behaviour change, not something to skip.
        base = make_doc(simulated={"tail": 1.0, "gate": 1.0})
        cand = make_doc(simulated={"tail": 1.0})
        report = compare_scenario(base, cand)
        assert self.verdict_of(report, "sim:tail") == MATCH
        assert self.verdict_of(report, "sim:gate") == DRIFT
        assert self.verdict_of(compare_scenario(cand, base), "sim:gate") == DRIFT
        # Under different seeds nothing is compared, one-sided or not.
        report = compare_scenario(base, make_doc(seed=2, simulated={"tail": 1.0}))
        assert self.verdict_of(report, "sim:gate") == SKIPPED

    def test_seed_mismatch_skips_simulated(self):
        base = make_doc(seed=1, simulated={"tail_seconds": 100.0})
        cand = make_doc(seed=2, simulated={"tail_seconds": 200.0})
        report = compare_scenario(base, cand)
        assert self.verdict_of(report, "sim:tail_seconds") == SKIPPED
        assert not report.seed_matched

    def test_schema_mismatch_rejected(self):
        with pytest.raises(BenchError, match="schema"):
            compare_scenario(make_doc(schema="repro.bench/0"), make_doc())


class TestCompareDirs:
    def write(self, directory, doc):
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"BENCH_{doc['scenario']}.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)

    def test_empty_baseline_dir_reports_all_new(self, tmp_path):
        # A fresh checkout has candidates but no committed baselines yet:
        # everything should report as a new scenario, exit clean.
        base = tmp_path / "base"
        base.mkdir()
        self.write(str(tmp_path / "cand"), make_doc())
        report = compare_dirs(str(base), str(tmp_path / "cand"))
        assert report.missing_in_baseline == ["tiny"]
        assert report.scenarios == []
        assert report.exit_code() == 0
        assert "no baseline yet" in report.format()

    def test_missing_baseline_dir_reports_all_new(self, tmp_path):
        self.write(str(tmp_path / "cand"), make_doc())
        report = compare_dirs(str(tmp_path / "nope"), str(tmp_path / "cand"))
        assert report.missing_in_baseline == ["tiny"]
        assert report.exit_code() == 0

    def test_missing_candidate_dir_still_rejected(self, tmp_path):
        self.write(str(tmp_path / "base"), make_doc())
        with pytest.raises(BenchError, match="no such artifact directory"):
            compare_dirs(str(tmp_path / "base"), str(tmp_path / "nope"))

    def test_empty_candidate_dir_still_rejected(self, tmp_path):
        self.write(str(tmp_path / "base"), make_doc())
        (tmp_path / "cand").mkdir()
        with pytest.raises(BenchError, match="no BENCH_"):
            compare_dirs(str(tmp_path / "base"), str(tmp_path / "cand"))

    def test_missing_in_candidate_fails(self, tmp_path):
        self.write(str(tmp_path / "base"), make_doc("a"))
        self.write(str(tmp_path / "base"), make_doc("b"))
        self.write(str(tmp_path / "cand"), make_doc("a"))
        report = compare_dirs(str(tmp_path / "base"), str(tmp_path / "cand"))
        assert report.missing_in_candidate == ["b"]
        assert report.exit_code() == 1
        assert "missing from candidate" in report.format()

    def test_new_scenario_warns_only(self, tmp_path):
        self.write(str(tmp_path / "base"), make_doc("a"))
        self.write(str(tmp_path / "cand"), make_doc("a"))
        self.write(str(tmp_path / "cand"), make_doc("new"))
        report = compare_dirs(str(tmp_path / "base"), str(tmp_path / "cand"))
        assert report.missing_in_baseline == ["new"]
        assert report.exit_code() == 0

    def test_drift_fails_exit_code(self, tmp_path):
        self.write(str(tmp_path / "base"), make_doc("a"))
        self.write(str(tmp_path / "cand"), make_doc("a"))
        report = compare_dirs(str(tmp_path / "base"), str(tmp_path / "cand"))
        assert report.exit_code() == 0
        self.write(str(tmp_path / "cand"), make_doc("a", simulated={"tail_seconds": 1.0}))
        report = compare_dirs(str(tmp_path / "base"), str(tmp_path / "cand"))
        assert report.exit_code() == 1
        assert "[!!] a" in report.format()

    def test_names_filter(self, tmp_path):
        self.write(str(tmp_path / "base"), make_doc("a"))
        self.write(str(tmp_path / "base"), make_doc("b"))
        self.write(str(tmp_path / "cand"), make_doc("a"))
        self.write(str(tmp_path / "cand"), make_doc("b"))
        report = compare_dirs(
            str(tmp_path / "base"), str(tmp_path / "cand"), names=["a"]
        )
        assert [s.scenario for s in report.scenarios] == ["a"]
        with pytest.raises(BenchError, match="not found on either side"):
            compare_dirs(str(tmp_path / "base"), str(tmp_path / "cand"), names=["z"])


class TestCommittedBaselines:
    BASELINE_DIR = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "benchmarks",
        "baselines",
    )

    def test_baselines_exist_and_parse(self):
        docs = load_artifact_dir(self.BASELINE_DIR)
        assert len(docs) >= 5
        for name, doc in docs.items():
            assert doc["schema"] == BENCH_SCHEMA_VERSION
            assert doc["suite"] == "fast"
            assert doc["simulated_metrics"], name

    def test_baselines_match_registry(self):
        docs = load_artifact_dir(self.BASELINE_DIR)
        fast = {s.name for s in default_registry().by_suite("fast")}
        assert set(docs) == fast
        registry = default_registry()
        for name, doc in docs.items():
            assert doc["seed"] == registry.get(name).seed

    def test_baselines_carry_only_behaviour_keys(self):
        for name, doc in load_artifact_dir(self.BASELINE_DIR).items():
            assert set(doc) <= ARTIFACT_KEYS, (name, set(doc) - ARTIFACT_KEYS)
