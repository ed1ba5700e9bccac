"""Tests for the multi-library deployment simulation (Section 6)."""

import pytest

from repro.core.deployment_sim import (
    DeploymentConfig,
    DeploymentSimulation,
)
from repro.core.sim import SimConfig
from repro.workload.generator import WorkloadGenerator


def _trace(rate=2.0, hours=0.3, seed=5):
    generator = WorkloadGenerator(seed=seed)
    return generator.interval_trace(
        rate,
        interval_hours=hours,
        warmup_hours=0.1,
        cooldown_hours=0.1,
        fixed_size=40_000_000,
    )


def _library_config(seed=5):
    return SimConfig(num_platters=300, num_drives=8, num_shuttles=8, seed=seed)


class TestConfig:
    def test_needs_a_library(self):
        with pytest.raises(ValueError):
            DeploymentConfig(num_libraries=0)

    def test_placement_names(self):
        with pytest.raises(ValueError):
            DeploymentConfig(placement="scatter")

    def test_libraries_are_independent(self):
        deployment = DeploymentSimulation(
            DeploymentConfig(num_libraries=3, library=_library_config())
        )
        assert len(deployment.libraries) == 3
        seeds = {lib.config.seed for lib in deployment.libraries}
        assert len(seeds) == 3  # distinct seeds, distinct mechanics


class TestRouting:
    def test_every_request_routed_exactly_once(self):
        trace, start, end = _trace()
        deployment = DeploymentSimulation(
            DeploymentConfig(num_libraries=3, library=_library_config())
        )
        deployment.route_trace(trace, start, end)
        routed = sum(
            sum(1 for r in lib.lifecycle.all_requests if r.parent is None)
            for lib in deployment.libraries
        )
        assert routed == len(trace)

    def test_run_completes_everything(self):
        trace, start, end = _trace(rate=1.0)
        deployment = DeploymentSimulation(
            DeploymentConfig(num_libraries=2, library=_library_config())
        )
        deployment.route_trace(trace, start, end)
        report = deployment.run()
        assert report.completions.count > 0
        for library_report in report.per_library:
            assert (
                library_report.requests_completed
                == library_report.requests_submitted
            )


class TestSpreadingClaim:
    def test_spread_balances_load_better_than_packed(self):
        """Section 6: spreading platter-sets across libraries load-balances
        correlated read traffic."""
        trace, start, end = _trace(rate=3.0)
        results = {}
        for placement in ("spread", "packed"):
            deployment = DeploymentSimulation(
                DeploymentConfig(
                    num_libraries=3,
                    library=_library_config(),
                    placement=placement,
                )
            )
            deployment.route_trace(
                trace, start, end, correlation_groups=30, group_skew=2.0
            )
            results[placement] = deployment.run()
        assert (
            results["spread"].library_load_imbalance
            < results["packed"].library_load_imbalance
        )
        assert (
            results["spread"].completions.tail
            <= results["packed"].completions.tail
        )
