"""Tests for the multi-seed replication utility."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro

from repro.core.replication import ReplicatedMetric, replicate, replicate_tail_hours
from repro.workload.profiles import TYPICAL


class TestReplicatedMetric:
    def test_mean_and_std(self):
        metric = ReplicatedMetric((1.0, 2.0, 3.0), confidence=0.95)
        assert metric.mean == pytest.approx(2.0)
        assert metric.std == pytest.approx(1.0)
        assert metric.n == 3

    def test_interval_contains_mean(self):
        metric = ReplicatedMetric((4.0, 5.0, 6.0, 5.5), confidence=0.95)
        low, high = metric.interval
        assert low < metric.mean < high

    def test_half_width_is_the_t_interval(self):
        metric = ReplicatedMetric((1.0, 2.0, 3.0), confidence=0.95)
        # t(0.975, df=2) * std / sqrt(n), with std = 1 and n = 3
        assert metric.half_width == pytest.approx(4.302652729911275 / np.sqrt(3.0))

    def test_single_value_zero_width(self):
        metric = ReplicatedMetric((7.0,), confidence=0.95)
        assert metric.half_width == 0.0

    def test_higher_confidence_wider_interval(self):
        values = (1.0, 2.0, 3.0, 2.5, 1.5)
        narrow = ReplicatedMetric(values, confidence=0.80)
        wide = ReplicatedMetric(values, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_str_format(self):
        metric = ReplicatedMetric((1.0, 2.0), confidence=0.95)
        assert "n=2" in str(metric)


class TestReplicate:
    def test_runs_each_seed_once(self):
        seen = []
        replicate(lambda seed: seen.append(seed) or float(seed), [3, 1, 4])
        assert seen == [3, 1, 4]

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            replicate(lambda s: 0.0, [])

    def test_deterministic_run_zero_spread(self):
        metric = replicate(lambda s: 42.0, [1, 2, 3])
        assert metric.std == 0.0
        assert metric.mean == 42.0


class TestReplicatedSimulation:
    def test_tail_hours_replication(self):
        metric = replicate_tail_hours(
            TYPICAL,
            seeds=[1, 2, 3],
            rate_factor=0.5,
            interval_hours=0.3,
            num_platters=300,
        )
        assert metric.n == 3
        assert metric.mean > 0
        # Mechanical sampling differs across seeds: some spread exists.
        assert metric.std >= 0
        low, high = metric.interval
        assert low <= metric.mean <= high


def test_entry_points_import_without_scipy():
    """scipy loads only when a confidence interval is computed."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import sys; import repro, repro.cli, repro.core.sim, repro.serve; "
        "print('scipy' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "False"
