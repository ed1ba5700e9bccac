"""Tests for simulation request state and metrics."""

import sys

import numpy as np
import pytest

from repro.core.metrics import (
    SLO_SECONDS,
    CompletionStats,
    DriveUtilization,
    ShuttleMetrics,
)
from repro.core.requests import SimRequest
from repro.workload.traces import ReadRequest


class TestSimRequest:
    def test_from_trace_requires_placement(self):
        request = ReadRequest(1.0, "f", 100)
        with pytest.raises(ValueError):
            SimRequest.from_trace(1, request, measured=True)

    def test_from_trace(self):
        request = ReadRequest(1.0, "f", 100, platter_id="P1", num_tracks=3)
        sim_request = SimRequest.from_trace(1, request, measured=True)
        assert sim_request.platter_id == "P1"
        assert sim_request.num_tracks == 3

    def test_completion_time(self):
        request = SimRequest(1, arrival=10.0, platter_id="P", size_bytes=1)
        request.complete(25.0)
        assert request.completion_time == 15.0
        assert request.done

    def test_completion_time_before_done_raises(self):
        request = SimRequest(1, arrival=10.0, platter_id="P", size_bytes=1)
        with pytest.raises(ValueError):
            _ = request.completion_time

    def test_fan_out_parent_completes_on_last_child(self):
        parent = SimRequest(1, arrival=0.0, platter_id="P", size_bytes=100)
        subs = parent.fan_out(["A", "B", "C"], [2, 3, 4])
        assert parent.pending_subreads == 3
        assert subs[0].complete(5.0) is None
        assert subs[1].complete(6.0) is None
        finished = subs[2].complete(9.0)
        assert finished is parent
        assert parent.completion == 9.0

    def test_fan_out_children_not_measured(self):
        parent = SimRequest(1, arrival=0.0, platter_id="P", size_bytes=100, measured=True)
        subs = parent.fan_out(["A"], [2])
        assert not subs[0].measured

    def test_fan_out_id_mismatch(self):
        parent = SimRequest(1, arrival=0.0, platter_id="P", size_bytes=100)
        with pytest.raises(ValueError):
            parent.fan_out(["A", "B"], [2])

    def test_slotted_request_keeps_dataclass_behaviour(self):
        request = SimRequest(request_id=7, arrival=1.5, platter_id="P", size_bytes=10)
        assert request.children == () and request.num_tracks == 1
        assert request.measured and request.completion is None
        assert request == SimRequest(7, 1.5, "P", 10)
        assert request != SimRequest(8, 1.5, "P", 10)
        assert repr(request).startswith("SimRequest(request_id=7, arrival=1.5,")
        if sys.version_info >= (3, 10):
            assert not hasattr(request, "__dict__")
            with pytest.raises(AttributeError):
                request.undeclared = 1

    def test_equality_of_requests_with_sub_reads_terminates(self):
        first = SimRequest(1, 0.0, "P", 10)
        second = SimRequest(1, 0.0, "P", 10)
        first.fan_out(["A"], [2])
        second.fan_out(["A"], [2])
        assert first == second
        other = SimRequest(1, 0.0, "P", 10)
        other.fan_out(["B"], [2])
        assert first != other


class TestCompletionStats:
    def test_empty(self):
        stats = CompletionStats.from_times([])
        assert stats.count == 0
        assert stats.tail == 0.0

    def test_percentiles(self):
        times = list(range(1, 1001))
        stats = CompletionStats.from_times(times)
        assert stats.count == 1000
        assert stats.median == pytest.approx(500.5)
        assert stats.p999 == pytest.approx(999.001)
        assert stats.max == 1000

    def test_slo_check(self):
        good = CompletionStats.from_times([100.0, 200.0])
        assert good.within_slo()
        bad = CompletionStats.from_times([SLO_SECONDS * 2])
        assert not bad.within_slo()

    def test_tail_hours(self):
        stats = CompletionStats.from_times([7200.0] * 10)
        assert stats.tail_hours == pytest.approx(2.0)


class TestDriveUtilization:
    def test_definition_excludes_switching(self):
        util = DriveUtilization(20, 70, 10, 100)
        assert util.utilization == pytest.approx(0.9)
        assert util.read_fraction == pytest.approx(0.2)
        assert util.verify_fraction == pytest.approx(0.7)
        assert util.switch_fraction == pytest.approx(0.1)

    def test_zero_total(self):
        assert DriveUtilization().utilization == 0.0

    def test_addition(self):
        a = DriveUtilization(10, 20, 5, 50)
        b = DriveUtilization(5, 10, 0, 50)
        total = a + b
        assert total.read_seconds == 15
        assert total.total_seconds == 100


class TestShuttleMetrics:
    def test_tail_travel(self):
        metrics = ShuttleMetrics(travel_times=list(np.arange(1.0, 101.0)))
        assert metrics.tail_travel_seconds(99.9) == pytest.approx(99.901)

    def test_tail_travel_empty(self):
        assert ShuttleMetrics().tail_travel_seconds() == 0.0
