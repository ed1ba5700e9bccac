"""Tests of the benchmark harness's own code (no program run needed).

Run from the repository root: ``python3 -m pytest perfbench/test_harness.py``.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
from serve_client import LoadResult, Op  # noqa: E402
from tracing import Recorder, SpanSet, nearest_rank, percentile_rule, self_times  # noqa: E402


# ---------------------------------------------------------------------- #
# Percentile rule
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "n, label, value",
    [
        (19, "p50", 10),
        (99, "p50", 50),
        (100, "p90", 90),
        (999, "p90", 900),
        (1000, "p99", 990),
        (10_000, "p99.9", 9990),
        (100_000, "p99.99", 99_990),
    ],
)
def test_percentile_rule_reports_highest_percentile_with_ten_beyond(n, label, value):
    samples = list(range(n, 0, -1))  # unsorted on purpose
    assert percentile_rule(samples) == (label, value, n)


def test_nearest_rank_edges():
    ordered = [1.0, 2.0, 3.0, 4.0]
    assert nearest_rank(ordered, 0.5) == 2.0
    assert nearest_rank(ordered, 1.0) == 4.0
    assert nearest_rank(ordered, 0.01) == 1.0
    with pytest.raises(ValueError):
        percentile_rule([])


# ---------------------------------------------------------------------- #
# Self time
# ---------------------------------------------------------------------- #


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and sibling b [5, 9].
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    own = self_times(starts, ends, parents)
    assert own == [3.0, 2.0, 1.0, 4.0]
    assert sum(own) == ends[0] - starts[0]


class _Toy:
    def outer(self, depth):
        if depth:
            self.outer(depth - 1)
        return self.inner() + self.inner()

    def inner(self):
        return 1


def test_recorded_layers_add_up_to_the_root(tmp_path):
    recorder = Recorder()
    recorder.wrap(_Toy, "outer", "outer_layer")
    recorder.wrap(_Toy, "inner", "inner_layer", on_return=_count_inner(recorder))
    try:
        with recorder.span("rep", "harness"):
            assert _Toy().outer(2) == 2
    finally:
        recorder.uninstall()
    assert _Toy.__dict__["outer"].__name__ == "outer"
    path = tmp_path / "toy.spans"
    recorder.dump(str(path), extra={"note": 1})
    spans = SpanSet.load(str(path))
    layers = spans.layer_totals()
    assert layers["outer_layer"]["calls"] == 3
    assert layers["inner_layer"]["calls"] == 6
    assert spans.extra == {"note": 1, "tallies": {"inner": 6}}
    calls, wall = spans.name_totals("rep")
    assert calls == 1
    assert sum(row["self_s"] for row in layers.values()) == pytest.approx(wall, abs=1e-12)
    # Nested spans of one layer are not double counted.
    assert layers["outer_layer"]["self_s"] <= spans.name_totals("_Toy.outer")[1]


def _count_inner(recorder):
    def hook(log, idx, args, kwargs, result):
        recorder.tallies["inner"] = recorder.tallies.get("inner", 0) + result

    return hook


def test_wrap_skips_a_missing_entry_point():
    recorder = Recorder()
    assert recorder.wrap(_Toy, "gone", "any") is False
    assert recorder.span_names == []


# ---------------------------------------------------------------------- #
# Output checks
# ---------------------------------------------------------------------- #

OUTPUTS = {
    "reads_in_trace": 100,
    "reads_submitted": 98,
    "reads_completed": 98,
    "completion_p50_s": 10.0,
    "completion_p99_s": 20.0,
    "completion_p999_s": 30.0,
    "bytes_read": 1e9,
    "drive_utilization": 0.5,
    "congestion_overhead": 0.01,
    "simulated_seconds": 3600.0,
    "events_fired": 1234,
    "admission_rejects": 2,
}


def test_reference_match_passes_and_perturbation_is_reported():
    reference = {"seed": 5, "outputs": dict(OUTPUTS)}
    assert checks.check_twin(dict(OUTPUTS), 1234, 5, reference) == []
    perturbed = dict(OUTPUTS, completion_p99_s=20.000000000000004)
    diffs = checks.check_twin(perturbed, 1234, 5, reference)
    assert diffs == ["completion_p99_s: reference 20.0, got 20.000000000000004"]
    # Another seed is held to conservation only.
    assert checks.check_twin(perturbed, 1234, 6, reference) == []


def test_conservation_catches_lost_reads_and_miscounted_events():
    assert checks.check_conservation(dict(OUTPUTS), 1234) == []
    lost = dict(OUTPUTS, reads_completed=97)
    assert any("completed" in diff for diff in checks.check_conservation(lost, 1234))
    assert any("engine pops" in diff for diff in checks.check_conservation(dict(OUTPUTS), 1235))
    disordered = dict(OUTPUTS, completion_p99_s=40.0)
    assert any("order" in diff for diff in checks.check_conservation(disordered, 1234))
    busy = dict(OUTPUTS, drive_utilization=1.5)
    assert any("utilization" in diff for diff in checks.check_conservation(busy, 1234))


def test_get_check_rejects_a_wrong_payload():
    good = {"id": "o1", "size_bytes": 64, "latency_s": 12.5}
    assert checks.check_get(200, good, "o1", 64) is None
    assert checks.check_get(200, dict(good, id="o2"), "o1", 64) is not None
    assert checks.check_get(200, dict(good, size_bytes=65), "o1", 64) is not None
    assert checks.check_get(200, dict(good, latency_s=-1.0), "o1", 64) is not None
    assert checks.check_get(429, good, "o1", 64) is not None
    assert checks.check_get(200, None, "o1", 64) is not None


def test_put_and_status_checks():
    assert checks.check_put(201, {"id": "n1", "size_bytes": 7}, "n1", 7) is None
    assert checks.check_put(200, {"id": "n1", "size_bytes": 7}, "n1", 7) is not None
    clean = {"counters": {"reads_submitted": 3, "reads_completed": 3, "server_errors": 0}}
    assert checks.check_status(200, clean) == []
    stuck = {"counters": {"reads_submitted": 3, "reads_completed": 2, "server_errors": 0}}
    assert checks.check_status(200, stuck)


# ---------------------------------------------------------------------- #
# Serve stage split
# ---------------------------------------------------------------------- #


def test_serve_stages_sum_to_client_latency():
    setup = run.workloads.SERVE_LOAD["setup_objects"]
    get = Op(setup, "GET", "o1", 64, sent=1.0, done=1.010)
    put = Op(setup + 1, "PUT", "n0", 64, sent=2.0, done=2.004)
    load = LoadResult(ops=[Op(i, "PUT", f"o{i}", 64) for i in range(setup)] + [get, put])
    names = [
        "read_request",
        "ArchiveServerCore.begin_read",
        "Tracer.emit",
        "json_response",
        "ArchiveServerCore.put_object",
    ]
    loop_thread = (
        "MainThread",
        [0, 3, 0, 3],
        [0.9, 1.007, 1.9, 2.002],
        [1.001, 1.008, 2.001, 2.003],
        [-1, -1, -1, -1],
        {0: {"op": get.op_id}, 1: {"op": get.op_id}, 2: {"op": put.op_id}, 3: {"op": put.op_id}},
    )
    engine_thread = (
        "paced-engine",
        [1, 2, 4],
        [1.002, 1.006, 2.0015],
        [1.003, 1.0061, 2.0016],
        [-1, -1, -1],
        {0: {"op": get.op_id, "request_id": 7}, 1: {"request_id": 7}, 2: {"op": put.op_id}},
    )
    spans = SpanSet(
        {
            "span_names": names,
            "layer_of": {name: "serve" for name in names},
            "threads": [loop_thread, engine_thread],
            "extra": {},
        }
    )
    stages = run.serve_stages(load, spans)
    for op, method in ((get, "GET"), (put, "PUT")):
        total = sum(stages[method][stage][0] for stage in run.SERVE_STAGES)
        assert total == pytest.approx((op.done - op.sent) * 1e6)
    assert stages["GET"]["kernel"][0] == pytest.approx(3000.0)
    assert stages["PUT"]["kernel"][0] == 0.0
