"""Output checks: what makes a benchmark run correct.

A twin run at its workload's reference seed must reproduce the outputs
recorded in ``reference.json`` exactly; at any other seed it must
conserve reads and keep its statistics in range. A serve run must answer
every request with the right status and payload and end with a clean
``/status``. Every check returns a list of differences (empty = correct)
so the harness can print what differed.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

#: Round-off slack on the utilization upper bound.
_FLOAT_EPS = 1e-9


def twin_outputs(kernel: Any, report: Any, reads_in_trace: int) -> Dict[str, Any]:
    """The simulated outputs a twin run is judged by (all deterministic)."""
    completions = report.completions
    outputs: Dict[str, Any] = {
        "reads_in_trace": reads_in_trace,
        "reads_submitted": report.requests_submitted,
        "reads_completed": report.requests_completed,
        "completion_p50_s": completions.median,
        "completion_p99_s": completions.p99,
        "completion_p999_s": completions.p999,
        "bytes_read": report.bytes_read,
        "drive_utilization": report.drive_utilization.utilization,
        "congestion_overhead": report.shuttles.congestion_overhead,
        "simulated_seconds": report.simulated_seconds,
        "events_fired": kernel.ctx.sim.events_processed,
    }
    qos = report.qos
    if qos is not None:
        for name in sorted(qos.per_class):
            outputs[f"{name}_p99_s"] = qos.per_class[name].completions.p99
        outputs["jain_index"] = qos.jain_fairness
        outputs["deadline_misses"] = qos.deadline_misses
        outputs["admission_rejects"] = qos.admission_rejections
    return outputs


def compare_reference(outputs: Dict[str, Any], reference: Dict[str, Any]) -> List[str]:
    """Exact comparison against recorded outputs; one line per difference."""
    diffs = []
    for key in sorted(set(reference) | set(outputs)):
        want = reference.get(key, "<missing>")
        got = outputs.get(key, "<missing>")
        if want != got:
            diffs.append(f"{key}: reference {want!r}, got {got!r}")
    return diffs


def check_conservation(outputs: Dict[str, Any], engine_pops: Optional[int]) -> List[str]:
    """Invariants every seed must satisfy.

    ``engine_pops`` is the event queue's own dequeue count, read from
    ``Simulation.scheduler_stats`` (None where the engine reports none).
    """
    diffs = []
    refused = outputs.get("admission_rejects", 0)
    if outputs["reads_in_trace"] != outputs["reads_submitted"] + refused:
        diffs.append(
            f"reads in trace {outputs['reads_in_trace']} != submitted "
            f"{outputs['reads_submitted']} + refused {refused}"
        )
    if outputs["reads_submitted"] != outputs["reads_completed"]:
        diffs.append(
            f"submitted {outputs['reads_submitted']} != completed "
            f"{outputs['reads_completed']}"
        )
    p50, p99, p999 = (
        outputs["completion_p50_s"],
        outputs["completion_p99_s"],
        outputs["completion_p999_s"],
    )
    if not 0 <= p50 <= p99 <= p999:
        diffs.append(f"completion percentiles out of order: {p50}, {p99}, {p999}")
    util = outputs["drive_utilization"]
    if not (0.0 <= util <= 1.0 + _FLOAT_EPS):
        diffs.append(f"drive utilization {util} outside [0, 1]")
    if engine_pops is not None and engine_pops != outputs["events_fired"]:
        diffs.append(f"events fired {outputs['events_fired']} != engine pops {engine_pops}")
    for key, value in outputs.items():
        if isinstance(value, float) and not math.isfinite(value):
            diffs.append(f"{key} is not finite: {value}")
    return diffs


def check_twin(
    outputs: Dict[str, Any],
    engine_pops: Optional[int],
    seed: int,
    reference: Optional[Dict[str, Any]],
) -> List[str]:
    """Reference identity at the reference seed, conservation at any seed.

    ``reference`` is the workload's entry in ``reference.json``:
    ``{"seed": ..., "outputs": {...}}``.
    """
    diffs = check_conservation(outputs, engine_pops)
    if reference is not None and reference.get("seed") == seed:
        diffs += compare_reference(outputs, reference["outputs"])
    return diffs


def check_get(
    status: int, body: Optional[Dict[str, Any]], object_id: str, size_bytes: int
) -> Optional[str]:
    """A GET must return 200 with the requested id and the size PUT."""
    if status != 200:
        return f"GET {object_id}: status {status}"
    if body is None:
        return f"GET {object_id}: body is not JSON"
    if body.get("id") != object_id:
        return f"GET {object_id}: returned id {body.get('id')!r}"
    if body.get("size_bytes") != size_bytes:
        return f"GET {object_id}: size {body.get('size_bytes')!r}, PUT {size_bytes}"
    latency = body.get("latency_s")
    if not isinstance(latency, (int, float)) or latency < 0:
        return f"GET {object_id}: latency_s {latency!r}"
    return None


def check_put(
    status: int, body: Optional[Dict[str, Any]], object_id: str, size_bytes: int
) -> Optional[str]:
    """A PUT must return 201 with its id and size."""
    if status != 201:
        return f"PUT {object_id}: status {status}"
    if body is None:
        return f"PUT {object_id}: body is not JSON"
    if body.get("id") != object_id or body.get("size_bytes") != size_bytes:
        return f"PUT {object_id}: returned {body.get('id')!r} / {body.get('size_bytes')!r}"
    return None


def check_status(status: int, body: Optional[Dict[str, Any]]) -> List[str]:
    """The final ``/status``: every read completed, no server errors."""
    if status != 200 or body is None:
        return [f"/status: status {status}"]
    counters = body.get("counters", {})
    diffs = []
    if counters.get("reads_submitted") != counters.get("reads_completed"):
        diffs.append(
            f"/status: reads_submitted {counters.get('reads_submitted')} != "
            f"reads_completed {counters.get('reads_completed')}"
        )
    if counters.get("server_errors") != 0:
        diffs.append(f"/status: server_errors {counters.get('server_errors')}")
    return diffs
