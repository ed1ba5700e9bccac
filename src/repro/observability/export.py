"""Exportable run artifacts: one directory that fully describes a run.

A run artifact directory (written by ``python -m repro trace`` /
``python -m repro export``, or programmatically via
:class:`RunArtifacts`) contains:

``trace.jsonl``
    the structured event stream (one :class:`~repro.observability.tracer.
    TraceEvent` per line, schema-versioned) — only when tracing was on;
``spans.json``
    per-request span timelines with the queue / mechanics / channel /
    decode phase decomposition, assembled from the trace;
``metrics.json``
    the run's :class:`~repro.core.metrics.MetricsRegistry` snapshot,
    stable-keyed JSON;
``metrics.prom``
    the same registry in Prometheus text exposition format;
``report.json``
    the :class:`~repro.core.metrics.SimulationReport` as stable JSON;
``timeseries.json``
    the sim-time monitor's schema-versioned columnar gauge series —
    only when a :class:`~repro.observability.monitor.TimeSeriesMonitor`
    was attached;
``tracer.json``
    tracer metadata (sink type, captured and *dropped* event counts) so
    a ring-truncated flight recording is never mistaken for complete;
``fleet_spans.json``
    per-request fleet routing spans (failover / hedge_wait / service
    decomposition) — only for traces carrying ``fleet.route`` events;
``BENCH_<scenario>.json``
    schema-versioned behaviour-gate results (one file per scenario,
    written by :meth:`RunArtifacts.write_bench` for the
    :mod:`repro.bench` runner and diffed by ``python -m repro bench
    compare``).

Everything is derived from in-memory state; nothing here re-runs the
simulator. All JSON is sorted-key, so artifacts diff cleanly between runs.
Units follow the repo convention: seconds and bytes.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from ..core.metrics import MetricsRegistry, SimulationReport
from .monitor import TimeSeriesMonitor
from .spans import (
    FleetSpan,
    RequestSpan,
    assemble_fleet_spans,
    assemble_spans,
    critical_path,
    fleet_critical_path,
)
from .tracer import Tracer, TraceEvent, write_jsonl


def _write_json(path: str, payload: Any) -> None:
    """Dump ``payload`` as sorted-key, indented JSON at ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


class RunArtifacts:
    """Collects one run's outputs and writes them as a directory."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.written: List[str] = []

    def _path(self, name: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, name)
        self.written.append(path)
        return path

    def write_trace(self, events: List[TraceEvent], name: str = "trace.jsonl") -> str:
        """Dump the structured event stream as JSONL."""
        path = self._path(name)
        write_jsonl(events, path)
        return path

    def write_spans(
        self, events: List[TraceEvent], name: str = "spans.json"
    ) -> List[RequestSpan]:
        """Assemble spans from ``events`` and dump them plus the breakdown."""
        spans = assemble_spans(events)
        breakdown = critical_path(spans)
        payload = {
            "critical_path": {
                "seconds": dict(sorted(breakdown.seconds.items())),
                "spans": breakdown.spans,
            },
            "spans": [span.to_dict() for span in spans],
        }
        _write_json(self._path(name), payload)
        return spans

    def write_metrics(self, registry: MetricsRegistry) -> None:
        """Dump the metrics registry as JSON and Prometheus text."""
        _write_json(self._path("metrics.json"), registry.as_dict())
        with open(self._path("metrics.prom"), "w", encoding="utf-8") as handle:
            handle.write(registry.to_prometheus())

    def write_report(self, report: SimulationReport, name: str = "report.json") -> str:
        """Dump the simulation report as stable JSON."""
        path = self._path(name)
        _write_json(path, report.as_dict())
        return path

    def write_timeseries(
        self, monitor: TimeSeriesMonitor, name: str = "timeseries.json"
    ) -> str:
        """Dump the sim-time monitor's columnar gauge series."""
        path = self._path(name)
        _write_json(path, monitor.as_dict())
        return path

    def write_tracer_meta(self, tracer: Tracer, name: str = "tracer.json") -> str:
        """Dump tracer metadata — including ``dropped_events``."""
        path = self._path(name)
        _write_json(path, tracer.as_dict())
        return path

    def write_fleet_spans(
        self, events: List[TraceEvent], name: str = "fleet_spans.json"
    ) -> List[FleetSpan]:
        """Assemble and dump fleet routing spans plus their breakdown."""
        spans = assemble_fleet_spans(events)
        breakdown = fleet_critical_path(spans)
        payload = {
            "critical_path": {
                "seconds": dict(sorted(breakdown.seconds.items())),
                "spans": breakdown.spans,
            },
            "spans": [span.to_dict() for span in spans],
        }
        _write_json(self._path(name), payload)
        return spans

    def write_bench(self, result: Any, name: Optional[str] = None) -> str:
        """Write one bench result as ``BENCH_<scenario>.json``.

        ``result`` is a :class:`repro.bench.runner.BenchResult` (or any
        object with an ``as_dict()`` whose payload has a ``scenario`` key).
        """
        payload = result.as_dict() if hasattr(result, "as_dict") else dict(result)
        scenario = payload.get("scenario", "unnamed")
        path = self._path(name or f"BENCH_{scenario}.json")
        _write_json(path, payload)
        return path

    def summary(self) -> str:
        """Human-readable listing of the written artifact files."""
        lines = [f"artifacts in {self.out_dir}/:"]
        if not self.written:
            lines.append("  (no artifacts written)")
            return "\n".join(lines)
        width = max(14, max(len(os.path.basename(p)) for p in self.written))
        for path in self.written:
            size = os.path.getsize(path) if os.path.exists(path) else 0
            lines.append(f"  {os.path.basename(path):<{width}s} {size:>10d} bytes")
        return "\n".join(lines)


def export_run(
    out_dir: str,
    report: SimulationReport,
    registry: MetricsRegistry,
    events: Optional[List[TraceEvent]] = None,
    monitor: Optional[TimeSeriesMonitor] = None,
    tracer: Optional[Tracer] = None,
) -> RunArtifacts:
    """Write the full artifact set for one finished run.

    ``events`` defaults to ``tracer.events()`` when only a tracer is
    given; passing a ``tracer`` also records its metadata (including the
    ring sink's dropped-event count) and, when the trace carries fleet
    routing events, the fleet span decomposition.
    """
    artifacts = RunArtifacts(out_dir)
    if events is None and tracer is not None:
        events = tracer.events()
    if events is not None:
        artifacts.write_trace(events)
        artifacts.write_spans(events)
        if any(e.kind == "fleet.route" for e in events):
            artifacts.write_fleet_spans(events)
    artifacts.write_metrics(registry)
    artifacts.write_report(report)
    if monitor is not None:
        artifacts.write_timeseries(monitor)
    if tracer is not None:
        artifacts.write_tracer_meta(tracer)
    return artifacts


def load_spans(trace_path: str) -> List[RequestSpan]:
    """Re-assemble spans straight from an exported ``trace.jsonl``."""
    from .tracer import read_jsonl

    return assemble_spans(read_jsonl(trace_path))


def load_metrics(metrics_path: str) -> Dict[str, Any]:
    """Load an exported ``metrics.json`` snapshot."""
    with open(metrics_path, "r", encoding="utf-8") as handle:
        return json.load(handle)
