"""Observability: structured tracing, span timelines, exportable artifacts.

The paper's Section 7 evaluation is an exercise in *explaining where time
goes* inside the library digital twin — mechanical latency vs queueing vs
channel vs decode. This subpackage makes every run of the simulator (and
of the archive service front end) explainable after the fact:

- :mod:`~repro.observability.tracer` — a zero-overhead-when-disabled
  structured event tracer (typed records, closed kind taxonomy, ring /
  list / JSONL sinks);
- :mod:`~repro.observability.spans` — per-request span timelines assembled
  from trace events, with an exact queue / mechanics / channel / decode
  critical-path decomposition, plus fleet routing spans (failover /
  hedge_wait / service) for multi-library runs;
- :mod:`~repro.observability.monitor` — a sim-time
  :class:`~repro.observability.monitor.TimeSeriesMonitor`: bounded,
  deterministically-downsampled gauge series sampled from the live
  kernel (queue depths, busy machines, fault state), the data behind
  ``python -m repro watch``;
- :mod:`~repro.observability.export` — one-directory run artifacts:
  ``trace.jsonl``, ``spans.json``, ``fleet_spans.json``,
  ``metrics.json``, ``metrics.prom``, ``report.json``,
  ``timeseries.json``, ``tracer.json``.

Counter/gauge/histogram primitives and the registry they live in are in
:mod:`repro.core.metrics` (the simulator accumulates on them natively);
this package re-exports them for convenience.

Units: trace timestamps and span phases are **seconds** of simulated time;
byte attrs are raw bytes. How fast the simulator itself runs is measured
outside the package, by ``perfbench/`` (see ``BENCHMARK.json``).
"""

from ..core.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .export import RunArtifacts, export_run, load_metrics, load_spans
from .monitor import (
    MONITOR_SERIES,
    TIMESERIES_SCHEMA_VERSION,
    TimeSeriesMonitor,
)
from .spans import (
    FLEET_PHASES,
    PHASES,
    CriticalPathBreakdown,
    FleetSpan,
    RequestSpan,
    assemble_fleet_spans,
    assemble_spans,
    critical_path,
    fleet_critical_path,
    render_timeline,
)
from .tracer import (
    EVENT_KINDS,
    SCHEMA_MIGRATIONS,
    SCHEMA_VERSION,
    JsonlSink,
    ListSink,
    RingSink,
    TraceEvent,
    Tracer,
    TraceSchemaError,
    read_jsonl,
    write_jsonl,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunArtifacts",
    "export_run",
    "load_metrics",
    "load_spans",
    "MONITOR_SERIES",
    "TIMESERIES_SCHEMA_VERSION",
    "TimeSeriesMonitor",
    "FLEET_PHASES",
    "PHASES",
    "CriticalPathBreakdown",
    "FleetSpan",
    "RequestSpan",
    "assemble_fleet_spans",
    "assemble_spans",
    "critical_path",
    "fleet_critical_path",
    "render_timeline",
    "EVENT_KINDS",
    "SCHEMA_MIGRATIONS",
    "SCHEMA_VERSION",
    "JsonlSink",
    "ListSink",
    "RingSink",
    "TraceEvent",
    "Tracer",
    "TraceSchemaError",
    "read_jsonl",
    "write_jsonl",
]
