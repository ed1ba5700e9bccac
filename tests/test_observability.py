"""Observability layer: tracer schema, spans, metrics export, overhead.

Covers the acceptance criteria of the observability PR:

* trace events round-trip through JSONL with the schema enforced;
* span assembly reconstructs exact phase decompositions from a known
  three-request scenario (phases sum to duration);
* the disabled tracer never touches its sink and the simulator normalizes
  a disabled tracer to ``None`` (the zero-overhead contract);
* the Prometheus text exposition matches a golden rendering;
* the registry-backed counters stay consistent with the report's counter
  fields and with the ``chaos --json`` stable output contract.
"""

import json

import pytest

from repro.core import SimConfig, SimKernel
from repro.core.metrics import MetricsRegistry
from repro.observability import (
    EVENT_KINDS,
    SCHEMA_VERSION,
    JsonlSink,
    ListSink,
    RingSink,
    TimeSeriesMonitor,
    TraceEvent,
    Tracer,
    TraceSchemaError,
    assemble_fleet_spans,
    assemble_spans,
    critical_path,
    fleet_critical_path,
    read_jsonl,
    render_timeline,
    write_jsonl,
)


# --------------------------------------------------------------------- #
# Trace event schema
# --------------------------------------------------------------------- #


class TestTraceSchema:
    def test_unknown_kind_rejected_at_emit(self):
        tracer = Tracer()
        with pytest.raises(TraceSchemaError):
            tracer.emit(0.0, "bogus.kind")

    def test_unknown_kind_rejected_at_parse(self):
        line = json.dumps({"v": 1, "ts": 0.0, "kind": "not.a.kind"})
        with pytest.raises(TraceSchemaError):
            TraceEvent.from_json(line)

    def test_future_schema_version_rejected(self):
        line = json.dumps({"v": 99, "ts": 0.0, "kind": "request.arrival"})
        with pytest.raises(TraceSchemaError):
            TraceEvent.from_json(line)

    def test_roundtrip_through_jsonl(self, tmp_path):
        tracer = Tracer()
        tracer.emit(1.5, "request.arrival", request_id=7, platter="P1",
                    size_bytes=4096, recovery=False)
        tracer.emit(2.0, "drive.mount", component="drive:0", mount_id=1,
                    mount_s=10.0, switch_s=2.0, shuttle_s=5.0)
        tracer.emit(30.0, "request.complete", request_id=7)
        path = str(tmp_path / "trace.jsonl")
        assert write_jsonl(tracer.events(), path) == 3
        back = read_jsonl(path)
        assert back == tracer.events()
        # Stable serialization: every line carries the schema version and
        # sorted attrs.
        first = json.loads(open(path).readline())
        assert first["v"] == SCHEMA_VERSION
        assert list(first["attrs"]) == sorted(first["attrs"])

    def test_all_kinds_constructible(self):
        for kind in EVENT_KINDS:
            TraceEvent(0.0, kind)

    def test_ring_sink_bounds_memory(self):
        sink = RingSink(capacity=4)
        tracer = Tracer(sink)
        for i in range(10):
            tracer.emit(float(i), "request.enqueue", request_id=i)
        assert len(sink) == 4
        assert sink.dropped == 6
        assert [e.request_id for e in sink] == [6, 7, 8, 9]

    def test_jsonl_sink_streams(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        with JsonlSink(path) as sink:
            Tracer(sink).emit(0.0, "service.put", file_id="f", size_bytes=1)
        assert len(read_jsonl(path)) == 1


# --------------------------------------------------------------------- #
# Disabled-tracer overhead guard
# --------------------------------------------------------------------- #


class _ExplodingSink:
    """A sink that fails the test if anything is ever appended."""

    def append(self, event):
        raise AssertionError("disabled tracer touched its sink")

    def __iter__(self):
        return iter(())


class TestDisabledTracer:
    def test_disabled_tracer_never_calls_sink(self):
        tracer = Tracer(_ExplodingSink(), enabled=False)
        tracer.emit(0.0, "request.arrival", request_id=1)

    def test_simulation_normalizes_disabled_tracer_to_none(self):
        disabled = Tracer(_ExplodingSink(), enabled=False)
        kernel = SimKernel(SimConfig(num_platters=50), tracer=disabled)
        assert kernel.ctx.tracer is None

    def test_default_simulation_has_no_tracer(self):
        kernel = SimKernel(SimConfig(num_platters=50))
        assert kernel.ctx.tracer is None
        # The shuttle hook is only installed when tracing: the model layer
        # stays a single `is None` comparison per operation.
        assert all(s.shuttle.on_event is None for s in kernel.robotics.shuttles)


# --------------------------------------------------------------------- #
# Span assembly on a known scenario
# --------------------------------------------------------------------- #


def _three_request_trace():
    """Hand-built trace: two requests batched on one mount, one lost.

    Request 1 pays the full fetch trip (shuttle 40 s + mount 12 s), then
    seek 1 s + channel 5 s; request 2 joined the same batch late so its
    mechanical budget is clipped; request 3 is abandoned.
    """
    return [
        TraceEvent(0.0, "request.arrival", request_id=1,
                   attrs={"arrival": 0.0, "platter": "P1", "size_bytes": 100,
                          "recovery": False}),
        TraceEvent(30.0, "request.arrival", request_id=2,
                   attrs={"arrival": 30.0, "platter": "P1", "size_bytes": 100,
                          "recovery": False}),
        TraceEvent(5.0, "request.arrival", request_id=3,
                   attrs={"arrival": 5.0, "platter": "P2", "size_bytes": 100,
                          "recovery": False}),
        TraceEvent(40.0, "drive.mount", component="drive:0",
                   attrs={"mount_id": 1, "platter": "P1", "mount_s": 10.0,
                          "switch_s": 2.0, "shuttle_s": 40.0}),
        TraceEvent(52.0, "drive.read", request_id=1, component="drive:0",
                   attrs={"mount_id": 1, "seek_s": 1.0, "channel_s": 5.0,
                          "decode_s": 0.0, "retries": 0, "escalated": False}),
        TraceEvent(58.0, "request.complete", request_id=1),
        TraceEvent(58.0, "drive.read", request_id=2, component="drive:0",
                   attrs={"mount_id": 1, "seek_s": 1.0, "channel_s": 5.0,
                          "decode_s": 2.0, "retries": 1, "escalated": False}),
        TraceEvent(66.0, "request.complete", request_id=2),
        TraceEvent(70.0, "request.lost", request_id=3),
    ]


class TestSpanAssembly:
    def test_three_request_scenario(self):
        spans = {s.request_id: s for s in assemble_spans(_three_request_trace())}
        assert set(spans) == {1, 2, 3}

        # Request 1: full decomposition, pays the whole mount cycle.
        s1 = spans[1]
        assert s1.duration == pytest.approx(58.0)
        assert s1.mount_id == 1 and s1.drive == "drive:0"
        assert s1.phases["seek"] == pytest.approx(1.0)
        assert s1.phases["channel"] == pytest.approx(5.0)
        assert s1.phases["decode"] == pytest.approx(0.0)
        assert s1.phases["shuttle"] == pytest.approx(40.0)
        assert s1.phases["mount"] == pytest.approx(12.0)
        assert s1.phases["queue"] == pytest.approx(0.0)

        # Request 2: arrived at t=30, done at 66 => 36 s. Mechanical
        # attribution is clipped to the budget (36 - 8 read = 28 s), all of
        # it shuttle; queue absorbs nothing.
        s2 = spans[2]
        assert s2.duration == pytest.approx(36.0)
        assert s2.retries == 1
        assert s2.phases["shuttle"] == pytest.approx(28.0)
        assert s2.phases["mount"] == pytest.approx(0.0)
        assert s2.phases["queue"] == pytest.approx(0.0)

        # Request 3: lost, no read => no decomposition.
        s3 = spans[3]
        assert s3.lost and s3.phases == {}

        # Exactness: every decomposed span's phases sum to its duration.
        for span in (s1, s2):
            assert sum(span.phases.values()) == pytest.approx(span.duration)

    def test_critical_path_aggregation(self):
        breakdown = critical_path(assemble_spans(_three_request_trace()))
        assert breakdown.spans == 2  # the lost request has no phases
        assert breakdown.total_seconds == pytest.approx(58.0 + 36.0)
        assert breakdown.mechanics_seconds == pytest.approx(40 + 12 + 28 + 2)
        assert "mechanics" in breakdown.format()

    def test_render_timeline(self):
        spans = assemble_spans(_three_request_trace())
        line = render_timeline(spans[0], width=30)
        assert "request" in line and "P1" in line

    def test_spans_from_simulated_run_are_exact(self):
        """End to end: a real (small) simulated run decomposes exactly."""
        from repro.workload import WorkloadGenerator

        tracer = Tracer()
        kernel = SimKernel(
            SimConfig(num_shuttles=4, num_drives=4, num_platters=100,
                      transient_read_error_prob=0.1, seed=3),
            tracer=tracer,
        )
        generator = WorkloadGenerator(seed=3)
        trace, start, end = generator.interval_trace(
            0.05, interval_hours=0.1, warmup_hours=0.0, cooldown_hours=0.1
        )
        kernel.lifecycle.assign_trace(trace, start, end)
        kernel.run()
        spans = [s for s in assemble_spans(tracer.events()) if s.phases]
        assert spans, "expected at least one decomposed span"
        for span in spans:
            assert sum(span.phases.values()) == pytest.approx(span.duration)
            assert all(v >= 0 for v in span.phases.values())


# --------------------------------------------------------------------- #
# Prometheus golden test
# --------------------------------------------------------------------- #


GOLDEN_PROM = """\
# HELP t_bytes_total Bytes served
# TYPE t_bytes_total counter
t_bytes_total 4096
# HELP t_queue_depth Current queue depth
# TYPE t_queue_depth gauge
t_queue_depth 2.5
# HELP t_wait_seconds Request wait time
# TYPE t_wait_seconds histogram
t_wait_seconds_bucket{le="1"} 1
t_wait_seconds_bucket{le="10"} 3
t_wait_seconds_bucket{le="+Inf"} 4
t_wait_seconds_sum 127.5
t_wait_seconds_count 4
"""


class TestMetricsExport:
    def _registry(self):
        registry = MetricsRegistry(prefix="t_")
        registry.counter("bytes_total", "Bytes served", unit="bytes").inc(4096)
        registry.gauge("queue_depth", "Current queue depth").set(2.5)
        hist = registry.histogram(
            "wait_seconds", "Request wait time", unit="seconds", buckets=(1.0, 10.0)
        )
        for value in (0.5, 2.0, 5.0, 120.0):
            hist.observe(value)
        return registry

    def test_prometheus_golden(self):
        assert self._registry().to_prometheus() == GOLDEN_PROM

    def test_json_export_stable_keys(self):
        payload = json.loads(self._registry().to_json())
        assert list(payload) == sorted(payload)
        assert payload["t_bytes_total"]["value"] == 4096
        assert payload["t_wait_seconds"]["buckets"]["+Inf"] == 4

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_type_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")


# --------------------------------------------------------------------- #
# Registry-backed simulation counters
# --------------------------------------------------------------------- #


class TestSimulationRegistry:
    def _run(self, **config):
        from repro.workload import WorkloadGenerator

        kernel = SimKernel(
            SimConfig(num_shuttles=4, num_drives=4, num_platters=100, seed=5,
                      **config)
        )
        generator = WorkloadGenerator(seed=5)
        trace, start, end = generator.interval_trace(
            0.05, interval_hours=0.1, warmup_hours=0.0, cooldown_hours=0.1
        )
        kernel.lifecycle.assign_trace(trace, start, end)
        kernel.run()
        return kernel

    def test_legacy_views_match_registry(self):
        """The report's counter fields read the registry's exported totals."""
        kernel = self._run(transient_read_error_prob=0.2)
        report = kernel.report()
        metrics = kernel.ctx.metrics
        assert report.bytes_read == metrics.value("bytes_read_total")
        assert report.resilience.reread_retries == metrics.value("reread_retries_total")
        assert report.resilience.deep_decodes == metrics.value("deep_decodes_total")
        assert report.bytes_read > 0

    def test_report_gauges_snapshot(self):
        kernel = self._run()
        report = kernel.report()
        assert kernel.ctx.metrics.value("requests_completed") == report.requests_completed
        assert kernel.ctx.metrics.value("simulated_seconds") == pytest.approx(
            report.simulated_seconds
        )

    def test_travel_histogram_populated(self):
        kernel = self._run()
        hist = kernel.ctx.metrics.histogram("shuttle_travel_seconds")
        assert hist.count == len(kernel.robotics.travel_times)


# --------------------------------------------------------------------- #
# Trace schema migration (v1 -> current)
# --------------------------------------------------------------------- #


class TestSchemaMigration:
    V1_LINE = json.dumps(
        {
            "v": 1,
            "ts": 3.5,
            "kind": "request.arrival",
            "request_id": 7,
            "component": "drive:0",
            "attrs": {"size_bytes": 4096},
        }
    )

    def test_v1_line_migrates_to_current(self):
        event = TraceEvent.from_json(self.V1_LINE)
        assert event.ts == 3.5
        assert event.kind == "request.arrival"
        assert event.request_id == 7
        assert event.component == "drive:0"
        assert event.attrs["size_bytes"] == 4096

    def test_migrated_event_reserializes_at_current_version(self):
        event = TraceEvent.from_json(self.V1_LINE)
        assert json.loads(event.to_json())["v"] == SCHEMA_VERSION

    def test_v1_jsonl_file_reads_back(self, tmp_path):
        path = str(tmp_path / "old.jsonl")
        complete = json.dumps(
            {"v": 1, "ts": 9.0, "kind": "request.complete", "request_id": 7}
        )
        with open(path, "w") as handle:
            handle.write(self.V1_LINE + "\n" + complete + "\n")
        events = read_jsonl(path)
        assert [e.kind for e in events] == ["request.arrival", "request.complete"]
        spans = assemble_spans(events)
        assert spans[0].completion == 9.0

    def test_migration_table_covers_every_past_version(self):
        from repro.observability import SCHEMA_MIGRATIONS

        assert set(SCHEMA_MIGRATIONS) == set(range(1, SCHEMA_VERSION))


# --------------------------------------------------------------------- #
# Tracer metadata (captured / dropped surfaced in artifacts)
# --------------------------------------------------------------------- #


class TestTracerMetadata:
    def test_as_dict_counts_ring_drops(self):
        tracer = Tracer(RingSink(capacity=4))
        for i in range(10):
            tracer.emit(float(i), "request.enqueue", request_id=i)
        meta = tracer.as_dict()
        assert meta["sink"] == "RingSink"
        assert meta["captured_events"] == 4
        assert meta["dropped_events"] == 6
        assert meta["schema_version"] == SCHEMA_VERSION

    def test_lossless_sink_reports_zero_drops(self):
        tracer = Tracer()
        tracer.emit(0.0, "request.arrival", request_id=1)
        meta = tracer.as_dict()
        assert meta["captured_events"] == 1
        assert meta["dropped_events"] == 0

    def test_export_surfaces_dropped_events(self, tmp_path):
        # Regression: a ring-truncated flight recording must be flagged
        # in the exported tracer.json so it is never mistaken for a
        # complete trace.
        from repro.observability import RunArtifacts

        tracer = Tracer(RingSink(capacity=2))
        for i in range(5):
            tracer.emit(float(i), "request.enqueue", request_id=i)
        artifacts = RunArtifacts(str(tmp_path))
        artifacts.write_tracer_meta(tracer)
        meta = json.load(open(tmp_path / "tracer.json"))
        assert meta["dropped_events"] == 3
        assert meta["captured_events"] == 2


# --------------------------------------------------------------------- #
# Sim-time monitor
# --------------------------------------------------------------------- #


GOLDEN_MONITOR_PROM = """\
# HELP m_monitor_busy_drives Latest sampled value of busy_drives
# TYPE m_monitor_busy_drives gauge
m_monitor_busy_drives 3
# HELP m_monitor_pending_requests Latest sampled value of pending_requests
# TYPE m_monitor_pending_requests gauge
m_monitor_pending_requests 12.5
"""


class TestTimeSeriesMonitor:
    def _probe_sequence(self, rows):
        feed = iter(rows)
        return lambda: next(feed)

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            TimeSeriesMonitor(0.0)
        with pytest.raises(ValueError):
            TimeSeriesMonitor(10.0, max_samples=1)

    def test_sample_before_attach_fails_loudly(self):
        with pytest.raises(RuntimeError):
            TimeSeriesMonitor(10.0).sample(0.0)

    def test_samples_accumulate_columnar(self):
        monitor = TimeSeriesMonitor(10.0)
        monitor.set_probe(
            self._probe_sequence([{"a": 1.0, "b": 2.0}, {"a": 3.0, "b": 4.0}])
        )
        assert monitor.sample(10.0) == 10.0
        monitor.sample(20.0)
        assert len(monitor) == 2
        assert monitor.times == [10.0, 20.0]
        assert monitor.series == {"a": [1.0, 3.0], "b": [2.0, 4.0]}
        assert monitor.latest() == {"ts": 20.0, "a": 3.0, "b": 4.0}

    def test_reservoir_halves_deterministically(self):
        monitor = TimeSeriesMonitor(1.0, max_samples=4)
        monitor.set_probe(lambda: {"x": float(len(monitor))})
        next_interval = 1.0
        ts = 0.0
        for _ in range(8):
            ts += next_interval
            next_interval = monitor.sample(ts)
        # Three halvings (the reservoir halves each time it reaches 4):
        # interval is now 8x and only even-index survivors remain.
        assert monitor.downsample_halvings == 3
        assert monitor.interval == 8.0
        assert monitor.times == [1.0, 12.0]

    def test_monitor_on_run_is_byte_identical(self):
        # The tentpole determinism contract: attaching the monitor must
        # not change a single simulated metric, the event count, or the
        # final clock of a run.
        from repro.bench.scenarios import headline_metrics
        from repro.workload import WorkloadGenerator

        def run(with_monitor):
            kernel = SimKernel(
                SimConfig(num_shuttles=4, num_drives=4, num_platters=100, seed=5)
            )
            generator = WorkloadGenerator(seed=5)
            trace, start, end = generator.interval_trace(
                0.05, interval_hours=0.1, warmup_hours=0.0, cooldown_hours=0.1
            )
            kernel.lifecycle.assign_trace(trace, start, end)
            monitor = None
            if with_monitor:
                monitor = TimeSeriesMonitor(15.0)
                monitor.attach(kernel)
            report = kernel.run()
            return (
                headline_metrics(report),
                kernel.ctx.sim.events_processed,
                kernel.ctx.sim.now,
                monitor,
            )

        bare_metrics, bare_events, bare_now, _ = run(False)
        mon_metrics, mon_events, mon_now, monitor = run(True)
        assert mon_metrics == bare_metrics
        assert mon_events == bare_events
        assert mon_now == bare_now
        assert len(monitor) > 0
        assert set(monitor.series) == set(
            __import__("repro.observability", fromlist=["MONITOR_SERIES"]).MONITOR_SERIES
        )

    def test_as_dict_roundtrip(self):
        monitor = TimeSeriesMonitor(10.0)
        monitor.set_probe(self._probe_sequence([{"a": 1.0}, {"a": 2.0}]))
        monitor.sample(10.0)
        monitor.sample(20.0)
        payload = monitor.as_dict()
        back = TimeSeriesMonitor.from_dict(payload)
        assert back.times == monitor.times
        assert back.series == monitor.series
        assert back.as_dict() == payload

    def test_from_dict_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            TimeSeriesMonitor.from_dict({"schema": "repro.timeseries/99"})

    def test_prometheus_gauges_golden(self):
        monitor = TimeSeriesMonitor(10.0)
        monitor.set_probe(
            self._probe_sequence(
                [{"pending_requests": 12.5, "busy_drives": 3.0}]
            )
        )
        monitor.sample(10.0)
        registry = MetricsRegistry(prefix="m_")
        monitor.to_gauges(registry)
        assert registry.to_prometheus() == GOLDEN_MONITOR_PROM


# --------------------------------------------------------------------- #
# Fleet span golden decomposition
# --------------------------------------------------------------------- #


def _fleet_trace():
    """Hand-built fleet trace: clean, failed-over, and hedged requests."""
    E = TraceEvent
    return [
        # request 1: clean service on member 0 (40 s of pure service).
        E(0.0, "fleet.route", request_id=1, attrs={
            "trace_id": "fleet-0-1", "member": 0, "submit_s": 0.0,
            "failed_over": False, "lost": False}),
        E(40.0, "fleet.complete", request_id=1, component="site-0",
          attrs={"served_by": 0, "hedge_won": False, "latency_s": 40.0}),
        # request 2: primary dark; one failover costs 30 s, replica
        # (member 1) then serves in 60 s.
        E(10.0, "fleet.failover", request_id=2, attrs={
            "trace_id": "fleet-0-2", "from_member": 0, "to_member": 1}),
        E(10.0, "fleet.route", request_id=2, attrs={
            "trace_id": "fleet-0-2", "member": 1, "submit_s": 40.0,
            "failed_over": True, "lost": False}),
        E(100.0, "fleet.complete", request_id=2, component="site-1",
          attrs={"served_by": 1, "hedge_won": False, "latency_s": 90.0}),
        # request 3: hedged at t=50 to member 2, and the hedge wins —
        # 30 s of hedge_wait, then 30 s of service on the hedge path.
        E(20.0, "fleet.route", request_id=3, attrs={
            "trace_id": "fleet-0-3", "member": 0, "submit_s": 20.0,
            "failed_over": False, "lost": False,
            "hedge_member": 2, "hedge_s": 50.0}),
        E(50.0, "fleet.hedge", request_id=3, attrs={
            "trace_id": "fleet-0-3", "to_member": 2}),
        E(80.0, "fleet.complete", request_id=3, component="site-2",
          attrs={"served_by": 2, "hedge_won": True, "latency_s": 60.0}),
    ]


class TestFleetSpanGolden:
    def test_decomposition_is_exact(self):
        spans = {s.request_id: s for s in assemble_fleet_spans(_fleet_trace())}
        assert spans[1].phases == {
            "failover": 0.0, "hedge_wait": 0.0, "service": 40.0}
        assert spans[2].phases == {
            "failover": 30.0, "hedge_wait": 0.0, "service": 60.0}
        assert spans[2].failovers == 1
        assert spans[2].failed_over
        # Hedge winner: service measured from the hedge's issue time —
        # the hedge attempt is the critical path.
        assert spans[3].phases == {
            "failover": 0.0, "hedge_wait": 30.0, "service": 30.0}
        assert spans[3].hedge_won
        assert spans[3].served_by == spans[3].hedge_member == 2
        for span in spans.values():
            assert sum(span.phases.values()) == pytest.approx(span.duration)

    def test_fleet_critical_path_totals(self):
        breakdown = fleet_critical_path(assemble_fleet_spans(_fleet_trace()))
        assert breakdown.spans == 3
        assert breakdown.seconds == {
            "failover": 30.0, "hedge_wait": 30.0, "service": 130.0}
        assert breakdown.total_seconds == 190.0
        assert breakdown.fraction("service") == pytest.approx(130.0 / 190.0)

    def test_span_to_dict_stable(self):
        span = assemble_fleet_spans(_fleet_trace())[0]
        payload = span.to_dict()
        assert payload["trace_id"] == "fleet-0-1"
        assert list(payload["phases"]) == ["failover", "hedge_wait", "service"]


# --------------------------------------------------------------------- #
# Watch rendering (sparklines + HTML timeline)
# --------------------------------------------------------------------- #


class TestWatchRendering:
    def test_sparkline_shapes(self):
        from repro.observability.watch import SPARK_GLYPHS, sparkline

        assert sparkline([]) == ""
        assert sparkline([5.0, 5.0, 5.0]) == SPARK_GLYPHS[0] * 3
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == SPARK_GLYPHS[0]
        assert line[-1] == SPARK_GLYPHS[-1]
        # Long series resample down to the requested width.
        assert len(sparkline(list(range(1000)), width=40)) == 40

    def test_render_frame_lists_series(self):
        from repro.observability.watch import render_frame

        monitor = TimeSeriesMonitor(10.0)
        monitor.set_probe(lambda: {"pending_requests": 4.0, "busy_drives": 1.0})
        monitor.sample(10.0)
        frame = render_frame(
            monitor, now=10.0, horizon=100.0, counters={"completed": 2}
        )
        assert "pending_requests" in frame
        assert "10.0%" in frame
        assert "completed=2" in frame

    def test_render_html_is_self_contained(self):
        from repro.observability.watch import render_html

        monitor = TimeSeriesMonitor(10.0)
        monitor.set_probe(lambda: {"pending_requests": 4.0})
        monitor.sample(10.0)
        monitor.sample(20.0)
        html = render_html(monitor.as_dict())
        assert html.startswith("<!DOCTYPE html>")
        assert "<polyline" in html
        assert "pending_requests" in html
        # Self-contained: no scripts, no external fetches.
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html

    def test_render_html_empty_payload(self):
        from repro.observability.watch import render_html

        html = render_html({"schema": "repro.timeseries/1", "series": {}})
        assert "no samples" in html
