"""repro.serve: HTTP parsing, core admission, backpressure, live sockets."""

import asyncio
import json
import threading

import pytest

from repro.core import SimConfig
from repro.serve import (
    ArchiveServer,
    ArchiveServerCore,
    LoadSpec,
    ServeConfig,
    SoakSpec,
    run_server,
    run_soak,
    serve_registry,
)
from repro.serve.core import ReadRejected, ReadTicket
from repro.serve.http import (
    HttpError,
    HttpRequest,
    json_response,
    read_request,
    read_response,
    render_response,
    send_with_timeout,
    split_path,
)
from repro.serve.loadgen import (
    LOADGEN_SCHEMA,
    BurstSpec,
    ClientConnection,
    closed_loop_plan,
    drive,
    object_set,
    open_loop_schedule,
    percentile,
)
from repro.serve.server import EVENTS_QUEUE_DEPTH
from repro.tenancy.model import SLOClass, TenantRegistry, TenantSpec
from repro.tenancy.qos import DeadlineAwareFetchPolicy


def parse(raw: bytes):
    """Run the async request parser over literal bytes."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, timeout=1.0)

    return asyncio.run(go())


# --------------------------------------------------------------------- #
# HTTP framing
# --------------------------------------------------------------------- #


def test_read_request_parses_method_path_headers_body():
    request = parse(
        b"PUT /archive/obj-1 HTTP/1.1\r\n"
        b"X-Tenant: t0\r\n"
        b"Content-Length: 5\r\n"
        b"\r\n"
        b"hello"
    )
    assert request.method == "PUT"
    assert request.path == "/archive/obj-1"
    assert request.headers["x-tenant"] == "t0"
    assert request.body == b"hello"
    assert request.keep_alive


def test_read_request_eof_returns_none():
    assert parse(b"") is None


def test_read_request_rejects_malformed_line_and_huge_body():
    with pytest.raises(HttpError) as excinfo:
        parse(b"NOT-HTTP\r\n\r\n")
    assert excinfo.value.status == 400
    with pytest.raises(HttpError) as excinfo:
        parse(
            b"PUT /archive HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"
        )
    assert excinfo.value.status == 413


def test_read_request_maps_overlong_lines_to_400():
    cases = [
        (b"GET /" + b"a" * 9000 + b" HTTP/1.1\r\n\r\n", "request line too long"),
        (b"GET / HTTP/1.1\r\nX-Big: " + b"a" * 9000 + b"\r\n\r\n", "header line too long"),
        # Beyond the stream's own 64 KiB limit readline raises ValueError,
        # which must still be the client's 400, not a server error.
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", "request line too long"),
        (b"GET / HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n", "header line too long"),
    ]
    for raw, reason in cases:
        with pytest.raises(HttpError) as excinfo:
            parse(raw)
        assert (excinfo.value.status, excinfo.value.reason) == (400, reason)


def test_read_request_deadline_covers_the_whole_request():
    """Lines that each arrive in time still time out if the request doesn't."""

    async def go():
        reader = asyncio.StreamReader()

        async def trickle():
            reader.feed_data(b"GET /status HTTP/1.1\r\n")
            for i in range(6):
                await asyncio.sleep(0.03)
                reader.feed_data(b"X-Slow-%d: 1\r\n" % i)
            reader.feed_data(b"\r\n")

        feeder = asyncio.ensure_future(trickle())
        try:
            await read_request(reader, timeout=0.1)
        finally:
            await feeder

    with pytest.raises(asyncio.TimeoutError):
        asyncio.run(go())


class FakeTransport:
    """Write-buffer accounting of a transport, with asyncio's defaults."""

    def __init__(self, buffered: int) -> None:
        self.buffered = buffered

    def get_write_buffer_size(self) -> int:
        return self.buffered

    def get_write_buffer_limits(self):
        return (16 * 1024, 64 * 1024)


class FakeWriter:
    """A StreamWriter whose drain completes at once or never."""

    def __init__(self, buffered: int, drains: bool) -> None:
        self.transport = FakeTransport(buffered)
        self.drains = drains
        self.written = []
        self.drain_calls = 0

    def write(self, data: bytes) -> None:
        self.written.append(data)

    async def drain(self) -> None:
        self.drain_calls += 1
        if not self.drains:
            await asyncio.get_running_loop().create_future()


def send_counting_timers(writer: FakeWriter, timeout: float):
    """Run send_with_timeout; returns how many timers the loop armed."""

    async def go():
        loop = asyncio.get_running_loop()
        timers = []
        real_call_at = loop.call_at

        def call_at(when, callback, *args, **kwargs):
            timers.append(callback)
            return real_call_at(when, callback, *args, **kwargs)

        loop.call_at = call_at
        try:
            await send_with_timeout(writer, b"payload", timeout)
        finally:
            del loop.call_at
        return len(timers)

    return asyncio.run(go())


def test_send_with_timeout_times_out_a_client_that_stopped_reading():
    # Above the high-water mark, and between the marks (where a paused
    # protocol stays paused), a drain that never completes is cut off.
    for buffered in (70_000, 20_000):
        writer = FakeWriter(buffered=buffered, drains=False)
        with pytest.raises(asyncio.TimeoutError):
            send_counting_timers(writer, timeout=0.05)
        assert writer.written == [b"payload"]


def test_send_with_timeout_arms_no_timer_below_the_mark():
    writer = FakeWriter(buffered=0, drains=True)
    assert send_counting_timers(writer, timeout=5.0) == 0
    assert writer.written == [b"payload"]
    assert writer.drain_calls == 1


def test_keep_alive_semantics_across_versions():
    v11 = HttpRequest(method="GET", path="/", version="HTTP/1.1")
    assert v11.keep_alive
    v11.headers["connection"] = "close"
    assert not v11.keep_alive
    v10 = HttpRequest(method="GET", path="/", version="HTTP/1.0")
    assert not v10.keep_alive
    v10.headers["connection"] = "keep-alive"
    assert v10.keep_alive


def test_response_roundtrips_through_client_parser():
    raw = json_response(429, {"error": "quota"}, extra_headers={"Retry-After": "7"})

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_response(reader, timeout=1.0)

    status, headers, body = asyncio.run(go())
    assert status == 429
    assert headers["retry-after"] == "7"
    assert json.loads(body) == {"error": "quota"}


def test_render_response_marks_connection_close():
    raw = render_response(200, b"x", keep_alive=False)
    assert b"Connection: close" in raw


def test_split_path_drops_query_and_empty_segments():
    assert split_path("/archive/obj-1?verbose=1") == ("archive", "obj-1")
    assert split_path("//status/") == ("status",)


# --------------------------------------------------------------------- #
# Core: virtual puts/reads, admission, Retry-After
# --------------------------------------------------------------------- #


def small_core(
    dilation: float = 0.0, tenants: int = 2, registry=None, **sim_overrides
) -> ArchiveServerCore:
    """A 4-drive served twin; ``registry`` replaces the default tenant mix."""
    # 4 drives is plenty for these tests; tinier fleets also work now
    # that partition geometry only routes to live drives.
    if registry is None:
        registry = serve_registry(tenants, 5, quota_mbps=1.0, quota_burst_mb=64.0)
    sim = SimConfig(
        num_drives=4,
        num_shuttles=4,
        num_platters=120,
        seed=5,
        tenancy=registry,
        **sim_overrides,
    )
    return ArchiveServerCore(
        ServeConfig(dilation=dilation, sample_interval_seconds=0.0, sim=sim)
    )


def test_put_and_read_complete_in_virtual_time():
    core = small_core(tenants=0)
    record = core.put_object("obj-a", 64_000_000)
    assert record["platter"] in core.kernel.robotics.platters
    ticket = core.begin_read("obj-a")
    assert isinstance(ticket, ReadTicket)
    assert not ticket.done
    core.sim.run(until=core.sim.now + 7200.0)
    assert ticket.done
    assert ticket.latency_sim_seconds > 0
    assert core.counters["reads_completed"] == 1


def test_reads_complete_from_the_kernel_cause_before_effect():
    """Plain, sharded and recovered reads: one completion each, in order.

    The subscriber must see the top-level ``request.complete`` before the
    ``serve.complete`` it causes, and the kernel's completion seam fires
    once per top-level read, never for a shard or a recovery sub-read.
    """
    core = small_core(tenants=0)
    lifecycle = core.kernel.lifecycle
    events = []
    core.subscribe(events.append)
    completed = []
    resolve = lifecycle.on_complete

    def record(request):
        completed.append(request)
        resolve(request)

    lifecycle.on_complete = record
    config = core.kernel.config
    shard_bytes = int(config.track_payload_bytes) * config.shard_tracks_limit
    core.put_object("plain", 64_000_000)
    core.put_object("sharded", 3 * shard_bytes)
    core.put_object("recovered", 64_000_000)

    def read(object_id):
        ticket = core.begin_read(object_id)
        core.sim.run()
        assert ticket.done
        return ticket.request

    plain = read("plain")
    sharded = read("sharded")
    # An unavailable target platter forces the cross-platter recovery fan-out.
    lifecycle.unavailable.add(core.catalog["recovered"][1])
    recovered = read("recovered")
    assert not plain.children
    assert len(sharded.children) == 3
    assert recovered.degraded and recovered.children
    assert [r.request_id for r in completed] == [
        plain.request_id, sharded.request_id, recovered.request_id
    ]
    assert core.counters["reads_completed"] == 3
    for request in (plain, sharded, recovered):
        kinds = [
            e.kind
            for e in events
            if e.request_id == request.request_id
            and e.kind in ("request.complete", "serve.complete")
        ]
        assert kinds == ["request.complete", "serve.complete"]


def test_unknown_object_is_a_404_not_an_exception():
    core = small_core(tenants=0)
    verdict = core.begin_read("missing")
    assert isinstance(verdict, ReadRejected)
    assert verdict.status == 404
    assert core.counters["not_found"] == 1


def test_quota_reject_carries_finite_retry_after():
    core = small_core()
    tenant = core.registry.tenants[0].name
    core.put_object("obj-a", 32_000_000, tenant)
    # Burst bucket is 64 MB: two 32 MB reads drain it, the third must wait.
    assert isinstance(core.begin_read("obj-a", tenant), ReadTicket)
    assert isinstance(core.begin_read("obj-a", tenant), ReadTicket)
    verdict = core.begin_read("obj-a", tenant)
    assert isinstance(verdict, ReadRejected)
    assert verdict.status == 429
    # At 1 MB/s refill, 32 MB needs 32 s of sim time; dilation 0 maps
    # Retry-After 1:1 onto the wall.
    assert verdict.retry_after_sim == pytest.approx(32.0, rel=1e-6)
    assert verdict.retry_after_wall == pytest.approx(32.0, rel=1e-6)


def test_retry_after_wall_is_sim_over_dilation():
    core = small_core(dilation=600.0)
    tenant = core.registry.tenants[0].name
    core.put_object("obj-a", 32_000_000, tenant)
    core.begin_read("obj-a", tenant)
    core.begin_read("obj-a", tenant)
    verdict = core.begin_read("obj-a", tenant)
    assert isinstance(verdict, ReadRejected)
    assert verdict.retry_after_wall == pytest.approx(
        verdict.retry_after_sim / 600.0, rel=1e-6
    )


def test_admission_reject_traces_mirror_http_429s_exactly():
    core = small_core()
    tenant = core.registry.tenants[0].name
    core.put_object("obj-a", 24_000_000, tenant)
    events = []
    core.subscribe(events.append)
    rejects = 0
    for _ in range(10):
        if isinstance(core.begin_read("obj-a", tenant), ReadRejected):
            rejects += 1
    assert rejects > 0
    traced = sum(1 for event in events if event.kind == "admission.reject")
    assert traced == rejects
    # Each 429 is one kernel admission.reject, then its serve.reject.
    verdicts = [
        event.kind for event in events if event.kind.endswith(".reject")
    ]
    assert verdicts == ["admission.reject", "serve.reject"] * rejects
    assert core.counters["rejected_quota"] == rejects
    # One controller: the core's is the kernel's, whose books agree.
    assert core.admission is core.kernel.lifecycle.admission
    assert core.admission.total_rejected() == rejects
    assert core.kernel.ctx.metrics.value("admission_rejections_total") == rejects


def test_served_reads_carry_their_class_and_deadline():
    core = small_core(tenants=3, fetch_policy="deadline")
    registry = core.registry
    assert isinstance(core.kernel.ctx.scheduler.policy, DeadlineAwareFetchPolicy)
    core.sim.run(until=100.0)
    now = core.sim.now
    for tenant in registry.tenants:
        core.put_object(f"obj-{tenant.name}", 8_000_000, tenant.name)
        ticket = core.begin_read(f"obj-{tenant.name}", tenant.name)
        slo = registry.class_of(tenant.name)
        assert ticket.request.slo_class == slo.name
        assert ticket.request.deadline == now + slo.deadline_seconds
    assert {registry.class_of(t.name).name for t in registry.tenants} == {
        "bulk", "expedited", "standard"
    }


def test_late_served_read_is_deadline_pressured_then_missed():
    urgent = SLOClass("urgent", deadline_seconds=1.0)
    core = small_core(
        registry=TenantRegistry(
            tenants=(TenantSpec("t-urgent", slo_class="urgent"),),
            classes=(urgent,),
        ),
        fetch_policy="deadline",
    )
    core.put_object("obj-a", 8_000_000, "t-urgent")
    ticket = core.begin_read("obj-a", "t-urgent")
    core.sim.run(until=2.0)
    assert not ticket.done
    assert core.status()["gauges"]["deadline_pressured"] == 1.0
    core.sim.run()
    assert ticket.done
    assert core.status()["gauges"]["deadline_pressured"] == 0.0
    assert core.kernel.report().qos.deadline_misses == 1


def test_status_snapshot_is_json_serializable_and_consistent():
    core = small_core()
    core.put_object("obj-a", 8_000_000)
    payload = core.status()
    json.dumps(payload)
    assert payload["objects"] == 1
    assert payload["counters"]["puts"] == 1
    assert payload["tenants"] == [t.name for t in core.registry.tenants]


# --------------------------------------------------------------------- #
# Soak (virtual time) determinism
# --------------------------------------------------------------------- #


def soak_metrics(seed: int):
    from repro.bench.scenarios import build_serve_soak

    core, _ = build_serve_soak(seed)
    spec = SoakSpec(
        clients=6, requests_per_client=3, object_count=12, seed=seed
    )
    return run_soak(core, spec)


def test_soak_is_deterministic_and_gates_hold():
    first = soak_metrics(11)
    second = soak_metrics(11)
    assert first == second
    assert first["soak_all_clients_finished_gate"] == 1.0
    assert first["soak_reject_parity_gate"] == 1.0
    assert first["soak_completed"] + first["soak_rejected"] + first[
        "soak_skipped"
    ] == pytest.approx(first["soak_requests_issued"])


# --------------------------------------------------------------------- #
# Frontend: backpressure and the live socket path
# --------------------------------------------------------------------- #


def test_ingress_backpressure_maps_to_503_with_retry_after():
    core = small_core(dilation=600.0)
    server = ArchiveServer(core)
    core.engine.inject = lambda callback: False  # saturate the queue

    async def go():
        return await server._dispatch(
            HttpRequest(method="GET", path="/status", version="HTTP/1.1")
        )

    raw = asyncio.run(go())
    assert raw.startswith(b"HTTP/1.1 503")
    assert b"Retry-After: 1" in raw
    assert core.counters["rejected_backpressure"] == 1


def test_live_server_end_to_end_with_loadgen():
    """Real sockets: PUT + GET + 429 parity + the loadgen latency log."""
    core = small_core(dilation=2000.0, tenants=2)
    server = ArchiveServer(core, port=0)
    started = threading.Event()
    finished = threading.Event()
    box = {}

    def serve_thread():
        async def main():
            await server.start()
            box["port"] = server.port
            box["stop"] = asyncio.Event()
            box["loop"] = asyncio.get_running_loop()
            started.set()
            await box["stop"].wait()
            await server.stop()

        asyncio.run(main())
        finished.set()

    thread = threading.Thread(target=serve_thread, daemon=True)
    thread.start()
    assert started.wait(10.0), "server never started"
    try:
        spec = LoadSpec(
            mode="closed",
            clients=3,
            duration_seconds=2.0,
            object_count=6,
            object_mb_mean=16.0,
            seed=3,
        )
        import tempfile, os

        with tempfile.TemporaryDirectory() as tmp:
            log_path = os.path.join(tmp, "latency.jsonl")
            summary = asyncio.run(
                drive(spec, "127.0.0.1", box["port"], log_path)
            )
            with open(log_path, "r", encoding="utf-8") as handle:
                rows = [json.loads(line) for line in handle]
        assert summary["errors"] == 0
        assert summary["requests"] > 0
        assert summary["completed"] > 0
        # Latency log schema: header first, summary last, requests between.
        assert rows[0]["type"] == "header"
        assert rows[0]["schema"] == LOADGEN_SCHEMA
        assert rows[0]["spec"]["seed"] == 3
        assert rows[-1]["type"] == "summary"
        assert rows[-1]["requests"] == summary["requests"]
        body_rows = rows[1:-1]
        assert len(body_rows) == summary["requests"]
        assert all(row["type"] == "request" for row in body_rows)
        # 429s returned over HTTP match the core's reject counter exactly.
        assert summary["rejected_429"] == core.counters["rejected_quota"]
    finally:
        box["loop"].call_soon_threadsafe(box["stop"].set)
        assert finished.wait(10.0), "server never stopped"


def serve_live(core, scenario):
    """Run ``scenario(server)`` against a live server on this test's loop."""

    async def main():
        server = ArchiveServer(core, port=0)
        await server.start()
        try:
            return await asyncio.wait_for(scenario(server), 20.0)
        finally:
            await server.stop()

    return asyncio.run(main())


async def put_one(client, object_id="obj-1", size=8_000_000):
    """PUT one object through ``client``; asserts the 201."""
    status, _, _ = await client.request(
        "PUT", f"/archive/{object_id}", headers={"X-Size-Bytes": str(size)}
    )
    assert status == 201


def test_server_starts_no_thread():
    core = small_core(dilation=600.0)

    async def main():
        server = ArchiveServer(core, port=0)
        before = threading.enumerate()
        await server.start()
        try:
            return before, threading.enumerate()
        finally:
            await server.stop()

    before, after = asyncio.run(main())
    assert after == before


def test_overlong_header_line_is_a_400_not_a_server_error():
    core = small_core(dilation=600.0)

    async def scenario(server):
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(
            b"GET /status HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n"
        )
        await writer.drain()
        try:
            return await read_response(reader, timeout=5.0)
        finally:
            writer.close()

    status, headers, body = serve_live(core, scenario)
    assert status == 400
    assert headers["connection"] == "close"
    assert json.loads(body) == {"error": "header line too long"}
    assert core.counters["server_errors"] == 0


def test_events_stream_shows_a_get_issued_by_another_client():
    core = small_core(dilation=2000.0, tenants=0)

    async def scenario(server):
        client = ClientConnection("127.0.0.1", server.port, timeout=10.0)
        await put_one(client)
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(b"GET /events HTTP/1.1\r\nHost: test\r\n\r\n")
        await writer.drain()
        # The head is sent after the subscription exists, so no event of
        # the GET below can be missed.
        head = await reader.readuntil(b"\r\n\r\n")
        status, _, body = await client.request("GET", "/archive/obj-1")
        await client.close()
        request_id = json.loads(body)["request_id"]
        kinds = []
        while "serve.complete" not in kinds:
            event = json.loads(await reader.readline())
            if event.get("request_id") == request_id:
                kinds.append(event["kind"])
        writer.close()
        return head, status, kinds

    head, status, kinds = serve_live(core, scenario)
    assert head.startswith(b"HTTP/1.1 200")
    assert b"application/x-ndjson" in head
    assert status == 200
    assert kinds[0] == "serve.get"
    assert kinds[-1] == "serve.complete"


def test_status_counts_events_a_full_subscriber_queue_dropped():
    core = small_core(dilation=2000.0, tenants=0)
    burst = EVENTS_QUEUE_DEPTH + 8

    def put_burst():
        for i in range(burst):
            core.put_object(f"burst-{i}", 1_000_000)

    async def scenario(server):
        client = ClientConnection("127.0.0.1", server.port, timeout=10.0)
        await put_one(client)
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(b"GET /events HTTP/1.1\r\nHost: test\r\n\r\n")
        await writer.drain()
        await reader.readuntil(b"\r\n\r\n")
        # One slice emits more events than the subscriber's queue holds;
        # the stream task cannot drain it until the slice ends.
        await server.call_core(put_burst)
        _, _, body = await client.request("GET", "/status")
        connected = json.loads(body)
        writer.close()
        # Keep events flowing until the stream notices the disconnect.
        for _ in range(200):
            await client.request("GET", "/archive/obj-1")
            _, _, body = await client.request("GET", "/status")
            after = json.loads(body)
            if after["subscribers"] == 0:
                break
            await asyncio.sleep(0.01)
        await client.close()
        return connected, after

    connected, after = serve_live(core, scenario)
    assert connected["subscribers"] == 1
    assert connected["counters"]["events_dropped"] >= 8
    # The count outlives the subscriber that dropped the events.
    assert after["subscribers"] == 0
    assert after["counters"]["events_dropped"] >= connected["counters"]["events_dropped"]
    assert after["trace"]["dropped_events"] == 0
    assert after["trace"]["captured_events"] > burst


def test_closed_events_client_is_unsubscribed_on_an_idle_server():
    # No sampler and no traffic: no event ever flows to the stream, so
    # only watching the client side of the connection can notice it left.
    core = small_core(dilation=2000.0, tenants=0)

    async def scenario(server):
        client = ClientConnection("127.0.0.1", server.port, timeout=10.0)
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(b"GET /events HTTP/1.1\r\nHost: test\r\n\r\n")
        await writer.drain()
        await reader.readuntil(b"\r\n\r\n")
        _, _, body = await client.request("GET", "/status")
        connected = json.loads(body)["subscribers"]
        writer.close()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 3.0
        while True:
            _, _, body = await client.request("GET", "/status")
            after = json.loads(body)["subscribers"]
            if after == 0 or loop.time() > deadline:
                break
            await asyncio.sleep(0.1)
        await client.close()
        return connected, after

    connected, after = serve_live(core, scenario)
    assert connected == 1
    assert after == 0


def test_stop_ends_open_connections_without_cancelling_handlers(caplog):
    # At dilation 1 a read takes minutes of wall time, so the GET below is
    # still waiting on the twin when the server stops.
    core = small_core(dilation=1.0, tenants=0)
    handlers = []

    async def main():
        server = ArchiveServer(core, port=0)
        handle = server._handle_connection

        async def tracked(reader, writer):
            handlers.append(asyncio.current_task())
            await handle(reader, writer)

        server._handle_connection = tracked
        await server.start()
        keep_alive = ClientConnection("127.0.0.1", server.port, timeout=10.0)
        await put_one(keep_alive)
        get_reader, get_writer = await asyncio.open_connection("127.0.0.1", server.port)
        get_writer.write(b"GET /archive/obj-1 HTTP/1.1\r\nHost: test\r\n\r\n")
        await get_writer.drain()
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(b"GET /events HTTP/1.1\r\nHost: test\r\n\r\n")
        await writer.drain()
        await reader.readuntil(b"\r\n\r\n")
        while core.counters["reads_submitted"] == 0:
            await asyncio.sleep(0.005)
        await asyncio.wait_for(server.stop(), 10.0)
        ended = [(task.done(), task.cancelled()) for task in handlers]
        tail = await asyncio.wait_for(reader.read(), 5.0)
        await asyncio.wait_for(get_reader.read(), 5.0)
        for w in (writer, get_writer):
            w.close()
        await keep_alive.close()
        return ended, tail

    with caplog.at_level("ERROR", logger="asyncio"):
        ended, tail = asyncio.run(main())
    assert ended == [(True, False)] * 3
    assert tail == b""  # the follower saw the server close its stream
    assert [r for r in caplog.records if r.name == "asyncio"] == []
    assert core.counters["server_errors"] == 0
    assert core.counters["reads_completed"] == 0


def boom() -> None:
    raise RuntimeError("injected sim failure")


def test_pacer_failure_answers_pending_and_later_requests_with_500(caplog):
    # At dilation 1 a read takes minutes of wall time, so the GET below is
    # still in flight when the sim event raises.
    core = small_core(dilation=1.0, tenants=0)

    async def scenario(server):
        loop = asyncio.get_running_loop()
        client = ClientConnection("127.0.0.1", server.port, timeout=10.0)
        await put_one(client)
        pending = asyncio.ensure_future(client.request("GET", "/archive/obj-1"))
        while core.counters["reads_submitted"] == 0:
            await asyncio.sleep(0.005)
        failed_at = loop.time()
        await server.call_core(lambda: core.sim.schedule(0.0, boom, label="boom"))
        status, _, body = await pending
        waited = loop.time() - failed_at
        later = ClientConnection("127.0.0.1", server.port, timeout=10.0)
        later_get = await later.request("GET", "/archive/obj-1")
        later_status = await later.request("GET", "/status")
        await later.close()
        await client.close()
        return status, json.loads(body), waited, later_get, later_status

    with caplog.at_level("ERROR", logger="repro.serve.server"):
        status, body, waited, later_get, later_status = serve_live(core, scenario)
    assert status == 500
    assert waited < 1.0
    error_id = body["error_id"]
    assert body == {"error": "engine failed", "error_id": error_id}
    for later_code, _, later_body in (later_get, later_status):
        assert later_code == 500
        assert json.loads(later_body)["error_id"] == error_id
    assert core.counters["server_errors"] == 1
    assert core.counters["reads_completed"] == 0
    [record] = [r for r in caplog.records if error_id in r.getMessage()]
    assert "injected sim failure" in caplog.text
    assert record.exc_info is not None


def test_run_server_exit_code_reports_a_pacer_failure(capsys):
    clean = small_core(dilation=600.0)
    assert run_server(clean, port=0, seconds=0.2) == 0

    failing = small_core(dilation=600.0)

    def ready(server):
        failing.engine.inject(lambda: failing.sim.schedule(0.0, boom, label="boom"))

    assert run_server(failing, port=0, seconds=0.3, ready=ready) == 1
    assert failing.counters["server_errors"] == 1
    assert '"serving"' in capsys.readouterr().out


# --------------------------------------------------------------------- #
# Load generator determinism
# --------------------------------------------------------------------- #


def test_loadgen_schema_constant_is_versioned():
    assert LOADGEN_SCHEMA == "repro.loadgen/1"


def test_closed_loop_plans_are_seed_deterministic_per_client():
    spec = LoadSpec(seed=9, tenants=("a", "b"), think_seconds=2.0)
    assert closed_loop_plan(spec, 0, 20) == closed_loop_plan(spec, 0, 20)
    assert closed_loop_plan(spec, 0, 20) != closed_loop_plan(spec, 1, 20)
    # Longer plans extend shorter ones (the chunked-stream contract).
    assert closed_loop_plan(spec, 0, 30)[:20] == closed_loop_plan(spec, 0, 20)


def test_open_loop_schedule_is_deterministic_and_burst_aware():
    calm = LoadSpec(mode="open", seed=4, duration_seconds=20.0, rate_per_second=5.0)
    burst = LoadSpec(
        mode="open",
        seed=4,
        duration_seconds=20.0,
        rate_per_second=5.0,
        burst=BurstSpec(start_fraction=0.25, duration_fraction=0.5, factor=6.0),
    )
    assert open_loop_schedule(calm) == open_loop_schedule(calm)
    assert len(open_loop_schedule(burst)) > len(open_loop_schedule(calm))
    times = [t for t, _, _ in open_loop_schedule(burst)]
    assert times == sorted(times)
    assert all(t < 20.0 for t in times)


def test_object_set_is_deterministic_with_floored_sizes():
    spec = LoadSpec(seed=6, object_count=10, object_mb_mean=4.0)
    assert object_set(spec) == object_set(spec)
    assert all(size >= 1_000_000 for _, size in object_set(spec))
    assert [oid for oid, _ in object_set(spec)] == [
        f"obj-{i:04d}" for i in range(10)
    ]


def test_percentile_is_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 50.0) == 2.0
    assert percentile(values, 100.0) == 4.0
    assert percentile([], 99.0) == 0.0
