"""The asyncio frontend: sockets in, paced twin on the same event loop.

:class:`ArchiveServer` binds a TCP port and runs the
:class:`~repro.core.events.PacedEngine` as a pacer task on its own
event loop: each slice drains injected requests and runs the twin up to
the wall clock, then the task sleeps until the next sim event is due or
a request arrives. Handlers reach the twin only through the engine's
injection queue, so all simulation state changes at slice boundaries
while the loop serves arbitrarily many connections — with no thread
and no cross-thread wake-up anywhere on the request path.
Backpressure is end-to-end: a full injection queue turns into HTTP 503
before any kernel work happens, an over-quota tenant gets 429 with a
refill-derived ``Retry-After``, and a client that stops reading its
``/events`` stream is disconnected by the slow-client write timeout
instead of growing an unbounded buffer. A pacer that raises fails
fast: the traceback is logged under an error id, and every pending and
later request that needs the twin gets a 500 carrying that id.
:meth:`ArchiveServer.stop` ends open connections itself, so a stop with
keep-alive or ``/events`` clients attached leaves no handler cancelled.

Routes::

    PUT /archive            register an object (id generated)
    PUT /archive/{id}       register an object under a chosen id
    GET /archive/{id}       read it back through the simulated library
    GET /status             counters, gauges, admission books
    GET /events             NDJSON stream of tracer events
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import signal
import threading
import uuid
from typing import Any, Callable, Dict, Optional, Set

from ..observability.tracer import TraceEvent
from .core import ArchiveServerCore, ReadRejected, ReadTicket
from .http import (
    HttpError,
    HttpRequest,
    json_response,
    read_request,
    send_with_timeout,
    split_path,
    stream_head,
)

#: Queue depth of one /events subscriber before events are dropped.
EVENTS_QUEUE_DEPTH = 1024
#: Wall seconds :meth:`ArchiveServer.stop` waits for open connections to end.
STOP_GRACE_SECONDS = 5.0

LOG = logging.getLogger(__name__)


class BackpressureError(Exception):
    """The engine's injection queue is full — surface as HTTP 503."""


class ServerStopping(Exception):
    """The server is stopping; surface as HTTP 503."""


class EngineFailure(Exception):
    """The pacer died; surface as HTTP 500 carrying its ``error_id``."""

    def __init__(self, error_id: str) -> None:
        super().__init__(f"paced engine failed (error_id={error_id})")
        self.error_id = error_id


def _retry_after_header(seconds: Optional[float]) -> dict:
    """``Retry-After`` header dict from a wall-seconds estimate."""
    if seconds is None:
        return {}
    if not math.isfinite(seconds):
        seconds = 3600.0
    return {"Retry-After": str(max(1, int(math.ceil(seconds))))}


class ArchiveServer:
    """Live HTTP archive service over one :class:`ArchiveServerCore`."""

    def __init__(
        self,
        core: ArchiveServerCore,
        host: str = "127.0.0.1",
        port: int = 0,
        slow_client_timeout: float = 10.0,
        request_timeout: float = 30.0,
    ) -> None:
        self.core = core
        self.host = host
        self.port = port
        self.slow_client_timeout = slow_client_timeout
        self.request_timeout = request_timeout
        self._server: Optional[asyncio.base_events.Server] = None
        self._pacer: Optional[asyncio.Task] = None
        #: what the pacer awaits between slices; resolved early by call_core.
        self._wake: Optional[asyncio.Future] = None
        #: futures handlers await and only the pacer resolves.
        self._outstanding: Set[asyncio.Future] = set()
        #: open connections (handler task -> writer), ended by stop().
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        #: the queues of open /events streams, woken by stop().
        self._event_queues: Set[asyncio.Queue] = set()
        self._stopping = False
        #: set once the pacer has failed; every engine-bound request then
        #: gets a 500 carrying it, and run_server exits non-zero.
        self.error_id: Optional[str] = None
        self._next_object_id = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind the socket and start the pacer task on this loop."""
        if self.core.config.dilation <= 0:
            raise ValueError("a live server needs dilation > 0 (paced mode)")
        self._pacer = asyncio.get_running_loop().create_task(self._pace())
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, end every open connection, stop the pacer.

        Connections are ended here rather than left for the event loop
        to cancel: reads still waiting on the twin fail (503), every
        transport is closed, each ``/events`` stream is woken, and the
        handler tasks are awaited for at most :data:`STOP_GRACE_SECONDS`,
        so no handler ends cancelled.
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
        for future in list(self._outstanding):
            _set_exception(future, ServerStopping())
        for writer in self._connections.values():
            writer.close()
        for queue in self._event_queues:
            if not queue.full():
                queue.put_nowait(None)
        if self._connections:
            await asyncio.wait(list(self._connections), timeout=STOP_GRACE_SECONDS)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        pacer, self._pacer = self._pacer, None
        if pacer is not None:
            pacer.cancel()
            try:
                await pacer
            except asyncio.CancelledError:
                pass

    async def serve_forever(self) -> None:
        """Block until cancelled (the CLI's foreground mode)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------ #
    # Pacer and the bridge into it
    # ------------------------------------------------------------------ #

    async def _pace(self) -> None:
        """Run the twin in wall-paced slices until cancelled or failed.

        Between slices the task awaits ``_wake``, which a timer resolves
        when the next sim event is due (capped at ``poll_wall_seconds``)
        and :meth:`call_core` resolves as soon as it injects a request.
        """
        engine = self.core.engine
        loop = asyncio.get_running_loop()
        while True:
            try:
                wait = engine.run_slice()
            except Exception:  # noqa: BLE001 - a sim failure must not hang requests
                self._fail()
                return
            if wait is None or wait > engine.poll_wall_seconds:
                wait = engine.poll_wall_seconds
            self._wake = wake = loop.create_future()
            timer = loop.call_later(wait, _set_result, wake, None)
            try:
                await wake
            finally:
                timer.cancel()

    def _fail(self) -> None:
        """Record the pacer's failure and fail every engine-bound wait.

        Called from the pacer's ``except`` block, so the logged record
        carries the slice's traceback.
        """
        self.error_id = uuid.uuid4().hex[:12]
        self.core.counters["server_errors"] += 1
        LOG.exception(
            "paced engine failed (error_id=%s); engine-bound requests now get 500",
            self.error_id,
        )
        for future in list(self._outstanding):
            _set_exception(future, EngineFailure(self.error_id))

    def _check_running(self) -> None:
        """Raise what an engine-bound request gets once the pacer died
        (:class:`EngineFailure`) or the server is stopping."""
        if self.error_id is not None:
            raise EngineFailure(self.error_id)
        if self._stopping:
            raise ServerStopping()

    async def _resolved(self, future: asyncio.Future) -> Any:
        """Await a future only the pacer resolves; fail fast once it died."""
        if not future.done():
            self._check_running()
        self._outstanding.add(future)
        try:
            return await future
        finally:
            self._outstanding.discard(future)

    async def call_core(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` in the pacer's next slice; await its result here.

        Raises :class:`BackpressureError` immediately when the injection
        queue is at ``max_pending_ingress`` — the 503 path costs nothing
        in the pacer, which is the point of the bound — and
        :class:`EngineFailure` once the pacer has died.
        """
        self._check_running()
        future: asyncio.Future = asyncio.get_running_loop().create_future()

        def run() -> None:
            try:
                result = fn()
            except Exception as exc:  # noqa: BLE001 - bridge, don't kill the pacer
                _set_exception(future, exc)
            else:
                _set_result(future, result)

        if not self.core.engine.inject(run):
            self.core.counters["rejected_backpressure"] += 1
            raise BackpressureError()
        wake = self._wake
        if wake is not None:
            _set_result(wake, None)
        return await self._resolved(future)

    async def _await_ticket(self, make: Callable[[], Any]) -> Any:
        """Run ``make`` (a begin_read thunk) and await its completion.

        The completion callback is registered in the same injection that
        created the ticket, so a read can never complete between creation
        and registration. Returns the resolved :class:`ReadTicket`, or
        the :class:`ReadRejected` verdict.
        """
        done: asyncio.Future = asyncio.get_running_loop().create_future()

        def begin() -> Any:
            outcome = make()
            if isinstance(outcome, ReadTicket):
                outcome.on_complete(lambda ticket: _set_result(done, ticket))
            return outcome

        outcome = await self.call_core(begin)
        if isinstance(outcome, ReadRejected):
            return outcome
        return await self._resolved(done)

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection (keep-alive loop); never raises."""
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while not self._stopping:
                try:
                    request = await read_request(reader, self.request_timeout)
                except HttpError as exc:
                    await self._send(
                        writer,
                        json_response(
                            exc.status, {"error": exc.reason}, keep_alive=False
                        ),
                    )
                    break
                except (asyncio.TimeoutError, asyncio.IncompleteReadError):
                    break
                if request is None:
                    break
                if request.method == "GET" and request.path == "/events":
                    await self._stream_events(reader, writer)
                    break
                response = await self._dispatch(request)
                await self._send(writer, response)
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError):
            pass
        except Exception:  # noqa: BLE001 - a handler bug must not kill the loop
            self.core.counters["server_errors"] += 1
        finally:
            del self._connections[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _send(self, writer: asyncio.StreamWriter, data: bytes) -> None:
        """Write one response under the slow-client deadline."""
        try:
            await send_with_timeout(writer, data, self.slow_client_timeout)
        except asyncio.TimeoutError:
            self._note_slow_client()
            raise

    def _note_slow_client(self) -> None:
        """Count a slow client and trace it (best-effort injection)."""
        self.core.counters["slow_clients"] += 1
        core = self.core
        core.engine.inject(
            lambda: core.tracer.emit(
                core.sim.now, "serve.slow_client", component="serve"
            )
        )

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #

    async def _dispatch(self, request: HttpRequest) -> bytes:
        """Route one request to its handler; map errors to responses."""
        segments = split_path(request.path)
        try:
            if request.method == "PUT" and segments[:1] == ("archive",):
                return await self._handle_put(request, segments)
            if request.method == "GET" and len(segments) == 2 and segments[0] == "archive":
                return await self._handle_get(request, segments[1])
            if request.method == "GET" and segments == ("status",):
                return await self._handle_status()
            if segments and segments[0] in ("archive", "status", "events"):
                return json_response(405, {"error": "method not allowed"})
            return json_response(404, {"error": "no such route"})
        except BackpressureError:
            return json_response(
                503,
                {"error": "ingress queue full"},
                extra_headers={"Retry-After": "1"},
            )
        except EngineFailure as exc:
            return json_response(
                500, {"error": "engine failed", "error_id": exc.error_id}
            )
        except ServerStopping:
            return json_response(503, {"error": "server stopping"}, keep_alive=False)
        except HttpError as exc:
            return json_response(exc.status, {"error": exc.reason})

    async def _handle_put(self, request: HttpRequest, segments: tuple) -> bytes:
        """``PUT /archive[/{id}]``: register an object in the catalog.

        The logical archive size comes from ``X-Size-Bytes`` when given
        (so a load generator can archive terabytes without shipping
        them), else from the body length.
        """
        if len(segments) > 2:
            return json_response(404, {"error": "no such route"})
        if len(segments) == 2:
            object_id = segments[1]
        else:
            self._next_object_id += 1
            object_id = f"obj-{self._next_object_id}"
        tenant = request.headers.get("x-tenant", "")
        size = request.header_int("x-size-bytes", None)
        if size is None:
            size = len(request.body)
        if size <= 0:
            return json_response(400, {"error": "object size must be positive"})
        record = await self.call_core(
            lambda: self.core.put_object(object_id, size, tenant)
        )
        return json_response(201, record)

    async def _handle_get(self, request: HttpRequest, object_id: str) -> bytes:
        """``GET /archive/{id}``: read through the simulated library.

        The response returns when the simulated read completes —
        ``latency_s`` is sim time, so at dilation *D* the wall wait is
        roughly ``latency_s / D``.
        """
        tenant = request.headers.get("x-tenant", "")
        outcome = await self._await_ticket(
            lambda: self.core.begin_read(object_id, tenant)
        )
        if isinstance(outcome, ReadRejected):
            if outcome.status == 429:
                return json_response(
                    429,
                    {
                        "error": "quota",
                        "tenant": outcome.tenant,
                        "retry_after_s": outcome.retry_after_wall,
                    },
                    extra_headers=_retry_after_header(outcome.retry_after_wall),
                )
            return json_response(outcome.status, {"error": outcome.reason})
        ticket: ReadTicket = outcome
        return json_response(
            200,
            {
                "id": object_id,
                "request_id": ticket.request.request_id,
                "size_bytes": ticket.request.size_bytes,
                "latency_s": ticket.latency_sim_seconds,
                "degraded": ticket.request.degraded,
                "tenant": tenant,
            },
        )

    async def _handle_status(self) -> bytes:
        """``GET /status``: the core's snapshot, taken in a pacer slice."""
        payload = await self.call_core(self.core.status)
        return json_response(200, payload)

    # ------------------------------------------------------------------ #
    # /events streaming
    # ------------------------------------------------------------------ #

    async def _stream_events(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """NDJSON-stream tracer events until the client goes away.

        Events are fanned out of the pacer's slices into a bounded asyncio
        queue; overflow drops them, counted in ``/status`` as
        ``counters.events_dropped``, rather than buffering without bound,
        and a client that stops draining its socket is cut off by the
        slow-client timeout. A client that hangs up is noticed at the
        next one-second idle tick even when no event ever flows, and
        :meth:`stop` wakes the stream with a ``None`` in its queue.
        """
        queue: asyncio.Queue = asyncio.Queue(maxsize=EVENTS_QUEUE_DEPTH)
        counters = self.core.counters

        def on_event(event: TraceEvent) -> None:
            try:
                queue.put_nowait(event)
            except asyncio.QueueFull:
                counters["events_dropped"] += 1

        self.core.subscribe(on_event)
        self._event_queues.add(queue)
        try:
            await send_with_timeout(writer, stream_head(), self.slow_client_timeout)
            while not self._stopping:
                try:
                    event = await asyncio.wait_for(queue.get(), timeout=1.0)
                except asyncio.TimeoutError:
                    if reader.at_eof():
                        break
                    continue
                if event is None:
                    break
                line = event.to_json() + "\n"
                await send_with_timeout(
                    writer, line.encode("utf-8"), self.slow_client_timeout
                )
        except asyncio.TimeoutError:
            self._note_slow_client()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            self._event_queues.discard(queue)
            self.core.unsubscribe(on_event)


def _set_result(future: asyncio.Future, value: Any) -> None:
    """Resolve ``future`` unless the consumer already went away."""
    if not future.done():
        future.set_result(value)


def _set_exception(future: asyncio.Future, exc: BaseException) -> None:
    """Fail ``future`` unless the consumer already went away."""
    if not future.done():
        future.set_exception(exc)


def run_server(
    core: ArchiveServerCore,
    host: str = "127.0.0.1",
    port: int = 8173,
    slow_client_timeout: float = 10.0,
    seconds: float = 0.0,
    ready: Optional[Callable[[ArchiveServer], None]] = None,
) -> int:
    """Foreground entry point: serve until interrupted (or ``seconds``).

    Returns a process exit code: 0 after a clean run, 1 when the pacer
    failed (the server keeps answering 500s until it is stopped).
    SIGTERM and SIGINT are clean shutdowns through
    :meth:`ArchiveServer.stop` (handled on the event loop when this runs
    on the main thread) — the doc smoke-runner and perfbench background a
    server and terminate it, and that must count as success.
    """
    server = ArchiveServer(
        core, host=host, port=port, slow_client_timeout=slow_client_timeout
    )

    async def main() -> None:
        stopped = asyncio.Event()
        if threading.current_thread() is threading.main_thread():
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, stopped.set)
        await server.start()
        if ready is not None:
            ready(server)
        print(
            json.dumps(
                {
                    "serving": f"http://{server.host}:{server.port}",
                    "dilation": core.config.dilation,
                    "tenants": len(core.registry.tenants) if core.registry else 0,
                }
            ),
            flush=True,
        )
        try:
            await asyncio.wait_for(stopped.wait(), seconds if seconds > 0 else None)
        except asyncio.TimeoutError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return 0 if server.error_id is None else 1
