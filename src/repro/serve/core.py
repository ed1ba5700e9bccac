"""Transport-free archive-server core over the paced twin.

:class:`ArchiveServerCore` is everything the live server does *except*
sockets: an object catalog, read submission into a :class:`~repro.core.
sim.kernel.SimKernel` (whose own tenancy admits each read and tags it
with its SLO class and deadline), ``Retry-After`` derivation for the
reads it refuses, completion tickets resolved by the kernel's
completion seam (:attr:`~repro.core.sim.lifecycle.RequestLifecycle.
on_complete`), a trace feed that hands every event to the ``GET /events``
subscribers and keeps none, and a status snapshot. Keeping it
transport-free is what makes the whole serving path testable (and
benchmarkable) in pure virtual time — the ``serve_soak`` scenario drives
this class directly, no HTTP anywhere.

Threading contract: the core is single-threaded. Every method that
touches simulation state (:meth:`put_object`, :meth:`begin_read`,
:meth:`status`) runs on the thread that advances the sim clock, at the
current sim time. The HTTP frontend (:mod:`repro.serve.server`) gets
there by wrapping calls in :meth:`~repro.core.events.PacedEngine.inject`,
which its pacer task drains at slice boundaries on the same asyncio
loop; virtual-time callers (tests, the soak harness) drive the clock
themselves and call straight in. The frontend bumps the few counters it
owns (backpressure rejects, slow-client drops, events a full ``/events``
queue lost, server errors) on that same thread, so nothing here needs a
lock.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.events import PacedEngine
from ..core.requests import SimRequest
from ..core.sim import SimConfig, SimKernel
from ..observability.tracer import TraceEvent, Tracer
from ..tenancy.model import QuotaSpec, TenantRegistry, TenantSpec, skewed_mix
from ..workload.traces import ReadRequest

#: Retry-After ceiling (wall seconds) for reads that can never be
#: admitted (bigger than the bucket's burst depth, or a zero quota).
MAX_RETRY_AFTER_SECONDS = 3600.0


def serve_registry(
    tenants: int,
    seed: int = 0,
    quota_mbps: float = 4.0,
    quota_burst_mb: float = 256.0,
) -> Optional[TenantRegistry]:
    """A quota-bearing tenant mix for the live server.

    Reuses :func:`~repro.tenancy.model.skewed_mix` for the demand shape
    and attaches the same token-bucket quota to every tenant, so the
    server enforces admission out of the box. ``tenants <= 0`` returns
    None (single anonymous tenant, no quotas); ``tenants == 1`` is a
    solo tenant (the skewed mix needs at least two).
    """
    if tenants <= 0:
        return None
    quota = QuotaSpec(
        bytes_per_second=quota_mbps * 1e6, burst_bytes=quota_burst_mb * 1e6
    )
    if tenants == 1:
        solo = TenantSpec(name=f"t{seed}-solo", quota=quota)
        return TenantRegistry(tenants=(solo,))
    base = skewed_mix(tenants, seed=seed)
    specs = tuple(replace(spec, quota=quota) for spec in base.tenants)
    return TenantRegistry(tenants=specs, aging=base.aging)


@dataclass(frozen=True)
class ServeConfig:
    """Configuration of one live archive server.

    ``dilation`` is sim-seconds per wall-second (0 = free-run, virtual
    time only); ``sample_interval_seconds`` > 0 emits ``monitor.sample``
    trace events (the live feed ``watch --follow`` renders);
    ``max_pending_ingress`` bounds the injection queue (the 503
    backpressure threshold). ``sim`` describes the whole served twin,
    its tenants included: a quota-bearing registry (for instance from
    :func:`serve_registry`) as ``sim.tenancy`` turns on admission, SLO
    classes and deadlines, and ``sim.fetch_policy`` picks the fetch order.
    """

    dilation: float = 600.0
    max_pending_ingress: int = 256
    sample_interval_seconds: float = 300.0
    sim: SimConfig = field(default_factory=SimConfig)


@dataclass
class ReadRejected:
    """An admission (or catalog) refusal, with everything HTTP needs."""

    status: int
    reason: str
    tenant: str = ""
    object_id: str = ""
    #: seconds of *sim* time until the bucket could admit the read
    #: (None: not a quota reject; inf: can never be admitted).
    retry_after_sim: Optional[float] = None
    #: the sim delay mapped through the dilation factor, capped — what
    #: actually goes into the ``Retry-After`` header.
    retry_after_wall: Optional[float] = None


class ReadTicket:
    """One in-flight read: resolved when the kernel completes it."""

    def __init__(self, request: SimRequest) -> None:
        self.request = request
        self._callbacks: List[Callable[["ReadTicket"], None]] = []

    @property
    def done(self) -> bool:
        """True once the kernel completed the read."""
        return self.request.completion is not None

    @property
    def latency_sim_seconds(self) -> float:
        """Submit-to-complete sim latency (0.0 while in flight): a served
        read arrives at its submit time."""
        return self.request.completion_time if self.done else 0.0

    def on_complete(self, callback: Callable[["ReadTicket"], None]) -> None:
        """Run ``callback(ticket)`` at completion (immediately if done).

        Single-threaded, like every core entry point — which is what
        makes the registered-then-completed race impossible.
        """
        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _resolve(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)


class _EventFeed:
    """The server's tracer sink: hands each event to the ``/events``
    subscribers and keeps nothing.

    ``count`` is the number of events emitted; ``/status`` reports it as
    the trace block's ``captured_events``.
    """

    def __init__(self) -> None:
        self.subscribers: List[Callable[[TraceEvent], None]] = []
        self.count = 0

    def append(self, event: TraceEvent) -> None:
        """Count one event and hand it to every subscriber."""
        self.count += 1
        for callback in self.subscribers:
            callback(event)


class ArchiveServerCore:
    """The archive service's brain: catalog, kernel, 429s, feed."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        cfg = self.config
        self._feed = _EventFeed()
        self.tracer = Tracer(self._feed)
        self.kernel = SimKernel(cfg.sim, tracer=self.tracer)
        self.kernel.lifecycle.on_complete = self._on_read_complete
        self.sim = self.kernel.ctx.sim
        self.engine = PacedEngine(
            self.sim, dilation=cfg.dilation, max_pending=cfg.max_pending_ingress
        )
        #: The served twin's tenant mix and its admission controller, the
        #: kernel's own (None when ``sim.tenancy`` is unset).
        self.registry: Optional[TenantRegistry] = cfg.sim.tenancy
        self.admission = self.kernel.lifecycle.admission
        #: object_id -> (size_bytes, platter_id)
        self.catalog: Dict[str, Tuple[int, str]] = {}
        self._inflight: Dict[int, ReadTicket] = {}
        self.counters: Dict[str, int] = {
            "puts": 0,
            "reads_submitted": 0,
            "reads_completed": 0,
            "rejected_quota": 0,
            "rejected_backpressure": 0,
            "not_found": 0,
            "slow_clients": 0,
            "events_dropped": 0,
            "server_errors": 0,
        }
        if cfg.sample_interval_seconds > 0:
            self.kernel.attach_sampler(
                cfg.sample_interval_seconds, self._emit_sample
            )

    # ------------------------------------------------------------------ #
    # Completion seam and trace feed
    # ------------------------------------------------------------------ #

    def _emit_sample(self, ts: float) -> float:
        """Sampler hook: publish the kernel gauges as a trace event."""
        self.tracer.emit(ts, "monitor.sample", **self.kernel.sample_state())
        return self.config.sample_interval_seconds

    def _on_read_complete(self, request: SimRequest) -> None:
        """Kernel completion seam: trace ``serve.complete``, resolve the ticket."""
        ticket = self._inflight.pop(request.request_id, None)
        if ticket is None:
            return
        self.counters["reads_completed"] += 1
        self.tracer.emit(
            request.completion,
            "serve.complete",
            request_id=request.request_id,
            tenant=request.tenant,
            latency_s=request.completion_time,
            degraded=request.degraded,
        )
        ticket._resolve()

    def subscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Register an ``/events`` consumer, called with every trace event."""
        self._feed.subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Remove a consumer registered by :meth:`subscribe`."""
        if callback in self._feed.subscribers:
            self._feed.subscribers.remove(callback)

    # ------------------------------------------------------------------ #
    # Data path (sim-clock thread only)
    # ------------------------------------------------------------------ #

    def _place(self, object_id: str) -> str:
        """Deterministic platter placement: stable hash over the catalog."""
        platters = self.kernel.robotics.platters
        index = zlib.crc32(object_id.encode("utf-8")) % len(platters)
        return platters[index]

    def put_object(self, object_id: str, size_bytes: int, tenant: str = "") -> Dict[str, Any]:
        """Register (or overwrite) one archived object; returns its record."""
        if size_bytes <= 0:
            raise ValueError(f"object {object_id!r}: size must be positive")
        platter = self._place(object_id)
        self.catalog[object_id] = (int(size_bytes), platter)
        self.counters["puts"] += 1
        self.tracer.emit(
            self.sim.now,
            "serve.put",
            component="serve",
            object=object_id,
            size_bytes=int(size_bytes),
            tenant=tenant,
            platter=platter,
        )
        return {"id": object_id, "size_bytes": int(size_bytes), "platter": platter}

    def _reject(
        self, object_id: str, tenant: str, size_bytes: int, now: float
    ) -> ReadRejected:
        """Build the 429 for a read the kernel's admission refused, trace
        it, and derive ``Retry-After`` from the refusing controller."""
        self.counters["rejected_quota"] += 1
        retry_wall = None
        retry_sim = self.admission.retry_after(tenant, size_bytes, now)
        if retry_sim is not None:
            dilation = self.config.dilation
            wall = retry_sim / dilation if dilation > 0 else retry_sim
            retry_wall = min(wall, MAX_RETRY_AFTER_SECONDS)
        self.tracer.emit(
            now,
            "serve.reject",
            component="serve",
            status=429,
            tenant=tenant,
            object=object_id,
            size_bytes=size_bytes,
            retry_after_s=retry_wall,
        )
        return ReadRejected(
            status=429,
            reason="quota",
            tenant=tenant,
            object_id=object_id,
            retry_after_sim=retry_sim,
            retry_after_wall=retry_wall,
        )

    def begin_read(self, object_id: str, tenant: str = ""):
        """Submit one read to the kernel; a :class:`ReadTicket` or refusal.

        Returns :class:`ReadTicket` on admission, :class:`ReadRejected`
        with status 404 (unknown object) or 429 (quota) otherwise. The
        kernel's admission traces ``admission.reject`` for every read it
        refuses, so each 429 mirrors exactly one such event, followed by
        its ``serve.reject`` — the parity the admission tests pin.
        """
        now = self.sim.now
        entry = self.catalog.get(object_id)
        if entry is None:
            self.counters["not_found"] += 1
            return ReadRejected(
                status=404, reason="unknown object", tenant=tenant, object_id=object_id
            )
        size_bytes, platter = entry
        request = ReadRequest(
            time=now, file_id=object_id, size_bytes=size_bytes, tenant=tenant
        )
        top = self.kernel.lifecycle.submit(request, platter, measured=True)
        if top is None:
            return self._reject(object_id, tenant, size_bytes, now)
        ticket = ReadTicket(top)
        self._inflight[top.request_id] = ticket
        self.counters["reads_submitted"] += 1
        self.tracer.emit(
            now,
            "serve.get",
            request_id=top.request_id,
            component="serve",
            object=object_id,
            size_bytes=size_bytes,
            tenant=tenant,
        )
        return ticket

    # ------------------------------------------------------------------ #
    # Status (sim-clock thread only)
    # ------------------------------------------------------------------ #

    def status(self) -> Dict[str, Any]:
        """The ``GET /status`` payload: clocks, gauges, books, tenants."""
        injected, drained, refused = self.engine.injection_stats
        counters = dict(self.counters)
        payload: Dict[str, Any] = {
            "sim_now_seconds": self.sim.now,
            "dilation": self.config.dilation,
            "events_processed": self.sim.events_processed,
            "objects": len(self.catalog),
            "inflight_reads": len(self._inflight),
            "pending_injections": self.engine.pending_injections,
            "injections": {
                "injected": injected,
                "drained": drained,
                "refused": refused,
            },
            "counters": counters,
            "gauges": self.kernel.sample_state(),
            "trace": self.tracer.as_dict(),
            "subscribers": len(self._feed.subscribers),
            "tenants": [t.name for t in self.registry.tenants]
            if self.registry
            else [],
        }
        if self.admission is not None:
            payload["admission"] = self.admission.stats_dict()
        return payload
