"""Request lifecycle: intake, routing, queueing, recovery, completion.

Owns every state transition a read request makes between trace intake and
completion — platter assignment, admission (through the
:class:`~repro.core.sim.hooks.AdmissionLike` seam), sharding of large
files, metadata-outage backoff, enqueueing into the scheduler, cross-platter
recovery fan-out, abandonment and completion accounting — plus the
platter-set erasure-coding geometry and the run's unavailable-platter set.
The mechanics of actually serving requests live in the robotics subsystem;
assigning work lives in dispatch.

Trace arrivals are *streamed* into the event engine: :meth:`RequestLifecycle.
assign_trace` files each arrival in a sorted intake under a sequence number
reserved at assign time (:meth:`~repro.core.events.Simulation.reserve_seq`),
and only the intake's head has an engine event. When it fires, the next head
is pushed under its reserved number, so every arrival fires exactly where an
eagerly scheduled one would, while the heap holds one pending arrival instead
of one per unread trace record.
"""

from __future__ import annotations

import math
from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from ...workload.traces import ReadRequest, ReadTrace
from ..requests import SimRequest
from .context import SimContext
from .hooks import AdmissionLike
from .robotics import RoboticsSubsystem

if TYPE_CHECKING:  # pragma: no cover
    from .dispatch import DispatchSubsystem
    from .faults import FaultSubsystem


class RequestLifecycle:
    """Every request state transition from trace intake to completion."""

    def __init__(
        self,
        ctx: SimContext,
        robotics: RoboticsSubsystem,
        admission: Optional[AdmissionLike] = None,
    ):
        self.ctx = ctx
        self.robotics = robotics
        self.admission = admission
        self.all_requests: List[SimRequest] = []
        #: Called once with each top-level request :meth:`complete_request`
        #: finishes (never a shard or recovery sub-read), right after its
        #: ``request.complete`` trace; the live server resolves tickets here.
        self.on_complete: Optional[Callable[[SimRequest], None]] = None
        self._next_request_id = 0
        #: Streamed arrivals ``(time, reserved seq, request)``, sorted by
        #: ``(time, seq)``; its front always has an engine event.
        self._intake: Deque[Tuple[float, int, SimRequest]] = deque()
        #: Seqs of intake entries that already have an engine event.
        self._armed: Set[int] = set()
        #: True while :meth:`assign_trace` runs: arrivals go to the intake.
        self._streaming = False
        #: An arrival this assign_trace call filed sorts before its
        #: predecessor, so the intake must be re-sorted before arming.
        self._intake_unsorted = False
        self.unavailable: Set[str] = set()
        if ctx.config.unavailable_fraction > 0:
            self._sample_unavailable()
        # Sibling subsystems, bound by :meth:`wire` during composition.
        self.dispatch: "DispatchSubsystem" = None  # type: ignore[assignment]
        self.faults: "FaultSubsystem" = None  # type: ignore[assignment]

    def wire(self, dispatch: "DispatchSubsystem", faults: "FaultSubsystem") -> None:
        """Bind the sibling subsystems this one calls into."""
        self.dispatch = dispatch
        self.faults = faults

    # ------------------------------------------------------------------ #
    # Platter-set geometry
    # ------------------------------------------------------------------ #

    def _sample_unavailable(self) -> None:
        """Uniformly random unavailable platters, capped at R per platter-set.

        The blast-zone placement invariant (Section 6) guarantees a single
        failure removes at most R platters of any set; we keep the sampled
        pattern consistent with that invariant so recovery is always
        possible.
        """
        cfg = self.ctx.config
        platters = self.robotics.platters
        group = cfg.platter_set_information + cfg.platter_set_redundancy
        target = int(round(cfg.unavailable_fraction * len(platters)))
        per_set: Dict[int, int] = {}
        order = self.ctx.rng.permutation(len(platters))
        for idx in order:
            if len(self.unavailable) >= target:
                break
            set_id = int(idx) // group
            if per_set.get(set_id, 0) >= cfg.platter_set_redundancy:
                continue
            per_set[set_id] = per_set.get(set_id, 0) + 1
            self.unavailable.add(platters[int(idx)])

    def platter_set_of(self, platter_id: str) -> List[str]:
        """The erasure-coded platter set ``platter_id`` belongs to."""
        cfg = self.ctx.config
        group = cfg.platter_set_information + cfg.platter_set_redundancy
        index = self.robotics.platter_index[platter_id]
        start = (index // group) * group
        return self.robotics.platters[start : start + group]

    def _distinct_platters(self, count: int) -> List[str]:
        """Distinct shard platters. Placement is failure-oblivious: shards
        were written long before any failure, so unavailable platters are
        legitimate targets — their shards get recovered via cross-platter
        NC like any other read (see :meth:`ingest`)."""
        platters = self.robotics.platters
        if count >= len(platters):
            return list(platters)
        picks = self.ctx.rng.choice(len(platters), size=count, replace=False)
        return [platters[int(i)] for i in picks]

    def _new_id(self) -> int:
        self._next_request_id += 1
        return self._next_request_id

    def _random_track_start(self, num_tracks: int) -> int:
        """Uniform file location on the platter (seek distances, Fig. 3d)."""
        upper = max(1, self.ctx.config.platter_tracks - num_tracks)
        return int(self.ctx.rng.integers(0, upper))

    # ------------------------------------------------------------------ #
    # Request intake
    # ------------------------------------------------------------------ #

    def assign_trace(
        self,
        trace: ReadTrace,
        measure_start: float,
        measure_end: float,
        skew: Optional[float] = None,
    ) -> None:
        """Map trace requests onto platters and stream in their arrivals.

        ``skew`` enables a Zipf distribution over platters (Section 7.5's
        skewed-request experiment); None means uniform (the default
        methodology: "we distribute the read requests to platters stored in
        the library uniformly").

        Every arrival this call routes (a read, its shards, recovery
        sub-reads of an unavailable platter) enters the sorted intake
        under a sequence number reserved now, instead of an engine event
        each; the intake's head is armed once the loop ends. ``trace``
        may be any iterable, in any order, and later calls (mid-run
        included) may add arrivals that sort before earlier ones.
        """
        rng = self.ctx.rng
        platters = self.robotics.platters
        n = len(platters)
        weights = None
        platter_order = None
        if skew is not None:
            ranks = np.arange(1, n + 1, dtype=np.float64)
            weights = ranks**-skew
            weights /= weights.sum()
            platter_order = rng.permutation(n)
        self._streaming = True
        try:
            for request in trace:
                if weights is None:
                    platter = platters[int(rng.integers(0, n))]
                else:
                    rank = int(rng.choice(n, p=weights))
                    platter = platters[int(platter_order[rank])]
                measured = measure_start <= request.time < measure_end
                self.submit(request, platter, measured)
        finally:
            self._streaming = False
            if self._intake_unsorted:
                self._intake = deque(sorted(self._intake))
                self._intake_unsorted = False
            self._arm_intake()

    def submit(
        self, request: ReadRequest, platter: str, measured: bool
    ) -> Optional[SimRequest]:
        """Admit one trace request, shard it if large, and route it in.

        Returns the top-level request (the parent of a sharded read), or
        None when admission rejected the read.
        """
        ctx = self.ctx
        cfg = ctx.config
        slo_class = ""
        deadline: Optional[float] = None
        if cfg.tenancy is not None:
            # Ingress admission: trace requests are processed in time order,
            # so charging the token bucket at ``request.time`` replays the
            # frontend's decisions deterministically.
            if self.admission is not None and not self.admission.admit(
                request.tenant, request.size_bytes, request.time
            ):
                if ctx.counters.admission_rejects is not None:
                    ctx.counters.admission_rejects.inc()
                if ctx.tracer is not None:
                    ctx.tracer.emit(
                        request.time,
                        "admission.reject",
                        tenant=request.tenant,
                        size_bytes=request.size_bytes,
                    )
                return None
            slo = cfg.tenancy.class_of(request.tenant)
            slo_class = slo.name
            deadline = request.time + slo.deadline_seconds
            if ctx.tracer is not None:
                ctx.tracer.emit(
                    request.time,
                    "admission.accept",
                    tenant=request.tenant,
                    size_bytes=request.size_bytes,
                )
        total_tracks = max(1, int(math.ceil(request.size_bytes / cfg.track_payload_bytes)))
        # Large files are sharded across platters to parallelize their reads
        # (Section 6); each shard is an independent sub-read.
        if total_tracks > cfg.shard_tracks_limit:
            parent = SimRequest(
                request_id=self._new_id(),
                arrival=request.time,
                platter_id=platter,
                size_bytes=request.size_bytes,
                num_tracks=total_tracks,
                measured=measured,
                tenant=request.tenant,
                slo_class=slo_class,
                deadline=deadline,
            )
            self.all_requests.append(parent)
            num_shards = -(-total_tracks // cfg.shard_tracks_limit)
            shard_platters = self._distinct_platters(num_shards)
            shards = []
            tracks_left = total_tracks
            for p in shard_platters:
                tracks = min(cfg.shard_tracks_limit, tracks_left)
                tracks_left -= tracks
                shards.append(
                    SimRequest(
                        request_id=self._new_id(),
                        arrival=request.time,
                        platter_id=p,
                        size_bytes=int(tracks * cfg.track_payload_bytes),
                        num_tracks=tracks,
                        track_start=self._random_track_start(tracks),
                        measured=False,
                        parent=parent,
                        tenant=request.tenant,
                        slo_class=slo_class,
                        deadline=deadline,
                    )
                )
                if tracks_left <= 0:
                    break
            parent.pending_subreads = len(shards)
            parent.children = shards
            for shard in shards:
                self.all_requests.append(shard)
                self.ingest(shard)
            return parent
        sim_request = SimRequest(
            request_id=self._new_id(),
            arrival=request.time,
            platter_id=platter,
            size_bytes=request.size_bytes,
            num_tracks=total_tracks,
            track_start=self._random_track_start(total_tracks),
            measured=measured,
            tenant=request.tenant,
            slo_class=slo_class,
            deadline=deadline,
        )
        self.all_requests.append(sim_request)
        self.ingest(sim_request)
        return sim_request

    def ingest(self, sim_request: SimRequest) -> None:
        """Route one (sub-)request: direct read, or cross-platter recovery.

        Availability is re-checked when the arrival event fires (see
        :meth:`_arrive`), so requests routed before a dynamic
        failure still recover correctly.
        """
        if sim_request.platter_id in self.unavailable:
            if not self.fan_out_recovery(sim_request):
                self.abandon_request(sim_request)
            return
        self._schedule_arrival(sim_request)

    # ------------------------------------------------------------------ #
    # Completion, loss, recovery
    # ------------------------------------------------------------------ #

    def abandon_request(self, sim_request: SimRequest) -> None:
        """No surviving recovery peer: the read is lost.

        Only reachable when an entire platter-set is simultaneously
        unavailable — far outside the blast-zone invariant — but the sim
        must stay sound (and terminating) even there, so the request
        completes immediately and is tallied as lost."""
        ctx = self.ctx
        ctx.counters.requests_lost.inc()
        if ctx.tracer is not None:
            ctx.tracer.emit(
                ctx.sim.now, "request.lost", request_id=sim_request.request_id
            )
        sim_request.mark_degraded()
        self.complete_request(sim_request)

    def complete_request(self, sim_request: SimRequest) -> None:
        """Completion bookkeeping shared by every completion site:
        propagate up the sub-read hierarchy, record the completion-time
        histogram for measured top-level requests, trace, and hand each
        finished top-level request to :attr:`on_complete`."""
        ctx = self.ctx
        now = ctx.sim.now
        finished = sim_request.complete(now)
        tr = ctx.tracer
        if tr is not None:
            tr.emit(now, "request.complete", request_id=sim_request.request_id)
            if finished is not None:
                tr.emit(now, "request.complete", request_id=finished.request_id)
        for node in (sim_request, finished):
            if node is None or node.parent is not None:
                continue
            if node.measured:
                ctx.counters.h_completion.observe(node.completion_time)
                if node.deadline is not None and now > node.deadline:
                    if ctx.counters.deadline_misses is not None:
                        ctx.counters.deadline_misses.inc()
                    if tr is not None:
                        tr.emit(
                            now,
                            "request.deadline_miss",
                            request_id=node.request_id,
                            tenant=node.tenant,
                            slo_class=node.slo_class,
                            late_seconds=now - node.deadline,
                        )
            if self.on_complete is not None:
                self.on_complete(node)

    def fan_out_recovery(self, sim_request: SimRequest) -> List[SimRequest]:
        """Cross-platter NC: read the matching tracks on I_p available
        platters of the set (Section 7.6's 16x read amplification). If
        dynamic failures left fewer than I_p peers available, recovery
        proceeds degraded with what remains (real deployments prevent this
        via blast-zone-aware placement; the simulator places uniformly).
        Returns the recovery sub-reads (empty when no peer survives)."""
        ctx = self.ctx
        cfg = ctx.config
        peers = [
            p
            for p in self.platter_set_of(sim_request.platter_id)
            if p != sim_request.platter_id and p not in self.unavailable
        ]
        recovery = peers[: cfg.platter_set_information]
        subs = sim_request.fan_out(recovery, [self._new_id() for _ in recovery])
        if subs:
            sim_request.mark_degraded()
            ctx.counters.fanout_user_bytes.inc(sim_request.size_bytes)
            if ctx.tracer is not None:
                ctx.tracer.emit(
                    ctx.sim.now,
                    "recovery.fanout",
                    request_id=sim_request.request_id,
                    peers=len(subs),
                    platter=sim_request.platter_id,
                )
        for sub in subs:
            self.all_requests.append(sub)
            self._schedule_arrival(sub)
        return subs

    # ------------------------------------------------------------------ #
    # Arrival + queueing
    # ------------------------------------------------------------------ #

    def _schedule_arrival(self, sim_request: SimRequest) -> None:
        """File one (sub-)request's arrival: in the intake while
        :meth:`assign_trace` runs, else as an engine event of its own.

        Re-ingested requests (failure re-routing) arrive "now"; their
        original arrival stamp is kept for completion-time accounting.
        The event's callback is a ``partial`` of a bound method, so an
        arrival leaves no reference cycle behind once it has fired.
        """
        sim = self.ctx.sim
        at = max(sim_request.arrival, sim.now)
        if self._streaming:
            intake = self._intake
            if intake and at < intake[-1][0]:
                self._intake_unsorted = True
            intake.append((at, sim.reserve_seq(), sim_request))
            return
        sim.schedule_at(at, partial(self._arrive, sim_request), label="arrival")

    def _arm_intake(self) -> None:
        """Give the intake's front an engine event unless it has one.

        Every armed entry stays in the intake until it fires and the
        front is always armed, so the engine always fires the front.
        """
        if self._intake:
            at, seq, _request = self._intake[0]
            if seq not in self._armed:
                self._armed.add(seq)
                self.ctx.sim.schedule_reserved(
                    at, seq, self._fire_intake_head, label="arrival"
                )

    def _fire_intake_head(self) -> None:
        """The intake front's event: arm the next front, then arrive."""
        _at, seq, sim_request = self._intake.popleft()
        self._armed.discard(seq)
        self._arm_intake()
        self._arrive(sim_request)

    def _arrive(self, sim_request: SimRequest) -> None:
        """A (sub-)request reaches the library: metadata lookup, then
        enqueue (or recovery fan-out when its platter failed meanwhile).

        Every arrival needs a metadata lookup; during an outage the
        request parks until the repair event fires, then re-arrives after
        its capped-exponential backoff (the client's next poll catches
        the failover). Event-driven: an outage that never repairs costs
        zero events instead of an unbounded retry storm.
        """
        ctx = self.ctx
        if not self.faults.metadata_available:
            ctx.counters.metadata_retries.inc()
            sim_request.metadata_attempts += 1
            sim_request.mark_degraded()
            self.faults.add_metadata_waiter(
                partial(self._retry_after_repair, sim_request)
            )
            if ctx.tracer is not None:
                ctx.tracer.emit(
                    ctx.sim.now,
                    "request.metadata_blocked",
                    request_id=sim_request.request_id,
                    attempts=sim_request.metadata_attempts,
                )
            return
        if ctx.tracer is not None:
            ctx.tracer.emit(
                ctx.sim.now,
                "request.arrival",
                request_id=sim_request.request_id,
                arrival=sim_request.arrival,
                platter=sim_request.platter_id,
                size_bytes=sim_request.size_bytes,
                recovery=sim_request.is_recovery,
            )
        # A failure may have struck between routing and arrival.
        if sim_request.platter_id in self.unavailable:
            if not self.fan_out_recovery(sim_request):
                self.abandon_request(sim_request)
        else:
            self._enqueue(sim_request)
        ctx.request_dispatch()

    def _retry_after_repair(self, sim_request: SimRequest) -> None:
        """Metadata repaired: re-arrive after the capped backoff."""
        cfg = self.ctx.config
        exponent = min(sim_request.metadata_attempts - 1, 32)
        delay = min(
            cfg.metadata_backoff_base_seconds * (2.0 ** exponent),
            cfg.metadata_backoff_cap_seconds,
        )
        self.ctx.counters.metadata_backoff.inc(delay)
        self.ctx.sim.schedule(
            delay, partial(self._arrive, sim_request), label="metadata-retry"
        )

    def _enqueue(self, sim_request: SimRequest) -> None:
        ctx = self.ctx
        improved = ctx.scheduler.enqueue(sim_request)
        if ctx.tracer is not None:
            ctx.tracer.emit(
                ctx.sim.now,
                "request.enqueue",
                request_id=sim_request.request_id,
                platter=sim_request.platter_id,
            )
        platter = sim_request.platter_id
        self.dispatch.note_enqueued(platter, sim_request.size_bytes)
        if improved:
            priority = ctx.scheduler.priority_for(platter)
            if priority is not None:
                self.dispatch.push_candidate(platter, priority)
