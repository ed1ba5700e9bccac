"""The composed simulation kernel: subsystems wired over one context.

:class:`SimKernel` builds the context and the five subsystems in a fixed
order (the order is load-bearing: it preserves the RNG draw sequence of
the original monolithic simulator, keeping matched-seed runs byte-exact),
wires their cross-references, and owns the run/report surface. It is
the one entry point for building and running a library: callers reach
state through the subsystems (``kernel.lifecycle``, ``kernel.faults``,
``kernel.robotics``, ...) and the shared context (``kernel.ctx.sim``,
``kernel.ctx.metrics``, ``kernel.ctx.counters``).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterator, Optional

from ..metrics import (
    CompletionStats,
    DriveUtilization,
    QoSMetrics,
    ResilienceMetrics,
    ShuttleMetrics,
    SimulationReport,
)
from ..requests import SimRequest
from ..scheduler import RequestScheduler
from .config import SimConfig
from .context import SimContext
from .dispatch import DISPATCH_EVENT_LABELS, DispatchSubsystem
from .faults import FAULT_EVENT_LABELS, FaultSubsystem
from .hooks import TracerLike
from .lifecycle import LIFECYCLE_EVENT_LABELS, RequestLifecycle
from .robotics import (
    MOTION_EVENT_LABELS,
    ROBOTICS_EVENT_LABELS,
    RoboticsSubsystem,
)
from .verification import VERIFICATION_EVENT_LABELS, VerificationSubsystem

#: Subsystem -> event labels it schedules, aggregated from the constants
#: each subsystem module keeps beside its ``schedule`` calls. This is the
#: kernel's authoritative map for wall-clock subsystem attribution
#: (:class:`repro.observability.profiler.PhaseProfiler`); unlabeled
#: callbacks fall to the profiler's "engine" bucket and any other label
#: (e.g. bench ticks) to "other".
SUBSYSTEM_LABELS: Dict[str, FrozenSet[str]] = {
    "dispatch": DISPATCH_EVENT_LABELS,
    "motion": MOTION_EVENT_LABELS,
    "robotics": ROBOTICS_EVENT_LABELS,
    "lifecycle": LIFECYCLE_EVENT_LABELS,
    "faults": FAULT_EVENT_LABELS,
    "verification": VERIFICATION_EVENT_LABELS,
}


class SimKernel:
    """One composed library-simulation instance."""

    def __init__(
        self,
        config: Optional[SimConfig] = None,
        tracer: Optional[TracerLike] = None,
    ):
        self.config = config or SimConfig()
        cfg = self.config
        self.ctx = SimContext(cfg, tracer)
        # Composition order preserves the monolith's RNG draw sequence:
        # traffic-policy construction and platter placement (robotics)
        # first, then the unavailable-platter sample (lifecycle). Tenancy
        # resolution and index construction draw nothing.
        self.robotics = RoboticsSubsystem(self.ctx)
        admission = None
        if cfg.tenancy is not None:
            # The tenancy layer enters through the TenancyLike seam: the
            # registry manufactures its own admission controller and fetch
            # policy, so the kernel never imports repro.tenancy.
            admission = cfg.tenancy.admission_controller()
            fetch_policy = cfg.tenancy.fetch_policy_for(cfg.fetch_policy)
            self.ctx.scheduler = RequestScheduler(
                amortize_batch=cfg.amortize_batch, policy=fetch_policy
            )
        self.lifecycle = RequestLifecycle(self.ctx, self.robotics, admission)
        self.dispatch = DispatchSubsystem(self.ctx, self.robotics, self.lifecycle)
        self.verification = VerificationSubsystem(self.ctx, len(self.robotics.drives))
        self.faults = FaultSubsystem(
            self.ctx, self.robotics, self.lifecycle, self.dispatch, self.verification
        )
        self.robotics.wire(self.dispatch, self.lifecycle, self.verification)
        self.lifecycle.wire(self.dispatch, self.faults)
        self.dispatch.wire(self.faults)
        self.ctx.request_dispatch = self.dispatch.request_dispatch

    # ------------------------------------------------------------------ #
    # Run + report
    # ------------------------------------------------------------------ #

    def run(
        self, until: Optional[float] = None, max_events: int = 50_000_000
    ) -> SimulationReport:
        """Run the event loop to quiescence (or ``until``) and report."""
        self.ctx.sim.run(until=until, max_events=max_events)
        return self.report()

    # ------------------------------------------------------------------ #
    # Sim-time state sampling (the monitor hook)
    # ------------------------------------------------------------------ #

    def sample_state(self) -> Dict[str, float]:
        """Read-only gauge snapshot of live kernel state, for samplers.

        Every value is computed by *reading* subsystem state: no RNG is
        drawn and no events are scheduled. The one write is that
        ``partition_drive`` may fill its route memo, which is a pure
        function of the routing tables (``drive_override``, the partition
        map and each drive's ``failed`` flag), so a filled entry answers
        exactly what the next dispatch pass would compute itself. That
        purity is what lets a monitor-on run keep its simulated metrics
        byte-identical to the monitor-off run.
        """
        robotics = self.robotics
        scheduler = self.ctx.scheduler
        dispatch = self.dispatch
        free = 0
        for pid in dispatch.partition_cover:
            drive = dispatch.partition_drive(pid)
            if drive is not None and drive.customer_slot_free:
                free += 1
        in_flight = 0
        pressured = 0
        now = self.ctx.sim.now
        for request in self.lifecycle.all_requests:
            if request.parent is not None or request.done:
                continue
            in_flight += 1
            if request.deadline is not None and now > request.deadline:
                pressured += 1
        return {
            "pending_requests": float(scheduler.pending_requests),
            "pending_platters": float(scheduler.pending_platters),
            "busy_shuttles": float(
                sum(1 for s in robotics.shuttles if s.sampled_busy)
            ),
            "busy_drives": float(
                sum(1 for d in robotics.drives if d.sampled_busy)
            ),
            "free_partitions": float(free),
            "in_flight_requests": float(in_flight),
            "deadline_pressured": float(pressured),
            "active_faults": float(len(self.faults.active_fault_started)),
            "metadata_down": 0.0 if self.faults.metadata_available else 1.0,
        }

    def attach_sampler(
        self,
        interval_seconds: float,
        callback: Callable[[float], Optional[float]],
    ) -> None:
        """Fire ``callback(now)`` every ``interval_seconds`` of sim time.

        The callback returns the next interval (letting a downsampling
        monitor stretch its cadence) or ``None`` to stop. Delegates to
        the engine's :meth:`repro.core.events.Simulation.set_sampler`
        hook: samples are interleaved by the run loop, not queued as
        events, so they never extend a run, reorder events, or perturb
        ``events_processed``. The callback must be read-only against
        kernel state (see :meth:`sample_state`) to preserve
        byte-identical metrics.
        """
        self.ctx.sim.set_sampler(interval_seconds, callback)

    def measured_completed(self) -> Iterator[SimRequest]:
        """Measured, completed top-level requests (the report population).

        The single definition of "a request that counts": shared by the
        report, the end-to-end composition and the deployment aggregator so
        the filter can't drift between them. Lazy so report-time memory
        stays flat on multi-hundred-thousand-request runs.
        """
        return (
            r
            for r in self.lifecycle.all_requests
            if r.measured and r.done and r.parent is None
        )

    def report(self) -> SimulationReport:
        """Snapshot the run into a :class:`SimulationReport`."""
        ctx = self.ctx
        robotics = self.robotics
        self.verification.update_fluid()
        total = ctx.sim.now
        per_drive = []
        agg = DriveUtilization()
        bytes_verified = 0.0
        for drive in robotics.drives:
            verify = max(0.0, total - drive.read_seconds - drive.switch_seconds)
            util = DriveUtilization(
                read_seconds=drive.read_seconds,
                verify_seconds=verify,
                switch_seconds=drive.switch_seconds,
                total_seconds=total,
            )
            per_drive.append(util)
            agg = agg + util
            bytes_verified += verify * drive.model.config.throughput_mbps * 1e6
        congestion_total = sum(
            s.shuttle.stats.congestion_seconds for s in robotics.shuttles
        )
        travel_total = sum(s.shuttle.stats.travel_seconds for s in robotics.shuttles)
        unobstructed = travel_total - congestion_total
        energy = sum(s.shuttle.stats.energy_joules for s in robotics.shuttles)
        platter_ops = sum(
            s.shuttle.stats.platter_operations for s in robotics.shuttles
        )
        shuttle_metrics = ShuttleMetrics(
            congestion_overhead=congestion_total / unobstructed
            if unobstructed > 0
            else 0.0,
            energy_per_platter_op=energy / platter_ops if platter_ops else 0.0,
            travel_times=robotics.travel_times,
            total_conflicts=robotics.policy.total_conflicts if robotics.policy else 0,
            steals=getattr(robotics.policy, "steals", 0),
        )
        all_requests = self.lifecycle.all_requests
        measured = [r.completion_time for r in self.measured_completed()]
        completed_all = sum(1 for r in all_requests if r.done and r.parent is None)
        submitted_all = sum(1 for r in all_requests if r.parent is None)
        resilience = self._resilience_metrics(total)
        completions = CompletionStats.from_times(measured)
        # Snapshot headline figures as gauges so a metrics export alone
        # (without report.json) is self-describing.
        m = ctx.metrics
        m.gauge("simulated_seconds", "Simulated wall time", unit="seconds").set(total)
        m.gauge("requests_submitted", "Top-level requests submitted").set(submitted_all)
        m.gauge("requests_completed", "Top-level requests completed").set(completed_all)
        m.gauge("availability", "Component availability over the run").set(
            resilience.availability
        )
        m.gauge(
            "tail_seconds", "Measured completion-time p99.9", unit="seconds"
        ).set(completions.tail)
        m.gauge("drive_utilization_read", "Aggregate drive read-time fraction").set(
            agg.read_fraction
        )
        m.gauge(
            "verify_backlog_bytes", "Verification backlog at end of run", unit="bytes"
        ).set(self.verification.backlog_bytes)
        m.gauge("congestion_overhead", "Shuttle congestion / unobstructed travel").set(
            shuttle_metrics.congestion_overhead
        )
        m.gauge(
            "energy_per_platter_op", "Shuttle energy per platter operation", unit="joules"
        ).set(shuttle_metrics.energy_per_platter_op)
        # Engine counters: deterministic under a pinned seed (pure functions
        # of the schedule/cancel sequence).
        engine = ctx.sim.scheduler_stats
        m.gauge("engine_pushes", "Events pushed onto the event heap").set(
            engine["pushes"]
        )
        m.gauge("engine_pops", "Live events dequeued and fired").set(engine["pops"])
        m.gauge(
            "engine_cancelled_skips", "Cancelled entries discarded at dequeue"
        ).set(engine["cancelled_skips"])
        qos = None
        if self.config.tenancy is not None:
            admission = self.lifecycle.admission
            qos = QoSMetrics.from_requests(
                all_requests,
                self.config.tenancy,
                admission.stats_dict() if admission else None,
            )
            m.gauge("qos_jain_fairness", "Jain index over per-tenant mean slowdown").set(
                qos.jain_fairness
            )
            m.gauge("qos_deadline_misses", "Measured completions past deadline").set(
                qos.deadline_misses
            )
            m.gauge("qos_admission_rejections", "Reads rejected by ingress quotas").set(
                qos.admission_rejections
            )
        return SimulationReport(
            qos=qos,
            resilience=resilience,
            completions=completions,
            drive_utilization=agg,
            per_drive_utilization=per_drive,
            shuttles=shuttle_metrics,
            requests_submitted=submitted_all,
            requests_completed=completed_all,
            bytes_read=ctx.counters.bytes_read.value,
            bytes_verified=bytes_verified,
            seek_seconds=sum(d.seek_seconds for d in robotics.drives),
            simulated_seconds=total,
        )

    def _resilience_metrics(self, total_seconds: float) -> ResilienceMetrics:
        """Fault-lifecycle accounting over the whole run."""
        counters = self.ctx.counters
        faults = self.faults
        # Downtime of closed (repaired) faults plus the open tail of every
        # fault still active at the end of the run.
        downtime = counters.downtime.value
        for started in faults.active_fault_started.values():
            downtime += max(0.0, total_seconds - started)
        num_components = (
            len(self.robotics.shuttles) + len(self.robotics.drives) + 1
        )  # + metadata
        budget = num_components * total_seconds
        availability = 1.0 - downtime / budget if budget > 0 else 1.0
        mttr = (
            sum(faults.repair_durations) / len(faults.repair_durations)
            if faults.repair_durations
            else 0.0
        )
        degraded = [
            r
            for r in self.lifecycle.all_requests
            if r.parent is None and r.degraded
        ]
        degraded_times = [
            r.completion_time for r in degraded if r.measured and r.done
        ]
        fanout_user_bytes = counters.fanout_user_bytes.value
        amplification = (
            counters.recovery_bytes.value / fanout_user_bytes
            if fanout_user_bytes > 0
            else 0.0
        )
        return ResilienceMetrics(
            faults_injected=int(counters.faults_injected.value),
            faults_repaired=int(counters.faults_repaired.value),
            availability=max(0.0, availability),
            mean_time_to_repair=mttr,
            downtime_component_seconds=downtime,
            reread_retries=int(counters.reread.value),
            deep_decodes=int(counters.deep_decode.value),
            recovery_escalations=int(counters.escalations.value),
            recovery_bytes_read=counters.recovery_bytes.value,
            recovery_read_amplification=amplification,
            metadata_retries=int(counters.metadata_retries.value),
            requests_lost=int(counters.requests_lost.value),
            degraded_requests=len(degraded),
            degraded_completions=CompletionStats.from_times(degraded_times),
        )
