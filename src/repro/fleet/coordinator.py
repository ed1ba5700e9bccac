"""The fleet coordinator: route, detect failure, fail over, hedge.

Composes N independent :class:`repro.core.sim.SimKernel` member
libraries behind one read path. The coordinator owns everything a
single library cannot: the replica map (:mod:`repro.fleet.topology`),
member-failure detection (per-request timeout plus capped-backoff
retry, reusing the :class:`repro.service.frontend.RetryPolicy` shape),
read failover to the next replica, and optional *hedged reads* — after
a deadline-aware delay the request is cloned to a second replica and
the first success wins (tie-broken by a seeded hash, so runs are
deterministic).

Execution model: domain outages are pure data
(:class:`repro.faults.FleetFaultSchedule`), so the whole routing plan —
which member serves each request, at what delayed submit time, which
requests hedge where — is computed up front. Member kernels then run
*independently* (they share no state), serially or on a process pool
(``workers``), and the merge walks requests in a fixed order. The
result is byte-identical for any worker count, which the multiprocess
determinism test pins.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..core.metrics import CompletionStats, FleetMetrics, MetricsRegistry
from ..core.sim import SimConfig
from ..faults import FleetFaultSchedule
from ..service.frontend import RetryPolicy
from ..workload.traces import ReadRequest, ReadTrace
from .topology import FleetTopology
from .workers import MemberJob, MemberResult, run_member

#: Default member-failure detection/retry ladder: archival timescales
#: (the front end's 60 s deadline is far too tight for glass reads).
FLEET_RETRY = RetryPolicy(
    max_attempts=4,
    backoff_base_seconds=10.0,
    backoff_cap_seconds=120.0,
    deadline_seconds=4 * 3600.0,
)


@dataclass(frozen=True)
class FleetConfig:
    """Topology, routing, and member knobs of one fleet run."""

    num_libraries: int = 3
    replicas: int = 2
    isolation: str = "power"
    libraries_per_power_domain: int = 2
    num_regions: int = 1
    #: template for every member kernel (seed is re-derived per member).
    member: SimConfig = field(default_factory=SimConfig)
    #: seconds before an unresponsive member is declared down.
    detect_timeout_seconds: float = 30.0
    #: failure-detection retry ladder (RetryPolicy shape; its deadline
    #: bounds both the routing ladder and hedge issuance).
    retry: RetryPolicy = FLEET_RETRY
    hedge: bool = False
    #: delay before cloning a read to a second replica.
    hedge_delay_seconds: float = 600.0
    workers: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.detect_timeout_seconds <= 0:
            raise ValueError("detect_timeout_seconds must be positive")
        if self.hedge_delay_seconds <= 0:
            raise ValueError("hedge_delay_seconds must be positive")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.member.tenancy is not None:
            raise ValueError(
                "fleet members run without tenancy (admission would break "
                "the coordinator's request alignment); apply QoS above the "
                "fleet instead"
            )

    def build_topology(self) -> FleetTopology:
        """The fleet layout this config describes."""
        return FleetTopology.build(
            num_libraries=self.num_libraries,
            replicas=self.replicas,
            libraries_per_power_domain=self.libraries_per_power_domain,
            num_regions=self.num_regions,
            isolation=self.isolation,
        )

    def member_config(self, member: int) -> SimConfig:
        """The member's kernel config: template + a derived unique seed."""
        return replace(self.member, seed=self.seed * 1000 + member)


@dataclass
class _Routed:
    """One fleet request's routing decision (internal plan row)."""

    index: int
    request: ReadRequest
    placement: Tuple[int, ...]
    served_member: Optional[int] = None
    submit_time: float = 0.0
    penalty_seconds: float = 0.0
    failed_over: bool = False
    lost: bool = False
    hedge_member: Optional[int] = None
    hedge_time: float = 0.0


@dataclass
class MemberSummary:
    """Per-member row of the fleet report."""

    site: str
    requests: int
    completed: int
    simulated_seconds: float

    def as_dict(self) -> Dict[str, Any]:
        """Stable-keyed snapshot."""
        return {
            "completed": self.completed,
            "requests": self.requests,
            "simulated_seconds": self.simulated_seconds,
            "site": self.site,
        }


@dataclass
class FleetReport:
    """Everything one fleet run produces."""

    fleet: FleetMetrics
    completions: CompletionStats
    members: List[MemberSummary]

    def as_dict(self) -> Dict[str, Any]:
        """Stable-keyed snapshot of the whole report."""
        return {
            "completions": self.completions.as_dict(),
            "fleet": self.fleet.as_dict(),
            "members": [m.as_dict() for m in self.members],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=indent)

    def summary(self) -> str:
        """One-line operator view of the run."""
        return (
            f"{self.fleet.summary()} "
            f"tail={self.completions.tail_hours:.2f}h"
        )


class FleetCoordinator:
    """Routes reads across member libraries and survives domain outages."""

    def __init__(self, config: Optional[FleetConfig] = None, tracer=None):
        self.config = config or FleetConfig()
        self.topology = self.config.build_topology()
        self.tracer = tracer if (tracer is not None and tracer.enabled) else None
        self.metrics = MetricsRegistry(prefix="fleet_")
        self.schedule: Optional[FleetFaultSchedule] = None
        self._trace: Optional[ReadTrace] = None
        self._measure = (0.0, math.inf)

    def trace_id(self, index: int) -> str:
        """Deterministic span id of one fleet request (seed + index).

        Stamped on every per-request ``fleet.*`` event so a request's
        routing, failover ladder, hedge, and completion join into one
        span regardless of which member library served it.
        """
        return f"fleet-{self.config.seed}-{index}"

    # ------------------------------------------------------------------ #
    # Inputs
    # ------------------------------------------------------------------ #

    def assign_trace(
        self, trace: ReadTrace, measure_start: float, measure_end: float
    ) -> None:
        """The fleet-wide read trace plus its measurement window."""
        self._trace = trace
        self._measure = (measure_start, measure_end)

    def apply_fault_schedule(self, schedule: FleetFaultSchedule) -> None:
        """Domain outages the routing plan must survive (pure data)."""
        self.schedule = schedule

    # ------------------------------------------------------------------ #
    # Phase 1: routing plan
    # ------------------------------------------------------------------ #

    def _down(self, member: int, t: float) -> bool:
        if self.schedule is None:
            return False
        return self.schedule.down(self.topology.domains_of(member), t)

    def _plan(self) -> List[_Routed]:
        assert self._trace is not None
        cfg = self.config
        plan: List[_Routed] = []
        if self.tracer is not None and self.schedule is not None:
            for outage in self.schedule:
                self.tracer.emit(
                    outage.start,
                    "fleet.domain_outage",
                    component=outage.domain,
                    duration_s=(-1.0 if not outage.repairs else outage.duration),
                    fault_kind=outage.kind.value,
                    correlated=outage.correlated,
                )
        for index, request in enumerate(self._trace):
            routed = _Routed(
                index=index,
                request=request,
                placement=self.topology.placement_for(index),
            )
            deadline = request.time + cfg.retry.deadline_seconds
            t = request.time
            for attempt in range(cfg.retry.max_attempts):
                member = routed.placement[attempt % len(routed.placement)]
                if not self._down(member, t):
                    routed.served_member = member
                    routed.submit_time = t
                    routed.penalty_seconds = t - request.time
                    routed.failed_over = attempt > 0
                    break
                # Declaring the member down costs the detection timeout,
                # then the capped backoff before the next replica is tried.
                retry_at = (
                    t
                    + cfg.detect_timeout_seconds
                    + cfg.retry.backoff(attempt + 1)
                )
                if self.tracer is not None:
                    self.tracer.emit(
                        t,
                        "fleet.failover",
                        request_id=index,
                        component=self.topology.sites[member].name,
                        trace_id=self.trace_id(index),
                        attempt=attempt + 1,
                        retry_at=retry_at,
                    )
                t = retry_at
                if t > deadline:
                    break
            else:
                routed.lost = True
            if routed.served_member is None:
                routed.lost = True
            if (
                not routed.lost
                and cfg.hedge
                and len(routed.placement) > 1
            ):
                hedge_time = routed.submit_time + cfg.hedge_delay_seconds
                # Deadline-aware: a clone that cannot start before the
                # request's deadline cannot help — skip it.
                if hedge_time < deadline:
                    for member in routed.placement:
                        if member == routed.served_member:
                            continue
                        if not self._down(member, hedge_time):
                            routed.hedge_member = member
                            routed.hedge_time = hedge_time
                            break
            if self.tracer is not None:
                attrs: Dict[str, Any] = {
                    "trace_id": self.trace_id(index),
                    "submit_s": routed.submit_time,
                    "penalty_s": routed.penalty_seconds,
                    "failed_over": routed.failed_over,
                    "lost": routed.lost,
                }
                component = None
                if routed.served_member is not None:
                    attrs["member"] = routed.served_member
                    component = self.topology.sites[routed.served_member].name
                if routed.hedge_member is not None:
                    attrs["hedge_member"] = routed.hedge_member
                    attrs["hedge_s"] = routed.hedge_time
                self.tracer.emit(
                    request.time,
                    "fleet.route",
                    request_id=index,
                    component=component,
                    **attrs,
                )
            plan.append(routed)
        return plan

    # ------------------------------------------------------------------ #
    # Phase 2: independent member runs
    # ------------------------------------------------------------------ #

    def _member_jobs(self, plan: List[_Routed]) -> List[MemberJob]:
        rows: Dict[int, List[Tuple[float, str, int]]] = {
            site.index: [] for site in self.topology.sites
        }
        for routed in plan:
            if routed.served_member is not None:
                rows[routed.served_member].append(
                    (routed.submit_time, f"{routed.index}:p",
                     routed.request.size_bytes)
                )
            if routed.hedge_member is not None:
                rows[routed.hedge_member].append(
                    (routed.hedge_time, f"{routed.index}:h",
                     routed.request.size_bytes)
                )
        # Sorted by (time, tag): ReadTrace re-sorts by time with a stable
        # sort, so the member's top-level request order matches the job's
        # row order exactly — the alignment run_member relies on.
        return [
            MemberJob(
                site_index=site.index,
                config=self.config.member_config(site.index),
                requests=tuple(sorted(rows[site.index])),
            )
            for site in self.topology.sites
        ]

    def _run_members(
        self, jobs: List[MemberJob], workers: int
    ) -> Dict[int, MemberResult]:
        if workers <= 1 or len(jobs) <= 1:
            results = [run_member(job) for job in jobs]
        else:
            with ProcessPoolExecutor(
                max_workers=min(workers, len(jobs))
            ) as pool:
                results = list(pool.map(run_member, jobs))
        return {result.site_index: result for result in results}

    # ------------------------------------------------------------------ #
    # Phase 3: deterministic merge
    # ------------------------------------------------------------------ #

    def _hedge_tie_break(self, index: int) -> bool:
        """True when, on an exact tie, the hedge clone wins (seeded)."""
        digest = hashlib.sha256(
            f"{self.config.seed}:{index}".encode()
        ).digest()
        return bool(digest[0] & 1)

    def _merge(
        self,
        plan: List[_Routed],
        jobs: List[MemberJob],
        results: Dict[int, MemberResult],
    ) -> FleetReport:
        start, end = self._measure
        by_tag: Dict[int, Dict[str, Optional[float]]] = {}
        for job in jobs:
            tags = [tag for _, tag, _ in job.requests]
            by_tag[job.site_index] = dict(
                zip(tags, results[job.site_index].completions)
            )
        fleet = FleetMetrics(
            libraries=self.topology.num_libraries,
            replicas=self.topology.replicas,
            domain_outages=len(self.schedule) if self.schedule else 0,
        )
        latencies: List[float] = []
        for routed in plan:
            measured = start <= routed.request.time < end
            primary = None
            if routed.served_member is not None:
                primary = by_tag[routed.served_member].get(
                    f"{routed.index}:p"
                )
            hedge = None
            if routed.hedge_member is not None:
                hedge = by_tag[routed.hedge_member].get(f"{routed.index}:h")
            # A hedge is only *issued* if the primary is still outstanding
            # when the delay elapses — otherwise the coordinator would
            # have canceled the clone. (The plan submits clones
            # pessimistically, so a discarded clone's load still queued on
            # the replica: the simulated hedging tax is conservative.)
            hedge_issued = hedge is not None and (
                primary is None or primary > routed.hedge_time
            )
            hedge_won = hedge_issued and (
                primary is None
                or hedge < primary
                or (hedge == primary and self._hedge_tie_break(routed.index))
            )
            completion = hedge if hedge_won else primary
            serving = (
                routed.hedge_member if hedge_won else routed.served_member
            )
            if self.tracer is not None and hedge_issued:
                self.tracer.emit(
                    routed.hedge_time,
                    "fleet.hedge",
                    request_id=routed.index,
                    component=self.topology.sites[routed.hedge_member].name,
                    trace_id=self.trace_id(routed.index),
                    delay_s=self.config.hedge_delay_seconds,
                    won=hedge_won,
                )
            if (
                self.tracer is not None
                and completion is not None
                and serving is not None
            ):
                self.tracer.emit(
                    completion,
                    "fleet.complete",
                    request_id=routed.index,
                    component=self.topology.sites[serving].name,
                    trace_id=self.trace_id(routed.index),
                    served_by=serving,
                    hedge_won=hedge_won,
                    latency_s=completion - routed.request.time,
                )
            if not measured:
                continue
            fleet.requests_submitted += 1
            if routed.lost:
                fleet.replication_lost += 1
                continue
            if routed.failed_over:
                fleet.failovers += 1
                fleet.failover_seconds += routed.penalty_seconds
            if hedge_issued:
                fleet.hedges_issued += 1
                if hedge_won:
                    fleet.hedge_wins += 1
            if completion is None:
                continue
            fleet.requests_served += 1
            if serving != routed.placement[0]:
                fleet.served_degraded += 1
            latencies.append(completion - routed.request.time)
        fleet.publish(self.metrics)
        members = [
            MemberSummary(
                site=site.name,
                requests=len(jobs[site.index].requests),
                completed=results[site.index].requests_completed,
                simulated_seconds=results[site.index].simulated_seconds,
            )
            for site in self.topology.sites
        ]
        return FleetReport(
            fleet=fleet,
            completions=CompletionStats.from_times(latencies),
            members=members,
        )

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #

    def run(self, workers: Optional[int] = None) -> FleetReport:
        """Plan routing, run members (serially or pooled), merge."""
        if self._trace is None:
            raise RuntimeError("assign_trace() before run()")
        plan = self._plan()
        jobs = self._member_jobs(plan)
        results = self._run_members(
            jobs, self.config.workers if workers is None else workers
        )
        return self._merge(plan, jobs, results)
