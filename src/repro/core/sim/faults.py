"""Fault subsystem: failure injection, repair clocks, return-to-service.

Owns the fault lifecycle of the §4/§6 chaos harness — scheduling shuttle /
drive / metadata failures, deferring faults that strike a busy component to
the next operation boundary (fired from the dispatch hook, no polling),
running repair clocks, accounting downtime, and recomputing the
controller's partition-cover and drive-routing tables after every topology
change. Fault *schedules* are produced by the outer :mod:`repro.faults`
layer and enter through the :class:`~repro.core.sim.hooks.
FaultScheduleLike` seam; the kernel only reads each event's component kind
string.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..traffic import PartitionedPolicy
from .context import SimContext
from .dispatch import DispatchSubsystem
from .hooks import FaultScheduleLike
from .lifecycle import RequestLifecycle
from .robotics import RoboticsSubsystem, ShuttleSim
from .verification import VerificationSubsystem


class FaultSubsystem:
    """Failure injection and repair for shuttles, drives and metadata."""

    def __init__(
        self,
        ctx: SimContext,
        robotics: RoboticsSubsystem,
        lifecycle: RequestLifecycle,
        dispatch: DispatchSubsystem,
        verification: VerificationSubsystem,
    ):
        self.ctx = ctx
        self.robotics = robotics
        self.lifecycle = lifecycle
        self.dispatch = dispatch
        self.verification = verification
        # Fault lifecycle (repair clocks, §4/§6 chaos harness): faults that
        # struck a busy component wait here and fire from the dispatch hook
        # at the next operation boundary — no polling.
        self.pending_faults: List[Tuple[str, int, Optional[float]]] = []
        self._metadata_waiters: List[Callable[[], None]] = []
        self.active_fault_started: Dict[Tuple[str, int], float] = {}
        self.fault_platters: Dict[Tuple[str, int], Set[str]] = {}
        self.repair_durations: List[float] = []
        # Metadata service availability (arrivals need a metadata lookup).
        self._metadata_available = True

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def schedule_shuttle_failure(
        self, time: float, shuttle_id: int, repair_after: Optional[float] = None
    ) -> None:
        """Fail a shuttle at (or shortly after) ``time``.

        Fail-stop at an operation boundary: if the shuttle is mid-trip, the
        failure is parked in the pending-fault set and fires from the
        dispatch hook when the shuttle next goes idle (event-driven — no
        polling), keeping every in-flight platter protocol consistent.
        Consequences:

        * the shelf the shuttle died on becomes a blast zone — its platters
          turn unavailable and their queued reads re-route through
          cross-platter recovery;
        * the controller reassigns the shuttle's partitions to the nearest
          alive shuttle (detection is reliable, Section 6).

        ``repair_after`` starts a repair clock: the shuttle returns to
        service that many seconds after the failure actually fires
        (transient fault); None means fail-stop forever (permanent).
        """
        ctx = self.ctx
        if not 0 <= shuttle_id < len(self.robotics.shuttles):
            raise IndexError(f"no shuttle {shuttle_id}")

        def fire() -> None:
            shuttle_sim = self.robotics.shuttles[shuttle_id]
            if shuttle_sim.shuttle.failed:
                return  # overlapping fault; the active one wins
            if shuttle_sim.busy:
                self.pending_faults.append(("shuttle", shuttle_id, repair_after))
                if ctx.tracer is not None:
                    ctx.tracer.emit(
                        ctx.sim.now,
                        "fault.deferred",
                        component=f"shuttle:{shuttle_id}",
                    )
                return
            self._fail_shuttle(shuttle_id, repair_after=repair_after)

        ctx.sim.schedule_at(time, fire, label="shuttle-failure")

    def schedule_drive_failure(
        self, time: float, drive_id: int, repair_after: Optional[float] = None
    ) -> None:
        """Fail a read drive at (or shortly after) ``time``.

        Same operation-boundary and repair-clock semantics as
        :meth:`schedule_shuttle_failure`.
        """
        ctx = self.ctx
        if not 0 <= drive_id < len(self.robotics.drives):
            raise IndexError(f"no drive {drive_id}")

        def fire() -> None:
            drive = self.robotics.drives[drive_id]
            if drive.failed:
                return
            if drive.occupied:
                self.pending_faults.append(("drive", drive_id, repair_after))
                if ctx.tracer is not None:
                    ctx.tracer.emit(
                        ctx.sim.now,
                        "fault.deferred",
                        component=f"drive:{drive_id}",
                    )
                return
            self._fail_drive(drive_id, repair_after=repair_after)

        ctx.sim.schedule_at(time, fire, label="drive-failure")

    def schedule_metadata_outage(
        self, time: float, duration: Optional[float] = None
    ) -> None:
        """Take the metadata service down at ``time``.

        Arrivals during the outage back off (capped exponential) until the
        service repairs ``duration`` seconds later; None means the outage
        lasts to the end of the run.
        """
        ctx = self.ctx

        def repair() -> None:
            if self._metadata_available:
                return
            self._metadata_available = True
            self._close_fault(("metadata", 0))
            waiters, self._metadata_waiters = self._metadata_waiters, []
            for retry in waiters:
                retry()
            ctx.request_dispatch()

        def fire() -> None:
            if not self._metadata_available:
                return  # overlapping outage; the active one wins
            self._metadata_available = False
            ctx.counters.faults_injected.inc()
            self.active_fault_started[("metadata", 0)] = ctx.sim.now
            if ctx.tracer is not None:
                ctx.tracer.emit(
                    ctx.sim.now,
                    "metadata.outage",
                    component="metadata",
                    duration=duration if duration is not None else -1.0,
                )
            if duration is not None:
                ctx.sim.schedule(duration, repair, label="metadata-repair")

        ctx.sim.schedule_at(time, fire, label="metadata-outage")

    @property
    def metadata_available(self) -> bool:
        """Whether the metadata service is currently up."""
        return self._metadata_available

    def add_metadata_waiter(self, retry: Callable[[], None]) -> None:
        """Park an arrival's retry until the metadata outage repairs."""
        self._metadata_waiters.append(retry)

    def apply_fault_schedule(self, schedule: FaultScheduleLike) -> None:
        """Arm every event of a fault schedule (``FaultScheduleLike``).

        Transient events carry their repair clock; permanent events never
        return. Call before running the simulation. Events are matched on
        their component kind string (``"shuttle"`` / ``"read_drive"`` /
        ``"metadata"``) so the kernel stays independent of the
        :mod:`repro.faults` enum type.
        """
        for event in schedule:
            repair_after = event.duration if event.repairs else None
            kind = getattr(event.component, "value", event.component)
            if kind == "shuttle":
                self.schedule_shuttle_failure(
                    event.start, event.target, repair_after=repair_after
                )
            elif kind == "read_drive":
                self.schedule_drive_failure(
                    event.start, event.target, repair_after=repair_after
                )
            else:
                self.schedule_metadata_outage(event.start, repair_after)

    # ------------------------------------------------------------------ #
    # Firing and repairing
    # ------------------------------------------------------------------ #

    def fire_pending_faults(self) -> None:
        """Fire deferred faults whose component reached an idle boundary."""
        if not self.pending_faults:
            return
        still_waiting: List[Tuple[str, int, Optional[float]]] = []
        for kind, target, repair_after in self.pending_faults:
            if kind == "shuttle":
                shuttle_sim = self.robotics.shuttles[target]
                if shuttle_sim.shuttle.failed:
                    continue  # a duplicate fault; the first one won
                if shuttle_sim.busy:
                    still_waiting.append((kind, target, repair_after))
                else:
                    self._fail_shuttle(target, repair_after=repair_after)
            else:
                drive = self.robotics.drives[target]
                if drive.failed:
                    continue
                if drive.occupied:
                    still_waiting.append((kind, target, repair_after))
                else:
                    self._fail_drive(target, repair_after=repair_after)
        self.pending_faults = still_waiting

    def _fail_shuttle(self, shuttle_id: int, repair_after: Optional[float] = None) -> None:
        ctx = self.ctx
        robotics = self.robotics
        shuttle_sim = robotics.shuttles[shuttle_id]
        shuttle = shuttle_sim.shuttle
        shuttle.fail()
        ctx.counters.faults_injected.inc()
        key = ("shuttle", shuttle_id)
        self.active_fault_started[key] = ctx.sim.now
        if ctx.tracer is not None:
            ctx.tracer.emit(
                ctx.sim.now,
                "fault.fire",
                component=f"shuttle:{shuttle_id}",
                permanent=repair_after is None,
            )
        # Blast zone: one shelf of one rack at the death position.
        width = robotics.layout.config.rack_width_m
        rack = int(shuttle.position.x // width)
        level = shuttle.position.level
        blocked = set()
        for platter, slot in list(robotics.home_slot.items()):
            if slot.rack == rack and slot.level == level:
                if robotics.layout.locate(platter) is not None:
                    if self.make_platter_unavailable(platter):
                        blocked.add(platter)
        self.fault_platters[key] = blocked
        # Controller reassigns coverage of this shuttle's partitions.
        self._recompute_partition_cover()
        if repair_after is not None:
            ctx.sim.schedule(
                repair_after,
                lambda: self._repair_shuttle(shuttle_id),
                label="shuttle-repair",
            )
        ctx.request_dispatch()

    def _repair_shuttle(self, shuttle_id: int) -> None:
        """Repair clock expired: the shuttle returns to service.

        Its blast zone clears (unless another active failure still covers a
        platter) and the controller hands its partitions back."""
        shuttle_sim = self.robotics.shuttles[shuttle_id]
        shuttle = shuttle_sim.shuttle
        if not shuttle.failed:
            return
        key = ("shuttle", shuttle_id)
        shuttle.repair()
        # Repair swaps the battery, so any idle-recharge memo is stale.
        shuttle_sim.no_recharge_memo = False
        self._close_fault(key)
        blocked = self.fault_platters.pop(key, set())
        still_blocked: Set[str] = set()
        for platters in self.fault_platters.values():
            still_blocked |= platters
        for platter in blocked - still_blocked:
            self.lifecycle.unavailable.discard(platter)
        self._recompute_partition_cover()
        self.ctx.request_dispatch()

    def _fail_drive(self, drive_id: int, repair_after: Optional[float] = None) -> None:
        ctx = self.ctx
        drive = self.robotics.drives[drive_id]
        drive.failed = True
        ctx.counters.faults_injected.inc()
        self.active_fault_started[("drive", drive_id)] = ctx.sim.now
        if ctx.tracer is not None:
            ctx.tracer.emit(
                ctx.sim.now,
                "fault.fire",
                component=f"drive:{drive_id}",
                permanent=repair_after is None,
            )
        self.verification.drive_stops_verifying()  # failure gate ensures it was idle
        self._recompute_drive_routing()
        if repair_after is not None:
            ctx.sim.schedule(
                repair_after,
                lambda: self._repair_drive(drive_id),
                label="drive-repair",
            )
        ctx.request_dispatch()

    def _repair_drive(self, drive_id: int) -> None:
        """Repair clock expired: the drive rejoins the fleet (and the
        verification pool) and partitions route back to it."""
        drive = self.robotics.drives[drive_id]
        if not drive.failed:
            return
        drive.failed = False
        self._close_fault(("drive", drive_id))
        self.verification.drive_resumes_verifying()
        self._recompute_drive_routing()
        self.ctx.request_dispatch()

    def _close_fault(self, key: Tuple[str, int]) -> None:
        """Account the downtime of a repaired fault."""
        ctx = self.ctx
        started = self.active_fault_started.pop(key, ctx.sim.now)
        downtime = max(0.0, ctx.sim.now - started)
        ctx.counters.downtime.inc(downtime)
        self.repair_durations.append(downtime)
        ctx.counters.faults_repaired.inc()
        if ctx.tracer is not None:
            kind, target = key
            ctx.tracer.emit(
                ctx.sim.now,
                "metadata.repair" if kind == "metadata" else "fault.repair",
                component="metadata" if kind == "metadata" else f"{kind}:{target}",
                downtime_s=downtime,
            )

    # ------------------------------------------------------------------ #
    # Topology recomputation
    # ------------------------------------------------------------------ #

    def _recompute_partition_cover(self) -> None:
        """Self-coverage for alive shuttles; orphaned partitions adopt the
        nearest alive shuttle (controller reassignment, Section 6)."""
        robotics = self.robotics
        if not isinstance(robotics.policy, PartitionedPolicy):
            return
        owner: Dict[int, ShuttleSim] = {}
        for shuttle_sim in robotics.shuttles:
            pid = shuttle_sim.shuttle.partition
            if pid is not None:
                owner[pid] = shuttle_sim
        cover = self.dispatch.partition_cover
        for pid in cover:
            own = owner.get(pid)
            if own is not None and not own.shuttle.failed:
                cover[pid] = pid
            else:
                cover[pid] = self._nearest_alive_partition(pid)
        self.dispatch.invalidate_cover()

    def _recompute_drive_routing(self) -> None:
        """Partitions whose native drive is down route to the nearest alive
        drive; routes return home when the native drive repairs."""
        robotics = self.robotics
        # Route caching keys on every drive.failed flip, and both fail and
        # repair paths land here — so this is the single invalidation point.
        self.dispatch.invalidate_routing()
        if not isinstance(robotics.policy, PartitionedPolicy):
            return
        alive = [d for d in robotics.drives if not d.failed]
        override = self.dispatch.drive_override
        for partition in robotics.policy.partitions:
            native = partition.drive_id
            if native >= len(robotics.drives):
                continue  # bay not populated in this configuration
            if not robotics.drives[native].failed:
                override.pop(partition.index, None)
            elif alive:
                nearest = min(
                    alive, key=lambda d: abs(d.position.x - partition.home.x)
                )
                override[partition.index] = nearest.drive_id

    def _nearest_alive_partition(self, failed_partition: int) -> int:
        """Partition index of the nearest alive shuttle (by home x/level)."""
        policy = self.robotics.policy
        assert isinstance(policy, PartitionedPolicy)
        failed_home = policy.partitions[failed_partition].home
        alive = [
            s.shuttle
            for s in self.robotics.shuttles
            if not s.shuttle.failed and s.shuttle.partition is not None
        ]
        if not alive:
            return failed_partition
        nearest = min(
            alive,
            key=lambda sh: abs(policy.partitions[sh.partition].home.x - failed_home.x)
            + 0.5 * abs(policy.partitions[sh.partition].home.level - failed_home.level),
        )
        return nearest.partition

    def make_platter_unavailable(self, platter: str) -> bool:
        """Mark a platter unreachable and re-route its queued reads.

        Returns True if this call made the platter unavailable (so the
        failure that caused it can restore it on repair)."""
        lifecycle = self.lifecycle
        scheduler = self.ctx.scheduler
        if platter in lifecycle.unavailable:
            return False
        if scheduler.in_service(platter):
            # Mounted or being fetched: it escaped the blast zone.
            return False
        lifecycle.unavailable.add(platter)
        pending = scheduler.remove_pending(platter)
        if pending:
            self.dispatch.reduce_partition_load(
                platter, sum(r.size_bytes for r in pending)
            )
        for request in pending:
            lifecycle.ingest(request)
        return True
