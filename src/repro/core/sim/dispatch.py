"""Dispatch subsystem: assigning shuttles and drives to pending work.

Owns the controller's dispatch machinery — the coalesced zero-delay
dispatch event, the fetch-candidate indexes (per-partition heaps for the
Silica policy, one global heap for the SP/NS baselines, both lazily
invalidated), the partition routing tables that failure handling rewrites
(partition cover, drive overrides), and the per-partition load estimates
that drive work stealing.

The three §4.1/§7.2 dispatch strategies — :class:`SilicaDispatch`
(partitioned, work-stealing), :class:`ShortestPathsDispatch` (free-roaming
SP baseline) and :class:`NoShuttleDispatch` (teleporting NS lower bound) —
implement the :class:`~repro.core.sim.hooks.DispatchPolicy` protocol and
are interchangeable behind it.

Dispatch is *incremental*: the quantities a pass needs are maintained
under dirty-flag invalidation rather than recomputed per event.

* **Cover index** (`owner partition -> covered partitions`) — rebuilt only
  after the fault subsystem rewrites ``partition_cover`` (shuttle
  failure/repair) via :meth:`DispatchSubsystem.invalidate_cover`.
* **Drive routes** (`partition -> serving drive`) — rebuilt only after a
  drive failure/repair rewrites ``drive_override`` via
  :meth:`DispatchSubsystem.invalidate_routing`.
* **Steal donors** — the work-stealing donor list is a pure function of
  ``partition_load``, so it is cached and invalidated exactly where the
  loads change (:meth:`DispatchSubsystem.note_enqueued` /
  :meth:`DispatchSubsystem.reduce_partition_load`).
* **Partition-heap entry count** — the live entry total over the
  partition heaps (pure push/pop bookkeeping, stale entries included)
  lets a pass skip candidate probing outright when every heap is empty.
* **Pending returns** — a list maintained at the two transitions
  (service finishes / return assigned), so a pass visits only the drives
  whose platter awaits a return.
* **Idle pool** — each pass scans for idle shuttles once and hands that
  pool to every step. An empty pool provably assigns nothing (every
  assignment needs a shuttle), so the pass exits before touching any
  index. The dispatch *event* still fires: pending faults are released at
  that boundary first, which the empty-pool exit must not skip.

Every cache must answer exactly what a recomputation from raw state would.
The per-pass oracle in ``tests/test_dispatch_incremental.py`` recomputes
each one before and after every pass, and ``tests/golden/
dispatch_decisions.json`` pins the fetch, return and mount decisions that
a full-rescan reference dispatcher produced before it was retired.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ...library.layout import SlotId
from ...library.shuttle import Shuttle, ShuttleState
from ..scheduler import pop_min_valid
from ..traffic import PartitionedPolicy
from .context import SimContext
from .hooks import DispatchPolicy
from .robotics import DriveSim, RoboticsSubsystem, ShuttleSim

if TYPE_CHECKING:  # pragma: no cover
    from .faults import FaultSubsystem
    from .lifecycle import RequestLifecycle

#: Hoisted for the per-pass idle scan's inlined state check.
_FAILED = ShuttleState.FAILED

#: Event labels this subsystem schedules — the dispatch bucket of the
#: phase profiler's subsystem wall-share table (kept next to the
#: ``schedule`` sites so the attribution cannot drift from the code).
DISPATCH_EVENT_LABELS = frozenset({"dispatch"})


class SilicaDispatch:
    """Partitioned dispatch (§4.1): each shuttle serves its own partitions,
    stealing from overloaded donors when its own heaps run dry."""

    name = "silica"

    def run(self, d: "DispatchSubsystem") -> None:
        """Assign idle shuttles to returns, then partition fetches."""
        pool = d.idle_pool()
        if not pool:
            return
        d.dispatch_returns(pool)
        robotics = d.robotics
        policy = robotics.policy
        assert isinstance(policy, PartitionedPolicy)
        ctx = d.ctx
        heaps = d.partition_heaps
        # Pass-level fetch guard: with nothing queued anywhere, or no drive
        # customer slot free anywhere, no shuttle can be handed a fetch —
        # the only remaining pass duty is the recharge check, which the
        # memo makes one attribute read per shuttle. (Flushing slot notes
        # first is pure cache maintenance.)
        if d._slot_dirty or d._free_pids is None:
            d.free_partitions()
        if not d._partition_entries or not d._free_pids:
            for shuttle_sim in pool:
                if not shuttle_sim.busy and not shuttle_sim.no_recharge_memo:
                    d.maybe_recharge(shuttle_sim)
            return
        # Donor ranking never changes within a pass (loads mutate in other
        # events), so compute it lazily at most once per pass.
        donors: Optional[List[int]] = None
        for shuttle_sim in pool:
            # Pool members passed the idle scan; only ``busy`` can flip
            # mid-pass (assignments below), so one attribute check replaces
            # the full idle re-check.
            if shuttle_sim.busy:
                continue
            if not shuttle_sim.no_recharge_memo and d.maybe_recharge(shuttle_sim):
                continue
            if not d._partition_entries:
                # Every partition heap is empty (live entry count is pure
                # push/pop bookkeeping): no probe or steal can succeed.
                continue
            # Flush slot notes (an assignment below posts one for the drive
            # it reserves), then consult the owner refcount: no free drive
            # among this shuttle's covered partitions means no fetch can be
            # placed — steals mount on the thief's own drives too.
            if d._slot_dirty or d._free_pids is None:
                d.free_partitions()
            shuttle = shuttle_sim.shuttle
            if not d._free_owner_count.get(shuttle.partition):
                continue
            free_pids = d._free_pids
            for pid in d.covered_partitions(shuttle.partition):
                # ``free_pids`` membership proves this partition's drive
                # exists and has a free customer slot; the route lookup is
                # deferred until a platter is actually in hand (most probes
                # find empty heaps).
                if pid not in free_pids:
                    continue
                # An empty heap can't yield a candidate and popping it has
                # no side effects — skip the call on the common dry probe.
                own_heap = heaps[pid]
                platter = d.pop_candidate(own_heap) if own_heap else None
                stolen = False
                if platter is None and policy.work_stealing:
                    if donors is None:
                        donors = d.steal_donors()
                    for donor in donors:
                        if donor == pid:
                            continue
                        donor_heap = heaps[donor]
                        if not donor_heap:
                            continue
                        platter = d.pop_candidate(donor_heap)
                        if platter is not None:
                            stolen = True
                            break
                if platter is None:
                    continue
                drive = d.partition_drive(pid)
                if stolen:
                    policy.steals += 1
                    ctx.counters.steals.inc()
                    if ctx.tracer is not None:
                        ctx.tracer.emit(
                            ctx.sim.now,
                            "sched.steal",
                            component=f"shuttle:{shuttle.shuttle_id}",
                            platter=platter,
                            partition=pid,
                        )
                ctx.counters.dispatch_assignments.inc()
                robotics.start_fetch(shuttle_sim, platter, drive)
                break  # this shuttle is busy now


class ShortestPathsDispatch:
    """The SP baseline: any idle shuttle fetches the globally most urgent
    platter via shortest paths — no partitioning, congestion included."""

    name = "sp"

    def run(self, d: "DispatchSubsystem") -> None:
        """Assign idle shuttles to returns, then nearest-shuttle fetches."""
        pool = d.idle_pool()
        if not pool:
            return
        d.dispatch_returns(pool)
        robotics = d.robotics
        for shuttle_sim in pool:
            if shuttle_sim.idle:
                d.maybe_recharge(shuttle_sim)
        while True:
            idle = [s for s in pool if s.idle]
            if not idle:
                return
            if not any(dr.customer_slot_free for dr in robotics.drives):
                return
            platter = d.pop_candidate(d.global_heap)
            if platter is None:
                return
            slot = robotics.layout.locate(platter)
            slot_pos = robotics.layout.slot_position(slot)
            shuttle_sim = min(
                idle,
                key=lambda s: abs(s.shuttle.position.x - slot_pos.x)
                + 0.5 * abs(s.shuttle.position.level - slot_pos.level),
            )
            drive = d.drive_for(shuttle_sim.shuttle, slot)
            if drive is None:
                # No free drive after all; put the candidate back.
                d.push_candidate(
                    platter, d.ctx.scheduler.priority_for(platter) or 0.0
                )
                return
            d.ctx.counters.dispatch_assignments.inc()
            robotics.start_fetch(shuttle_sim, platter, drive)


class NoShuttleDispatch:
    """The NS baseline: platters teleport into free drives — the lower
    bound on shuttle overhead."""

    name = "ns"

    def run(self, d: "DispatchSubsystem") -> None:
        """Mount the most urgent pending platters into free drives."""
        robotics = d.robotics
        while True:
            free_drives = [dr for dr in robotics.drives if dr.customer_slot_free]
            if not free_drives:
                return
            platter = d.pop_candidate(d.global_heap)
            if platter is None:
                return
            drive = free_drives[0]
            d.ctx.scheduler.begin_service(platter)
            d.ctx.counters.dispatch_assignments.inc()
            robotics.on_customer_arrival(drive, platter)


_DISPATCH_POLICIES = {
    "silica": SilicaDispatch,
    "sp": ShortestPathsDispatch,
    "ns": NoShuttleDispatch,
}


def dispatch_policy_for(name: str) -> DispatchPolicy:
    """The dispatch strategy registered under ``name`` (silica/sp/ns)."""
    return _DISPATCH_POLICIES[name]()


class DispatchSubsystem:
    """Controller dispatch: candidate indexes, routing tables, the loop."""

    def __init__(
        self,
        ctx: SimContext,
        robotics: RoboticsSubsystem,
        lifecycle: "RequestLifecycle",
    ):
        self.ctx = ctx
        self.robotics = robotics
        self.lifecycle = lifecycle
        # Fetch-candidate indexes: per-partition heaps (Silica) and a global
        # heap (SP/NS), holding (fetch priority, platter) with lazy
        # invalidation. Priority is the scheduler policy's key — earliest
        # queued arrival by default, weighted-deadline urgency under QoS.
        self.platter_partition: Dict[str, int] = {}
        self.partition_heaps: Dict[int, List[Tuple[float, str]]] = {}
        self.partition_load: Dict[int, float] = {}
        policy = robotics.policy
        if isinstance(policy, PartitionedPolicy):
            for platter, slot in robotics.home_slot.items():
                self.platter_partition[platter] = policy.partition_of_slot(slot)
            for p in policy.partitions:
                self.partition_heaps[p.index] = []
                self.partition_load[p.index] = 0.0
        self.global_heap: List[Tuple[float, str]] = []
        # Failure-routing tables: which shuttle covers each partition
        # (self-coverage initially) and per-partition drive re-routing.
        self.partition_cover: Dict[int, int] = {}
        if isinstance(policy, PartitionedPolicy):
            for p in policy.partitions:
                self.partition_cover[p.index] = p.index
        self.drive_override: Dict[int, int] = {}
        self._dispatch_scheduled = False
        self.policy: DispatchPolicy = dispatch_policy_for(ctx.config.policy)
        # Dirty-flagged caches. Each is invalidated at the state transition
        # that changes its inputs and rebuilt lazily on next use:
        #   cover index   <- partition_cover     (shuttle failure/repair)
        #   drive routes  <- drive_override + drive.failed (drive fail/repair)
        #   steal donors  <- partition_load      (enqueue / serve / withdraw)
        self._cover_index: Dict[int, List[int]] = {}
        self._cover_dirty = True
        self._route_cache: Dict[int, Optional[DriveSim]] = {}
        self._routes_dirty = True
        # Free-partition set: partitions whose routed drive has a free
        # customer slot. None = rebuild wholesale (routing changed);
        # otherwise patched per drive via the slot-transition notes the
        # robotics subsystem posts (:meth:`note_drive_slot`).
        self._free_pids: Optional[set] = None
        self._drive_pids: Dict[int, List[int]] = {}
        self._slot_dirty: List[DriveSim] = []
        # Per-owner refcount over the free set: how many of the partitions
        # covered by each owner (``partition_cover`` value) are free. Zero
        # lets a pass skip a shuttle without walking its covered list.
        self._free_owner_count: Dict[int, int] = {}
        self._steal_donors: Optional[List[int]] = None
        # Candidate-validity closure cache for :meth:`pop_candidate`. The
        # closure binds the scheduler, the lifecycle's unavailable set, and
        # the layout's locate method — the latter two are stable object
        # identities for the life of the run, so the cache is keyed on the
        # scheduler alone (the kernel swaps it in during composition).
        self._pop_valid: Optional[Callable[[str], bool]] = None
        self._pop_valid_scheduler: Optional[object] = None
        # Live entry count of the partition heaps (stale entries included —
        # pure heap bookkeeping, maintained by push/pop). Zero proves every
        # partition-heap pop would miss, so a pass skips candidate probing
        # and steal ranking entirely.
        self._partition_entries = 0
        #: Drives holding a finished platter with no return assigned yet —
        #: maintained by :meth:`note_return_pending` / the assignment in
        #: :meth:`dispatch_returns`.
        self._pending_returns: List[DriveSim] = []
        # Fleet-order rank of each drive: pending returns are visited in
        # drive order, which fixes the order of return assignments (the
        # committed bench baselines pin it).
        self._drive_order: Dict[int, int] = {
            d.drive_id: i for i, d in enumerate(robotics.drives)
        }
        # Bound by :meth:`wire` during composition.
        self.faults: "FaultSubsystem" = None  # type: ignore[assignment]

    def wire(self, faults: "FaultSubsystem") -> None:
        """Bind the fault subsystem (pending faults fire at dispatch)."""
        self.faults = faults

    # ------------------------------------------------------------------ #
    # The dispatch loop
    # ------------------------------------------------------------------ #

    def request_dispatch(self) -> None:
        """Coalesce dispatch work onto a single zero-delay event."""
        if self._dispatch_scheduled:
            return
        self._dispatch_scheduled = True

        def run() -> None:
            self._dispatch_scheduled = False
            self._dispatch()

        self.ctx.sim.schedule(0.0, run, label="dispatch")

    def _dispatch(self) -> None:
        # Faults that found their component busy fire here, at the next
        # operation boundary, *before* new work is assigned — the
        # event-driven replacement for the old fixed-interval retry poll.
        self.faults.fire_pending_faults()
        self.ctx.counters.dispatch_passes.inc()
        self.policy.run(self)

    def idle_pool(self) -> List[ShuttleSim]:
        """This pass's idle shuttles, in fleet order; empty ends the pass.

        With no idle shuttle a pass provably assigns nothing — returns,
        recharges and fetches all require one — so an empty pool is
        counted (``dispatch_short_circuits``), making the rate visible in
        the metrics. Shuttles busy at the start of a pass cannot turn idle
        mid-pass (only events do that), so walking the pool with a live
        ``busy``/``idle`` re-check visits exactly the shuttles a full scan
        would.
        """
        idle = [
            s
            for s in self.robotics.shuttles
            # Inlined ShuttleSim.idle (machines.py) — this scan runs per
            # pass over every shuttle, where two property hops dominate.
            if not s.busy and s.shuttle.state is not _FAILED
        ]
        if not idle:
            self.ctx.counters.dispatch_short_circuits.inc()
        return idle

    # ------------------------------------------------------------------ #
    # Returns
    # ------------------------------------------------------------------ #

    def note_return_pending(self, drive: DriveSim) -> None:
        """A drive's service finished: its platter now awaits a return trip."""
        self._pending_returns.append(drive)

    def dispatch_returns(self, pool: List[ShuttleSim]) -> None:
        """Assign ``pool`` shuttles to drives with a platter awaiting return.

        Walks the pending-return list in drive order. A drive leaves the
        list once its return is assigned (``return_assigned``; the flag
        holds until the platter is picked, after which ``awaiting_return``
        is gone).
        """
        pending = self._pending_returns
        if not pending:
            return
        if len(pending) > 1:
            order = self._drive_order
            pending.sort(key=lambda d: order[d.drive_id])
        remaining: List[DriveSim] = []
        for drive in pending:
            shuttle = self.shuttle_for_return(drive, pool)
            if shuttle is None:
                remaining.append(drive)
                continue
            drive.return_assigned = True
            self.ctx.counters.dispatch_assignments.inc()
            self.robotics.start_return(shuttle, drive)
        self._pending_returns = remaining

    def shuttle_for_return(
        self, drive: DriveSim, pool: List[ShuttleSim]
    ) -> Optional[ShuttleSim]:
        """The ``pool`` shuttle to return the drive's platter: the idle
        shuttle covering its partition, or under SP the nearest idle one
        (None when there is no such shuttle)."""
        platter = drive.awaiting_return
        robotics = self.robotics
        if isinstance(robotics.policy, PartitionedPolicy):
            partition = self.platter_partition[platter]
            cover = self.partition_cover.get(partition, partition)
            for s in pool:
                # Partition compare first: it is a plain attribute chain,
                # while ``idle`` is a property call — and most pool members
                # are the wrong partition.
                if s.shuttle.partition == cover and s.idle:
                    return s
            return None
        idle = [s for s in pool if s.idle]
        if not idle:
            return None
        return min(idle, key=lambda s: abs(s.shuttle.position.x - drive.position.x))

    # ------------------------------------------------------------------ #
    # Candidate indexes
    # ------------------------------------------------------------------ #

    def push_candidate(self, platter: str, priority: float) -> None:
        """Publish a platter's fetch candidacy at the given priority.

        The entry goes to exactly the index the active policy pops: the
        platter's partition heap under the partitioned policy, the global
        heap otherwise.
        """
        entry = (priority, platter)
        pid = self.platter_partition.get(platter)
        if pid is not None:
            heapq.heappush(self.partition_heaps[pid], entry)
            self._partition_entries += 1
        else:
            heapq.heappush(self.global_heap, entry)

    def pop_candidate(self, heap: List[Tuple[float, str]]) -> Optional[str]:
        """Earliest valid pending platter from a heap (lazy invalidation).

        Entries for platters that were serviced, are currently in service,
        or are unreachable are discarded (the
        :func:`~repro.core.scheduler.pop_min_valid` contract); in-service
        platters with new pending work are re-pushed when their service
        ends.
        """
        scheduler = self.ctx.scheduler
        valid = self._pop_valid
        if valid is None or self._pop_valid_scheduler is not scheduler:
            unavailable = self.lifecycle.unavailable
            locate = self.robotics.layout.locate

            def valid(platter: str) -> bool:
                """True when ``platter`` is still a live fetch candidate."""
                return (
                    scheduler.has_work(platter)
                    and not scheduler.in_service(platter)
                    and platter not in unavailable
                    and locate(platter) is not None
                )

            self._pop_valid = valid
            self._pop_valid_scheduler = scheduler

        if heap is self.global_heap:
            return pop_min_valid(heap, valid)
        before = len(heap)
        chosen = pop_min_valid(heap, valid)
        self._partition_entries -= before - len(heap)
        return chosen

    def end_service(self, platter: str) -> None:
        """Platter is back on its shelf: re-arm fetch candidacy."""
        scheduler = self.ctx.scheduler
        scheduler.end_service(platter)
        priority = scheduler.priority_for(platter)
        if priority is not None:
            self.push_candidate(platter, priority)

    # ------------------------------------------------------------------ #
    # Partition load (work stealing)
    # ------------------------------------------------------------------ #

    def note_enqueued(self, platter: str, size_bytes: float) -> None:
        """Account newly queued bytes to the platter's partition load."""
        pid = self.platter_partition.get(platter)
        if pid is not None:
            self.partition_load[pid] += size_bytes
            self._steal_donors = None

    def reduce_partition_load(self, platter: str, size_bytes: float) -> None:
        """Remove served or withdrawn bytes from the partition load."""
        pid = self.platter_partition.get(platter)
        if pid is not None:
            self.partition_load[pid] = max(
                0.0, self.partition_load[pid] - size_bytes
            )
            self._steal_donors = None

    def steal_donors(self) -> List[int]:
        """Work-stealing donor partitions, most loaded first.

        A pure function of ``partition_load``, so the policy's ranking is
        cached until the loads next change — every load mutation runs
        through :meth:`note_enqueued` / :meth:`reduce_partition_load`,
        which drop the cache. Loads never change *within* a pass (serves
        and withdrawals happen in other events).
        """
        policy = self.robotics.policy
        assert isinstance(policy, PartitionedPolicy)
        if self._steal_donors is None:
            self._steal_donors = policy.steal_candidates(self.partition_load)
        return self._steal_donors

    # ------------------------------------------------------------------ #
    # Routing (failure-aware)
    # ------------------------------------------------------------------ #

    def invalidate_cover(self) -> None:
        """``partition_cover`` was rewritten (shuttle failure/repair)."""
        self._cover_dirty = True
        # The free-set owner refcounts key on the cover mapping, so a
        # cover rewrite forces a wholesale rebuild of both.
        self._free_pids = None

    def invalidate_routing(self) -> None:
        """Drive topology changed (failure/repair or override rewrite)."""
        self._routes_dirty = True
        self._free_pids = None

    def note_drive_slot(self, drive: DriveSim) -> None:
        """A drive's customer-slot occupancy may have changed.

        Robotics posts this at every slot transition (fetch reserve, mount,
        return pick, unmount); the free-partition set patches itself from
        the note queue on next read.
        """
        if self._free_pids is not None:
            self._slot_dirty.append(drive)

    def free_partitions(self) -> set:
        """Partitions whose routed drive can accept a fetch right now.

        ``pid in free_partitions()`` is exactly ``partition_drive(pid) is
        not None and partition_drive(pid).customer_slot_free``: the set is
        rebuilt wholesale after routing changes and patched per posted
        slot note otherwise. Callers re-read it after every assignment —
        an in-pass fetch posts a note for the drive it just reserved.
        """
        free = self._free_pids
        cover = self.partition_cover
        owners = self._free_owner_count
        if free is None:
            index: Dict[int, List[int]] = {}
            free = set()
            owners.clear()
            for pid in cover:
                drive = self.partition_drive(pid)
                if drive is None:
                    continue
                index.setdefault(drive.drive_id, []).append(pid)
                if drive.customer_slot_free:
                    free.add(pid)
                    own = cover[pid]
                    owners[own] = owners.get(own, 0) + 1
            self._drive_pids = index
            self._free_pids = free
            del self._slot_dirty[:]
            return free
        dirty = self._slot_dirty
        if dirty:
            for drive in dirty:
                pids = self._drive_pids.get(drive.drive_id)
                if not pids:
                    continue
                if drive.customer_slot_free:
                    for pid in pids:
                        if pid not in free:
                            free.add(pid)
                            own = cover[pid]
                            owners[own] = owners.get(own, 0) + 1
                else:
                    for pid in pids:
                        if pid in free:
                            free.remove(pid)
                            owners[cover[pid]] -= 1
            del dirty[:]
        return free

    def maybe_recharge(self, shuttle_sim: ShuttleSim) -> bool:
        """Recharge check with the idle-battery memo.

        An idle shuttle drains no battery, so once a check says "no
        recharge needed" the answer holds until the shuttle next works (or
        is repaired) — those transitions clear the memo.
        """
        if shuttle_sim.no_recharge_memo:
            return False
        if self.robotics.maybe_recharge(shuttle_sim):
            return True
        shuttle_sim.no_recharge_memo = True
        return False

    def covered_partitions(self, own_partition: int) -> List[int]:
        """Partitions this shuttle serves: its own plus any adopted from
        failed shuttles (controller reassignment).

        Answered from the cover index, which groups ``partition_cover`` in
        its iteration order: each owner's list equals the filter
        ``[pid for pid, cover in partition_cover.items() if cover == own]``.
        """
        if self._cover_dirty:
            index: Dict[int, List[int]] = {}
            for pid, cover in self.partition_cover.items():
                index.setdefault(cover, []).append(pid)
            self._cover_index = index
            self._cover_dirty = False
        return self._cover_index.get(own_partition, [])

    def partition_drive(self, pid: int) -> Optional[DriveSim]:
        """The partition's drive, honouring failure re-routing.

        Routes are cached per partition between topology changes; the
        live ``customer_slot_free`` check stays with the caller. A failed
        drive resolves to None — and every ``drive.failed`` flip runs the
        fault subsystem's rerouting, which drops this cache.
        """
        if self._routes_dirty:
            self._route_cache = {}
            self._routes_dirty = False
        cache = self._route_cache
        if pid in cache:
            return cache[pid]
        drive = self._route_for(pid)
        cache[pid] = drive
        return drive

    def _route_for(self, pid: int) -> Optional[DriveSim]:
        """Resolve a partition's serving drive from the routing tables."""
        robotics = self.robotics
        assert isinstance(robotics.policy, PartitionedPolicy)
        drive_id = self.drive_override.get(
            pid, robotics.policy.partitions[pid].drive_id
        )
        if drive_id >= len(robotics.drives):
            return None
        drive = robotics.drives[drive_id]
        return None if drive.failed else drive

    def drive_for(self, shuttle: Shuttle, slot: SlotId) -> Optional[DriveSim]:
        """A free drive for an SP fetch, chosen by the traffic policy."""
        robotics = self.robotics

        def free(drive_id: int) -> bool:
            return (
                drive_id < len(robotics.drives)
                and robotics.drives[drive_id].customer_slot_free
            )

        drive_id = robotics.policy.drive_for(shuttle, slot, free)
        if drive_id is None:
            return None
        return robotics.drives[drive_id]
