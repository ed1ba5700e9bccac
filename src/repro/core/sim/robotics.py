"""Robotics subsystem: drives, shuttles, moves, mounts, recharge.

Owns the physical library — the :class:`~repro.library.layout.
LibraryLayout`, the per-drive and per-shuttle simulation state machines,
the platter population and its fixed home slots — and executes every
mechanical trip (fetch, return, recharge) and drive service (mount, seek,
scan, unmount). Which work gets assigned to which shuttle/drive is the
dispatch subsystem's job; request state transitions (completion, retry
escalation into recovery) are delegated to the request lifecycle.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ...library.layout import LibraryLayout, Position
from ...library.shuttle import Shuttle
from ...media.read_drive import ReadDriveConfig, ReadDriveModel
from ..requests import SimRequest
from ..traffic import PartitionedPolicy, ShortestPathsPolicy, TrafficPolicy
from .context import SimContext
from .machines import DriveSim, ShuttleSim

if TYPE_CHECKING:  # pragma: no cover
    from .dispatch import DispatchSubsystem
    from .lifecycle import RequestLifecycle
    from .verification import VerificationSubsystem


class RoboticsSubsystem:
    """The library's mechanical plant and its service state machines."""

    def __init__(self, ctx: SimContext):
        self.ctx = ctx
        cfg = ctx.config
        lib_cfg = cfg.library
        if cfg.num_drives != lib_cfg.num_read_drives:
            per_rack = -(-cfg.num_drives // 2)  # ceil split over two racks
            per_rack = min(10, max(2, per_rack))
            lib_cfg = replace(lib_cfg, drives_per_read_rack=per_rack)
        self.layout = LibraryLayout(lib_cfg)
        drive_cfg = ReadDriveConfig(throughput_mbps=cfg.drive_throughput_mbps)
        # The populated bays. A tiny fleet (fewer drives than bays) only
        # instantiates a prefix of the layout's bays; the traffic policy
        # must route against this list, not the full bay roster, or some
        # partitions end up keyed to drives that do not exist.
        live_bays = self.layout.drives[: cfg.num_drives]
        self.drives: List[DriveSim] = []
        for bay in live_bays:
            model = ReadDriveModel(config=drive_cfg, seed=cfg.seed * 1000 + bay.drive_id)
            self.drives.append(DriveSim(bay.drive_id, model, bay.position))
        raw_shuttles = [
            Shuttle(
                i,
                home=Position(0.0, 0),
                battery_capacity_joules=cfg.battery_capacity_joules,
            )
            for i in range(cfg.num_shuttles)
        ]
        if cfg.policy == "silica":
            self.policy: Optional[TrafficPolicy] = PartitionedPolicy(
                self.layout,
                raw_shuttles,
                ctx.rng,
                work_stealing=cfg.work_stealing,
                drive_bays=live_bays,
            )
        elif cfg.policy == "sp":
            self.policy = ShortestPathsPolicy(
                self.layout, raw_shuttles, ctx.rng, drive_bays=live_bays
            )
        else:  # ns
            self.policy = None
        self.shuttles = [ShuttleSim(s) for s in raw_shuttles]
        # Platter population and placement.
        self.platters: List[str] = [f"P{i:05d}" for i in range(cfg.num_platters)]
        self.platter_index = {p: i for i, p in enumerate(self.platters)}
        self.home_slot: Dict[str, "object"] = {}
        self._place_platters()
        self.travel_times: List[float] = []
        self.mount_counter = 0
        #: Coarse motion (``fine_motion_events=False``) collapses each
        #: fetch/return trip into one (fetch) or two (return) scheduled
        #: completions instead of the four-hop move/pick/move/place chain.
        self._fine_motion = cfg.fine_motion_events
        #: When coarse motion evaluates a future hop eagerly, this carries
        #: the hop's true simulated timestamp so the shuttle-model tracer
        #: hooks stamp trace events with the same times fine motion would.
        self._trace_ts: Optional[float] = None
        # Sibling subsystems, bound by :meth:`wire` during composition.
        self.dispatch: "DispatchSubsystem" = None  # type: ignore[assignment]
        self.lifecycle: "RequestLifecycle" = None  # type: ignore[assignment]
        self.verification: "VerificationSubsystem" = None  # type: ignore[assignment]
        if ctx.tracer is not None:
            self._install_shuttle_hooks()

    def wire(
        self,
        dispatch: "DispatchSubsystem",
        lifecycle: "RequestLifecycle",
        verification: "VerificationSubsystem",
    ) -> None:
        """Bind the sibling subsystems this one calls into."""
        self.dispatch = dispatch
        self.lifecycle = lifecycle
        self.verification = verification

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #

    def _place_platters(self) -> None:
        slots = list(self.layout.all_slots())
        if len(slots) < len(self.platters):
            raise ValueError(
                f"{len(self.platters)} platters exceed capacity {len(slots)}"
            )
        order = self.ctx.rng.permutation(len(slots))
        for platter, idx in zip(self.platters, order):
            slot = slots[int(idx)]
            self.layout.store(platter, slot)
            self.home_slot[platter] = slot

    def _install_shuttle_hooks(self) -> None:
        """Route shuttle model events (move/pick/place) into the tracer."""

        def make_hook(shuttle: Shuttle) -> Callable[..., None]:
            component = f"shuttle:{shuttle.shuttle_id}"

            def hook(kind: str, attrs: Dict[str, object]) -> None:
                ts = self._trace_ts
                self.ctx.tracer.emit(
                    ts if ts is not None else self.ctx.sim.now,
                    f"shuttle.{kind}",
                    component=component,
                    **attrs,
                )

            return hook

        for shuttle_sim in self.shuttles:
            shuttle_sim.shuttle.on_event = make_hook(shuttle_sim.shuttle)

    # ------------------------------------------------------------------ #
    # Motion
    # ------------------------------------------------------------------ #

    def seek_seconds(self, drive: DriveSim, target_track: int) -> float:
        """Distance-dependent XY seek, calibrated so uniformly random
        seeks reproduce the Figure 3(d) distribution (median ~0.6 s,
        maximum 2 s)."""
        cfg = self.ctx.config
        distance = abs(drive.head_track - target_track) / max(1, cfg.platter_tracks)
        base = 0.05 + 1.95 * min(1.0, distance)
        jitter = float(self.ctx.rng.uniform(0.92, 1.08))
        return min(2.0, base * jitter)

    def move(self, shuttle: Shuttle, target: Position, then: Callable[[], None]) -> None:
        """Plan and execute one shuttle move, then continue with ``then``."""
        plan = self.policy.plan_move(shuttle, target, self.ctx.sim.now)
        self.travel_times.append(plan.total_seconds)
        self.ctx.counters.h_travel.observe(plan.total_seconds)

        def arrived() -> None:
            shuttle.complete_move(
                target,
                plan.base_seconds,
                congestion_seconds=plan.congestion_seconds,
                stop_start_cycles=plan.stop_start_cycles,
            )
            then()

        self.ctx.sim.schedule(plan.total_seconds, arrived, label="move")

    def _plan_leg(self, shuttle: Shuttle, target: Position, depart: float):
        """Plan one coarse-trip leg at its true departure time.

        Calls the traffic policy exactly as :meth:`move` would at
        ``depart`` — same corridor reservation window, same congestion
        draws — and records the same travel accounting, so closed-form
        trips stay draw-for-draw aligned with fine motion.
        """
        plan = self.policy.plan_move(shuttle, target, depart)
        self.travel_times.append(plan.total_seconds)
        self.ctx.counters.h_travel.observe(plan.total_seconds)
        return plan

    def maybe_recharge(self, shuttle_sim: ShuttleSim) -> bool:
        """Send a low-battery shuttle to charge (controller duty, §4.1).

        The shuttle is unavailable for the recharge duration; its partition
        is uncovered meanwhile, which is why the threshold is conservative.
        Returns True if a recharge was started.
        """
        ctx = self.ctx
        cfg = ctx.config
        if not cfg.battery_management:
            return False
        shuttle = shuttle_sim.shuttle
        if shuttle.battery_fraction >= cfg.battery_low_threshold:
            return False
        shuttle_sim.busy = True
        ctx.counters.recharges.inc()
        if ctx.tracer is not None:
            ctx.tracer.emit(
                ctx.sim.now,
                "shuttle.recharge",
                component=f"shuttle:{shuttle.shuttle_id}",
                battery_fraction=shuttle.battery_fraction,
                seconds=cfg.recharge_seconds,
            )

        def charged() -> None:
            shuttle.recharge()
            shuttle_sim.busy = False
            shuttle_sim.no_recharge_memo = False
            ctx.request_dispatch()

        ctx.sim.schedule(cfg.recharge_seconds, charged, label="recharge")
        return True

    # ------------------------------------------------------------------ #
    # The fetch trip
    # ------------------------------------------------------------------ #

    def start_fetch(self, shuttle_sim: ShuttleSim, platter: str, drive: DriveSim) -> None:
        """Dispatch a shuttle to fetch ``platter`` into ``drive``."""
        ctx = self.ctx
        shuttle = shuttle_sim.shuttle
        shuttle_sim.busy = True
        drive.slot_reserved = True
        self.dispatch.note_drive_slot(drive)
        ctx.scheduler.begin_service(platter)
        slot = self.layout.locate(platter)
        slot_pos = self.layout.slot_position(slot)
        fetch_started = ctx.sim.now
        if ctx.tracer is not None:
            ctx.tracer.emit(
                fetch_started,
                "fetch.assign",
                component=f"shuttle:{shuttle.shuttle_id}",
                platter=platter,
                drive=drive.drive_id,
            )
        if not self._fine_motion:
            self._coarse_fetch(shuttle_sim, platter, drive, slot_pos, fetch_started)
            return

        def at_shelf() -> None:
            pick_dur = shuttle.pick(platter, ctx.rng)

            def picked() -> None:
                self.layout.remove(platter)
                self.move(shuttle, drive.position, at_drive)

            ctx.sim.schedule(pick_dur, picked, label="fetch-pick")

        def at_drive() -> None:
            place_dur = shuttle.place(ctx.rng)

            def placed() -> None:
                shuttle_sim.busy = False
                shuttle_sim.no_recharge_memo = False
                drive.slot_reserved = False
                self.on_customer_arrival(drive, platter, fetch_started=fetch_started)
                ctx.request_dispatch()

            ctx.sim.schedule(place_dur, placed, label="fetch-place")

        self.move(shuttle, slot_pos, at_shelf)

    def _coarse_fetch(
        self,
        shuttle_sim: ShuttleSim,
        platter: str,
        drive: DriveSim,
        slot_pos: Position,
        fetch_started: float,
    ) -> None:
        """Closed-form fetch: evaluate every hop now, schedule one event.

        RNG draws happen in the exact order fine motion makes them (leg-1
        plan, pick, leg-2 plan, place) and each leg is planned at its true
        departure time, so reservation windows and trip durations match
        fine motion draw-for-draw on serialized geometries. Shuttle state
        (position, battery, carrying) mutates eagerly at trip start; the
        observable handoff — the customer arrival at the drive and its
        dispatch wake-up — fires at the same simulated time fine motion
        would fire it.
        """
        ctx = self.ctx
        shuttle = shuttle_sim.shuttle
        plan1 = self._plan_leg(shuttle, slot_pos, fetch_started)
        t_shelf = fetch_started + plan1.total_seconds
        self._trace_ts = t_shelf
        shuttle.complete_move(
            slot_pos,
            plan1.base_seconds,
            congestion_seconds=plan1.congestion_seconds,
            stop_start_cycles=plan1.stop_start_cycles,
        )
        pick_dur = shuttle.pick(platter, ctx.rng)
        t_picked = t_shelf + pick_dur
        self.layout.remove(platter)
        plan2 = self._plan_leg(shuttle, drive.position, t_picked)
        t_drive = t_picked + plan2.total_seconds
        self._trace_ts = t_drive
        shuttle.complete_move(
            drive.position,
            plan2.base_seconds,
            congestion_seconds=plan2.congestion_seconds,
            stop_start_cycles=plan2.stop_start_cycles,
        )
        place_dur = shuttle.place(ctx.rng)
        self._trace_ts = None
        t_done = t_drive + place_dur

        def trip_done() -> None:
            shuttle_sim.busy = False
            shuttle_sim.no_recharge_memo = False
            drive.slot_reserved = False
            self.on_customer_arrival(drive, platter, fetch_started=fetch_started)
            ctx.request_dispatch()

        ctx.sim.schedule(t_done - fetch_started, trip_done, label="fetch-trip")

    def start_return(self, shuttle_sim: ShuttleSim, drive: DriveSim) -> None:
        """Dispatch a shuttle to return the drive's finished platter home."""
        ctx = self.ctx
        shuttle = shuttle_sim.shuttle
        shuttle_sim.busy = True
        platter = drive.awaiting_return
        home = self.home_slot[platter]
        home_pos = self.layout.slot_position(home)
        if ctx.tracer is not None:
            ctx.tracer.emit(
                ctx.sim.now,
                "return.start",
                component=f"shuttle:{shuttle.shuttle_id}",
                platter=platter,
                drive=drive.drive_id,
            )
        if not self._fine_motion:
            self._coarse_return(shuttle_sim, drive, platter, home, home_pos)
            return

        def at_drive() -> None:
            pick_dur = shuttle.pick(platter, ctx.rng)

            def picked() -> None:
                # Platter leaves the drive: customer slot frees up.
                drive.awaiting_return = None
                drive.return_assigned = False
                self.dispatch.note_drive_slot(drive)
                ctx.request_dispatch()
                self.move(shuttle, home_pos, at_home)

            ctx.sim.schedule(pick_dur, picked, label="return-pick")

        def at_home() -> None:
            place_dur = shuttle.place(ctx.rng)

            def placed() -> None:
                self.layout.store(platter, home)
                self.dispatch.end_service(platter)
                shuttle_sim.busy = False
                shuttle_sim.no_recharge_memo = False
                if ctx.tracer is not None:
                    ctx.tracer.emit(
                        ctx.sim.now,
                        "return.done",
                        component=f"shuttle:{shuttle.shuttle_id}",
                        platter=platter,
                    )
                ctx.request_dispatch()

            ctx.sim.schedule(place_dur, placed, label="return-place")

        self.move(shuttle, drive.position, at_drive)

    def _coarse_return(
        self,
        shuttle_sim: ShuttleSim,
        drive: DriveSim,
        platter: str,
        home: "object",
        home_pos: Position,
    ) -> None:
        """Closed-form return: one mid-trip handoff plus one completion.

        The pick-complete moment is observable — the drive's customer
        slot frees and dispatch is woken — so it keeps its own scheduled
        event (same ``return-pick`` label and simulated time as fine
        motion); the rest of the trip collapses into the completion.
        """
        ctx = self.ctx
        shuttle = shuttle_sim.shuttle
        start = ctx.sim.now
        plan1 = self._plan_leg(shuttle, drive.position, start)
        t_drive = start + plan1.total_seconds
        self._trace_ts = t_drive
        shuttle.complete_move(
            drive.position,
            plan1.base_seconds,
            congestion_seconds=plan1.congestion_seconds,
            stop_start_cycles=plan1.stop_start_cycles,
        )
        pick_dur = shuttle.pick(platter, ctx.rng)
        t_picked = t_drive + pick_dur
        plan2 = self._plan_leg(shuttle, home_pos, t_picked)
        t_home = t_picked + plan2.total_seconds
        self._trace_ts = t_home
        shuttle.complete_move(
            home_pos,
            plan2.base_seconds,
            congestion_seconds=plan2.congestion_seconds,
            stop_start_cycles=plan2.stop_start_cycles,
        )
        place_dur = shuttle.place(ctx.rng)
        self._trace_ts = None
        t_done = t_home + place_dur

        def picked() -> None:
            # Platter leaves the drive: customer slot frees up.
            drive.awaiting_return = None
            drive.return_assigned = False
            self.dispatch.note_drive_slot(drive)
            ctx.request_dispatch()

        ctx.sim.schedule(t_picked - start, picked, label="return-pick")

        def trip_done() -> None:
            self.layout.store(platter, home)
            self.dispatch.end_service(platter)
            shuttle_sim.busy = False
            shuttle_sim.no_recharge_memo = False
            if ctx.tracer is not None:
                ctx.tracer.emit(
                    ctx.sim.now,
                    "return.done",
                    component=f"shuttle:{shuttle.shuttle_id}",
                    platter=platter,
                )
            ctx.request_dispatch()

        ctx.sim.schedule(t_done - start, trip_done, label="return-trip")

    # ------------------------------------------------------------------ #
    # Drive service
    # ------------------------------------------------------------------ #

    def on_customer_arrival(
        self, drive: DriveSim, platter: str, fetch_started: Optional[float] = None
    ) -> None:
        """A customer platter reached the drive: switch, mount, serve."""
        ctx = self.ctx
        self.verification.drive_stops_verifying()
        drive.customer_platter = platter
        drive.serving = True
        self.dispatch.note_drive_slot(drive)
        drive.head_track = int(ctx.rng.integers(0, max(1, ctx.config.platter_tracks)))
        switch = (
            drive.model.config.fast_switch_seconds
            if ctx.config.fast_switching
            else drive.model.config.unmount_seconds + drive.model.config.mount_seconds
        )
        drive.switch_seconds += switch
        mount = drive.model.config.mount_seconds
        drive.read_seconds += mount
        self.mount_counter += 1
        drive.current_mount = self.mount_counter
        if ctx.tracer is not None:
            now = ctx.sim.now
            ctx.tracer.emit(
                now,
                "drive.mount",
                component=f"drive:{drive.drive_id}",
                mount_id=drive.current_mount,
                platter=platter,
                mount_s=mount,
                switch_s=switch,
                shuttle_s=(now - fetch_started) if fetch_started is not None else 0.0,
            )

        def mounted() -> None:
            self.serve_batch(drive, platter)

        ctx.sim.schedule(switch + mount, mounted, label="mount")

    def serve_batch(self, drive: DriveSim, platter: str) -> None:
        """Take and serve every queued request for the mounted platter."""
        ctx = self.ctx
        batch = ctx.scheduler.take_batch(platter)
        if not batch:
            self.finish_service(drive, platter)
            return
        self.dispatch.reduce_partition_load(
            platter, sum(r.size_bytes for r in batch)
        )
        if ctx.config.sort_batch_by_track:
            batch = sorted(batch, key=lambda r: r.track_start)
        if ctx.tracer is not None:
            ctx.tracer.emit(
                ctx.sim.now,
                "sched.batch",
                component=f"drive:{drive.drive_id}",
                platter=platter,
                size=len(batch),
                bytes=sum(r.size_bytes for r in batch),
            )
        self._serve_requests(drive, platter, batch, 0)

    def _serve_requests(
        self, drive: DriveSim, platter: str, batch: List[SimRequest], index: int
    ) -> None:
        if index >= len(batch):
            if not self.ctx.config.amortize_batch:
                # Ablation mode: one request per mount — unmount and return
                # the platter even if more requests are queued for it.
                self.finish_service(drive, platter)
                return
            # Re-check for arrivals that queued during this batch.
            self.serve_batch(drive, platter)
            return
        request = batch[index]
        ctx = self.ctx
        cfg = ctx.config
        counters = ctx.counters
        tr = ctx.tracer
        seek = self.seek_seconds(drive, request.track_start)
        drive.head_track = request.track_start + request.num_tracks
        track_bytes = request.num_tracks * cfg.track_read_bytes
        scan = drive.model.seconds_to_scan(track_bytes)
        duration = seek + scan
        bytes_this_service = track_bytes
        seek_total = seek
        decode_extra = 0.0
        drive.seek_seconds += seek
        escalate = False
        p = cfg.transient_read_error_prob
        if p > 0.0 and float(ctx.rng.random()) < p:
            # Read-retry escalation ladder. Rung 1: a transient sector
            # error — re-read the tracks in place (another seek + scan).
            counters.reread.inc()
            request.retries += 1
            request.mark_degraded()
            reread_seek = self.seek_seconds(drive, request.track_start)
            duration += reread_seek + scan
            drive.seek_seconds += reread_seek
            seek_total += reread_seek
            bytes_this_service += track_bytes
            if tr is not None:
                tr.emit(
                    ctx.sim.now,
                    "retry.reread",
                    request_id=request.request_id,
                    component=f"drive:{drive.drive_id}",
                    extra_s=reread_seek + scan,
                )
            if float(ctx.rng.random()) < p:
                # Rung 2: spend a deeper LDPC iteration budget on the
                # captured image (decode compute, no extra media read).
                counters.deep_decode.inc()
                request.retries += 1
                decode_extra = scan * cfg.deep_decode_factor
                duration += decode_extra
                if tr is not None:
                    tr.emit(
                        ctx.sim.now,
                        "retry.deep_decode",
                        request_id=request.request_id,
                        component=f"drive:{drive.drive_id}",
                        extra_s=decode_extra,
                    )
                if (
                    not request.is_recovery
                    and float(ctx.rng.random()) < p * cfg.deep_decode_residual
                ):
                    # Rung 3: the tracks are unrecoverable in place —
                    # escalate to cross-platter NC recovery. Recovery
                    # reads themselves never re-escalate (they already
                    # carry the set's redundancy).
                    escalate = True
        drive.read_seconds += duration
        counters.bytes_read.inc(bytes_this_service)
        if request.is_recovery:
            counters.recovery_bytes.inc(bytes_this_service)
        if tr is not None:
            tr.emit(
                ctx.sim.now,
                "drive.read",
                request_id=request.request_id,
                component=f"drive:{drive.drive_id}",
                mount_id=drive.current_mount,
                seek_s=seek_total,
                channel_s=duration - seek_total - decode_extra,
                decode_s=decode_extra,
                bytes=bytes_this_service,
                retries=request.retries,
                escalated=escalate,
            )

        def done() -> None:
            if escalate:
                if tr is not None:
                    tr.emit(
                        ctx.sim.now,
                        "retry.escalate",
                        request_id=request.request_id,
                        component=f"drive:{drive.drive_id}",
                        platter=platter,
                    )
                if self.lifecycle.fan_out_recovery(request):
                    counters.escalations.inc()
                else:
                    self.lifecycle.abandon_request(request)
            else:
                self.lifecycle.complete_request(request)
            self._serve_requests(drive, platter, batch, index + 1)

        ctx.sim.schedule(duration, done, label="read")

    def finish_service(self, drive: DriveSim, platter: str) -> None:
        """Unmount the customer platter and hand it to the return path."""
        ctx = self.ctx
        unmount = drive.model.config.unmount_seconds
        switch = (
            drive.model.config.fast_switch_seconds
            if ctx.config.fast_switching
            else drive.model.config.unmount_seconds + drive.model.config.mount_seconds
        )
        drive.read_seconds += unmount
        drive.switch_seconds += switch
        if ctx.tracer is not None:
            ctx.tracer.emit(
                ctx.sim.now,
                "drive.unmount",
                component=f"drive:{drive.drive_id}",
                mount_id=drive.current_mount,
                platter=platter,
                unmount_s=unmount,
                switch_s=switch,
            )
        drive.current_mount = None

        def done() -> None:
            self.verification.drive_resumes_verifying()
            drive.customer_platter = None
            drive.serving = False
            if ctx.config.policy == "ns":
                # Platters teleport back: slot frees instantly.
                self.dispatch.end_service(platter)
            else:
                drive.awaiting_return = platter
                self.dispatch.note_return_pending(drive)
            self.dispatch.note_drive_slot(drive)
            ctx.request_dispatch()

        ctx.sim.schedule(unmount + switch, done, label="unmount")
