"""Stochastic fault-lifecycle schedules: components fail *and return*.

Section 4/6 of the paper argues the library "minimizes the impact of
failures" through blast zones, partition reassignment and cross-platter
recovery. The interesting regime for that claim is not a single fail-stop
event but a *lifecycle*: components fail at some rate (MTBF), are repaired
after some time (MTTR), and the service rides through the transient window
in degraded mode. This module generates reproducible fault schedules for
the digital twin:

* per-component exponential up-times drawn from a seeded generator
  (memoryless MTBF, the standard renewal model for mechanical failures);
* repair times drawn from an exponential MTTR (field replacement of a
  shuttle or read drive, metadata-service failover);
* ``transient`` faults repair and return to service; ``permanent`` faults
  never do (fail-stop until end of horizon) — the ratio is configurable
  per component class;
* :meth:`FaultSchedule.without_repair` converts any schedule into its
  repair-disabled twin (same fault instants, infinite repair), which is
  the ablation the chaos benchmark sweeps against.

The schedule is pure data; :meth:`repro.core.sim.FaultSubsystem.
apply_fault_schedule` turns it into simulator events.

On top of the per-component machinery, :class:`FleetFaultSchedule` scopes
outages to *named failure domains* (whole libraries, rack-row power
domains, regions) for the fleet layer: a domain outage takes down every
member library inside the domain at once, which is exactly the correlated
failure mode single-library fault injection cannot express.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np


class ComponentKind(Enum):
    """Library components with an independent failure process."""

    SHUTTLE = "shuttle"
    READ_DRIVE = "read_drive"
    METADATA = "metadata"


class FaultKind(Enum):
    """Whether an injected fault repairs (transient) or fail-stops."""

    TRANSIENT = "transient"  # repairs after its duration
    PERMANENT = "permanent"  # fail-stop until the end of the horizon


@dataclass(frozen=True)
class FaultEvent:
    """One fault of one component instance.

    ``duration`` is the repair time in seconds; ``math.inf`` encodes a
    permanent fault (no repair before the horizon).
    """

    component: ComponentKind
    target: int  # shuttle / drive index; 0 for the metadata service
    start: float
    duration: float
    kind: FaultKind

    @property
    def repairs(self) -> bool:
        return math.isfinite(self.duration)

    @property
    def repair_time(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class FaultModel:
    """Failure/repair process of one component class."""

    mtbf_seconds: float
    mttr_seconds: float
    transient_fraction: float = 1.0  # probability a fault is repairable

    def __post_init__(self) -> None:
        if self.mtbf_seconds <= 0:
            raise ValueError("mtbf_seconds must be positive")
        if self.mttr_seconds < 0:
            raise ValueError("mttr_seconds must be non-negative")
        if not 0 <= self.transient_fraction <= 1:
            raise ValueError("transient_fraction must be in [0, 1]")

    @property
    def steady_state_availability(self) -> float:
        """The textbook MTBF / (MTBF + MTTR) bound for transient faults."""
        return self.mtbf_seconds / (self.mtbf_seconds + self.mttr_seconds)


@dataclass(frozen=True)
class ChaosConfig:
    """What to break, how often, and for how long."""

    horizon_seconds: float
    shuttle: Optional[FaultModel] = None
    drive: Optional[FaultModel] = None
    metadata: Optional[FaultModel] = None
    repair: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.horizon_seconds <= 0:
            raise ValueError("horizon_seconds must be positive")

    def model_for(self, component: ComponentKind) -> Optional[FaultModel]:
        return {
            ComponentKind.SHUTTLE: self.shuttle,
            ComponentKind.READ_DRIVE: self.drive,
            ComponentKind.METADATA: self.metadata,
        }[component]


class FaultSchedule:
    """An ordered, reproducible list of fault events over a horizon."""

    def __init__(self, events: List[FaultEvent], horizon_seconds: float):
        self.events = sorted(events, key=lambda e: (e.start, e.component.value, e.target))
        self.horizon_seconds = horizon_seconds

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #

    @classmethod
    def generate(
        cls,
        config: ChaosConfig,
        num_shuttles: int,
        num_drives: int,
    ) -> "FaultSchedule":
        """Draw a schedule from per-component renewal processes.

        Each component instance gets an independent substream (derived
        deterministically from the seed and the component identity), so
        adding shuttles does not perturb the drives' schedule.
        """
        events: List[FaultEvent] = []
        population = [
            (ComponentKind.SHUTTLE, num_shuttles),
            (ComponentKind.READ_DRIVE, num_drives),
            (ComponentKind.METADATA, 1),
        ]
        for component, count in population:
            model = config.model_for(component)
            if model is None:
                continue
            for target in range(count):
                rng = np.random.default_rng(
                    [config.seed, _COMPONENT_STREAM[component], target]
                )
                events.extend(
                    cls._component_walk(
                        rng, model, component, target, config.horizon_seconds, config.repair
                    )
                )
        return cls(events, config.horizon_seconds)

    @staticmethod
    def _component_walk(
        rng: np.random.Generator,
        model: FaultModel,
        component: ComponentKind,
        target: int,
        horizon: float,
        repair: bool,
    ) -> List[FaultEvent]:
        """Alternating up/down renewal walk for one component instance."""
        events: List[FaultEvent] = []
        now = 0.0
        while True:
            up = float(rng.exponential(model.mtbf_seconds))
            now += up
            if now >= horizon:
                break
            transient = bool(rng.random() < model.transient_fraction)
            down = float(rng.exponential(model.mttr_seconds)) if model.mttr_seconds else 0.0
            if not (transient and repair):
                events.append(
                    FaultEvent(component, target, now, math.inf, FaultKind.PERMANENT)
                )
                break  # a dead component cannot fail again
            events.append(
                FaultEvent(component, target, now, down, FaultKind.TRANSIENT)
            )
            now += down
        return events

    # ------------------------------------------------------------------ #
    # Transformations and summaries
    # ------------------------------------------------------------------ #

    def without_repair(self) -> "FaultSchedule":
        """The repair-disabled twin: same fault instants, nothing returns.

        Because a dead component cannot fail again, only each component's
        *first* fault survives the transformation.
        """
        first: Dict[Tuple[ComponentKind, int], FaultEvent] = {}
        for event in self.events:
            key = (event.component, event.target)
            if key not in first:
                first[key] = replace(
                    event, duration=math.inf, kind=FaultKind.PERMANENT
                )
        return FaultSchedule(list(first.values()), self.horizon_seconds)

    def downtime_seconds(self) -> float:
        """Total component-downtime implied by the schedule (clipped to the
        horizon), before any busy-component deferral by the simulator."""
        total = 0.0
        for event in self.events:
            end = min(self.horizon_seconds, event.repair_time)
            total += max(0.0, end - event.start)
        return total

    def scheduled_availability(self, num_components: int) -> float:
        """Fraction of component-time up, as scheduled (an upper bound on
        what the simulator observes, which defers faults on busy parts)."""
        if num_components <= 0 or self.horizon_seconds <= 0:
            return 1.0
        budget = num_components * self.horizon_seconds
        return max(0.0, 1.0 - self.downtime_seconds() / budget)

    def faults_by_component(self) -> Dict[ComponentKind, int]:
        out: Dict[ComponentKind, int] = {}
        for event in self.events:
            out[event.component] = out.get(event.component, 0) + 1
        return out


_COMPONENT_STREAM = {
    ComponentKind.SHUTTLE: 1,
    ComponentKind.READ_DRIVE: 2,
    ComponentKind.METADATA: 3,
}


# ---------------------------------------------------------------------- #
# Fleet-level, domain-scoped outages
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class DomainOutage:
    """One outage of one named failure domain.

    ``domain`` is a fleet domain name (``lib:2``, ``power:0``,
    ``region:east``). ``duration`` is the repair time in seconds;
    ``math.inf`` encodes a fail-stop with no repair before the horizon.
    ``correlated`` marks outages fired by a shared-infrastructure event
    (a power domain) rather than an independent library failure.
    """

    domain: str
    start: float
    duration: float
    kind: FaultKind
    correlated: bool = False

    @property
    def repairs(self) -> bool:
        return math.isfinite(self.duration)

    @property
    def repair_time(self) -> float:
        return self.start + self.duration

    def covers(self, t: float) -> bool:
        """True when the domain is down at time ``t``."""
        return self.start <= t < self.repair_time


@dataclass(frozen=True)
class FleetChaosConfig:
    """What domains to break, how often, and for how long."""

    horizon_seconds: float
    #: independent whole-library fail-stop with repair clocks.
    library: Optional[FaultModel] = None
    #: correlated rack-row power events (every library in the domain).
    power: Optional[FaultModel] = None
    repair: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.horizon_seconds <= 0:
            raise ValueError("horizon_seconds must be positive")


class FleetFaultSchedule:
    """An ordered, reproducible list of domain-scoped outages.

    The schedule reuses the per-component renewal machinery of
    :class:`FaultSchedule` — each domain gets an independent substream of
    alternating up/down intervals — but targets are *named domains*
    instead of component indices, so one event can take down every
    library that shares a rack row.
    """

    def __init__(self, outages: List[DomainOutage], horizon_seconds: float):
        self.outages = sorted(outages, key=lambda o: (o.start, o.domain))
        self.horizon_seconds = horizon_seconds

    def __len__(self) -> int:
        return len(self.outages)

    def __iter__(self) -> Iterator[DomainOutage]:
        return iter(self.outages)

    @classmethod
    def generate(
        cls,
        config: FleetChaosConfig,
        library_domains: Sequence[str],
        power_domains: Sequence[str] = (),
    ) -> "FleetFaultSchedule":
        """Draw a schedule from per-domain renewal processes.

        Each domain's substream is derived from the seed, the domain
        class, and the domain's position, so adding libraries does not
        perturb the power domains' schedule (mirroring
        :meth:`FaultSchedule.generate`).
        """
        outages: List[DomainOutage] = []
        population = [
            (config.library, library_domains, _LIBRARY_STREAM, False),
            (config.power, power_domains, _POWER_STREAM, True),
        ]
        for model, domains, stream, correlated in population:
            if model is None:
                continue
            for index, domain in enumerate(domains):
                rng = np.random.default_rng([config.seed, stream, index])
                for event in FaultSchedule._component_walk(
                    rng,
                    model,
                    ComponentKind.METADATA,  # placeholder; only timing is used
                    index,
                    config.horizon_seconds,
                    config.repair,
                ):
                    outages.append(
                        DomainOutage(
                            domain=domain,
                            start=event.start,
                            duration=event.duration,
                            kind=event.kind,
                            correlated=correlated,
                        )
                    )
        return cls(outages, config.horizon_seconds)

    # ------------------------------------------------------------------ #
    # Queries the fleet coordinator routes on
    # ------------------------------------------------------------------ #

    def down(self, domains: Sequence[str], t: float) -> bool:
        """True when any of ``domains`` has an active outage at ``t``."""
        wanted = set(domains)
        return any(o.domain in wanted and o.covers(t) for o in self.outages)

    def next_up(self, domains: Sequence[str], t: float) -> float:
        """Earliest time >= ``t`` when none of ``domains`` is down.

        Returns ``math.inf`` if some covering outage never repairs.
        """
        wanted = set(domains)
        now = t
        while True:
            active = [
                o for o in self.outages if o.domain in wanted and o.covers(now)
            ]
            if not active:
                return now
            latest = max(o.repair_time for o in active)
            if math.isinf(latest):
                return math.inf
            now = latest

    def outages_for(self, domains: Sequence[str]) -> List[DomainOutage]:
        """The outages that touch any of ``domains``, in start order."""
        wanted = set(domains)
        return [o for o in self.outages if o.domain in wanted]

    # ------------------------------------------------------------------ #
    # Transformations and summaries (FaultSchedule-shaped)
    # ------------------------------------------------------------------ #

    def without_repair(self) -> "FleetFaultSchedule":
        """The repair-disabled twin: only each domain's first outage, made
        permanent — a dead domain cannot fail again."""
        first: Dict[str, DomainOutage] = {}
        for outage in self.outages:
            if outage.domain not in first:
                first[outage.domain] = replace(
                    outage, duration=math.inf, kind=FaultKind.PERMANENT
                )
        return FleetFaultSchedule(list(first.values()), self.horizon_seconds)

    def downtime_seconds(self) -> float:
        """Total domain-downtime implied by the schedule, clipped to the
        horizon."""
        total = 0.0
        for outage in self.outages:
            end = min(self.horizon_seconds, outage.repair_time)
            total += max(0.0, end - outage.start)
        return total

    def scheduled_availability(self, num_domains: int) -> float:
        """Fraction of domain-time up, as scheduled."""
        if num_domains <= 0 or self.horizon_seconds <= 0:
            return 1.0
        budget = num_domains * self.horizon_seconds
        return max(0.0, 1.0 - self.downtime_seconds() / budget)


_LIBRARY_STREAM = 11
_POWER_STREAM = 12
