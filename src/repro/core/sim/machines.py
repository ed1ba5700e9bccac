"""Per-machine simulation state wrappers: one drive, one shuttle.

These are the leaf state machines the robotics subsystem composes: a
:class:`DriveSim` pairs a :class:`~repro.media.read_drive.ReadDriveModel`
with its scheduling/occupancy flags, and a :class:`ShuttleSim` pairs a
:class:`~repro.library.shuttle.Shuttle` with its busy flag. All mutation
happens in :mod:`repro.core.sim.robotics`; keeping the state containers
here keeps that module focused on behaviour.
"""

from __future__ import annotations

from typing import Optional

from ...library.layout import Position
from ...library.shuttle import Shuttle
from ...media.read_drive import ReadDriveModel


class DriveSim:
    """State machine of one read drive inside the simulation."""

    def __init__(self, drive_id: int, model: ReadDriveModel, position: Position):
        self.drive_id = drive_id
        self.model = model
        self.position = position
        self.slot_reserved = False  # customer slot claimed by a fetch in flight
        self.customer_platter: Optional[str] = None
        self.serving = False
        self.awaiting_return: Optional[str] = None
        self.return_assigned = False
        self.read_seconds = 0.0
        self.switch_seconds = 0.0
        self.seek_seconds = 0.0
        self.head_track = 0
        self.failed = False
        self.current_mount: Optional[int] = None  # mount-cycle id for tracing

    @property
    def customer_slot_free(self) -> bool:
        """Whether a fetch may target this drive's customer slot."""
        return (
            not self.slot_reserved
            and self.customer_platter is None
            and self.awaiting_return is None
            and not self.failed
        )

    @property
    def occupied(self) -> bool:
        """A fault must wait for an operation boundary on this drive."""
        return bool(self.serving or self.awaiting_return or self.slot_reserved)

    @property
    def sampled_busy(self) -> bool:
        """The monitor's "busy drive" gauge: actively streaming a read.

        Deliberately narrower than :attr:`occupied` — a drive waiting on
        a platter return holds resources but does no customer work, and
        the timeseries is meant to show delivered service.
        """
        return bool(self.serving)


class ShuttleSim:
    """Wrapper pairing a Shuttle with its simulation busy flag."""

    def __init__(self, shuttle: Shuttle):
        self.shuttle = shuttle
        self.busy = False
        #: Dispatch recharge memo: True while the last idle recharge
        #: check said "no recharge needed" and the battery has not changed
        #: since (an idle shuttle drains nothing). Cleared at every
        #: busy -> idle transition and on repair.
        self.no_recharge_memo = False

    @property
    def idle(self) -> bool:
        """Available for assignment: not busy and not failed."""
        return not self.busy and not self.shuttle.failed

    @property
    def sampled_busy(self) -> bool:
        """The monitor's "busy shuttle" gauge: mid-errand (failed or not)."""
        return bool(self.busy)
