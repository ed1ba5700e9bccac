"""The composable library-simulation kernel (``repro.core.sim``).

One Silica library is simulated by five subsystems composed over one
:class:`~repro.core.sim.context.SimContext`:

- :mod:`~repro.core.sim.robotics` — drives, shuttles, moves, mounts,
  recharge (the mechanical plant);
- :mod:`~repro.core.sim.dispatch` — the controller's dispatch loop and the
  three policy strategies (silica / sp / ns) behind
  :class:`~repro.core.sim.hooks.DispatchPolicy`;
- :mod:`~repro.core.sim.lifecycle` — request intake, queueing, recovery
  fan-out, completion;
- :mod:`~repro.core.sim.faults` — failure injection, repair clocks,
  return-to-service;
- :mod:`~repro.core.sim.verification` — the fluid read-back queue.

:class:`~repro.core.sim.kernel.SimKernel` wires them together and is
the one way to build and run a library::

    kernel = SimKernel(SimConfig(num_shuttles=20))
    kernel.lifecycle.assign_trace(trace, measure_start, measure_end)
    report = kernel.run()

The kernel is the bottom of the simulator stack: it never imports
``repro.tenancy`` / ``repro.faults`` / ``repro.observability`` /
``repro.service`` — those layers plug in through the protocols in
:mod:`~repro.core.sim.hooks` (enforced by ``tools/check_layers.py``).
"""

from .config import SimConfig
from .context import SimContext, SimCounters
from .dispatch import (
    DispatchSubsystem,
    NoShuttleDispatch,
    ShortestPathsDispatch,
    SilicaDispatch,
    dispatch_policy_for,
)
from .faults import FaultSubsystem
from .hooks import (
    AdmissionLike,
    DispatchPolicy,
    FaultEventLike,
    FaultScheduleLike,
    FetchPolicyLike,
    TenancyLike,
    TracerLike,
)
from .kernel import SimKernel
from .lifecycle import RequestLifecycle
from .machines import DriveSim, ShuttleSim
from .robotics import RoboticsSubsystem
from .verification import VerificationSubsystem

__all__ = [
    "AdmissionLike",
    "DispatchPolicy",
    "DispatchSubsystem",
    "DriveSim",
    "FaultEventLike",
    "FaultScheduleLike",
    "FaultSubsystem",
    "FetchPolicyLike",
    "NoShuttleDispatch",
    "RequestLifecycle",
    "RoboticsSubsystem",
    "ShortestPathsDispatch",
    "ShuttleSim",
    "SilicaDispatch",
    "SimConfig",
    "SimContext",
    "SimCounters",
    "SimKernel",
    "TenancyLike",
    "TracerLike",
    "VerificationSubsystem",
    "dispatch_policy_for",
]
