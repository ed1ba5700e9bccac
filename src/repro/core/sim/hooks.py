"""Hook seams: the protocols outer layers implement to plug into the kernel.

The ``core.sim`` kernel is the bottom of the simulator stack; it must not
import :mod:`repro.tenancy`, :mod:`repro.faults`, :mod:`repro.observability`
or :mod:`repro.service` (enforced by ``tools/check_layers.py``). Anything
those layers contribute — tracing, admission control, QoS fetch priorities,
fault schedules — enters through the structural protocols below: the outer
layer hands the kernel an object satisfying the protocol, and the kernel
programs against the protocol alone. This is the generalization of the
original ``tracer`` hook, and it is what lets a worker
process run N kernels without dragging the whole service stack along.

All protocols are ``runtime_checkable`` so subsystem unit tests can assert
their stubs actually satisfy the seam they stub.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    Optional,
    Protocol,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover
    from .dispatch import DispatchSubsystem


@runtime_checkable
class TracerLike(Protocol):
    """Structured-event sink (the :class:`repro.observability.Tracer` seam).

    The kernel only ever checks ``enabled`` once at construction and calls
    ``emit`` afterwards; a disabled tracer costs a single pointer
    comparison per emission site.
    """

    @property
    def enabled(self) -> bool:
        """Whether this tracer records events at all."""
        ...

    def emit(self, time: float, kind: str, **attrs: object) -> None:
        """Record one structured event at simulated ``time``."""
        ...


@runtime_checkable
class FetchPolicyLike(Protocol):
    """Platter-fetch priority policy (the :mod:`repro.tenancy.qos` seam).

    Maps a queued request to a static priority key (smaller is more
    urgent). The scheduler's built-in arrival-order policy satisfies this
    protocol too; the deadline-aware QoS policy is the tenancy layer's
    implementation.
    """

    name: str
    #: Whether a priority improvement on an already-pending platter should
    #: republish its fetch candidacy (deadline policies must; arrival order
    #: declines to preserve the historical §4.1 dispatch order).
    refresh_on_improvement: bool

    def key(self, request: object) -> float:
        """Priority key for one request (smaller fetches sooner)."""
        ...


@runtime_checkable
class AdmissionLike(Protocol):
    """Ingress admission control (the :mod:`repro.tenancy.admission` seam)."""

    def admit(self, tenant: str, size_bytes: int, now: float) -> bool:
        """Charge the tenant's quota; False rejects the read at ingress."""
        ...

    def stats_dict(self) -> Dict[str, object]:
        """Per-tenant admit/reject accounting for the QoS report."""
        ...


@runtime_checkable
class TenancyLike(Protocol):
    """Tenant registry (the :mod:`repro.tenancy.model` seam).

    ``SimConfig.tenancy`` holds an object satisfying this protocol; the
    kernel resolves its admission controller and fetch policy through the
    two factory methods so it never imports the tenancy package itself.
    """

    def class_of(self, tenant: str) -> object:
        """The tenant's SLO class (``.name`` / ``.deadline_seconds``)."""
        ...

    def admission_controller(self) -> AdmissionLike:
        """A fresh ingress admission controller over this registry."""
        ...

    def fetch_policy_for(self, name: str) -> Optional[FetchPolicyLike]:
        """The named platter-fetch policy bound to this registry."""
        ...


@runtime_checkable
class FaultEventLike(Protocol):
    """One scheduled component fault (the :mod:`repro.faults` seam).

    ``component`` needs only a ``value`` attribute naming the component
    class (``"shuttle"`` / ``"read_drive"`` / ``"metadata"``), which the
    :class:`repro.faults.ComponentKind` enum provides.
    """

    component: object
    target: int
    start: float
    duration: float

    @property
    def repairs(self) -> bool:
        """Whether the fault carries a finite repair clock."""
        ...


class FaultScheduleLike(Protocol):
    """An iterable of fault events, armed via ``apply_fault_schedule``."""

    def __iter__(self) -> Iterator[FaultEventLike]:
        """Yield the schedule's events (any order; each is armed once)."""
        ...


@runtime_checkable
class DispatchPolicy(Protocol):
    """One controller dispatch strategy (silica / sp / ns).

    ``run`` performs a full dispatch pass — assigning idle shuttles (and,
    for the no-shuttle baseline, free drives) to pending work — against the
    :class:`~repro.core.sim.dispatch.DispatchSubsystem` shared machinery.
    """

    name: str

    def run(self, dispatch: "DispatchSubsystem") -> None:
        """Execute one dispatch pass over the subsystem's state."""
        ...


#: A zero-argument callback (arrival retries, dispatch requests, ...).
Thunk = Callable[[], None]
