"""Tenant model: SLO classes, quotas, tenant specs, and the registry.

A production archival service serves many customers whose read demand
spans ~7 orders of magnitude across data centers (Figure 1c); a single
bursty tenant must not starve everyone else. The model here gives every
tenant a named **SLO class** — a completion-deadline target plus a
scheduling weight — and an optional **ingress quota** (token-bucket bytes
per second) enforced at the frontend by
:mod:`repro.tenancy.admission`. The scheduler-facing half (deadline-aware
platter-fetch keys) lives in :mod:`repro.tenancy.qos`.

Everything is a plain frozen dataclass so a tenant mix can ride inside a
:class:`repro.core.sim.SimConfig` and be rebuilt bit-identically
from a seed — matched-seed determinism is what the bench comparator's
EXACT-match gate relies on.

Units: deadline targets are **seconds** of simulation time; quota rates
are **bytes/second** of admitted read traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..core.metrics import SLO_SECONDS


@dataclass(frozen=True)
class SLOClass:
    """One service level: a deadline target and a scheduling weight.

    ``deadline_seconds`` is the completion-time target a request of this
    class should meet (arrival to last byte out); ``weight`` biases the
    deadline-aware fetch policy — a higher weight shrinks the class's
    effective slack, so its requests are fetched sooner relative to their
    deadline than a lower-weight class's.
    """

    name: str
    deadline_seconds: float
    weight: float = 1.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.deadline_seconds <= 0:
            raise ValueError(f"class {self.name!r}: deadline must be positive")
        if self.weight <= 0:
            raise ValueError(f"class {self.name!r}: weight must be positive")


#: Premium restores: a 4-hour target, scheduled ahead of everything else.
EXPEDITED = SLOClass(
    "expedited", deadline_seconds=4 * 3600.0, weight=4.0,
    description="premium restores: 4 h deadline target",
)

#: The paper's 15-hour archival SLO (Section 7.2) — the default class.
STANDARD = SLOClass(
    "standard", deadline_seconds=SLO_SECONDS, weight=2.0,
    description="the paper's 15 h archival SLO",
)

#: Bulk/batch restores: deadline-tolerant background traffic.
BULK = SLOClass(
    "bulk", deadline_seconds=48 * 3600.0, weight=1.0,
    description="batch restores: 48 h deadline target",
)

DEFAULT_CLASSES: Tuple[SLOClass, ...] = (EXPEDITED, STANDARD, BULK)


@dataclass(frozen=True)
class QuotaSpec:
    """Token-bucket ingress quota for one tenant.

    ``bytes_per_second`` is the sustained admission rate and
    ``burst_bytes`` the bucket depth. A zero/zero quota is a valid
    configuration meaning *admit nothing* (a suspended tenant). A request
    larger than ``burst_bytes`` can never be admitted — the bucket cannot
    hold enough tokens — and is rejected outright.
    """

    bytes_per_second: float
    burst_bytes: float

    def __post_init__(self) -> None:
        if self.bytes_per_second < 0 or self.burst_bytes < 0:
            raise ValueError("quota rates must be non-negative")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: identity, SLO class, demand rate, optional quota.

    ``rate_per_second`` is the tenant's *offered* read-request rate (used
    by the multi-tenant trace generator); ``quota`` is what the frontend
    will actually *admit* (``None`` means unlimited). ``burstiness`` is
    the per-hour lognormal sigma of the tenant's arrival modulation, the
    same convention as
    :meth:`repro.workload.generator.WorkloadGenerator.interval_trace`.
    """

    name: str
    slo_class: str = STANDARD.name
    rate_per_second: float = 0.1
    quota: Optional[QuotaSpec] = None
    burstiness: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.rate_per_second < 0:
            raise ValueError(f"tenant {self.name!r}: rate must be non-negative")


@dataclass(frozen=True)
class TenantRegistry:
    """The tenant mix of one run: tenants, classes, and policy knobs.

    ``aging`` parameterizes the deadline-aware fetch policy's
    anti-starvation term (see :class:`repro.tenancy.qos.
    DeadlineAwareFetchPolicy`): 0 is pure weighted-EDF, 1 degenerates to
    arrival order. Unknown or untagged tenants resolve to
    ``default_class`` (the paper's 15 h standard SLO), so a single-tenant
    trace runs unchanged under a tenancy-enabled configuration.
    """

    tenants: Tuple[TenantSpec, ...] = ()
    classes: Tuple[SLOClass, ...] = DEFAULT_CLASSES
    aging: float = 0.25
    default_class: SLOClass = field(default=STANDARD)

    def __post_init__(self) -> None:
        if not 0.0 <= self.aging <= 1.0:
            raise ValueError("aging must be in [0, 1]")
        names = [t.name for t in self.tenants]
        if len(names) != len(set(names)):
            raise ValueError("duplicate tenant names in registry")
        class_names = {c.name for c in self.classes} | {self.default_class.name}
        for tenant in self.tenants:
            if tenant.slo_class not in class_names:
                raise ValueError(
                    f"tenant {tenant.name!r} references unknown class "
                    f"{tenant.slo_class!r}"
                )
        # Derived lookup, kept outside the dataclass fields so ``==``,
        # ``repr`` and ``replace`` see only the fields.
        classes = self.class_map()
        object.__setattr__(
            self,
            "_class_by_tenant",
            {t.name: classes[t.slo_class] for t in self.tenants},
        )

    def class_map(self) -> Dict[str, SLOClass]:
        """Name -> :class:`SLOClass` for every registered class."""
        mapping = {c.name: c for c in self.classes}
        mapping.setdefault(self.default_class.name, self.default_class)
        return mapping

    def class_of(self, tenant: str) -> SLOClass:
        """The tenant's SLO class (``default_class`` when unknown/untagged)."""
        return self._class_by_tenant.get(tenant, self.default_class)

    def deadline_for(self, tenant: str, arrival: float) -> float:
        """Absolute completion deadline of a request arriving at ``arrival``."""
        return arrival + self.class_of(tenant).deadline_seconds

    # ------------------------------------------------------------------ #
    # Kernel seam (repro.core.sim.hooks.TenancyLike)
    # ------------------------------------------------------------------ #

    def admission_controller(self) -> "AdmissionController":
        """A fresh ingress admission controller over this registry.

        Factory half of the :class:`repro.core.sim.hooks.TenancyLike`
        seam: the simulation kernel calls this instead of importing
        :mod:`repro.tenancy.admission` itself (imported lazily here to
        keep the registry picklable without the controller's state).
        """
        from .admission import AdmissionController

        return AdmissionController(self)

    def fetch_policy_for(self, name: str) -> Optional[object]:
        """The named platter-fetch policy bound to this registry.

        The other factory half of the ``TenancyLike`` seam; ``name`` is
        ``SimConfig.fetch_policy`` (``"arrival"`` or ``"deadline"``).
        """
        from .qos import policy_for

        return policy_for(name, self)


def skewed_mix(
    num_tenants: int = 6,
    seed: int = 0,
    total_rate_per_second: float = 3.0,
    hot_share: float = 0.75,
    decay: float = 0.35,
    aging: float = 0.25,
    zero_quota_tenant: bool = False,
) -> TenantRegistry:
    """A hot-tenant mix calibrated to the paper's per-DC read-rate spread.

    One dominant ``bulk`` tenant carries ``hot_share`` of the total offered
    rate (the bursty customer that would starve everyone under arrival
    order); the remaining tenants alternate ``expedited`` / ``standard``
    with geometrically decaying rates (ratio ``decay``), so the mix spans
    orders of magnitude of per-tenant demand the way Figure 1(c)'s
    data-center read rates do. The construction is purely deterministic —
    ``seed`` only namespaces tenant ids so two mixes in one process don't
    collide; arrival randomness comes from the trace generator's streams.

    ``zero_quota_tenant`` appends a suspended tenant (zero token-bucket
    quota) used by the admission-accounting tests and chaos runs.
    """
    if num_tenants < 2:
        raise ValueError("a skewed mix needs at least 2 tenants")
    tenants = [
        TenantSpec(
            name=f"t{seed}-hot",
            slo_class=BULK.name,
            rate_per_second=total_rate_per_second * hot_share,
            burstiness=0.5,
        )
    ]
    cold = total_rate_per_second * (1.0 - hot_share)
    shares = [decay**i for i in range(num_tenants - 1)]
    norm = sum(shares)
    for i, share in enumerate(shares):
        slo = EXPEDITED.name if i % 2 == 0 else STANDARD.name
        tenants.append(
            TenantSpec(
                name=f"t{seed}-{slo[:3]}{i}",
                slo_class=slo,
                rate_per_second=cold * share / norm,
            )
        )
    if zero_quota_tenant:
        tenants.append(
            TenantSpec(
                name=f"t{seed}-suspended",
                slo_class=STANDARD.name,
                rate_per_second=cold / max(1, num_tenants - 1),
                quota=QuotaSpec(bytes_per_second=0.0, burst_bytes=0.0),
            )
        )
    return TenantRegistry(tenants=tuple(tenants), aging=aging)
