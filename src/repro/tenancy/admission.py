"""Token-bucket admission control at the service frontend.

Ingress quotas are the first line of multi-tenant isolation: a tenant
whose offered load exceeds its purchased rate is rejected *before* its
requests occupy scheduler queues and drive time. Each quota-bearing
tenant gets a classic token bucket (``bytes_per_second`` refill,
``burst_bytes`` depth); a read is admitted iff the bucket holds at least
its size in tokens. Tenants without a quota bypass the buckets entirely.

The controller is deliberately clock-passive: callers supply the
decision time (trace time in simulation, service clock at the frontend)
and refill is computed lazily from the elapsed interval, so matched-seed
runs make bit-identical admit/reject decisions regardless of wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from .model import QuotaSpec, TenantRegistry


class AdmissionRejected(Exception):
    """Raised by the frontend when a tenant's quota rejects a read."""

    def __init__(self, tenant: str, size_bytes: int, reason: str = "quota") -> None:
        super().__init__(
            f"tenant {tenant!r}: read of {size_bytes} bytes rejected ({reason})"
        )
        self.tenant = tenant
        self.size_bytes = size_bytes
        self.reason = reason


@dataclass
class TokenBucket:
    """One tenant's ingress bucket: lazy refill, explicit decision clock.

    ``level`` starts full (a quiescent tenant can burst immediately).
    Time never flows backwards: a decision timestamped earlier than the
    last one refills nothing, which keeps replayed/sharded traces safe.
    """

    spec: QuotaSpec
    level: float = field(default=0.0)
    last_refill: float = field(default=0.0)

    def __post_init__(self) -> None:
        self.level = self.spec.burst_bytes

    def _refill(self, now: float) -> None:
        elapsed = now - self.last_refill
        if elapsed > 0:
            self.level = min(
                self.spec.burst_bytes,
                self.level + elapsed * self.spec.bytes_per_second,
            )
            self.last_refill = now

    def try_admit(self, size_bytes: int, now: float) -> bool:
        """Admit (and debit) ``size_bytes`` at time ``now``, or refuse."""
        self._refill(now)
        if size_bytes <= self.level:
            self.level -= size_bytes
            return True
        return False

    def seconds_until(self, size_bytes: int, now: float) -> float:
        """Refill time until ``size_bytes`` could be admitted at ``now``.

        0.0 when the bucket already holds enough tokens; ``inf`` when the
        read can never fit (bigger than the burst depth, or zero refill
        rate). This is what a frontend's ``Retry-After`` header is
        derived from. Read-only: calling it refills the bucket (a pure
        function of elapsed time) but debits nothing.
        """
        self._refill(now)
        if size_bytes <= self.level:
            return 0.0
        if size_bytes > self.spec.burst_bytes or self.spec.bytes_per_second <= 0:
            return float("inf")
        return (size_bytes - self.level) / self.spec.bytes_per_second


@dataclass
class TenantAdmissionStats:
    """Per-tenant admit/reject accounting exported with the QoS block."""

    admitted: int = 0
    rejected: int = 0
    admitted_bytes: int = 0
    rejected_bytes: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Stable-keyed dict for JSON artifacts."""
        return {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "admitted_bytes": self.admitted_bytes,
            "rejected_bytes": self.rejected_bytes,
        }


class AdmissionController:
    """Applies every tenant's token bucket and keeps the books.

    One instance lives wherever reads enter the system (the simulation's
    trace ingest, or an :class:`repro.service.frontend.ArchiveService`).
    ``admit`` is the whole API: it returns the decision and updates the
    per-tenant :class:`TenantAdmissionStats` either way. Unknown tenants
    and tenants without a quota are always admitted.
    """

    def __init__(self, registry: TenantRegistry) -> None:
        self.registry = registry
        self._buckets: Dict[str, TokenBucket] = {
            spec.name: TokenBucket(spec.quota)
            for spec in registry.tenants
            if spec.quota is not None
        }
        self.stats: Dict[str, TenantAdmissionStats] = {}

    def _stats_for(self, tenant: str) -> TenantAdmissionStats:
        stats = self.stats.get(tenant)
        if stats is None:
            stats = TenantAdmissionStats()
            self.stats[tenant] = stats
        return stats

    def retry_after(self, tenant: str, size_bytes: int, now: float) -> Optional[float]:
        """Seconds until a just-rejected read could pass, or None.

        None means the tenant has no bucket (its reads are never
        rejected, so there is nothing to wait for). Delegates to
        :meth:`TokenBucket.seconds_until`.
        """
        bucket = self._buckets.get(tenant)
        if bucket is None:
            return None
        return bucket.seconds_until(size_bytes, now)

    def admit(self, tenant: str, size_bytes: int, now: float) -> bool:
        """Decide one read; record it in the tenant's admission stats."""
        stats = self._stats_for(tenant)
        bucket = self._buckets.get(tenant)
        ok = True if bucket is None else bucket.try_admit(size_bytes, now)
        if ok:
            stats.admitted += 1
            stats.admitted_bytes += size_bytes
        else:
            stats.rejected += 1
            stats.rejected_bytes += size_bytes
        return ok

    def total_rejected(self) -> int:
        """Rejections across all tenants (drives the sim counter/gauge)."""
        return sum(s.rejected for s in self.stats.values())

    def stats_dict(self) -> Dict[str, Dict[str, int]]:
        """Tenant-name-sorted admission accounting for artifacts."""
        return {name: self.stats[name].as_dict() for name in sorted(self.stats)}
