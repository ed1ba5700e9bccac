"""Configuration of one library-simulation run.

:class:`SimConfig` is the single frozen dataclass every layer shares: the
CLI builds it from flags, bench scenarios pin it under a seed, and the
kernel subsystems read it through :class:`~repro.core.sim.context.
SimContext`. It is picklable (tenant registries are plain frozen
dataclasses) so parameter sweeps can ship configs to worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ...library.layout import LibraryConfig
from .hooks import TenancyLike


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one library simulation run."""

    drive_throughput_mbps: float = 60.0
    num_drives: int = 20
    num_shuttles: int = 20
    policy: str = "silica"  # "silica" | "sp" | "ns"
    work_stealing: bool = True
    amortize_batch: bool = True
    fast_switching: bool = True
    track_payload_bytes: float = 20e6  # 200 layers x 100 kB sectors
    nc_read_overhead: float = 0.10  # within-track NC + framing read inflation
    num_platters: int = 3000
    platter_set_information: int = 16
    platter_set_redundancy: int = 3
    unavailable_fraction: float = 0.0
    shard_tracks_limit: int = 50  # large files shard across platters (§6)
    platter_tracks: int = 100_000  # tracks per platter (seek distances)
    sort_batch_by_track: bool = False  # elevator read order (§4.1 ablation)
    battery_management: bool = True  # controller monitors battery (§4.1)
    battery_capacity_joules: float = 400_000.0
    battery_low_threshold: float = 0.15
    recharge_seconds: float = 900.0
    # Transient-fault lifecycle (chaos harness): per-attempt probability of a
    # transient sector read error, and the read-retry escalation ladder's
    # costs — a re-read costs another seek+scan; the deeper LDPC iteration
    # budget costs ``deep_decode_factor`` extra scans and leaves a residual
    # error probability of ``prob * deep_decode_residual`` before the last
    # rung (cross-platter NC recovery) is taken.
    transient_read_error_prob: float = 0.0
    deep_decode_factor: float = 2.0
    deep_decode_residual: float = 0.1
    # Capped exponential backoff for arrivals hitting a metadata outage.
    metadata_backoff_base_seconds: float = 1.0
    metadata_backoff_cap_seconds: float = 60.0
    # Multi-tenant QoS: the platter-fetch priority policy ("arrival" is the
    # §4.1 default; "deadline" is the weighted-deadline policy and needs a
    # tenant registry), plus the tenant mix itself. With ``tenancy`` set,
    # ingress quotas are enforced at trace intake and the report grows a
    # per-tenant / per-class QoS block. The registry enters through the
    # :class:`~repro.core.sim.hooks.TenancyLike` seam — the kernel never
    # imports the tenancy package.
    fetch_policy: str = "arrival"
    tenancy: Optional[TenancyLike] = None
    # Fine-grained shuttle motion: True (the default) schedules every trip
    # hop (move/pick/move/place) as its own event; False collapses each
    # trip into one closed-form completion event. Coarse trips draw RNG in
    # the same canonical order *within* a trip but at the trip's start
    # rather than spread across hop times, so on fleets where trips
    # overlap other RNG consumers the global draw interleaving — and hence
    # simulated metrics — can differ from fine. On serialized geometries
    # the two are byte-identical (pinned by golden replay).
    fine_motion_events: bool = True
    seed: int = 0
    library: LibraryConfig = field(default_factory=LibraryConfig)

    def __post_init__(self) -> None:
        if self.policy not in ("silica", "sp", "ns"):
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.fetch_policy not in ("arrival", "deadline"):
            raise ValueError(f"unknown fetch policy {self.fetch_policy!r}")
        if self.fetch_policy == "deadline" and self.tenancy is None:
            raise ValueError("fetch_policy='deadline' requires a tenancy registry")
        if self.num_shuttles > self.library.max_shuttles:
            raise ValueError(
                f"{self.num_shuttles} shuttles exceed the panel cap of "
                f"{self.library.max_shuttles} (2x read drives)"
            )
        if not 0 <= self.unavailable_fraction < 1:
            raise ValueError("unavailable_fraction must be in [0, 1)")
        if not 0 <= self.transient_read_error_prob < 1:
            raise ValueError("transient_read_error_prob must be in [0, 1)")
        if self.metadata_backoff_base_seconds <= 0:
            raise ValueError("metadata_backoff_base_seconds must be positive")

    @property
    def track_read_bytes(self) -> float:
        """Raw bytes scanned per track (payload + NC/framing overhead)."""
        return self.track_payload_bytes * (1 + self.nc_read_overhead)
