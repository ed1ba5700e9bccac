"""End-to-end latency: library completion plus disaggregated decode.

Section 7.2: "The completion time does not include the disaggregated
decode, however, decode requests can be submitted with high priority to the
ML stack for reads that complete close to the SLO."

This module composes the two: every completed library read becomes a decode
job in the elastic ML cluster; its SLO budget is whatever remains of the
15-hour SLO after the library's completion time (reads that finished close
to the SLO get tight budgets — i.e. high priority — exactly as the paper
describes). The result is the true last-byte-decoded distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..decode.pipeline import ClusterConfig, DecodeCluster, DecodeJob, diurnal_price_curve
from .metrics import SLO_SECONDS, CompletionStats
from .sim import SimKernel


@dataclass
class EndToEndReport:
    """Library + decode latency composition."""

    library_completions: CompletionStats
    end_to_end: CompletionStats
    decode_cost: float
    decode_slo_violations: int

    @property
    def decode_overhead_at_tail(self) -> float:
        """Extra tail seconds the decode stage added."""
        return self.end_to_end.tail - self.library_completions.tail


def compose_with_decode(
    kernel: SimKernel,
    sectors_per_track: float = 200.0,
    cluster_config: Optional[ClusterConfig] = None,
    slo_seconds: float = SLO_SECONDS,
    price_amplitude: float = 0.5,
    defer: bool = True,
) -> EndToEndReport:
    """Feed a finished kernel run's reads through the decode scheduler.

    Each completed top-level request becomes one decode job whose work is
    its track count times ``sectors_per_track`` sector-decodes, arriving at
    the library completion instant with the *remaining* SLO (minus one
    scheduling quantum of safety margin) as its budget. With ``defer``
    False the cluster decodes on arrival instead of time-shifting to cheap
    hours — higher cost, lower latency (the trade-off of Section 3.2).
    """
    completed = list(kernel.measured_completed())
    if not completed:
        raise ValueError("simulation has no measured completed requests")
    horizon_hours = int(math.ceil(kernel.ctx.sim.now / 3600.0)) + int(
        slo_seconds // 3600
    ) + 1
    cluster = DecodeCluster(
        diurnal_price_curve(horizon_hours, amplitude=price_amplitude),
        cluster_config,
    )
    end_to_end_times: List[float] = []
    library_times: List[float] = []
    for request in sorted(completed, key=lambda r: r.completion):
        library_latency = request.completion_time
        # Reserve one scheduling quantum: decode completes at the end of
        # its hour, so the budget must leave room for that rounding.
        remaining_slo = max(0.001, (slo_seconds - library_latency) / 3600.0 - 1.0)
        if not defer:
            remaining_slo = 0.001  # force decode-on-arrival
        job = DecodeJob(
            job_id=request.request_id,
            arrival_hour=request.completion / 3600.0,
            work_units=max(1.0, request.num_tracks * sectors_per_track),
            slo_hours=remaining_slo,
        )
        placed = cluster.schedule(job)
        # Decode finishes by the end of its scheduled hour.
        decoded_at = (placed.start_hour + 1) * 3600.0
        decoded_at = max(decoded_at, request.completion)
        end_to_end_times.append(decoded_at - request.arrival)
        library_times.append(library_latency)
    return EndToEndReport(
        library_completions=CompletionStats.from_times(library_times),
        end_to_end=CompletionStats.from_times(end_to_end_times),
        decode_cost=cluster.total_cost(),
        decode_slo_violations=cluster.slo_violations(),
    )
