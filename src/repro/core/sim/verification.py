"""Verification subsystem: the fluid read-back queue (Section 3.1).

Freshly written platters queue for full read-back; the read drives' idle
(non-customer) time drains the queue at aggregate throughput. Tracked as a
fluid integrator updated at every drive state change, so verification
costs zero events while drives are idle and the per-platter completion
latency is still exact (linear interpolation within each drain segment).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .context import SimContext


class VerificationSubsystem:
    """Fluid-approximation model of background platter verification."""

    def __init__(self, ctx: SimContext, num_drives: int):
        self.ctx = ctx
        self.num_drives = num_drives
        self._verifying_drives = num_drives
        self._verify_rate_per_drive = ctx.config.drive_throughput_mbps * 1e6
        self._last_verify_update = 0.0
        self._verify_drained = 0.0
        self._verify_queue: List[Tuple[float, float, float]] = []  # (arrival, bytes, cum_end)
        self._verify_cum_demand = 0.0
        self.verify_latencies: List[float] = []

    def submit_verification(
        self, platter_bytes: float, time: Optional[float] = None
    ) -> None:
        """A freshly written platter joins the verification queue.

        Its full capacity must be read back by the read drives' idle time;
        the completion latency lands in :attr:`verify_latencies`.
        """
        ctx = self.ctx

        def arrive() -> None:
            self.update_fluid()
            self._verify_cum_demand += platter_bytes
            self._verify_queue.append(
                (ctx.sim.now, platter_bytes, self._verify_cum_demand)
            )
            if ctx.tracer is not None:
                ctx.tracer.emit(
                    ctx.sim.now,
                    "verify.submit",
                    bytes=platter_bytes,
                    backlog_bytes=self.backlog_bytes,
                )

        if time is None or time <= ctx.sim.now:
            arrive()
        else:
            ctx.sim.schedule_at(time, arrive, label="verify-arrival")

    @property
    def backlog_bytes(self) -> float:
        """Bytes submitted for verification and not yet drained."""
        return max(0.0, self._verify_cum_demand - self._verify_drained)

    def update_fluid(self) -> None:
        """Advance the fluid drain to `now` and pop completed platters."""
        now = self.ctx.sim.now
        dt = now - self._last_verify_update
        if dt > 0 and self._verifying_drives > 0:
            rate = self._verifying_drives * self._verify_rate_per_drive
            before = self._verify_drained
            self._verify_drained += rate * dt
            while self._verify_queue and self._verify_queue[0][2] <= self._verify_drained:
                arrival, _bytes, cum_end = self._verify_queue.pop(0)
                # Interpolate the exact completion instant within [last, now].
                completed_at = self._last_verify_update + (cum_end - before) / rate
                self.verify_latencies.append(max(0.0, completed_at - arrival))
        self._last_verify_update = now

    def drive_stops_verifying(self) -> None:
        """A drive left the verification pool (customer work or failure)."""
        self.update_fluid()
        self._verifying_drives = max(0, self._verifying_drives - 1)

    def drive_resumes_verifying(self) -> None:
        """A drive rejoined the verification pool."""
        self.update_fluid()
        self._verifying_drives = min(self.num_drives, self._verifying_drives + 1)
