"""Virtual-time soak: closed-loop clients against the server core.

The ``serve_soak`` bench scenario needs the *serving path* — catalog,
admission, ticket resolution from the kernel's completion seam, the
``/events`` trace feed — under sustained concurrent load, but with
bit-identical counters across repetitions so the baseline's simulated
metrics can be EXACT-gated. So the soak runs the whole thing in virtual
time: closed-loop clients are continuation chains on the simulation's
own event queue (submit → complete → think → next), no sockets, no wall
clock, no dilation. The p99 the scenario reports is *simulated*
end-to-end API latency; wall-clock behaviour is the live server's job
and is exercised by the loadgen smoke instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..observability.tracer import TraceEvent
from .core import ArchiveServerCore, ReadRejected, ReadTicket
from .loadgen import percentile

#: Bounds on how long a rejected client waits before its next attempt —
#: the clamp keeps a suspended tenant (infinite Retry-After) live.
MIN_RETRY_SECONDS = 60.0
MAX_RETRY_SECONDS = 1800.0


@dataclass(frozen=True)
class SoakSpec:
    """One virtual soak: clients, per-client request budget, mix shape."""

    clients: int = 24
    requests_per_client: int = 6
    think_seconds: float = 600.0
    object_count: int = 48
    object_mb_mean: float = 192.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.clients < 1 or self.requests_per_client < 1:
            raise ValueError("clients and requests_per_client must be >= 1")


def _object_sizes(spec: SoakSpec) -> List[int]:
    """Deterministic object sizes (lognormal, floored at 8 MB)."""
    rng = np.random.default_rng([spec.seed, 7])
    sizes = rng.lognormal(
        mean=math.log(spec.object_mb_mean * 1e6), sigma=0.7, size=spec.object_count
    )
    return [int(max(8e6, s)) for s in sizes]


def run_soak(core: ArchiveServerCore, spec: SoakSpec) -> Dict[str, float]:
    """Drive the soak to quiescence; return EXACT-gateable metrics.

    Every value is a deterministic function of ``(core.config, spec)``:
    counters, simulated latency percentiles, and two 1.0/0.0 gates (all
    clients finished; tracer rejects equal the kernel controller's
    rejects and the core's 429s). Drives the sim clock itself, in
    virtual time, so it calls the core directly instead of injecting.
    """
    sim = core.sim
    tenants = [t.name for t in core.registry.tenants] if core.registry else [""]
    rng = np.random.default_rng([spec.seed, 11])
    for i, size in enumerate(_object_sizes(spec)):
        core.put_object(f"soak-{i:04d}", size, tenant=tenants[i % len(tenants)])
    objects = sorted(core.catalog)

    latencies: List[float] = []
    state = {"finished": 0, "issued": 0, "rejects": 0, "skipped": 0, "traced_rejects": 0}

    def count_rejects(event: TraceEvent) -> None:
        if event.kind == "admission.reject":
            state["traced_rejects"] += 1

    core.subscribe(count_rejects)

    def start_client(client: int) -> None:
        plan_rng = np.random.default_rng([spec.seed, 100 + client])
        remaining = [spec.requests_per_client]
        tenant = tenants[client % len(tenants)]

        def issue() -> None:
            if remaining[0] <= 0:
                state["finished"] += 1
                return
            remaining[0] -= 1
            obj = objects[int(plan_rng.integers(0, len(objects)))]
            state["issued"] += 1
            outcome = core.begin_read(obj, tenant)
            if isinstance(outcome, ReadRejected):
                state["rejects"] += 1
                retry = outcome.retry_after_sim
                if retry is None or not math.isfinite(retry):
                    # Nothing to wait for — skip this item after a think.
                    state["skipped"] += 1
                    delay = spec.think_seconds
                else:
                    delay = min(max(retry, MIN_RETRY_SECONDS), MAX_RETRY_SECONDS)
                sim.schedule(delay, issue, label="soak-retry")
                return
            ticket: ReadTicket = outcome

            def done(t: ReadTicket) -> None:
                latencies.append(t.latency_sim_seconds)
                think = float(plan_rng.exponential(spec.think_seconds))
                sim.schedule(think, issue, label="soak-think")

            ticket.on_complete(done)

        offset = float(rng.uniform(0.0, spec.think_seconds))
        sim.schedule(offset, issue, label="soak-start")

    for client in range(spec.clients):
        start_client(client)
    sim.run()
    core.unsubscribe(count_rejects)

    traced_rejects = state["traced_rejects"]
    controller_rejects = (
        core.admission.total_rejected() if core.admission is not None else 0
    )
    counters = core.counters
    return {
        "soak_clients": float(spec.clients),
        "soak_requests_issued": float(state["issued"]),
        "soak_completed": float(counters["reads_completed"]),
        "soak_rejected": float(counters["rejected_quota"]),
        "soak_skipped": float(state["skipped"]),
        "soak_reject_rate": (
            state["rejects"] / state["issued"] if state["issued"] else 0.0
        ),
        "soak_latency_p50_s": percentile(latencies, 50.0),
        "soak_latency_p95_s": percentile(latencies, 95.0),
        "soak_latency_p99_s": percentile(latencies, 99.0),
        "soak_sim_seconds": sim.now,
        "soak_all_clients_finished_gate": (
            1.0 if state["finished"] == spec.clients else 0.0
        ),
        "soak_reject_parity_gate": (
            1.0 if traced_rejects == controller_rejects == counters["rejected_quota"] else 0.0
        ),
    }
