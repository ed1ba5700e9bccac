"""Streamed trace intake: eager-equivalent runs, and no per-read garbage.

``RequestLifecycle.assign_trace`` files every arrival in a sorted intake
under a sequence number reserved at assign time, and only the intake's
head has an engine event. The oracle here runs the same kernel twice: once
through ``assign_trace``, once through the same loop written inline —
each platter drawn from ``ctx.rng``, then ``lifecycle.submit()``, which
outside ``assign_trace`` schedules one engine event per arrival at once.
The trace stream, the report, ``events_processed`` and the engine
counters must be identical.
"""

import gc
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sim import SimConfig, SimKernel
from repro.observability import Tracer
from repro.serve import ArchiveServerCore, ServeConfig
from repro.tenancy import QuotaSpec, TenantRegistry, skewed_mix
from repro.workload.generator import WorkloadGenerator
from repro.workload.traces import ReadTrace


def _interval(seed, rate=0.5, hours=0.3, fixed_size=4_000_000):
    return WorkloadGenerator(seed=seed).interval_trace(
        rate,
        interval_hours=hours,
        warmup_hours=0.05,
        cooldown_hours=0.05,
        fixed_size=fixed_size,
    )


def _halves(trace):
    """Every other request: two traces whose arrival times interleave."""
    requests = list(trace)
    return ReadTrace(requests[0::2]), ReadTrace(requests[1::2])


def _eager_assign(lifecycle, trace, start, end):
    """``assign_trace``'s uniform loop, written out: the same draws and
    ``submit`` calls, each arrival scheduled as its own engine event."""
    rng = lifecycle.ctx.rng
    platters = lifecycle.robotics.platters
    n = len(platters)
    for request in trace:
        platter = platters[int(rng.integers(0, n))]
        lifecycle.submit(request, platter, start <= request.time < end)


def _case(name):
    """(config, steps, before) for one named case.

    ``steps`` are ``("assign", trace, start, end)`` or ``("run", until)``;
    ``before(kernel)`` arms faults ahead of the first step.
    """
    config = SimConfig(num_platters=200, num_drives=4, num_shuttles=4, seed=9)
    trace, start, end = _interval(seed=9)
    before = None
    if name == "sorted":
        steps = [("assign", trace, start, end)]
    elif name == "shuffled":
        requests = list(trace)
        random.Random(3).shuffle(requests)
        steps = [("assign", requests, start, end)]
    elif name == "two_calls":
        first, second = _halves(trace)
        steps = [("assign", first, start, end), ("assign", second, start, end)]
    elif name == "two_calls_run_between":
        first, second = _halves(trace)
        steps = [
            ("assign", first, start, end),
            ("run", 500.0),
            ("assign", second, start, end),
        ]
    elif name == "sharded_unavailable":
        config = replace(config, unavailable_fraction=0.1)
        trace, start, end = _interval(seed=4, rate=0.05, fixed_size=3_000_000_000)
        steps = [("assign", trace, start, end)]
    elif name == "quota_rejects":
        base = skewed_mix(num_tenants=3, seed=2, total_rate_per_second=0.6)
        quota = QuotaSpec(bytes_per_second=0.5e6, burst_bytes=40e6)
        registry = TenantRegistry(
            tenants=tuple(replace(t, quota=quota) for t in base.tenants),
            aging=base.aging,
        )
        config = replace(config, tenancy=registry, fetch_policy="deadline")
        trace, start, end = WorkloadGenerator(seed=2).multi_tenant_trace(
            registry, interval_hours=0.3, warmup_hours=0.05, cooldown_hours=0.05
        )
        steps = [("assign", trace, start, end)]
    else:
        assert name == "metadata_outage_at_zero"

        def before(kernel):
            kernel.faults.schedule_metadata_outage(0.0, 240.0)

        steps = [("assign", trace, start, end)]
    return config, steps, before


def _run(config, steps, before, streamed):
    """Every observable of one run: trace lines, report, engine counters."""
    tracer = Tracer()
    kernel = SimKernel(config, tracer=tracer)
    if before is not None:
        before(kernel)
    lifecycle = kernel.lifecycle
    for step in steps:
        if step[0] == "run":
            kernel.run(until=step[1])
        elif streamed:
            lifecycle.assign_trace(*step[1:])
        else:
            _eager_assign(lifecycle, *step[1:])
    report = kernel.run()
    sim = kernel.ctx.sim
    return (
        [event.to_json() for event in tracer.events()],
        json.dumps(report.as_dict(), sort_keys=True),
        sim.events_processed,
        sim.scheduler_stats,
    )


CASES = [
    "sorted",
    "shuffled",
    "two_calls",
    "two_calls_run_between",
    "sharded_unavailable",
    "quota_rejects",
    "metadata_outage_at_zero",
]

#: The trace kind each case must exercise, or it proves nothing.
EXERCISED = {
    "sharded_unavailable": "recovery.fanout",
    "quota_rejects": "admission.reject",
    "metadata_outage_at_zero": "request.metadata_blocked",
}


@pytest.mark.parametrize("name", CASES)
def test_streamed_intake_replays_eager_scheduling(name):
    config, steps, before = _case(name)
    streamed = _run(config, steps, before, streamed=True)
    eager = _run(config, steps, before, streamed=False)
    assert streamed == eager
    kinds = [json.loads(line)["kind"] for line in streamed[0]]
    assert kinds.count("request.arrival") > 100
    if name in EXERCISED:
        assert EXERCISED[name] in kinds


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=50),
    calls=st.integers(min_value=1, max_value=3),
    shuffle=st.booleans(),
    horizons=st.lists(st.sampled_from([0.0, 100.0, 400.0]), min_size=2, max_size=2),
)
def test_streamed_intake_matches_eager_on_split_traces(seed, calls, shuffle, horizons):
    """Any split of a trace into calls, any order within a call, with or
    without runs between the calls: streamed and eager runs agree."""
    config = SimConfig(num_platters=120, num_drives=2, num_shuttles=2, seed=seed)
    trace, start, end = _interval(seed=seed, rate=0.2, hours=0.1)
    requests = list(trace)
    if shuffle:
        random.Random(seed).shuffle(requests)
    steps = []
    for index in range(calls):
        if index and horizons[index - 1] > 0:
            steps.append(("run", horizons[index - 1]))
        steps.append(("assign", requests[index::calls], start, end))
    assert _run(config, steps, None, True) == _run(config, steps, None, False)


def test_intake_keeps_one_pending_arrival():
    """Only the head arrival sits in the engine heap."""
    kernel = SimKernel(SimConfig(num_platters=120, num_drives=2, num_shuttles=2, seed=1))
    trace, start, end = _interval(seed=1, rate=0.2, hours=0.1)
    kernel.lifecycle.assign_trace(trace, start, end)
    assert len(trace) > 50
    assert kernel.ctx.sim.pending == 1
    assert kernel.ctx.sim.scheduler_stats["pushes"] == len(trace)
    kernel.run()
    assert len(list(kernel.measured_completed())) > 0
    assert kernel.ctx.sim.pending == 0


# --------------------------------------------------------------------- #
# No per-read garbage
# --------------------------------------------------------------------- #


def _garbage_after(run):
    """Cyclic garbage ``run()`` leaves for the collector, with gc off.

    ``run`` returns what it built, which stays referenced while the
    collector runs: only what became unreachable is counted.
    """
    gc.collect()
    gc.disable()
    try:
        kept = run()
        found = gc.collect()
    finally:
        gc.enable()
    del kept
    return found


def _twin(reads):
    trace, start, end = _interval(seed=6, rate=reads / (0.4 * 3600.0), hours=0.3)

    def run():
        kernel = SimKernel(SimConfig(num_platters=120, num_drives=4, num_shuttles=4, seed=6))
        kernel.lifecycle.assign_trace(trace, start, end)
        kernel.run()
        return kernel

    return run, len(trace)


def _served(reads):
    core = ArchiveServerCore(
        ServeConfig(
            dilation=0.0,
            sample_interval_seconds=0.0,
            sim=SimConfig(num_drives=4, num_shuttles=4, num_platters=120, seed=5),
        )
    )
    for i in range(16):
        core.put_object(f"obj-{i}", 8_000_000)

    def run():
        tickets = [core.begin_read(f"obj-{i % 16}") for i in range(reads)]
        core.sim.run()
        assert all(ticket.done for ticket in tickets)
        return tickets

    return run


def test_no_per_read_garbage():
    """Doubling the reads a twin, or a served core, completes leaves the
    collector no more cyclic garbage: no read leaves a reference cycle."""
    small_run, small_reads = _twin(400)
    large_run, large_reads = _twin(800)
    assert large_reads > small_reads + 300
    assert _garbage_after(large_run) == _garbage_after(small_run)
    assert _garbage_after(_served(600)) == _garbage_after(_served(300))
