"""A per-pass oracle for the dispatch subsystem's incremental caches.

Dispatch keeps what a pass needs in dirty-flagged caches instead of
rescanning the library on every event: the cover index, drive routes, the
free-partition set with per-owner refcounts, the steal donors, the
partition-heap entry count, the pending-return list, the idle-battery
memo and the pass's idle pool (see :mod:`repro.core.sim.dispatch`). Each
cache is an *optimization contract*: it must answer exactly what a
recomputation from raw state would.

The oracle wraps the kernel's dispatch ``policy.run``. Before and after
every pass it recomputes each cache from raw state — ``partition_cover``,
``drive_override``, drive and shuttle flags, ``partition_load``, the heaps
— and asserts equality; every idle pool a pass takes must equal a full
idle scan. Reading a memo may fill it (a pure function of its inputs), so
every oracle run is also replayed unwrapped and the two reports must be
equal: the oracle's reads change nothing.

* a Hypothesis property test drives the oracle through randomized
  workloads, and therefore randomized enqueue / end-service / fault /
  repair interleavings, across all three policies;
* a regression test forces partition-cover changes *while platters are
  mid-service* (aggressive shuttle faults) — the scenario where a stale
  cover index or owner refcount would silently mis-route or skip work;
* an end-of-run check recomputes the free set and owner refcounts at
  quiescence, after the last pass.

``test_sim_golden_replay.test_dispatch_matches_golden`` pins the decisions
the caches produce against committed digests.
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.sim import SimConfig, SimKernel
from repro.core.traffic import PartitionedPolicy
from repro.faults import ChaosConfig, FaultModel, FaultSchedule
from repro.workload.generator import WorkloadGenerator


def _trace(rate, seed):
    generator = WorkloadGenerator(seed=seed)
    return generator.interval_trace(
        rate,
        interval_hours=0.2,
        warmup_hours=0.05,
        cooldown_hours=0.05,
        fixed_size=6_000_000,
        stream=seed,
    )


def _chaos_schedule(config, seed, shuttle_mtbf=400.0, drive_mtbf=600.0):
    chaos = ChaosConfig(
        horizon_seconds=0.35 * 3600.0,
        shuttle=FaultModel(mtbf_seconds=shuttle_mtbf, mttr_seconds=90.0),
        drive=FaultModel(mtbf_seconds=drive_mtbf, mttr_seconds=120.0),
        seed=seed,
    )
    return FaultSchedule.generate(chaos, config.num_shuttles, config.num_drives)


def _kernel(policy, seed, rate, faults=False):
    """One small sim, composed and loaded but not yet run."""
    config = SimConfig(
        policy=policy, num_platters=240, num_drives=4, num_shuttles=4, seed=seed
    )
    trace, start, end = _trace(rate, seed)
    kernel = SimKernel(config)
    kernel.lifecycle.assign_trace(trace, start, end)
    if faults:
        kernel.faults.apply_fault_schedule(_chaos_schedule(config, seed))
    return kernel


def _route(kernel, pid):
    """A partition's serving drive, resolved from the raw routing tables."""
    robotics = kernel.robotics
    drive_id = kernel.dispatch.drive_override.get(
        pid, robotics.policy.partitions[pid].drive_id
    )
    if drive_id >= len(robotics.drives):
        return None
    drive = robotics.drives[drive_id]
    return None if drive.failed else drive


def _assert_free_set(kernel):
    """The free set and per-owner refcounts equal a fresh count."""
    dispatch = kernel.dispatch
    cover = dispatch.partition_cover
    fresh = set()
    for pid in cover:
        drive = _route(kernel, pid)
        if drive is not None and drive.customer_slot_free:
            fresh.add(pid)
    assert dispatch.free_partitions() == fresh
    refcounts = {own: n for own, n in dispatch._free_owner_count.items() if n}
    assert refcounts == Counter(cover[pid] for pid in fresh)


def _check_caches(kernel):
    """Recompute every dispatch cache from raw state; assert equality."""
    dispatch = kernel.dispatch
    robotics = kernel.robotics
    config = kernel.ctx.config
    cover = dispatch.partition_cover
    if isinstance(robotics.policy, PartitionedPolicy):
        for owner in set(cover) | set(cover.values()):
            assert dispatch.covered_partitions(owner) == [
                pid for pid, own in cover.items() if own == owner
            ]
        for pid in cover:
            assert dispatch.partition_drive(pid) is _route(kernel, pid)
        _assert_free_set(kernel)
        assert dispatch.steal_donors() == robotics.policy.steal_candidates(
            dispatch.partition_load
        )
    assert dispatch._partition_entries == sum(
        len(heap) for heap in dispatch.partition_heaps.values()
    )
    assert sorted(drive.drive_id for drive in dispatch._pending_returns) == sorted(
        drive.drive_id
        for drive in robotics.drives
        if drive.awaiting_return is not None and not drive.return_assigned
    )
    for shuttle_sim in robotics.shuttles:
        if shuttle_sim.idle and shuttle_sim.no_recharge_memo:
            battery = shuttle_sim.shuttle.battery_fraction
            assert not (
                config.battery_management
                and battery < config.battery_low_threshold
            )


def _install_oracle(kernel):
    """Wrap the dispatch pass in the oracle; returns the checked-pass tally."""
    dispatch = kernel.dispatch
    shuttles = kernel.robotics.shuttles
    policy = dispatch.policy
    run = policy.run
    idle_pool = dispatch.idle_pool
    tally = {"passes": 0, "pools": 0}

    def checked_run(d):
        _check_caches(kernel)
        run(d)
        _check_caches(kernel)
        tally["passes"] += 1

    def checked_pool():
        pool = idle_pool()
        assert pool == [s for s in shuttles if s.idle]
        tally["pools"] += 1
        return pool

    policy.run = checked_run
    dispatch.idle_pool = checked_pool
    return tally


def _oracle_run(policy, seed, rate, faults=False):
    """Run one cell under the oracle and once bare; reports must match."""
    kernel = _kernel(policy, seed, rate, faults)
    tally = _install_oracle(kernel)
    report = kernel.run().as_dict()
    assert tally["passes"] == kernel.ctx.counters.dispatch_passes.value > 0
    if policy != "ns":
        assert tally["pools"] == tally["passes"]
    assert report == _kernel(policy, seed, rate, faults).run().as_dict()
    return kernel


interleaving = st.fixed_dictionaries(
    {
        "policy": st.sampled_from(["silica", "sp", "ns"]),
        "rate": st.floats(min_value=0.1, max_value=1.2),
        "seed": st.integers(min_value=0, max_value=5_000),
        "faults": st.booleans(),
    }
)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(interleaving)
def test_caches_match_recompute_every_pass(params):
    """Randomized interleavings: every cache equals its recompute per pass."""
    _oracle_run(
        params["policy"], params["seed"], params["rate"], faults=params["faults"]
    )


def test_cover_change_mid_service_keeps_heaps_fresh():
    """Partition-cover rewrites mid-service must not strand heap entries.

    Aggressive shuttle faults rewrite ``partition_cover`` while fetches
    are in flight; a stale cover index, free-set owner refcount, or heap
    entry count would either skip assignable work or assign to the wrong
    shuttle. The run must actually exercise the scenario — it asserts
    shuttle faults fired and repairs happened — with the oracle checking
    every pass.
    """
    kernel = _oracle_run("silica", seed=17, rate=0.9, faults=True)
    counters = kernel.ctx.counters
    assert counters.faults_injected.value > 0
    assert counters.faults_repaired.value > 0


def test_free_partition_set_matches_recompute():
    """At quiescence the free set / owner refcounts equal a fresh recompute."""
    kernel = _kernel("silica", seed=3, rate=0.8)
    kernel.run()
    _assert_free_set(kernel)


def test_short_circuit_counter_counts_empty_pools():
    """Passes that find no idle shuttle are counted; NS never takes one."""
    kernel = _kernel("silica", seed=5, rate=0.4)
    kernel.run()
    counters = kernel.ctx.counters
    assert 0 < counters.dispatch_short_circuits.value
    assert counters.dispatch_short_circuits.value <= counters.dispatch_passes.value
    kernel = _kernel("ns", seed=5, rate=0.4)
    kernel.run()
    assert kernel.ctx.counters.dispatch_short_circuits.value == 0
