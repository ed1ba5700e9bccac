"""Incremental dispatch must be observationally identical to a full rescan.

The incremental dispatch path (``SimConfig.incremental_dispatch=True``,
the default) replaces per-event rescans with dirty-flagged caches: the
cover index, drive routes, the free-partition set with per-owner
refcounts, heap entry counts, the pending-return list, and the
idle-shuttle short circuit. Every one of those caches is an *optimization
contract*: the simulator's behaviour — which shuttle is assigned which
platter on which drive, in which order — must be bit-identical with the
naive rescan reference.

These tests pin that contract three ways:

* a Hypothesis property test drives randomized workloads (and therefore
  randomized enqueue / end-service / fault / repair interleavings)
  through both modes and asserts the *assignment logs* — every
  ``start_fetch`` and ``start_return``, with timestamps and ids — match
  exactly, along with the full report;
* a regression test forces partition-cover changes *while platters are
  mid-service* (aggressive shuttle faults) — the scenario where a stale
  cover index or free-set owner refcount would silently mis-route or
  skip work;
* an invariant check recomputes the free-partition set and owner
  refcounts from scratch after a run and compares them with the
  incrementally maintained ones.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.sim import SimConfig, SimKernel
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


def _recorded_run(policy, seed, rate, incremental, faults=False):
    """Run one small sim and log every dispatch assignment in order."""
    config = SimConfig(
        policy=policy,
        num_platters=240,
        num_drives=4,
        num_shuttles=4,
        seed=seed,
        incremental_dispatch=incremental,
    )
    trace, start, end = _trace(rate, seed)
    kernel = SimKernel(config)
    kernel.lifecycle.assign_trace(trace, start, end)
    if faults:
        kernel.faults.apply_fault_schedule(_chaos_schedule(config, seed))
    robotics = kernel.robotics
    engine = kernel.ctx.sim
    log = []
    orig_fetch = robotics.start_fetch
    orig_return = robotics.start_return

    def start_fetch(shuttle_sim, platter, drive):
        log.append(
            ("fetch", engine.now, shuttle_sim.shuttle.shuttle_id, platter,
             drive.drive_id)
        )
        return orig_fetch(shuttle_sim, platter, drive)

    def start_return(shuttle_sim, drive):
        log.append(
            ("return", engine.now, shuttle_sim.shuttle.shuttle_id,
             drive.drive_id)
        )
        return orig_return(shuttle_sim, drive)

    robotics.start_fetch = start_fetch
    robotics.start_return = start_return
    report = kernel.run()
    return kernel, log, report.as_dict()


def _assert_modes_identical(policy, seed, rate, faults=False):
    kernel_inc, log_inc, report_inc = _recorded_run(
        policy, seed, rate, incremental=True, faults=faults
    )
    _, log_ref, report_ref = _recorded_run(
        policy, seed, rate, incremental=False, faults=faults
    )
    assert log_inc == log_ref
    assert report_inc == report_ref
    return kernel_inc


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
def test_incremental_matches_rescan_order(params):
    """Randomized interleavings: identical assignment order in both modes."""
    _assert_modes_identical(
        params["policy"], params["seed"], params["rate"], faults=params["faults"]
    )


def test_cover_change_mid_service_keeps_heaps_fresh():
    """Partition-cover rewrites mid-service must not strand heap entries.

    Aggressive shuttle faults rewrite ``partition_cover`` while fetches
    are in flight; a stale cover index, free-set owner refcount, or heap
    entry count would either skip assignable work (order divergence) or
    assign to the wrong shuttle. The run must actually exercise the
    scenario — it asserts shuttle faults fired and repairs happened — and
    still match the rescan byte for byte.
    """
    kernel = _assert_modes_identical("silica", seed=17, rate=0.9, faults=True)
    counters = kernel.ctx.counters
    assert counters.faults_injected.value > 0
    assert counters.faults_repaired.value > 0


def test_free_partition_set_matches_recompute():
    """The maintained free set / owner refcounts equal a fresh recompute."""
    kernel, _, _ = _recorded_run("silica", seed=3, rate=0.8, incremental=True)
    dispatch = kernel.dispatch
    maintained = set(dispatch.free_partitions())
    expected = set()
    owners = {}
    for pid, cover in dispatch.partition_cover.items():
        drive = dispatch.partition_drive(pid)
        if drive is not None and drive.customer_slot_free:
            expected.add(pid)
            owners[cover] = owners.get(cover, 0) + 1
    assert maintained == expected
    live_counts = {
        own: count for own, count in dispatch._free_owner_count.items() if count
    }
    assert live_counts == owners


def test_short_circuit_counter_only_counts_incremental_fast_path():
    """The short-circuit counter stays zero on the rescan reference."""
    kernel_inc, _, _ = _recorded_run("silica", seed=5, rate=0.4, incremental=True)
    kernel_ref, _, _ = _recorded_run("silica", seed=5, rate=0.4, incremental=False)
    assert kernel_inc.ctx.counters.dispatch_short_circuits.value > 0
    assert kernel_ref.ctx.counters.dispatch_short_circuits.value == 0
