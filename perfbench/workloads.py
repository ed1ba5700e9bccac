"""The benchmark's workloads, pinned here and built from the public API.

Every parameter a workload depends on lives in this file, so a change to
the program under test can never silently change what the benchmark
runs. The twins are composed from ``SimConfig``, ``SimKernel``,
``WorkloadGenerator`` and ``skewed_mix`` directly (never through the
bench scenario registry or the ``LibrarySimulation`` facade); the live
server is started exactly as a user starts it, ``python -m repro serve``
with the flags in :data:`SERVE_FLAGS`.

Importing this module imports nothing from ``repro``: the twin process
times its own imports as part of set-up.
"""

from __future__ import annotations

#: Twin workloads. Each replays one arrival trace, generated from its
#: pinned ``seed``; the run's seed drives the library's own randomness
#: (platter placement, read-to-platter mapping, track offsets, motion
#: jitter). The trace is pinned because tenant_qos's hot tenant draws one
#: lognormal burst factor per trace hour, so its read count swings by
#: about 13% between trace seeds (56k to 74k reads on seeds 1-5); that
#: swing, not the program, would set every metric's seed-to-seed spread.
#: At the pinned seed the outputs must match ``reference.json`` exactly;
#: any other run seed is checked for conservation instead.
TWINS = {
    # Fig 9 replay (§7.4): the full 7,700-platter library, 20 drives at
    # 60 MB/s, 20 shuttles, Silica partitioned policy with work stealing;
    # 100 MB reads at 1.6/s. The mechanical plant does the work.
    "fig9_full": {
        "seed": 12,
        "rate_per_s": 1.6,
        "read_bytes": 100_000_000,
        "interval_hours": 1.5,
        "warmup_hours": 0.5,
        "cooldown_hours": 0.5,
        "stream": 60,
        "num_drives": 20,
        "num_shuttles": 20,
        "drive_mbps": 60.0,
    },
    # Six tenants, one hot bulk tenant, IOPS-profile sizes at 4.2 reads/s
    # into a 6-drive, 6-shuttle, 1,200-platter library under the deadline
    # fetch key. Queues run hours deep: per-read bookkeeping dominates.
    "tenant_qos": {
        "seed": 5,
        "num_tenants": 6,
        "hot_share": 0.8,
        "rate_per_s": 4.2,
        "interval_hours": 3.0,
        "warmup_hours": 0.25,
        "cooldown_hours": 0.25,
        "num_drives": 6,
        "num_shuttles": 6,
        "num_platters": 1200,
        "fetch_policy": "deadline",
    },
}

#: ``python -m repro serve`` flags: the CLI library defaults (20 drives,
#: 20 shuttles, 1,200 platters), three quota-bearing tenants whose burst
#: holds any object, and a dilation at which a read's simulated service
#: costs microseconds of wall time, so latency is the program's own cost.
#: ``--sample-interval`` keeps the default's wall cadence of two samples
#: per wall second (300 sim-s at dilation 600 = 5e5 sim-s at 1e6).
SERVE_FLAGS = [
    "--port", "0",
    "--tenants", "3",
    "--quota-burst-mb", "1024",
    "--dilation", "1e6",
    "--sample-interval", "5e5",
]

#: The serve_http client: one process, one asyncio loop, closed loop.
SERVE_LOAD = {
    "connections": 2,
    "setup_objects": 256,
    "measured_ops": 6000,
    "get_share": 0.9,
    "size_median_bytes": 64_000_000,
    "size_sigma": 0.8,
    "size_min_bytes": 1_000_000,
    "size_max_bytes": 512_000_000,
}


def import_program() -> None:
    """Import every module a twin run uses (timed as part of set-up)."""
    import repro.core.sim  # noqa: F401
    import repro.library.layout  # noqa: F401
    import repro.tenancy  # noqa: F401
    import repro.workload.generator  # noqa: F401
    import repro.workload.profiles  # noqa: F401


def build_twin(name: str, seed: int):
    """Generate the trace and build the prepared kernel of one twin.

    ``seed`` is the kernel's seed; the trace comes from the workload's
    pinned seed. Returns ``(kernel, reads_in_trace)``; the trace is
    assigned, the kernel has not run.
    """
    from repro.core.sim import SimConfig, SimKernel
    from repro.library.layout import LibraryConfig
    from repro.workload.generator import WorkloadGenerator

    spec = TWINS[name]
    generator = WorkloadGenerator(seed=spec["seed"])
    if name == "fig9_full":
        trace, start, end = generator.interval_trace(
            spec["rate_per_s"],
            interval_hours=spec["interval_hours"],
            warmup_hours=spec["warmup_hours"],
            cooldown_hours=spec["cooldown_hours"],
            fixed_size=spec["read_bytes"],
            stream=spec["stream"],
        )
        library = LibraryConfig()
        config = SimConfig(
            drive_throughput_mbps=spec["drive_mbps"],
            num_drives=spec["num_drives"],
            num_shuttles=spec["num_shuttles"],
            num_platters=library.storage_capacity,
            seed=seed,
            library=library,
        )
    else:
        from repro.tenancy import skewed_mix
        from repro.workload.profiles import IOPS

        registry = skewed_mix(
            num_tenants=spec["num_tenants"],
            seed=spec["seed"],
            total_rate_per_second=spec["rate_per_s"],
            hot_share=spec["hot_share"],
        )
        trace, start, end = generator.multi_tenant_trace(
            registry,
            interval_hours=spec["interval_hours"],
            warmup_hours=spec["warmup_hours"],
            cooldown_hours=spec["cooldown_hours"],
            size_model=IOPS.size_model,
        )
        config = SimConfig(
            num_drives=spec["num_drives"],
            num_shuttles=spec["num_shuttles"],
            num_platters=spec["num_platters"],
            fetch_policy=spec["fetch_policy"],
            tenancy=registry,
            seed=seed,
        )
    kernel = SimKernel(config)
    kernel.lifecycle.assign_trace(trace, start, end)
    return kernel, len(trace)
