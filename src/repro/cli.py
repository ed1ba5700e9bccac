"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``workload``
    Print the Section 2 workload characterization (Figures 1-2 statistics).
``simulate``
    Run the digital twin on a named profile and print the report.
``table1``
    Print the platter-set trade-off table.
``table2``
    Print the tape-vs-Silica cost comparison and the crossover year.
``durability``
    Print the coding design points (LDPC + network coding).
``archive``
    Round-trip a payload through the full put/verify/get data path.
``chaos``
    Run the digital twin under a stochastic fault schedule (MTBF/MTTR
    repair clocks, transient read errors, metadata outages) and print the
    resilience report; ``--no-repair`` runs the same schedule fail-stop;
    ``--json`` emits the full report as stable-keyed JSON.
``trace``
    Run the digital twin with the structured tracer on and export the full
    artifact set (``trace.jsonl``, ``spans.json``, ``metrics.json``,
    ``metrics.prom``, ``report.json``) plus a critical-path breakdown.
``export``
    Run the digital twin untraced and export ``metrics.json`` /
    ``metrics.prom`` / ``report.json`` (the cheap artifact set).
``watch``
    Run the twin with the sim-time monitor attached and render an
    in-terminal dashboard (sparklines of queue depths, busy machines,
    fault state) at ``--frames`` evenly spaced sim times, pausing
    ``--refresh`` wall-seconds between frames; ``--out`` additionally
    exports the run artifacts including ``timeseries.json``, ``--html
    FILE`` renders a previously exported ``timeseries.json``
    (``--from-dir``) as a self-contained HTML timeline without re-running
    anything, and ``--follow URL`` skips the local run entirely and
    renders a live server's ``GET /events`` stream instead.
``serve``
    Run the archive as a live asyncio HTTP service over the paced twin
    (see :mod:`repro.serve`): sim time advances at ``--dilation``
    sim-seconds per wall-second, ``PUT /archive`` / ``GET /archive/{id}``
    enter the kernel through the engine's injection queue, ``--tenants``
    turns on the kernel's per-tenant token-bucket admission (429 +
    ``Retry-After``) and tags each served read with its tenant's SLO
    class and deadline, and ``GET /events`` streams tracer events as
    NDJSON.
``loadgen``
    Drive a live server with a seeded open- or closed-loop client fleet
    and write a schema-versioned per-request latency log; exits non-zero
    when any request errored at the transport level.
``bench``
    The behaviour gate (see :mod:`repro.bench`): ``bench list`` shows the
    registered scenarios, ``bench run`` executes a suite (or named
    scenarios) and writes schema-versioned ``BENCH_<scenario>.json``
    artifacts, ``bench compare`` diffs a run against the committed
    baselines exactly (non-zero exit on simulated-metric drift), and
    ``bench update-baseline`` promotes a run's artifacts to
    ``benchmarks/baselines/``. Speed is measured by ``perfbench/``
    instead (see ``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional


def _tenancy_from(args: argparse.Namespace, profile):
    """The run's tenant registry (None unless ``--tenants N`` was given).

    The skewed mix's total offered rate matches the profile's rate at the
    chosen ``--rate-factor``, so a tenancy-enabled run carries the same
    aggregate load as its single-tenant twin.
    """
    tenants = getattr(args, "tenants", 0)
    fetch_policy = getattr(args, "fetch_policy", "arrival")
    if tenants <= 0:
        if fetch_policy == "deadline":
            raise SystemExit(
                "error: --fetch-policy deadline requires --tenants N (N >= 2)"
            )
        return None
    from .tenancy import skewed_mix

    return skewed_mix(
        num_tenants=max(2, tenants),
        seed=args.seed,
        total_rate_per_second=profile.mean_rate_per_second * args.rate_factor,
    )


def _profile_trace(args: argparse.Namespace):
    """Build the interval trace shared by simulate / chaos / trace / export.

    With ``--tenants N`` the trace is the multi-tenant skewed mix instead
    of the single anonymous stream; the registry is stashed on
    ``args.tenancy_registry`` for the sim-config builders.
    """
    from .workload import WorkloadGenerator, profile_by_name

    profile = profile_by_name(args.profile)
    generator = WorkloadGenerator(seed=args.seed)
    registry = _tenancy_from(args, profile)
    args.tenancy_registry = registry
    if registry is not None:
        trace, start, end = generator.multi_tenant_trace(
            registry,
            interval_hours=args.hours,
            warmup_hours=args.hours / 6,
            cooldown_hours=args.hours / 6,
            size_model=profile.size_model,
        )
        return profile, trace, start, end
    trace, start, end = generator.interval_trace(
        profile.mean_rate_per_second * args.rate_factor,
        interval_hours=args.hours,
        warmup_hours=args.hours / 6,
        cooldown_hours=args.hours / 6,
        size_model=profile.size_model,
        burstiness=profile.burstiness,
    )
    return profile, trace, start, end


def _cmd_workload(args: argparse.Namespace) -> int:
    from .workload import (
        WorkloadGenerator,
        peak_over_mean_curve,
        read_size_histogram,
        writes_over_reads,
    )

    generator = WorkloadGenerator(seed=args.seed)
    ingress = generator.ingress_series(args.days)
    reads = generator.characterization_reads(args.days)
    ratios = writes_over_reads(ingress, reads)
    histogram = read_size_histogram(reads)
    windows, pom = peak_over_mean_curve(ingress, [1, 7, 30])
    print(f"reads analyzed        : {len(reads)}")
    print(f"write/read ops ratio  : {ratios.mean_count_ratio:.0f} (paper: 174)")
    print(f"write/read byte ratio : {ratios.mean_byte_ratio:.0f} (paper: 47)")
    print(
        f"reads <= 4 MiB        : {histogram.count_percent[0]:.1f}% of ops, "
        f"{histogram.bytes_percent[0]:.2f}% of bytes"
    )
    print(f"peak/mean ingress     : {pom[0]:.1f}x @1d, {pom[2]:.2f}x @30d")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .core import SimConfig, SimKernel

    profile, trace, start, end = _profile_trace(args)
    config = SimConfig(
        drive_throughput_mbps=args.mbps,
        num_drives=args.drives,
        num_shuttles=args.shuttles,
        policy=args.policy,
        num_platters=args.platters,
        unavailable_fraction=args.unavailable,
        fetch_policy=args.fetch_policy,
        tenancy=args.tenancy_registry,
        seed=args.seed,
    )
    kernel = SimKernel(config)
    kernel.lifecycle.assign_trace(trace, start, end)
    report = kernel.run()
    print(f"profile   : {profile.name} ({len(trace)} requests)")
    print(f"policy    : {args.policy}, {args.drives} drives @ {args.mbps} MB/s, "
          f"{args.shuttles} shuttles")
    print(f"result    : {report.summary()}")
    if report.qos is not None:
        print(f"qos       : {report.qos.summary()}")
    print(
        f"tail      : {report.completions.tail_hours:.2f} h "
        f"({'within' if report.completions.within_slo() else 'MISSES'} the 15 h SLO)"
    )
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from .layout.platter_sets import table1

    print("  I+R   overhead   racks")
    for row in table1():
        print(
            f"{row.label:>5s}   {row.write_overhead * 100:5.1f} %   {row.storage_racks:4d}"
        )
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from .costs import crossover_year, table2

    for aspect, tape, silica in table2():
        print(f"{aspect:45s} tape: {tape.value}   silica: {silica.value}")
    print(f"\nlifetime-cost crossover: silica wins from year {crossover_year()}")
    return 0


def _cmd_durability(args: argparse.Namespace) -> int:
    from .ecc.durability import log10_track_decode_failure, overhead_tradeoff

    print("within-track NC at sector failure probability 1e-3:")
    for point in overhead_tradeoff(200, [8, 12, 16, 20]):
        print(
            f"  {point.overhead * 100:4.1f}% overhead -> "
            f"track failure 1e{point.log10_failure:.0f}"
        )
    design = log10_track_decode_failure()
    print(f"paper design point (~8%): 1e{design:.0f} (< 1e-24)")
    return 0


def _cmd_archive(args: argparse.Namespace) -> int:
    from .service import ArchiveService

    service = ArchiveService()
    payload = args.payload.encode()
    service.put("cli/demo", payload)
    recovered = service.get("cli/demo")
    report = service.verifier.reports[-1]
    print(f"stored {len(payload)} bytes, verified "
          f"{report.sectors_checked} sectors ({report.sectors_failed} failed)")
    print(f"read back: {recovered.decode()!r}")
    print("roundtrip OK" if recovered == payload else "ROUNDTRIP FAILED")
    return 0 if recovered == payload else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from .core import SimConfig, SimKernel
    from .faults import ChaosConfig, FaultModel, FaultSchedule

    profile, trace, start, end = _profile_trace(args)
    config = SimConfig(
        num_drives=args.drives,
        num_shuttles=args.shuttles,
        num_platters=args.platters,
        transient_read_error_prob=args.read_error_prob,
        fetch_policy=args.fetch_policy,
        tenancy=args.tenancy_registry,
        seed=args.seed,
    )
    kernel = SimKernel(config)
    kernel.lifecycle.assign_trace(trace, start, end)
    horizon = (args.hours + 2 * args.hours / 6) * 3600.0

    def model(mtbf: float, mttr: float) -> "FaultModel":
        return FaultModel(mtbf_seconds=mtbf, mttr_seconds=mttr)

    chaos = ChaosConfig(
        horizon_seconds=horizon,
        shuttle=model(args.shuttle_mtbf, args.shuttle_mttr) if args.shuttle_mtbf else None,
        drive=model(args.drive_mtbf, args.drive_mttr) if args.drive_mtbf else None,
        metadata=model(args.metadata_mtbf, args.metadata_mttr) if args.metadata_mtbf else None,
        seed=args.seed,
    )
    schedule = FaultSchedule.generate(chaos, args.shuttles, args.drives)
    if args.no_repair:
        schedule = schedule.without_repair()
    kernel.faults.apply_fault_schedule(schedule)
    report = kernel.run()
    resilience = report.resilience
    counts = {k.value: v for k, v in schedule.faults_by_component().items()}
    if args.json:
        payload = report.as_dict()
        payload["schedule"] = {
            "faults_scheduled": len(schedule),
            "faults_by_component": {k.value: v for k, v in sorted(
                schedule.faults_by_component().items(), key=lambda kv: kv[0].value
            )},
            "repair": not args.no_repair,
        }
        payload["service_retry"] = _sim_retry_stats(kernel).as_dict()
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0
    print(f"profile    : {profile.name} ({len(trace)} requests)")
    print(f"faults     : {len(schedule)} scheduled {counts} "
          f"(repair {'off' if args.no_repair else 'on'})")
    print(f"result     : {report.summary()}")
    print(f"resilience : {resilience.summary()}")
    if report.qos is not None:
        print(f"qos        : {report.qos.summary()}")
    print(
        f"tail       : {report.completions.tail_hours:.2f} h "
        f"({'within' if report.completions.within_slo() else 'MISSES'} the 15 h SLO)"
    )
    return 0


def _sim_retry_stats(kernel):
    """The simulator's retry ladder in the front end's stats schema.

    Maps the kernel's counters onto
    :class:`repro.service.frontend.ServiceRetryStats` so ``chaos --json``
    and the service front end expose one ``service_retry`` block shape:
    ladder climbs (re-reads / deep decodes / NC escalations), accumulated
    backoff seconds, and metadata failures (requests still parked on an
    unrepaired outage at end of run).
    """
    from .service.frontend import ServiceRetryStats

    metrics = kernel.ctx.metrics
    requests = kernel.lifecycle.all_requests
    return ServiceRetryStats(
        metadata_retries=int(metrics.value("metadata_retries_total")),
        metadata_failures=sum(
            1
            for r in requests
            if r.parent is None and r.metadata_attempts and not r.done
        ),
        sector_rereads=int(metrics.value("reread_retries_total")),
        deep_decodes=int(metrics.value("deep_decodes_total")),
        unrecovered_sectors=int(metrics.value("recovery_escalations_total")),
        backoff_seconds=metrics.value("metadata_backoff_seconds_total"),
        admission_rejections=(
            int(metrics.value("admission_rejections_total"))
            if "admission_rejections_total" in metrics
            else 0
        ),
    )


def _sim_config_from(args: argparse.Namespace):
    from .core import SimConfig

    return SimConfig(
        num_drives=args.drives,
        num_shuttles=args.shuttles,
        num_platters=args.platters,
        transient_read_error_prob=args.read_error_prob,
        fetch_policy=getattr(args, "fetch_policy", "arrival"),
        tenancy=getattr(args, "tenancy_registry", None),
        seed=args.seed,
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    from .core import SimKernel
    from .observability import Tracer, critical_path, export_run

    profile, trace, start, end = _profile_trace(args)
    tracer = Tracer()
    kernel = SimKernel(_sim_config_from(args), tracer=tracer)
    kernel.lifecycle.assign_trace(trace, start, end)
    report = kernel.run()
    events = tracer.events()
    artifacts = export_run(args.out, report, kernel.ctx.metrics, events=events)
    from .observability import assemble_spans

    spans = assemble_spans(events)
    breakdown = critical_path(spans)
    print(f"profile   : {profile.name} ({len(trace)} requests)")
    print(f"result    : {report.summary()}")
    print(f"trace     : {len(events)} events, {len(spans)} request spans")
    print(breakdown.format())
    print(artifacts.summary())
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .core import SimKernel
    from .observability import export_run

    profile, trace, start, end = _profile_trace(args)
    kernel = SimKernel(_sim_config_from(args))
    kernel.lifecycle.assign_trace(trace, start, end)
    report = kernel.run()
    artifacts = export_run(args.out, report, kernel.ctx.metrics)
    print(f"profile   : {profile.name} ({len(trace)} requests)")
    print(f"result    : {report.summary()}")
    print(artifacts.summary())
    return 0


def _watch_html(args: argparse.Namespace) -> int:
    """``watch --html``: render an exported timeseries as offline HTML."""
    import json

    from .observability.watch import render_html

    source = os.path.join(args.from_dir, "timeseries.json")
    if not os.path.exists(source):
        print(f"error: no timeseries.json in {args.from_dir} "
              "(run `repro watch --out DIR` or any monitor-enabled export first)",
              file=sys.stderr)
        return 2
    with open(source, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    html = render_html(payload, title=f"run timeline — {args.from_dir}")
    with open(args.html, "w", encoding="utf-8") as handle:
        handle.write(html)
    series = payload.get("series", {})
    print(f"timeline  : {args.html} ({len(series)} series, "
          f"{payload.get('samples', 0)} samples)")
    return 0


def _watch_follow(args: argparse.Namespace) -> int:
    """``watch --follow URL``: render a live server's ``/events`` stream.

    Tails the NDJSON stream and feeds every ``monitor.sample`` record —
    the kernel-gauge snapshots the server's sampler publishes — into the
    same reservoir + renderer the batch dashboard uses; one frame per
    sample. ``serve.*`` records update the headline counters between
    frames. Runs until the stream closes or ``--seconds`` elapse.
    """
    from .observability import TimeSeriesMonitor
    from .observability.watch import render_frame
    from .serve.loadgen import stream_events

    latest: dict = {}
    monitor = TimeSeriesMonitor(interval=1.0, max_samples=args.max_samples)
    monitor.set_probe(lambda: dict(latest))
    counters = {"completed": 0, "bytes_read": 0, "rejected": 0, "events": 0}
    clear = "\x1b[H\x1b[2J" if sys.stdout.isatty() else ""
    seconds = args.seconds if args.seconds > 0 else None
    horizon = 0.0
    frames = 0
    print(f"following : {args.follow} "
          f"({'until the stream ends' if seconds is None else f'{seconds:.0f}s'})")
    for record in stream_events(args.follow, seconds=seconds):
        kind = record.get("kind")
        attrs = record.get("attrs", {})
        counters["events"] += 1
        if kind == "serve.complete":
            counters["completed"] += 1
        elif kind == "serve.get":
            counters["bytes_read"] += int(attrs.get("size_bytes", 0))
        elif kind == "serve.reject":
            counters["rejected"] += 1
        elif kind == "monitor.sample":
            ts = float(record.get("ts", 0.0))
            latest.clear()
            latest.update({k: float(v) for k, v in attrs.items()})
            monitor.sample(ts)
            horizon = max(horizon, ts)
            frames += 1
            print(clear + render_frame(monitor, ts, horizon, counters))
    print(f"stream    : {counters['events']} events, {frames} sample frames")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from .core import SimKernel
    from .observability import TimeSeriesMonitor, export_run
    from .observability.watch import render_frame

    if args.html:
        return _watch_html(args)
    if args.follow:
        return _watch_follow(args)
    profile, trace, start, end = _profile_trace(args)
    kernel = SimKernel(_sim_config_from(args))
    kernel.lifecycle.assign_trace(trace, start, end)
    horizon = (args.hours + 2 * args.hours / 6) * 3600.0
    interval = args.interval if args.interval else horizon / 240.0
    monitor = TimeSeriesMonitor(interval, max_samples=args.max_samples)
    monitor.attach(kernel)
    frames = max(1, args.frames)
    clear = "\x1b[H\x1b[2J" if sys.stdout.isatty() and args.refresh > 0 else ""
    print(f"profile   : {profile.name} ({len(trace)} requests), "
          f"sampling every {interval:.0f}s of sim time")
    # Each frame free-runs the twin to its boundary; --refresh only
    # spaces the renders out on the wall clock, so it never changes what
    # the run computes or exports.
    sim = kernel.ctx.sim
    sim_counters = kernel.ctx.counters
    for frame in range(1, frames + 1):
        if frame > 1 and args.refresh > 0:
            time.sleep(args.refresh)
        sim.run(until=horizon * frame / frames)
        counters = {
            "completed": sum(
                1 for r in kernel.lifecycle.all_requests if r.parent is None and r.done
            ),
            "bytes_read": sim_counters.bytes_read.value,
            "lost": int(sim_counters.requests_lost.value),
            "events": sim.events_processed,
        }
        print(clear + render_frame(monitor, sim.now, horizon, counters))
    report = kernel.run()  # drain to quiescence past the horizon
    print(f"result    : {report.summary()}")
    if args.out:
        artifacts = export_run(
            args.out, report, kernel.ctx.metrics, monitor=monitor
        )
        print(artifacts.summary())
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from .core.sim import SimConfig
    from .faults import FaultModel, FleetChaosConfig, FleetFaultSchedule
    from .fleet import FleetConfig, FleetCoordinator
    from .observability import RunArtifacts, Tracer

    profile, trace, start, end = _profile_trace(args)
    member = SimConfig(
        num_drives=args.drives,
        num_shuttles=args.shuttles,
        num_platters=args.platters,
        seed=args.seed,
    )
    config = FleetConfig(
        num_libraries=args.libraries,
        replicas=args.replicas,
        isolation=args.isolation,
        libraries_per_power_domain=args.libs_per_power,
        member=member,
        detect_timeout_seconds=args.detect_timeout,
        hedge=args.hedge,
        hedge_delay_seconds=args.hedge_delay,
        workers=args.workers,
        seed=args.seed,
    )
    tracer = Tracer() if args.out else None
    coordinator = FleetCoordinator(config, tracer=tracer)
    coordinator.assign_trace(trace, start, end)
    horizon = (args.hours + 2 * args.hours / 6) * 3600.0
    schedule = None
    if args.lib_mtbf or args.power_mtbf:
        chaos = FleetChaosConfig(
            horizon_seconds=horizon,
            library=(
                FaultModel(args.lib_mtbf, args.lib_mttr)
                if args.lib_mtbf else None
            ),
            power=(
                FaultModel(args.power_mtbf, args.power_mttr)
                if args.power_mtbf else None
            ),
            repair=not args.no_repair,
            seed=args.seed,
        )
        topology = coordinator.topology
        schedule = FleetFaultSchedule.generate(
            chaos, topology.library_domains, topology.power_domains
        )
        coordinator.apply_fault_schedule(schedule)
    report = coordinator.run()
    if args.out:
        artifacts = RunArtifacts(args.out)
        if tracer is not None:
            artifacts.write_trace(tracer.events())
        artifacts.write_metrics(coordinator.metrics)
        artifacts.write_report(report)
    if args.json:
        payload = report.as_dict()
        payload["schedule"] = {
            "outages": 0 if schedule is None else len(schedule),
            "repair": not args.no_repair,
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0
    fleet = report.fleet
    print(f"profile   : {profile.name} ({len(trace)} requests)")
    print(
        f"fleet     : {args.libraries} libraries, k={args.replicas} "
        f"({args.isolation} isolation), "
        f"hedge {'on' if args.hedge else 'off'}, "
        f"{0 if schedule is None else len(schedule)} outage(s) scheduled"
    )
    for member_row in report.members:
        print(
            f"  {member_row.site:<8s} requests={member_row.requests:<6d} "
            f"completed={member_row.completed}"
        )
    print(f"result    : {report.summary()}")
    print(
        f"tail      : {report.completions.tail_hours:.2f} h "
        f"({'within' if report.completions.within_slo() else 'MISSES'} "
        f"the 15 h SLO)"
    )
    if args.out:
        print(artifacts.summary())
    return 0 if fleet.replication_lost == 0 else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .core import SimConfig
    from .serve import ArchiveServerCore, ServeConfig, run_server, serve_registry

    if args.dilation <= 0:
        print("error: serve requires --dilation > 0 (sim-seconds per "
              "wall-second)", file=sys.stderr)
        return 2
    config = ServeConfig(
        dilation=args.dilation,
        max_pending_ingress=args.max_pending,
        sample_interval_seconds=args.sample_interval,
        sim=SimConfig(
            num_drives=args.drives,
            num_shuttles=args.shuttles,
            num_platters=args.platters,
            seed=args.seed,
            tenancy=serve_registry(
                args.tenants, args.seed, args.quota_mbps, args.quota_burst_mb
            ),
        ),
    )
    core = ArchiveServerCore(config)
    return run_server(
        core,
        host=args.host,
        port=args.port,
        slow_client_timeout=args.slow_client_timeout,
        seconds=args.seconds,
    )


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .serve.loadgen import BurstSpec, LoadSpec, drive, parse_url

    burst = None
    if args.burst_factor > 1.0:
        burst = BurstSpec(
            start_fraction=args.burst_start,
            duration_fraction=args.burst_window,
            factor=args.burst_factor,
        )
    spec = LoadSpec(
        mode=args.mode,
        clients=args.clients,
        duration_seconds=args.seconds,
        rate_per_second=args.rate,
        think_seconds=args.think,
        object_count=args.objects,
        object_mb_mean=args.object_mb,
        tenants=tuple(args.tenant),
        burst=burst,
        seed=args.seed,
    )
    host, port = parse_url(args.url)
    summary = asyncio.run(drive(spec, host, port, args.log))
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0 if summary.get("errors", 0) == 0 else 1


def _cmd_bench_list(args: argparse.Namespace) -> int:
    from .bench import default_registry

    registry = default_registry()
    print(f"{len(registry)} registered scenario(s):")
    for scenario in registry:
        print(
            f"  {scenario.name:<26s} [{scenario.suite:>4s}] seed={scenario.seed:<3d} "
            f"{scenario.description}"
        )
    return 0


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from .bench import BenchRunner, default_registry
    from .observability import RunArtifacts

    runner = BenchRunner(default_registry())
    if args.scenario:
        results = runner.run_named(args.scenario)
    else:
        results = runner.run_suite(args.suite)
    artifacts = RunArtifacts(args.out)
    for result in results:
        artifacts.write_bench(result)
        print(result.summary())
    print(artifacts.summary())
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from .bench import compare_dirs

    report = compare_dirs(args.baseline, args.candidate, names=args.scenario or None)
    print(f"baseline  : {args.baseline}")
    print(f"candidate : {args.candidate}")
    print(report.format(verbose=args.verbose))
    code = report.exit_code()
    print("verdict   : " + ("PASS" if code == 0 else "REGRESSION"))
    return code


def _cmd_bench_update_baseline(args: argparse.Namespace) -> int:
    import shutil

    from .bench import load_artifact_dir

    docs = load_artifact_dir(args.from_dir)
    names = args.scenario or sorted(docs)
    # Check every name before copying anything: a typo must not leave
    # the baseline directory half updated.
    missing = [name for name in names if name not in docs]
    for name in missing:
        print(f"no BENCH_{name}.json in {args.from_dir}", file=sys.stderr)
    if missing:
        return 1
    os.makedirs(args.baseline, exist_ok=True)
    for name in names:
        source = os.path.join(args.from_dir, f"BENCH_{name}.json")
        target = os.path.join(args.baseline, f"BENCH_{name}.json")
        shutil.copyfile(source, target)
        print(f"baseline updated: {target}")
    return 0


def _parent(*build) -> argparse.ArgumentParser:
    """A help-less parent parser holding one shared flag group.

    ``argparse`` merges parents' arguments into each subcommand that lists
    them, so every flag shared by two or more of simulate / chaos / trace /
    export is declared exactly once (same default, same help text) instead
    of being copy-pasted per subcommand.
    """
    parent = argparse.ArgumentParser(add_help=False)
    for add in build:
        add(parent)
    return parent


def _profile_flags(p: argparse.ArgumentParser) -> None:
    """Workload-profile flags: which trace to synthesize, and how much."""
    p.add_argument("--profile", default="IOPS",
                   choices=["Typical", "IOPS", "Volume"])
    p.add_argument("--hours", type=float, default=1.0)
    p.add_argument("--rate-factor", type=float, default=0.7)


def _library_flags(p: argparse.ArgumentParser) -> None:
    """Library-plant sizing flags shared by every simulation command."""
    p.add_argument("--drives", type=int, default=20)
    p.add_argument("--shuttles", type=int, default=20)
    p.add_argument("--platters", type=int, default=1200)


def _qos_flags(p: argparse.ArgumentParser) -> None:
    """Multi-tenant QoS flags shared by simulate / chaos / trace / export."""
    p.add_argument("--tenants", type=int, default=0,
                   help="run a skewed multi-tenant mix with N tenants "
                        "(0 = single anonymous tenant)")
    p.add_argument("--fetch-policy", default="arrival",
                   choices=["arrival", "deadline"],
                   help="platter-fetch policy: §4.1 arrival order, or "
                        "deadline-aware QoS (requires --tenants)")


def _fault_flags(p: argparse.ArgumentParser) -> None:
    """Transient-fault flags shared by chaos / trace / export."""
    p.add_argument("--read-error-prob", type=float, default=0.0,
                   help="per-attempt transient sector read error probability")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Project Silica reproduction: glass archival storage.",
    )
    parser.add_argument("--seed", type=int, default=0)
    commands = parser.add_subparsers(dest="command", required=True)

    # Shared flag groups (argparse parent parsers): declared once, merged
    # into every simulation subcommand that uses them.
    run_parent = _parent(_profile_flags, _library_flags)
    qos_parent = _parent(_qos_flags)
    fault_parent = _parent(_fault_flags)

    workload = commands.add_parser("workload", help="workload characterization")
    workload.add_argument("--days", type=int, default=120)
    workload.set_defaults(func=_cmd_workload)

    simulate = commands.add_parser(
        "simulate", help="run the digital twin", parents=[run_parent, qos_parent]
    )
    simulate.add_argument("--policy", default="silica", choices=["silica", "sp", "ns"])
    simulate.add_argument("--mbps", type=float, default=60.0)
    simulate.add_argument("--unavailable", type=float, default=0.0)
    simulate.set_defaults(func=_cmd_simulate)

    commands.add_parser("table1", help="platter-set trade-off").set_defaults(
        func=_cmd_table1
    )
    commands.add_parser("table2", help="tape vs silica costs").set_defaults(
        func=_cmd_table2
    )
    commands.add_parser("durability", help="coding design points").set_defaults(
        func=_cmd_durability
    )

    archive = commands.add_parser("archive", help="put/get round trip")
    archive.add_argument("--payload", default="hello, glass")
    archive.set_defaults(func=_cmd_archive)

    chaos = commands.add_parser(
        "chaos", help="run under a stochastic fault schedule with repair clocks",
        parents=[run_parent, fault_parent, qos_parent],
    )
    chaos.add_argument("--shuttle-mtbf", type=float, default=1800.0,
                       help="shuttle MTBF seconds (0 disables shuttle faults)")
    chaos.add_argument("--shuttle-mttr", type=float, default=300.0)
    chaos.add_argument("--drive-mtbf", type=float, default=2400.0,
                       help="read-drive MTBF seconds (0 disables drive faults)")
    chaos.add_argument("--drive-mttr", type=float, default=600.0)
    chaos.add_argument("--metadata-mtbf", type=float, default=0.0,
                       help="metadata-service MTBF seconds (0 disables outages)")
    chaos.add_argument("--metadata-mttr", type=float, default=120.0)
    chaos.add_argument("--no-repair", action="store_true",
                       help="same fault schedule, repair disabled (fail-stop)")
    chaos.add_argument("--json", action="store_true",
                       help="emit the full report as stable-keyed JSON")
    chaos.set_defaults(func=_cmd_chaos)

    fleet = commands.add_parser(
        "fleet", help="replicated multi-library fleet under domain outages",
        parents=[run_parent],
    )
    fleet.add_argument("--libraries", type=int, default=3,
                       help="member libraries in the fleet")
    fleet.add_argument("--replicas", type=int, default=2,
                       help="replicas per object (k of n)")
    fleet.add_argument("--isolation", default="power",
                       choices=["library", "power"],
                       help="domain level replicas must not share")
    fleet.add_argument("--libs-per-power", type=int, default=2,
                       help="libraries sharing one rack-row power domain")
    fleet.add_argument("--workers", type=int, default=1,
                       help="process-pool size for member kernels")
    fleet.add_argument("--hedge", action="store_true",
                       help="hedge slow reads to a second replica")
    fleet.add_argument("--hedge-delay", type=float, default=600.0,
                       help="seconds before a read is hedged")
    fleet.add_argument("--detect-timeout", type=float, default=30.0,
                       help="seconds to detect an unresponsive member")
    fleet.add_argument("--lib-mtbf", type=float, default=0.0,
                       help="library MTBF seconds (0 disables library outages)")
    fleet.add_argument("--lib-mttr", type=float, default=1800.0)
    fleet.add_argument("--power-mtbf", type=float, default=0.0,
                       help="power-domain MTBF seconds (0 disables power events)")
    fleet.add_argument("--power-mttr", type=float, default=900.0)
    fleet.add_argument("--no-repair", action="store_true",
                       help="same outage schedule, repair disabled (fail-stop)")
    fleet.add_argument("--json", action="store_true",
                       help="emit the full fleet report as stable-keyed JSON")
    fleet.add_argument("--out", default=None,
                       help="artifact output directory (trace, metrics, report)")
    fleet.set_defaults(func=_cmd_fleet)

    trace = commands.add_parser(
        "trace", help="traced run: export trace.jsonl, spans, metrics, report",
        parents=[run_parent, fault_parent, qos_parent],
    )
    trace.add_argument("--out", default="runs/trace",
                       help="artifact output directory")
    trace.set_defaults(func=_cmd_trace)

    export = commands.add_parser(
        "export", help="untraced run: export metrics.json/.prom and report.json",
        parents=[run_parent, fault_parent, qos_parent],
    )
    export.add_argument("--out", default="runs/export",
                        help="artifact output directory")
    export.set_defaults(func=_cmd_export)

    watch = commands.add_parser(
        "watch", help="in-terminal dashboard of a twin run, frame by frame",
        parents=[run_parent, fault_parent, qos_parent],
    )
    watch.add_argument("--interval", type=float, default=0.0,
                       help="sim-seconds between monitor samples "
                            "(0 = horizon/240)")
    watch.add_argument("--frames", type=int, default=12,
                       help="dashboard frames rendered across the horizon")
    watch.add_argument("--refresh", type=float, default=0.0,
                       help="wall-seconds to pause between frames "
                            "(0 = render as fast as the run allows)")
    watch.add_argument("--max-samples", type=int, default=512,
                       help="monitor reservoir bound (halving downsampler)")
    watch.add_argument("--out", default=None,
                       help="also export run artifacts incl. timeseries.json")
    watch.add_argument("--html", default=None, metavar="FILE",
                       help="skip the run: render --from-dir's timeseries.json "
                            "as a self-contained HTML timeline at FILE")
    watch.add_argument("--from-dir", default="runs/watch",
                       help="artifact directory read by --html")
    watch.add_argument("--follow", default=None, metavar="URL",
                       help="skip the local run: render a live server's "
                            "GET /events stream (e.g. 127.0.0.1:8173/events)")
    watch.add_argument("--seconds", type=float, default=0.0,
                       help="with --follow: stop after this many wall-seconds "
                            "(0 = until the stream ends)")
    watch.set_defaults(func=_cmd_watch)

    serve = commands.add_parser(
        "serve", help="live asyncio archive server over the paced twin",
        parents=[_parent(_library_flags)],
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8173,
                       help="TCP port (0 = pick an ephemeral port)")
    serve.add_argument("--dilation", type=float, default=600.0,
                       help="sim-seconds advanced per wall-second")
    serve.add_argument("--tenants", type=int, default=0,
                       help="quota-bearing tenant mix size "
                            "(0 = single anonymous tenant, no admission)")
    serve.add_argument("--quota-mbps", type=float, default=4.0,
                       help="per-tenant token-bucket refill rate (MB/s)")
    serve.add_argument("--quota-burst-mb", type=float, default=256.0,
                       help="per-tenant token-bucket burst depth (MB)")
    serve.add_argument("--max-pending", type=int, default=256,
                       help="ingress injection-queue bound (503 threshold)")
    serve.add_argument("--sample-interval", type=float, default=300.0,
                       help="sim-seconds between monitor.sample trace events "
                            "(0 = no live gauge feed)")
    serve.add_argument("--slow-client-timeout", type=float, default=10.0,
                       help="wall-seconds a response write may stall before "
                            "the client is disconnected")
    serve.add_argument("--seconds", type=float, default=0.0,
                       help="serve for this many wall-seconds then exit "
                            "(0 = until interrupted)")
    serve.set_defaults(func=_cmd_serve)

    loadgen = commands.add_parser(
        "loadgen", help="seeded load generator against a live server"
    )
    loadgen.add_argument("--url", default="http://127.0.0.1:8173")
    loadgen.add_argument("--mode", default="closed", choices=["closed", "open"])
    loadgen.add_argument("--clients", type=int, default=8,
                         help="closed-loop client count (also the open-loop "
                              "in-flight cap)")
    loadgen.add_argument("--seconds", type=float, default=10.0,
                         help="wall-clock duration of the drive phase")
    loadgen.add_argument("--rate", type=float, default=20.0,
                         help="open-loop Poisson arrival rate (req/s)")
    loadgen.add_argument("--think", type=float, default=0.0,
                         help="closed-loop mean think time (wall-seconds)")
    loadgen.add_argument("--objects", type=int, default=32,
                         help="objects PUT during setup and read during drive")
    loadgen.add_argument("--object-mb", type=float, default=64.0,
                         help="mean object size (lognormal), MB")
    loadgen.add_argument("--tenant", action="append", default=[],
                         help="tenant name to load (repeatable; default: "
                              "discover from GET /status)")
    loadgen.add_argument("--burst-factor", type=float, default=0.0,
                         help="mid-run burst intensity multiplier "
                              "(<= 1 disables the burst window)")
    loadgen.add_argument("--burst-start", type=float, default=0.4,
                         help="burst window start (fraction of the run)")
    loadgen.add_argument("--burst-window", type=float, default=0.2,
                         help="burst window length (fraction of the run)")
    loadgen.add_argument("--log", default=None, metavar="FILE",
                         help="write the repro.loadgen/1 per-request "
                              "latency log (JSONL) here")
    loadgen.set_defaults(func=_cmd_loadgen)

    bench = commands.add_parser(
        "bench", help="behaviour gate: run scenarios, compare simulated metrics"
    )
    bench_commands = bench.add_subparsers(dest="bench_command", required=True)

    bench_list = bench_commands.add_parser("list", help="registered scenarios")
    bench_list.set_defaults(func=_cmd_bench_list)

    bench_run = bench_commands.add_parser(
        "run", help="run a suite (or named scenarios), write BENCH_*.json"
    )
    bench_run.add_argument("--suite", default="fast", choices=["fast", "full"])
    bench_run.add_argument("--scenario", action="append", default=[],
                           help="run only this scenario (repeatable)")
    bench_run.add_argument("--out", default="runs/bench",
                           help="artifact output directory")
    bench_run.set_defaults(func=_cmd_bench_run)

    bench_compare = bench_commands.add_parser(
        "compare", help="diff a run against committed baselines (exit 1 on drift)"
    )
    bench_compare.add_argument("--baseline", default="benchmarks/baselines",
                               help="baseline artifact directory")
    bench_compare.add_argument("--candidate", default="runs/bench",
                               help="candidate artifact directory")
    bench_compare.add_argument("--scenario", action="append", default=[],
                               help="compare only this scenario (repeatable)")
    bench_compare.add_argument("--verbose", action="store_true",
                               help="print every metric row, not just flagged ones")
    bench_compare.set_defaults(func=_cmd_bench_compare)

    bench_update = bench_commands.add_parser(
        "update-baseline", help="promote a run's BENCH_*.json to the baseline dir"
    )
    bench_update.add_argument("--from-dir", default="runs/bench",
                              help="source artifact directory")
    bench_update.add_argument("--baseline", default="benchmarks/baselines",
                              help="baseline directory to update")
    bench_update.add_argument("--scenario", action="append", default=[],
                              help="promote only this scenario (repeatable)")
    bench_update.set_defaults(func=_cmd_bench_update_baseline)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from .bench.registry import BenchError

    try:
        return args.func(args)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
