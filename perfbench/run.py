"""Benchmark harness for the Silica twin and its live server.

Usage::

    python3 perfbench/run.py --workload fig9_full --seed 12 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20     # every workload, one table
    python3 perfbench/run.py --record-reference              # re-record reference.json

Run from the repository root. Every recorded repetition runs in a fresh
interpreter (the twin process, or the server process), after one
unrecorded warm-up launch that compiles ``.pyc`` files. Repetitions
repeat until ``--seconds`` of wall time is spent (at least
:data:`MIN_REPS`); each end-to-end metric is the median over them.

With ``--trace 0`` the end-to-end metrics named in ``BENCHMARK.json``
are measured with tracing off. With ``--trace 1`` untraced and traced
repetitions alternate; the traced ones wrap every layer entry point
(``layers.py``) and report per-layer self times, counts and ratios, plus
the overhead the tracing added.

A readable report goes to stderr; the last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. A
program that cannot be run at all (no ``src/repro``, a crashing
process) exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from statistics import median
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import serve_client  # noqa: E402
import workloads  # noqa: E402
from checks import check_twin  # noqa: E402
from tracing import SpanSet, nearest_rank, percentile_rule  # noqa: E402

#: Scratch directory for span files, inside the checkout.
WORK_DIR = os.path.join(ROOT, ".perfbench_run")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
#: Fewest recorded repetitions of an untraced run, whatever ``--seconds``.
MIN_REPS = 3
#: Wall seconds one child process may take before the run is abandoned.
CHILD_TIMEOUT_S = 150.0
#: Wall seconds a server may take to print its ready line, or to exit.
SERVER_TIMEOUT_S = 30.0
WORKLOADS = ("fig9_full", "tenant_qos", "serve_http")
#: Stages a served request's client latency splits into (``serve_stages``).
SERVE_STAGES = ("parse", "bridge", "core", "kernel", "reply")


class BenchError(Exception):
    """The program under test could not be run; no result is printed."""


# ---------------------------------------------------------------------- #
# Processes
# ---------------------------------------------------------------------- #


def child_env() -> Dict[str, str]:
    """The environment of every process under test: the checkout's source.

    String hashing is seeded the same in every process, so dict and set
    layouts, and what they cost, do not change from one repetition to
    the next.
    """
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


#: CPUs this harness may run on. With two or more, the process under test
#: runs on the last and the harness (the serve client) on the first, so
#: neither migrates and the server's two GIL-sharing threads hand over on
#: one CPU instead of across two.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin_harness() -> None:
    """Keep this process on the first CPU, away from the process under test."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[0]})


@contextmanager
def on_child_cpu() -> Iterator[None]:
    """Processes started inside inherit the CPU kept for the process under test."""
    if len(CPUS) < 2:
        yield
        return
    os.sched_setaffinity(0, {CPUS[-1]})
    try:
        yield
    finally:
        pin_harness()


def run_child(args: List[str]) -> Dict[str, Any]:
    """Run ``python args...`` to completion; its last stdout line is JSON."""
    with on_child_cpu():
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def warm_up() -> None:
    """One unrecorded launch: compile every ``.pyc`` and import the program."""
    src = os.path.join(ROOT, "src", "repro")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        raise BenchError(f"no program to benchmark: {src} is missing")
    code = (
        "import compileall, json, sys; "
        f"compileall.compile_dir({src!r}, quiet=1); "
        f"sys.path.insert(0, {HERE!r}); "
        "import workloads; workloads.import_program(); "
        "import repro.cli, repro.serve; print(json.dumps({}))"
    )
    run_child(["-c", code])


# ---------------------------------------------------------------------- #
# Twin workloads
# ---------------------------------------------------------------------- #


def load_reference() -> Dict[str, Any]:
    if not os.path.exists(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def twin_rep(name: str, seed: int, spans_path: Optional[str] = None) -> Dict[str, Any]:
    """Launch one twin repetition and time its set-up from the launch."""
    args = [os.path.join(HERE, "twin_rep.py"), name, str(seed)]
    if spans_path:
        args.append(spans_path)
    launched = perf_counter()
    rep = run_child(args)
    rep["setup_s"] = rep["t_ready"] - launched
    rep["run_s"] = rep["t_done"] - rep["t_ready"]
    return rep


def repeat(name: str, seed: int, seconds: float, trace: bool, launch, layer_values):
    """Repetitions until another would overrun ``seconds``.

    ``launch(spans_path)`` runs one repetition (traced when a path is
    given); with ``trace`` every untraced repetition is followed by a
    traced one, whose spans ``layer_values`` turns into per-layer rows.
    Returns ``(plain, traced, rows)``.
    """
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    rows: List[Tuple[Dict[str, Tuple[float, str]], str]] = []
    start = perf_counter()
    while True:
        plain.append(launch(None))
        if trace:
            path = os.path.join(WORK_DIR, f"{name}-{seed}.spans")
            traced.append(launch(path))
            rows.append(layer_values(traced[-1], SpanSet.load(path)))
            os.remove(path)
        elapsed = perf_counter() - start
        enough = len(plain) >= (1 if trace else MIN_REPS)
        if enough and elapsed * (len(plain) + 1) / len(plain) > seconds:
            return plain, traced, rows


def run_twin(name: str, seed: int, seconds: float, trace: bool) -> "Outcome":
    """Repetitions of one twin workload until ``seconds`` are spent."""
    reference = load_reference().get(name)
    outcome = Outcome(name, seed)
    plain, traced, layer_rows = repeat(
        name, seed, seconds, trace, lambda path: twin_rep(name, seed, path), twin_layer_values
    )
    first = plain[0]["outputs"]
    for index, rep in enumerate(plain + traced):
        diffs = check_twin(rep["outputs"], rep["engine_pops"], seed, reference)
        if rep["outputs"] != first:
            diffs.append(f"repetition {index} outputs differ from repetition 0")
        outcome.attempted += rep["outputs"]["reads_in_trace"]
        if diffs:
            outcome.failed += rep["outputs"]["reads_in_trace"]
            outcome.errors += diffs
    outcome.samples = len(plain)
    outcome.add("setup_s", [rep["setup_s"] for rep in plain])
    outcome.add("run_s", [rep["run_s"] for rep in plain])
    outcome.add("ops_per_s", [rep["reads"] / rep["run_s"] for rep in plain])
    outcome.add("peak_rss_mb", [rep["peak_rss_mb"] for rep in plain])
    if trace:
        walls = [rep["setup_s"] + rep["run_s"] for rep in plain]
        traced_walls = [rep["setup_s"] + rep["run_s"] for rep in traced]
        outcome.set_layers(layer_rows, median(traced_walls) / median(walls) - 1.0)
    return outcome


#: Per-layer self times that partition a traced twin repetition's wall.
TWIN_PARTS = (
    "setup.import_ms", "workload.trace_ms", "kernel.build_ms", "lifecycle.self_ms",
    "tenancy.admit_ms", "events.self_ms", "dispatch.self_ms", "scheduler.self_ms",
    "traffic.self_ms", "motion.self_ms", "robotics.self_ms", "report.ms",
    "tracer.self_ms", "monitor.sample_ms", "harness.self_ms",
)


def twin_layer_values(
    rep: Dict[str, Any], spans: SpanSet
) -> Tuple[Dict[str, Tuple[float, str]], str]:
    """One traced twin repetition's per-layer values, with their bases.

    Also returns the add-up check: the layer self times against the
    traced wall of the same repetition.
    """
    layers = spans.layer_totals()
    values = common_layer_values(layers, rep["counters"], spans, rep["reads"])
    values.update(
        {
            "workload.reads": (spans.extra["reads"], "reads in the generated trace"),
            "lifecycle.assign_ms": (
                spans.name_totals("RequestLifecycle.assign_trace")[1] * 1e3,
                "RequestLifecycle.assign_trace, inclusive",
            ),
            "report.ms": (_self_ms(layers, "report"), "SimKernel.report"),
            "trace.wall_ms": (
                spans.name_totals("rep")[1] * 1e3,
                "traced process, first import to report",
            ),
            "harness.self_ms": (
                _self_ms(layers, "harness"),
                "traced region outside every wrapped entry point",
            ),
            "tracer.emits_per_op": (0.0, "the twin runs without a tracer"),
        }
    )
    for stage in SERVE_STAGES:
        values[f"serve.{stage}_us"] = (0.0, "no server")
    values["serve.injections_per_slice"] = (0.0, "no server")
    total = sum(values[part][0] for part in TWIN_PARTS)
    addup = (
        f"layer self times sum to {total:.3f} ms of "
        f"{values['trace.wall_ms'][0]:.3f} ms traced wall"
    )
    return values, addup


def _self_ms(layers: Dict[str, Dict[str, float]], layer: str) -> float:
    return layers.get(layer, {}).get("self_s", 0.0) * 1e3


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def common_layer_values(
    layers: Dict[str, Dict[str, float]],
    counters: Dict[str, Any],
    spans: SpanSet,
    reads: int,
) -> Dict[str, Tuple[float, str]]:
    """Per-layer values every workload reports the same way.

    ``counters`` are read from the kernel's public surfaces after the
    run (``layers.counters``); each ratio carries its numerator and
    denominator in the description.
    """

    def self_ms(layer: str) -> float:
        return _self_ms(layers, layer)

    def calls(name: str) -> int:
        return spans.name_totals(name)[0]

    tallies = spans.extra["tallies"]
    fired = counters["events_fired"]
    passes = counters["dispatch_passes"]
    admits = calls("AdmissionController.admit")
    plans = calls("TrafficPolicy.plan_move")
    batches = tallies.get("batches", 0)
    pushes = counters["engine_pushes"] or 0
    cancelled = counters["engine_cancelled_skips"] or 0
    trips = calls("RoboticsSubsystem.start_fetch") + calls("RoboticsSubsystem.start_return")
    rejected = counters["admission_rejected"]
    judged = counters["admission_admitted"] + rejected
    events_ms = self_ms("events")
    return {
        "setup.import_ms": (self_ms("imports"), "import span"),
        "workload.trace_ms": (self_ms("workload"), "trace generation"),
        "kernel.build_ms": (self_ms("kernel"), "SimKernel.__init__"),
        "lifecycle.self_ms": (self_ms("lifecycle"), "assign_trace, ingest, complete_request"),
        "lifecycle.requests_retained": (
            counters["requests_retained"],
            "len(kernel.lifecycle.all_requests)",
        ),
        "tenancy.admit_ms": (self_ms("tenancy"), "AdmissionController.admit"),
        "tenancy.admits": (admits, "AdmissionController.admit calls"),
        "tenancy.reject_share": (ratio(rejected, judged), f"{rejected} rejected / {judged} judged"),
        "events.fired": (fired, "Simulation.events_processed"),
        "events.self_ms": (events_ms, "Simulation.run minus every wrapped callee"),
        "events.self_us_per_event": (
            ratio(events_ms * 1e3, fired),
            f"{events_ms:.1f} ms / {fired} events",
        ),
        "events.cancelled_share": (
            ratio(cancelled, pushes),
            f"{cancelled} cancelled skips / {pushes} pushes",
        ),
        "dispatch.passes": (passes, "dispatch_passes_total"),
        "dispatch.self_ms": (self_ms("dispatch"), "SilicaDispatch.run"),
        "dispatch.assignments_per_pass": (
            ratio(counters["dispatch_assignments"], passes),
            f"{counters['dispatch_assignments']} assignments / {passes} passes",
        ),
        "dispatch.short_circuit_share": (
            ratio(counters["dispatch_short_circuits"], passes),
            f"{counters['dispatch_short_circuits']} short-circuits / {passes} passes",
        ),
        "dispatch.steals": (counters["dispatch_steals"], "work_steals_total"),
        "scheduler.self_ms": (self_ms("scheduler"), "RequestScheduler.enqueue, take_batch"),
        "scheduler.enqueues": (counters["scheduler_enqueued"], "RequestScheduler.total_enqueued"),
        "scheduler.reads_per_batch": (
            ratio(tallies.get("batch_reads", 0), batches),
            f"{tallies.get('batch_reads', 0)} reads / {batches} non-empty batches",
        ),
        "traffic.self_ms": (self_ms("traffic"), "TrafficPolicy.plan_move"),
        "traffic.plans": (plans, "TrafficPolicy.plan_move calls"),
        "traffic.conflicts_per_plan": (
            ratio(counters["traffic_conflicts"], plans),
            f"{counters['traffic_conflicts']} conflicts / {plans} plans",
        ),
        "motion.self_ms": (self_ms("motion"), "Shuttle.plan_move, pick, place, complete_move"),
        "motion.calls": (layers.get("motion", {}).get("calls", 0), "Shuttle entry-point calls"),
        "robotics.self_ms": (self_ms("robotics"), "RoboticsSubsystem entry points"),
        "robotics.trips": (trips, "start_fetch + start_return calls"),
        "robotics.events_per_read": (
            ratio(fired, reads),
            f"{fired} events / {reads} reads completed",
        ),
        "tracer.self_ms": (self_ms("tracer"), "Tracer.emit"),
        "monitor.samples": (calls("SimKernel.sample_state"), "SimKernel.sample_state calls"),
        "monitor.sample_ms": (self_ms("monitor"), "SimKernel.sample_state"),
    }


# ---------------------------------------------------------------------- #
# The live server
# ---------------------------------------------------------------------- #


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise BenchError(f"no VmHWM for process {pid}")


def serve_rep(seed: int, spans_path: Optional[str] = None) -> Dict[str, Any]:
    """Launch a server, drive the load, read its peak RSS, SIGTERM it."""
    cli = ["--seed", str(seed), "serve", *workloads.SERVE_FLAGS]
    if spans_path:
        args = [os.path.join(HERE, "serve_launcher.py"), spans_path, *cli]
    else:
        args = ["-m", "repro", *cli]
    err_path = os.path.join(WORK_DIR, f"serve-{seed}.stderr")
    with open(err_path, "w") as err:
        launched = perf_counter()
        with on_child_cpu():
            proc = subprocess.Popen(
                [sys.executable, *args],
                cwd=ROOT,
                env=child_env(),
                stdout=subprocess.PIPE,
                stderr=err,
                text=True,
            )
    try:
        ready = _ready_line(proc)
        port = int(ready["serving"].rsplit(":", 1)[1])
        load = asyncio.run(
            asyncio.wait_for(
                serve_client.run_load(port, seed, workloads.SERVE_LOAD), CHILD_TIMEOUT_S
            )
        )
        rss = vm_hwm_mb(proc.pid)
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(SERVER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    with open(err_path) as err:
        stderr = err.read()
    os.remove(err_path)
    if code != 0:
        load.errors.append(f"server exited {code} on SIGTERM: {stderr.strip()[-500:]}")
        load.status_error = True
    return {
        "load": load,
        "setup_s": load.setup_done - launched,
        "run_s": load.phase_end - load.phase_start,
        "peak_rss_mb": rss,
    }


def _ready_line(proc: subprocess.Popen) -> Dict[str, Any]:
    """The server's first stdout line (its address), or a BenchError."""
    import selectors

    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        if not selector.select(SERVER_TIMEOUT_S):
            raise BenchError(f"server printed no ready line in {SERVER_TIMEOUT_S} s")
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"server exited {proc.wait()} before it was ready")
    return json.loads(line)


def run_serve(seed: int, seconds: float, trace: bool) -> "Outcome":
    """Server repetitions (fresh process each) until ``seconds`` are spent."""
    outcome = Outcome("serve_http", seed)
    plain, traced, layer_rows = repeat(
        "serve_http", seed, seconds, trace, lambda path: serve_rep(seed, path), serve_layer_values
    )
    measured = workloads.SERVE_LOAD["measured_ops"]
    for rep in plain + traced:
        load = rep["load"]
        outcome.attempted += load.attempted
        outcome.failed += load.failed
        outcome.errors += load.errors
    outcome.samples = len(plain)
    outcome.add("setup_s", [rep["setup_s"] for rep in plain])
    outcome.add("run_s", [rep["run_s"] for rep in plain])
    outcome.add("ops_per_s", [measured / rep["run_s"] for rep in plain])
    outcome.add("peak_rss_mb", [rep["peak_rss_mb"] for rep in plain])
    setup_count = workloads.SERVE_LOAD["setup_objects"]
    gets, puts = [], []
    for rep in plain:
        for op in rep["load"].ops[setup_count:]:
            if not op.error:
                (gets if op.method == "GET" else puts).append((op.done - op.sent) * 1e3)
    outcome.latencies = {"get": gets, "put": puts}
    if trace:
        walls = [rep["run_s"] for rep in plain]
        traced_walls = [rep["run_s"] for rep in traced]
        outcome.set_layers(layer_rows, median(traced_walls) / median(walls) - 1.0)
    return outcome


def serve_layer_values(
    rep: Dict[str, Any], spans: SpanSet
) -> Tuple[Dict[str, Tuple[float, str]], str]:
    """One traced server repetition's per-layer values, with their bases.

    Also returns the add-up check: the GET stage means against the mean
    client latency of the same GETs.
    """
    load = rep["load"]
    status = load.status
    # Admission runs in the server core, not the kernel: its books are in /status.
    books = status.get("admission", {}).values()
    counters = dict(
        spans.extra,
        admission_admitted=sum(row["admitted"] for row in books),
        admission_rejected=sum(row["rejected"] for row in books),
    )
    layers = spans.layer_totals()
    reads = status.get("counters", {}).get("reads_completed", 0)
    values = common_layer_values(layers, counters, spans, reads)
    served = load.attempted
    emits = spans.name_totals("Tracer.emit")[0]
    tallies = spans.extra["tallies"]
    drains, drained = tallies.get("drains", 0), tallies.get("drained", 0)
    stages = serve_stages(load, spans)
    values.update(
        {
            "workload.reads": (0, "no trace is generated"),
            "lifecycle.assign_ms": (0.0, "no trace is assigned"),
            "report.ms": (0.0, "the server builds no report"),
            "trace.wall_ms": (rep["run_s"] * 1e3, "traced measured phase"),
            "harness.self_ms": (0.0, "no harness region in the server"),
            "tracer.emits_per_op": (ratio(emits, served), f"{emits} emits / {served} requests"),
            "serve.injections_per_slice": (
                ratio(drained, drains),
                f"{drained} injections / {drains} slices; /status injections "
                f"{status.get('injections')}, trace dropped "
                f"{status.get('trace', {}).get('dropped_events')}",
            ),
        }
    )
    for stage in SERVE_STAGES:
        samples = stages["GET"][stage]
        values[f"serve.{stage}_us"] = (
            statistics.fmean(samples) if samples else 0.0,
            f"mean over {len(samples)} GETs",
        )
    latency = stages["GET"]["client"]
    total = sum(values[f"serve.{stage}_us"][0] for stage in SERVE_STAGES)
    client = statistics.fmean(latency) if latency else 0.0
    addup = (
        f"GET stages sum to {total:.1f} us of {client:.1f} us "
        f"mean client latency ({len(latency)} GETs)"
    )
    return values, addup


def serve_stages(
    load: "serve_client.LoadResult", spans: SpanSet
) -> Dict[str, Dict[str, List[float]]]:
    """Split each measured op's client latency into server stages (us).

    From the client's send to the end of request parsing (``parse``);
    waiting for the engine thread, before the core call and after the
    kernel finished (``bridge``); the core call (``core``); from the core
    call's end to the ``serve.complete`` emit (``kernel``, GETs only);
    from building the response to the client having read it (``reply``).
    The five stages sum to the client-observed latency of each op, kept
    under ``client``.
    """
    parsed, replied, core, complete = {}, {}, {}, {}
    for name, start, end, tags in spans.tagged:
        if name == "read_request":
            parsed[tags["op"]] = end
        elif name == "json_response":
            replied.setdefault(tags["op"], start)
        elif name in ("ArchiveServerCore.begin_read", "ArchiveServerCore.put_object"):
            core[tags["op"]] = (start, end, tags.get("request_id"))
        elif name == "Tracer.emit":
            complete[tags["request_id"]] = start
    out = {
        method: {stage: [] for stage in SERVE_STAGES + ("client",)} for method in ("GET", "PUT")
    }
    for op in load.ops[workloads.SERVE_LOAD["setup_objects"]:]:
        if op.error or op.op_id not in core:
            continue
        b, h = parsed[op.op_id], replied[op.op_id]
        e, f, request_id = core[op.op_id]
        g = complete[request_id] if op.method == "GET" else f
        row = out[op.method]
        row["parse"].append((b - op.sent) * 1e6)
        row["bridge"].append(((e - b) + (h - g)) * 1e6)
        row["core"].append((f - e) * 1e6)
        row["kernel"].append((g - f) * 1e6)
        row["reply"].append((op.done - h) * 1e6)
        row["client"].append((op.done - op.sent) * 1e6)
    return out


# ---------------------------------------------------------------------- #
# Results
# ---------------------------------------------------------------------- #


class Outcome:
    """Everything one run measured and checked."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.samples = 0
        #: end-to-end metric -> (median, samples)
        self.metrics: Dict[str, Tuple[float, int]] = {}
        #: per-layer metric -> (value, how it was formed)
        self.layers: Dict[str, Tuple[float, str]] = {}
        #: the reported traced repetition's add-up check
        self.addup = ""
        self.latencies: Dict[str, List[float]] = {}

    def add(self, name: str, values: List[float]) -> None:
        self.metrics[name] = (median(values), len(values))

    def set_layers(
        self, rows: List[Tuple[Dict[str, Tuple[float, str]], str]], overhead: float
    ) -> None:
        """Per-layer values of the traced repetition with the median wall.

        One repetition's values, not per-metric medians, so its layer self
        times still add up to its traced wall and its counts stay whole.
        """
        rows = sorted(rows, key=lambda row: row[0]["trace.wall_ms"][0])
        values, self.addup = rows[(len(rows) - 1) // 2]
        self.layers = dict(values)
        self.layers["trace.overhead_share"] = (
            overhead,
            f"(median traced wall / median untraced wall) - 1 over {len(rows)} pairs",
        )

    def describe(self, spec: Dict[str, Any], trace: bool) -> str:
        """The readable report of this run."""
        verdict = "correct" if not self.errors else f"{len(self.errors)} check(s) failed"
        lines = [
            f"== {self.workload} seed {self.seed}: "
            f"{self.samples} untraced repetitions, {verdict}"
        ]
        lines += [f"   ! {error}" for error in self.errors[:20]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        for name, (value, count) in self.metrics.items():
            lines.append(f"   {name:<28} {value:>14.6g} {units.get(name, ''):<7} median of {count}")
        share = self.failed / self.attempted if self.attempted else 0.0
        lines.append(
            f"   {'error_share':<28} {share:>14.6g} {'ratio':<7} "
            f"{self.failed} failed / {self.attempted} attempted"
        )
        for kind, samples in self.latencies.items():
            if not samples:
                continue
            ordered = sorted(samples)
            label, tail, count = percentile_rule(ordered)
            rows = [("p50", nearest_rank(ordered, 0.5), "")]
            if kind == "get":
                rows.append(("p99", nearest_rank(ordered, 0.99), ""))
            if label not in [row[0] for row in rows]:
                rows.append((label, tail, " (highest percentile with >=10 samples beyond)"))
            for row_label, value, note in rows:
                row_name = f"{kind}_{row_label.replace('.', '_')}_ms"
                lines.append(f"   {row_name:<28} {value:>14.6g} {'ms':<7} n={count}{note}")
        if trace:
            for name, (value, basis) in self.layers.items():
                lines.append(f"   {name:<28} {value:>14.6g} {units.get(name, ''):<7} {basis}")
            lines.append(f"   reported traced repetition: {self.addup}")
        return "\n".join(lines)

    def result(self, spec: Dict[str, Any], trace: bool) -> Dict[str, Any]:
        """The JSON result line: every metric ``BENCHMARK.json`` names."""
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        metrics = {}
        for metric in wanted:
            source = self.layers if trace else self.metrics
            if metric["name"] not in source:
                raise BenchError(f"{self.workload} measured no {metric['name']}")
            metrics[metric["name"]] = {"value": source[metric["name"]][0], "unit": metric["unit"]}
        return {
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def record_reference() -> None:
    """Run each twin twice at its reference seed and write its outputs."""
    reference = {}
    for name, spec in workloads.TWINS.items():
        first, second = (twin_rep(name, spec["seed"])["outputs"] for _ in range(2))
        if first != second:
            raise BenchError(f"{name}: two runs at seed {spec['seed']} disagree")
        reference[name] = {"seed": spec["seed"], "outputs": first}
        print(f"{name} seed {spec['seed']}: {json.dumps(first)}", file=sys.stderr)
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    if name == "serve_http":
        return run_serve(seed, seconds, trace)
    return run_twin(name, seed, seconds, trace)


def reference_seed(name: str) -> int:
    """The seed the workload's reference outputs were recorded at."""
    return workloads.TWINS[name]["seed"] if name in workloads.TWINS else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument(
        "--seed", type=int, default=None, help="default: each workload's reference seed"
    )
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    os.makedirs(WORK_DIR, exist_ok=True)
    pin_harness()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        warm_up()
        if args.record_reference:
            record_reference()
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        outcomes = []
        for name in names:
            seed = args.seed if args.seed is not None else reference_seed(name)
            outcome = run_workload(name, seed, args.seconds, bool(args.trace))
            print(outcome.describe(spec, bool(args.trace)), file=sys.stderr, flush=True)
            outcomes.append(outcome)
        results = [outcome.result(spec, bool(args.trace)) for outcome in outcomes]
    except (
        BenchError, OSError, ValueError, subprocess.SubprocessError, asyncio.TimeoutError
    ) as exc:
        print(f"benchmark could not run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps(dict(zip(names, results)), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
