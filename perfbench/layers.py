"""Which public entry points the traced pass wraps, and under which layer.

Layers are the repository's modules. Each entry names a class (or, for
the two HTTP helpers, the module whose global name the server calls)
and the attributes to wrap. Wrappers go in at class level, before any
kernel is built; an entry point a later version of the program drops is
skipped and its layer reads 0.
"""

from __future__ import annotations

import importlib
from typing import Any, List

from tracing import CURRENT_OP, Recorder

#: (module, class or None for module globals, attributes, layer)
ENTRY_POINTS = [
    (
        "repro.workload.generator",
        "WorkloadGenerator",
        ("interval_trace", "multi_tenant_trace"),
        "workload",
    ),
    ("repro.core.sim.kernel", "SimKernel", ("__init__",), "kernel"),
    ("repro.core.sim.kernel", "SimKernel", ("report",), "report"),
    ("repro.core.sim.kernel", "SimKernel", ("sample_state",), "monitor"),
    (
        "repro.core.sim.lifecycle",
        "RequestLifecycle",
        ("assign_trace", "ingest", "complete_request"),
        "lifecycle",
    ),
    ("repro.tenancy.admission", "AdmissionController", ("admit",), "tenancy"),
    ("repro.core.events", "Simulation", ("run",), "events"),
    ("repro.core.sim.dispatch", "SilicaDispatch", ("run",), "dispatch"),
    ("repro.core.scheduler", "RequestScheduler", ("enqueue", "take_batch"), "scheduler"),
    ("repro.core.traffic", "TrafficPolicy", ("plan_move",), "traffic"),
    ("repro.library.shuttle", "Shuttle", ("plan_move", "pick", "place", "complete_move"), "motion"),
    (
        "repro.core.sim.robotics",
        "RoboticsSubsystem",
        (
            "move",
            "start_fetch",
            "start_return",
            "on_customer_arrival",
            "serve_batch",
            "finish_service",
        ),
        "robotics",
    ),
    ("repro.observability.tracer", "Tracer", ("emit",), "tracer"),
]

#: The live server's entry points (layer ``serve``).
SERVE_ENTRY_POINTS = [
    ("repro.serve.server", None, ("read_request", "json_response"), "serve"),
    ("repro.serve.server", "ArchiveServer", ("call_core",), "serve"),
    ("repro.core.events", "PacedEngine", ("drain_injections",), "serve"),
    ("repro.serve.core", "ArchiveServerCore", ("begin_read", "put_object"), "serve"),
]


def install(recorder: Recorder, serve: bool = False) -> List[Any]:
    """Wrap every entry point; returns a list that collects built kernels."""
    kernels: List[Any] = []
    tallies = recorder.tallies

    def keep_kernel(log, idx, args, kwargs, result):
        kernels.append(args[0])

    def tally_batch(log, idx, args, kwargs, result):
        if result:
            tallies["batches"] = tallies.get("batches", 0) + 1
            tallies["batch_reads"] = tallies.get("batch_reads", 0) + len(result)

    def tally_drain(log, idx, args, kwargs, result):
        tallies["drains"] = tallies.get("drains", 0) + 1
        tallies["drained"] = tallies.get("drained", 0) + result

    def note_complete(log, idx, args, kwargs, result):
        if len(args) > 2 and args[2] == "serve.complete":
            log.attrs[idx] = {"request_id": kwargs.get("request_id")}

    def note_request(log, idx, args, kwargs, result):
        op = None
        if result is not None:
            raw = result.headers.get("x-bench-op")
            op = int(raw) if raw is not None and raw.isdigit() else None
        CURRENT_OP.set(op)
        log.attrs[idx] = {"op": op}

    def note_task_op(log, idx, args, kwargs, result):
        log.attrs[idx] = {"op": CURRENT_OP.get()}

    def note_engine_op(log, idx, args, kwargs, result):
        attrs = {"op": log.op}
        request = getattr(result, "request", None)
        if request is not None:
            attrs["request_id"] = request.request_id
        log.attrs[idx] = attrs

    hooks = {
        "SimKernel.__init__": keep_kernel,
        "RequestScheduler.take_batch": tally_batch,
        "PacedEngine.drain_injections": tally_drain,
        "Tracer.emit": note_complete if serve else None,
        "read_request": note_request,
        "json_response": note_task_op,
        "ArchiveServer.call_core": note_task_op,
        "ArchiveServerCore.begin_read": note_engine_op,
        "ArchiveServerCore.put_object": note_engine_op,
    }
    entries = ENTRY_POINTS + (SERVE_ENTRY_POINTS if serve else [])
    for module_name, class_name, attrs, layer in entries:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name, None)
        if owner is None:
            continue
        if class_name == "ArchiveServer":
            _propagate_op(recorder, owner)
        for attr in attrs:
            name = attr if class_name is None else f"{class_name}.{attr}"
            recorder.wrap(owner, attr, layer, name=name, on_return=hooks.get(name))
    return kernels


def _propagate_op(recorder: Recorder, server_class: Any) -> None:
    """Carry the connection task's op id onto the engine thread.

    ``call_core`` hands a thunk to the engine thread; the shim runs it
    with the op id set on that thread's log, so the core spans it opens
    (``begin_read``, ``put_object``) carry the same op id.
    """
    original = server_class.__dict__.get("call_core")
    if original is None:
        return

    async def call_core(self, fn):
        op = CURRENT_OP.get()

        def bridged():
            log = recorder.log()
            log.op = op
            try:
                return fn()
            finally:
                log.op = None

        return await original(self, bridged)

    server_class.call_core = call_core


def counters(kernel, report) -> dict:
    """Layer counters from the kernel's public surfaces, after the run."""
    sim = kernel.ctx.sim
    registry = kernel.ctx.metrics
    engine = getattr(sim, "scheduler_stats", {})
    admission = kernel.lifecycle.admission
    admitted = rejected = 0
    if admission is not None:
        for row in admission.stats_dict().values():
            admitted += row["admitted"]
            rejected += row["rejected"]
    return {
        "events_fired": sim.events_processed,
        "engine_pushes": engine.get("pushes"),
        "engine_cancelled_skips": engine.get("cancelled_skips"),
        "dispatch_passes": int(registry.value("dispatch_passes_total")),
        "dispatch_short_circuits": int(registry.value("dispatch_short_circuits_total")),
        "dispatch_assignments": int(registry.value("dispatch_assignments_total")),
        "dispatch_steals": int(registry.value("work_steals_total")),
        "traffic_conflicts": report.shuttles.total_conflicts,
        "scheduler_enqueued": kernel.ctx.scheduler.total_enqueued,
        "admission_admitted": admitted,
        "admission_rejected": rejected,
        "requests_retained": len(kernel.lifecycle.all_requests),
    }
