"""One repetition of a twin workload, in a fresh interpreter.

Usage: ``python twin_rep.py WORKLOAD SEED [SPANS_PATH]``

Imports the program, builds the prepared kernel, runs it to quiescence
and prints one JSON line: the set-up and run timestamps (on the
system-wide monotonic clock, so the launcher can time set-up from the
moment it started this process), the simulated outputs, the layer
counters read from public surfaces, and the process's peak RSS. With
``SPANS_PATH`` the pass is traced: every layer entry point is wrapped
before the kernel is built and the spans are written to that path.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402  (these import nothing from the program)
import workloads  # noqa: E402
from checks import twin_outputs  # noqa: E402
from tracing import Recorder  # noqa: E402


def main(argv) -> int:
    name, seed = argv[1], int(argv[2])
    spans_path = argv[3] if len(argv) > 3 else None
    recorder = Recorder() if spans_path else None
    if recorder is None:
        workloads.import_program()
        kernel, reads = workloads.build_twin(name, seed)
        t_ready = perf_counter()
        report = kernel.run()
        t_done = perf_counter()
    else:
        with recorder.span("rep", "harness"):
            with recorder.span("setup.import", "imports"):
                workloads.import_program()
            layers.install(recorder)
            kernel, reads = workloads.build_twin(name, seed)
            t_ready = perf_counter()
            report = kernel.run()
            t_done = perf_counter()
    result = {
        "t_ready": t_ready,
        "t_done": t_done,
        "reads": report.requests_completed,
        "outputs": twin_outputs(kernel, report, reads),
        "engine_pops": getattr(kernel.ctx.sim, "scheduler_stats", {}).get("pops"),
        "counters": layers.counters(kernel, report),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if recorder is not None:
        recorder.dump(spans_path, extra={"reads": reads})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
