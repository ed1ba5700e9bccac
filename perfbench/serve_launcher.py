"""Start ``python -m repro serve`` with every layer entry point wrapped.

Usage: ``python serve_launcher.py SPANS_PATH [repro CLI arguments]``

Installs the span wrappers at class and module level, then hands the
remaining arguments to the program's own CLI, which builds the server
and calls ``run_server``. When the server exits (SIGTERM is its clean
shutdown), the wrappers come out and the spans are written to
``SPANS_PATH`` together with the layer counters read from the kernel.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402  (these import nothing from the program)
from tracing import Recorder  # noqa: E402


def main(argv) -> int:
    spans_path, cli_args = argv[1], argv[2:]
    recorder = Recorder()
    with recorder.span("setup.import", "imports"):
        from repro import cli
    kernels = layers.install(recorder, serve=True)
    code = cli.main(cli_args)
    recorder.uninstall()
    extra = {}
    if kernels:
        kernel = kernels[0]
        extra = layers.counters(kernel, kernel.report())
    recorder.dump(spans_path, extra=extra)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
