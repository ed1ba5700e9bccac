"""Live service mode: an asyncio archive server over the paced twin.

``repro.serve`` turns the batch simulator into a service you can point
traffic at: a :class:`~repro.serve.core.ArchiveServerCore` (catalog +
kernel, which admits each read itself, with tickets resolved at the
kernel's completion seam and the trace fanned out to ``/events``
subscribers; transport-free), an
:class:`~repro.serve.server.ArchiveServer` HTTP/1.1 frontend over
``asyncio.start_server``, a seeded load generator
(:mod:`repro.serve.loadgen`, ``python -m repro loadgen``), and a
virtual-time soak harness (:mod:`repro.serve.soak`) behind the
``serve_soak`` bench scenario. Sim time is coupled to the wall clock by
:class:`~repro.core.events.PacedEngine` at a configurable dilation; the
server paces it from a task on its own asyncio loop, so the whole
service runs on one thread, and requests arriving during the run enter
the kernel deterministically through the engine's injection queue at
slice boundaries.

Layering: serve imports the kernel, tenancy and observability; nothing
under ``repro.core`` (or those two packages) may import serve back —
enforced by ``tools/check_layers.py``.
"""

from .core import (
    ArchiveServerCore,
    ReadRejected,
    ReadTicket,
    ServeConfig,
    serve_registry,
)
from .loadgen import (
    LOADGEN_SCHEMA,
    BurstSpec,
    LoadSpec,
    closed_loop_plan,
    open_loop_schedule,
    stream_events,
)
from .server import ArchiveServer, run_server
from .soak import SoakSpec, run_soak

__all__ = [
    "ArchiveServer",
    "ArchiveServerCore",
    "BurstSpec",
    "LOADGEN_SCHEMA",
    "LoadSpec",
    "ReadRejected",
    "ReadTicket",
    "ServeConfig",
    "SoakSpec",
    "closed_loop_plan",
    "open_loop_schedule",
    "run_server",
    "run_soak",
    "serve_registry",
    "stream_events",
]
