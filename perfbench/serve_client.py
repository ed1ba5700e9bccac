"""The serve_http load: one asyncio loop, keep-alive connections, closed loop.

The client is the benchmark's own code, stdlib only, so its cost does
not move when the program under test changes. Each connection sends its
next request as soon as the previous response has been read (no think
time). Latency is timed from just before the request is written to just
after the whole response has been read; payloads are checked after the
clock stops.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from checks import check_get, check_put, check_status

#: Wall seconds a single request may take before it counts as failed.
REQUEST_TIMEOUT_S = 30.0


@dataclass
class Op:
    """One HTTP request of the load, with what its answer must be."""

    op_id: int
    method: str
    object_id: str
    size_bytes: int
    tenant: str = ""
    sent: float = 0.0
    done: float = 0.0
    error: Optional[str] = None


@dataclass
class LoadResult:
    """What one server rep's load saw."""

    setup_done: float = 0.0
    phase_start: float = 0.0
    phase_end: float = 0.0
    ops: List[Op] = field(default_factory=list)
    status: Dict[str, Any] = field(default_factory=dict)
    status_error: bool = False
    errors: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.ops) + 2  # + the two /status requests

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.error) + (1 if self.status_error else 0)


def object_sizes(seed: int, count: int, load: Dict[str, Any]) -> List[int]:
    """Lognormal object sizes around the median, clipped to the bounds."""
    rng = random.Random(f"sizes-{seed}")
    mu = math.log(load["size_median_bytes"])
    low, high = load["size_min_bytes"], load["size_max_bytes"]
    return [
        int(min(max(rng.lognormvariate(mu, load["size_sigma"]), low), high))
        for _ in range(count)
    ]


def plan_ops(seed: int, tenants: List[str], load: Dict[str, Any]) -> Tuple[List[Op], List[Op]]:
    """The set-up PUTs and the measured ops, fixed by ``seed``.

    GETs pick uniformly among the set-up objects, so no GET can race a
    PUT still in flight on the other connection; measured PUTs archive
    new objects. Tenants rotate round-robin over every op.
    """
    count = load["setup_objects"]
    measured = load["measured_ops"]
    sizes = object_sizes(seed, count + measured, load)
    rng = random.Random(f"ops-{seed}")
    setup = [
        Op(i, "PUT", f"o{i}", sizes[i], tenants[i % len(tenants)]) for i in range(count)
    ]
    ops = []
    for k in range(measured):
        op_id = count + k
        tenant = tenants[op_id % len(tenants)]
        if rng.random() < load["get_share"]:
            target = setup[rng.randrange(count)]
            ops.append(Op(op_id, "GET", target.object_id, target.size_bytes, tenant))
        else:
            ops.append(Op(op_id, "PUT", f"n{k}", sizes[count + k], tenant))
    return setup, ops


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.writer = None

    async def request(
        self, method: str, path: str, headers: Dict[str, str]
    ) -> Tuple[int, bytes]:
        """Send one body-less request; return (status, body)."""
        lines = [f"{method} {path} HTTP/1.1", "Host: 127.0.0.1", "Content-Length: 0"]
        lines += [f"{name}: {value}" for name, value in headers.items()]
        self.writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        status_line = await self.reader.readline()
        parts = status_line.split(None, 2)
        if len(parts) < 2:
            raise ConnectionError(f"bad status line {status_line!r}")
        length = 0
        while True:
            line = await self.reader.readline()
            if not line:
                raise ConnectionError("connection closed mid-headers")
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = await self.reader.readexactly(length) if length else b""
        return int(parts[1]), body


async def _run_op(conn: Connection, op: Op) -> None:
    """Time and check one op; failures are recorded on the op."""
    headers = {"X-Tenant": op.tenant, "X-Bench-Op": str(op.op_id)}
    if op.method == "PUT":
        headers["X-Size-Bytes"] = str(op.size_bytes)
    op.sent = perf_counter()
    try:
        status, raw = await asyncio.wait_for(
            conn.request(op.method, f"/archive/{op.object_id}", headers), REQUEST_TIMEOUT_S
        )
    except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError) as exc:
        op.done = perf_counter()
        op.error = f"{op.method} {op.object_id}: {type(exc).__name__}: {exc}"
        await conn.close()
        await conn.open()
        return
    op.done = perf_counter()
    try:
        body = json.loads(raw)
    except ValueError:
        body = None
    check = check_get if op.method == "GET" else check_put
    op.error = check(status, body, op.object_id, op.size_bytes)


async def _drive(conns: List[Connection], ops: List[Op]) -> None:
    """Closed loop: each connection takes the next op when it is free."""
    queue = iter(ops)

    async def worker(conn: Connection) -> None:
        for op in queue:
            await _run_op(conn, op)

    await asyncio.gather(*(worker(conn) for conn in conns))


async def run_load(port: int, seed: int, load: Dict[str, Any]) -> LoadResult:
    """Set-up PUTs, the measured ops, then the final ``/status`` check."""
    result = LoadResult()
    conns = [Connection(port) for _ in range(load["connections"])]
    for conn in conns:
        await conn.open()
    try:
        status, raw = await conns[0].request("GET", "/status", {})
        tenants = json.loads(raw).get("tenants") or [""]
        setup, measured = plan_ops(seed, tenants, load)
        await _drive(conns, setup)
        result.setup_done = perf_counter()
        result.phase_start = perf_counter()
        await _drive(conns, measured)
        result.phase_end = perf_counter()
        result.ops = setup + measured
        status, raw = await conns[0].request("GET", "/status", {})
        try:
            body = json.loads(raw)
        except ValueError:
            body = None
        status_diffs = check_status(status, body)
        result.status = body or {}
        result.status_error = bool(status_diffs)
        result.errors = [op.error for op in result.ops if op.error] + status_diffs
    finally:
        for conn in conns:
            await conn.close()
    return result
