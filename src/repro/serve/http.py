"""Hand-rolled HTTP/1.1 over asyncio streams (stdlib only).

Just enough protocol for the archive server and its load generator: a
request parser with hard caps (header count/size, body size), response
builders, and a drain-with-timeout writer so one slow client can never
wedge the event loop. Each inbound request is read under one deadline,
and a response's drain is timed only when the client has stopped
reading, so a request costs one timer rather than one per line.
Deliberately not a framework — four routes and an NDJSON stream don't
need one, and owning the parser means the slow-client and backpressure
behaviour is exactly what the tests pin.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

#: Hard caps on inbound requests (a public-ish endpoint must bound work).
MAX_HEADER_LINE_BYTES = 8192
MAX_HEADERS = 64
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Reason phrases for the statuses the server actually emits.
REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A protocol violation that maps to one error response."""

    def __init__(self, status: int, reason: str) -> None:
        super().__init__(f"{status}: {reason}")
        self.status = status
        self.reason = reason


@dataclass
class HttpRequest:
    """One parsed inbound request."""

    method: str
    path: str
    version: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 keep-alive semantics (``Connection: close`` opts out)."""
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    def header_int(self, name: str, default: Optional[int] = None) -> Optional[int]:
        """An integer header, or ``default``; 400 on garbage."""
        raw = self.headers.get(name.lower())
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise HttpError(400, f"bad integer header {name}: {raw!r}")


async def read_request(
    reader: asyncio.StreamReader, timeout: float = 30.0
) -> Optional[HttpRequest]:
    """Parse one request off ``reader``; None on clean EOF.

    The request line, headers and body are read under one ``timeout``
    deadline. Raises :class:`HttpError` on malformed input or cap
    violations and :class:`asyncio.TimeoutError` when the client stalls
    mid-request.
    """
    return await asyncio.wait_for(_parse_request(reader), timeout)


async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    """One CRLF-terminated line; 400 if it exceeds the header line cap."""
    try:
        line = await reader.readline()
    except ValueError:  # longer than the stream's own buffer limit
        raise HttpError(400, f"{what} too long") from None
    if len(line) > MAX_HEADER_LINE_BYTES:
        raise HttpError(400, f"{what} too long")
    return line


async def _parse_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """The body of :func:`read_request`, without its deadline."""
    line = await _read_line(reader, "request line")
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError(400, "malformed request line")
    method, path, version = parts
    headers: Dict[str, str] = {}
    while True:
        line = await _read_line(reader, "header line")
        if not line:
            raise HttpError(400, "connection closed mid-headers")
        text = line.decode("latin-1").strip()
        if not text:
            break
        if len(headers) >= MAX_HEADERS:
            raise HttpError(400, "too many headers")
        name, sep, value = text.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header {text!r}")
        headers[name.strip().lower()] = value.strip()
    request = HttpRequest(method=method.upper(), path=path, version=version, headers=headers)
    length = request.header_int("content-length", 0) or 0
    if length < 0:
        raise HttpError(400, "negative content-length")
    if length > MAX_BODY_BYTES:
        raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    if length:
        request.body = await reader.readexactly(length)
    return request


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialize one complete response (status line + headers + body)."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


def json_response(
    status: int,
    payload: Dict[str, Any],
    extra_headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = True,
) -> bytes:
    """A JSON body response (compact, sorted keys — diffable in tests)."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return render_response(
        status, body, extra_headers=extra_headers, keep_alive=keep_alive
    )


def stream_head(content_type: str = "application/x-ndjson") -> bytes:
    """Response head for an unbounded stream (no Content-Length)."""
    return (
        "HTTP/1.1 200 OK\r\n"
        f"Content-Type: {content_type}\r\n"
        "Cache-Control: no-store\r\n"
        "Connection: close\r\n\r\n"
    ).encode("latin-1")


async def send_with_timeout(
    writer: asyncio.StreamWriter, data: bytes, timeout: float
) -> None:
    """Write + drain; TimeoutError marks a slow client.

    ``drain()`` can only block while the transport's protocol is paused,
    and a paused protocol stays paused until the write buffer falls back
    to its low-water mark. So the deadline (and its timer) is armed only
    when the buffer is above that mark — what a client that stopped
    reading causes; otherwise ``drain()`` returns at once.
    """
    writer.write(data)
    transport = writer.transport
    if transport.get_write_buffer_size() > transport.get_write_buffer_limits()[0]:
        await asyncio.wait_for(writer.drain(), timeout)
    else:
        await writer.drain()


async def read_response(
    reader: asyncio.StreamReader, timeout: float = 60.0
) -> Tuple[int, Dict[str, str], bytes]:
    """Client side: parse one response (status, headers, body).

    Only what the load generator needs — Content-Length bodies (every
    non-streaming server response carries one).
    """
    line = await asyncio.wait_for(reader.readline(), timeout)
    if not line:
        raise HttpError(400, "connection closed before status line")
    parts = line.decode("latin-1").strip().split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise HttpError(400, f"malformed status line {line!r}")
    status = int(parts[1])
    headers: Dict[str, str] = {}
    while True:
        line = await asyncio.wait_for(reader.readline(), timeout)
        if not line:
            raise HttpError(400, "connection closed mid-headers")
        text = line.decode("latin-1").strip()
        if not text:
            break
        name, sep, value = text.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body = await asyncio.wait_for(reader.readexactly(length), timeout) if length else b""
    return status, headers, body


def split_path(path: str) -> Tuple[str, ...]:
    """Path segments without query string: ``/archive/x?y`` -> (archive, x)."""
    path = path.split("?", 1)[0]
    return tuple(seg for seg in path.split("/") if seg)
