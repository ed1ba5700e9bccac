"""Spans recorded from the benchmark's own files, and the sums over them.

The traced pass wraps public entry points of each layer at class (or
module) level before the kernel is built. A wrapper records one span per
call — name, start, end and the enclosing span on the same thread — in
per-thread flat arrays, so a run of a million calls stays a few tens of
megabytes; nothing is written until the run ends.

A span's self time is its duration minus the durations of its direct
children. A layer's self time is the sum over its spans, so nested spans
of one layer are never counted twice, and with one root span around the
whole traced region the layer self times plus the root's self time add
up to the root's duration exactly.

This module imports only the standard library: it is imported before the
program under test so its import can be timed as a span.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import math
import pickle
import threading
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: The client op id of the HTTP request the current connection task is
#: serving (set when the request is parsed).
CURRENT_OP: contextvars.ContextVar = contextvars.ContextVar("perfbench_op", default=None)

class ThreadLog:
    """Spans of one thread, in start order, as flat arrays."""

    def __init__(self, thread_name: str) -> None:
        self.thread_name = thread_name
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack: List[int] = []
        self.attrs: Dict[int, Dict[str, Any]] = {}
        #: op id the engine thread is currently running a bridged call for.
        self.op: Optional[int] = None

    def open(self, name_id: int) -> int:
        """Append an open span; returns its index (start is set by caller)."""
        idx = len(self.starts)
        self.names.append(name_id)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.starts.append(0.0)
        self.stack.append(idx)
        return idx


class Recorder:
    """Installs span wrappers and keeps every thread's spans in memory."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.logs: List[ThreadLog] = []
        self.span_names: List[str] = []
        self.layer_of: Dict[str, str] = {}
        self._installed: List[Tuple[Any, str, Any]] = []
        #: integer facts tallied by ``on_return`` hooks (batch sizes...).
        self.tallies: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def log(self) -> ThreadLog:
        """This thread's log, created on first use."""
        log = getattr(self._local, "log", None)
        if log is None:
            log = ThreadLog(threading.current_thread().name)
            self._local.log = log
            with self._lock:
                self.logs.append(log)
        return log

    def name_id(self, name: str, layer: str) -> int:
        """Register a span name under its layer."""
        self.layer_of[name] = layer
        self.span_names.append(name)
        return len(self.span_names) - 1

    def span(self, name: str, layer: str) -> "_ManualSpan":
        """A ``with`` block recorded as one span (harness regions)."""
        return _ManualSpan(self, self.name_id(name, layer))

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        name: Optional[str] = None,
        on_return: Optional[Callable[[ThreadLog, int, tuple, dict, Any], None]] = None,
    ) -> bool:
        """Replace ``owner.attr`` by a recording wrapper.

        ``on_return(log, idx, args, kwargs, result)`` runs after the span closes,
        to attach attributes or tally results. Returns False, installing
        nothing, when ``owner`` has no such attribute, so the traced pass
        keeps working when a later version of the program removes an
        entry point (its layer then reads 0).
        """
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            return False
        label = name or f"{getattr(owner, '__name__', owner)}.{attr}"
        name_id = self.name_id(label, layer)
        if inspect.iscoroutinefunction(fn):
            wrapper = self._async_wrapper(fn, name_id, on_return)
        else:
            log_for = self.log

            def wrapper(*args, **kwargs):
                log = log_for()
                idx = log.open(name_id)
                log.starts[idx] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    log.ends[idx] = perf_counter()
                    log.stack.pop()
                if on_return is not None:
                    on_return(log, idx, args, kwargs, result)
                return result

        functools.update_wrapper(wrapper, fn)
        self._installed.append((owner, attr, fn))
        setattr(owner, attr, wrapper)
        return True

    def _async_wrapper(self, fn, name_id, on_return):
        """Coroutine spans are roots: other tasks interleave on the thread."""
        log_for = self.log

        async def wrapper(*args, **kwargs):
            log = log_for()
            idx = len(log.starts)
            log.names.append(name_id)
            log.parents.append(-1)
            log.ends.append(0.0)
            log.starts.append(perf_counter())
            try:
                result = await fn(*args, **kwargs)
            finally:
                log.ends[idx] = perf_counter()
            if on_return is not None:
                on_return(log, idx, args, kwargs, result)
            return result

        return wrapper

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def dump(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write every thread's spans, with ``extra`` facts, to ``path``."""
        threads = [
            (log.thread_name, log.names, log.starts, log.ends, log.parents, log.attrs)
            for log in self.logs
        ]
        payload = {
            "span_names": self.span_names,
            "layer_of": self.layer_of,
            "threads": threads,
            "extra": dict(extra or {}, tallies=self.tallies),
        }
        with open(path, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)


class SpanSet:
    """Per-span-name sums of a :meth:`Recorder.dump` file.

    Only the sums are kept — calls, self and inclusive seconds per span
    name — plus the spans that carry attributes (the serve spans joined
    to client ops), so reading a million spans stays cheap.
    """

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.layer_of: Dict[str, str] = payload["layer_of"]
        self.extra: Dict[str, Any] = payload["extra"]
        names = payload["span_names"]
        #: span name -> [calls, self seconds, inclusive seconds]
        self.by_name: Dict[str, List[float]] = {}
        #: (name, start, end, attrs) of every span with attributes.
        self.tagged: List[Tuple[str, float, float, Dict[str, Any]]] = []
        for _thread, ids, starts, ends, parents, attrs in payload["threads"]:
            own = self_times(starts, ends, parents)
            for name_id, start, end, own_s in zip(ids, starts, ends, own):
                row = self.by_name.setdefault(names[name_id], [0, 0.0, 0.0])
                row[0] += 1
                row[1] += own_s
                row[2] += end - start
            for idx, tags in attrs.items():
                self.tagged.append((names[ids[idx]], starts[idx], ends[idx], tags))

    @classmethod
    def load(cls, path: str) -> "SpanSet":
        """Read a file this harness's :meth:`Recorder.dump` wrote."""
        with open(path, "rb") as handle:
            return cls(pickle.load(handle))

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, ``self_s`` and inclusive ``total_s``."""
        out: Dict[str, Dict[str, float]] = {}
        for name, (calls, own_s, inclusive) in self.by_name.items():
            row = out.setdefault(
                self.layer_of[name], {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            )
            row["calls"] += calls
            row["self_s"] += own_s
            row["total_s"] += inclusive
        return out

    def name_totals(self, name: str) -> Tuple[int, float]:
        """``(calls, inclusive seconds)`` of span ``name`` on every thread."""
        calls, _own, inclusive = self.by_name.get(name, (0, 0.0, 0.0))
        return int(calls), inclusive


class _ManualSpan:
    def __init__(self, recorder: Recorder, name_id: int) -> None:
        self._recorder = recorder
        self._name_id = name_id

    def __enter__(self) -> "_ManualSpan":
        self._log = self._recorder.log()
        self._idx = self._log.open(self._name_id)
        self._log.starts[self._idx] = perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._log.ends[self._idx] = perf_counter()
        self._log.stack.pop()


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Spans are given as parallel sequences; ``parents[i]`` is the index of
    span ``i``'s enclosing span, or -1 for a root.
    """
    own = [end - start for start, end in zip(starts, ends)]
    for start, end, parent in zip(starts, ends, parents):
        if parent >= 0:
            own[parent] -= end - start
    return own


def percentile_rule(samples: Iterable[float]) -> Tuple[str, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(label, value, n)``, e.g. ``("p99", 4.1, 1000)``. Below 100
    samples no tail percentile qualifies and the median (``p50``) is
    returned. Percentiles use the nearest-rank definition.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    label, q = "p50", 0.5
    for candidate, fraction in (("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999), ("p99.99", 0.9999)):
        if n - _rank(n, fraction) >= 10:
            label, q = candidate, fraction
    return label, nearest_rank(ordered, q), n


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..1] of an already sorted sequence."""
    if not ordered:
        raise ValueError("no samples")
    return ordered[_rank(len(ordered), q) - 1]


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` samples."""
    return max(1, math.ceil(round(q * n, 9)))
