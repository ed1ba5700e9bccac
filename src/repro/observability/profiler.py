"""Wall-clock hot-spot profiling of the simulator itself.

Where the tracer measures *simulated* time, this measures *real* time: how
many wall-clock seconds the event loop spends inside callbacks of each
event label ("move", "read", "dispatch", ...). It is the "you can't speed
up what you can't measure" hook for future performance PRs: attach a
:class:`WallClockProfiler` to a :class:`repro.core.events.Simulation` and
the loop times every callback; detach (the default) and the loop pays a
single ``is None`` check per event.

Usage::

    profiler = WallClockProfiler()
    profiler.install(kernel.ctx.sim)
    kernel.run()
    print(profiler.format(top=10))

Units: all durations are wall-clock **seconds** (``time.perf_counter``).
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)


class WallClockProfiler:
    """Accumulates wall-clock time per event label."""

    def __init__(self) -> None:
        # label -> [calls, total_wall_seconds]
        self._buckets: Dict[str, List[float]] = {}

    def observe(self, label: str, wall_seconds: float) -> None:
        """Record one callback execution (the Simulation observer hook)."""
        bucket = self._buckets.get(label)
        if bucket is None:
            self._buckets[label] = [1, wall_seconds]
        else:
            bucket[0] += 1
            bucket[1] += wall_seconds

    def install(self, simulation: Any) -> None:
        """Attach to a :class:`repro.core.events.Simulation`."""
        simulation.observer = self.observe

    @property
    def total_seconds(self) -> float:
        """Total wall-clock seconds observed inside callbacks."""
        return sum(b[1] for b in self._buckets.values())

    @property
    def total_events(self) -> int:
        """Total callback executions observed."""
        return int(sum(b[0] for b in self._buckets.values()))

    def hotspots(self, top: Optional[int] = None) -> List[Tuple[str, int, float]]:
        """(label, calls, wall_seconds) sorted by time, hottest first."""
        rows = [
            (label, int(bucket[0]), bucket[1])
            for label, bucket in self._buckets.items()
        ]
        rows.sort(key=lambda r: (-r[2], r[0]))
        return rows[:top] if top is not None else rows

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Stable-keyed snapshot: label -> {calls, wall_seconds}."""
        return {
            label: {"calls": int(bucket[0]), "wall_seconds": bucket[1]}
            for label, bucket in sorted(self._buckets.items())
        }

    def to_dict(self, top: Optional[int] = None) -> Dict[str, Any]:
        """JSON-ready snapshot with deterministic-keyed hot-spot rows.

        Unlike :meth:`format` (a human table) and :meth:`hotspots` (bare
        tuples), every row here is a ``{label, calls, wall_seconds, share}``
        mapping, hottest first with a stable label tie-break, so downstream
        consumers (bench artifacts, dashboards) can diff runs key by key.
        """
        total = self.total_seconds
        return {
            "total_events": self.total_events,
            "total_seconds": total,
            "hotspots": [
                {
                    "label": label,
                    "calls": calls,
                    "wall_seconds": seconds,
                    "share": seconds / total if total > 0 else 0.0,
                }
                for label, calls, seconds in self.hotspots(top)
            ],
        }

    def reset(self) -> None:
        """Drop all accumulated buckets (e.g. between bench repetitions)."""
        self._buckets.clear()

    def format(self, top: int = 10) -> str:
        """Human-readable hot-spot table."""
        total = self.total_seconds
        lines = [
            f"wall-clock hot spots ({self.total_events} events, "
            f"{total:.3f}s inside callbacks):"
        ]
        for label, calls, seconds in self.hotspots(top):
            share = seconds / total * 100 if total > 0 else 0.0
            lines.append(
                f"  {label or '(unlabeled)':<18s} {calls:>9d} calls "
                f"{seconds:9.3f}s  {share:5.1f}%"
            )
        return "\n".join(lines)


class PhaseProfiler(WallClockProfiler):
    """Hierarchical wall-clock profiler with subsystem attribution.

    Extends the flat label -> wall bag in two directions:

    * **subsystem attribution** — every event label is classified into
      the kernel's subsystem buckets (engine / dispatch / motion /
      robotics / lifecycle / faults / verification) using the label sets
      each ``core.sim`` module keeps beside its ``schedule`` calls,
      aggregated as :data:`repro.core.sim.SUBSYSTEM_LABELS`.
      :meth:`subsystem_table` is the per-subsystem wall-share table; its
      shares are computed over total callback time, so they sum to 1.0
      and the "dispatch" row equals the dispatch label share PR 7's CI
      delta tracked.
    * **nested scopes** — ``with profiler.scope("fleet.merge"):`` times
      non-event-loop phases (fleet planning and merge, artifact export)
      on an explicit stack; a child's elapsed time is subtracted from its
      parent, so every scope row reports *self* time and nesting never
      double counts.
    """

    def __init__(
        self, subsystems: Optional[Mapping[str, Iterable[str]]] = None
    ) -> None:
        """Build the label classifier; ``subsystems`` defaults to the
        kernel's :data:`~repro.core.sim.SUBSYSTEM_LABELS` map."""
        super().__init__()
        if subsystems is None:
            # Deferred so constructing a profiler for a non-sim workload
            # does not require the kernel package at import time.
            from ..core.sim import SUBSYSTEM_LABELS

            subsystems = SUBSYSTEM_LABELS
        self._label_to_subsystem: Dict[str, str] = {}
        for name, labels in subsystems.items():
            for label in labels:
                self._label_to_subsystem[label] = name
        # scope path -> [calls, self_seconds]
        self._scope_rows: Dict[str, List[float]] = {}
        # live stack of [name, child_elapsed_seconds]
        self._scope_stack: List[List[Any]] = []

    def classify(self, label: str) -> str:
        """Subsystem name for one event label.

        Unlabeled callbacks are the "engine" bucket, the event loop's own
        overhead floor. Labels no subsystem claims (e.g. bench
        harness ticks) fall to "other" so a mapping gap is visible
        instead of silently inflating a real subsystem.
        """
        subsystem = self._label_to_subsystem.get(label)
        if subsystem is not None:
            return subsystem
        if not label:
            return "engine"
        return "other"

    def subsystem_table(self) -> List[Dict[str, Any]]:
        """Per-subsystem wall-share rows, hottest first.

        Each row is ``{subsystem, calls, wall_seconds, share}`` with
        ``share`` over total callback seconds — the rows partition the
        observed wall exactly, so shares sum to 1.0 (when any time was
        observed at all).
        """
        totals: Dict[str, List[float]] = {}
        for label, bucket in self._buckets.items():
            row = totals.setdefault(self.classify(label), [0, 0.0])
            row[0] += bucket[0]
            row[1] += bucket[1]
        total = sum(r[1] for r in totals.values())
        rows = [
            {
                "subsystem": name,
                "calls": int(calls),
                "wall_seconds": seconds,
                "share": seconds / total if total > 0 else 0.0,
            }
            for name, (calls, seconds) in totals.items()
        ]
        rows.sort(key=lambda r: (-r["wall_seconds"], r["subsystem"]))
        return rows

    @contextmanager
    def scope(self, name: str) -> Iterator[None]:
        """Time a named non-event-loop phase; nests without double count.

        The recorded key is the ``/``-joined path of active scope names;
        the recorded time is self time (elapsed minus children).
        """
        start = perf_counter()
        self._scope_stack.append([name, 0.0])
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            frame = self._scope_stack.pop()
            path = "/".join([f[0] for f in self._scope_stack] + [name])
            row = self._scope_rows.setdefault(path, [0, 0.0])
            row[0] += 1
            row[1] += elapsed - frame[1]
            if self._scope_stack:
                self._scope_stack[-1][1] += elapsed

    def scopes_as_dict(self) -> Dict[str, Dict[str, float]]:
        """Stable-keyed snapshot: scope path -> {calls, self_seconds}."""
        return {
            path: {"calls": int(row[0]), "self_seconds": row[1]}
            for path, row in sorted(self._scope_rows.items())
        }

    def to_dict(self, top: Optional[int] = None) -> Dict[str, Any]:
        """Flat hot-spot snapshot plus subsystem table and scope rows."""
        out = super().to_dict(top)
        out["subsystems"] = self.subsystem_table()
        out["scopes"] = self.scopes_as_dict()
        return out

    def reset(self) -> None:
        """Drop event buckets and completed scope rows (live scopes stay)."""
        super().reset()
        self._scope_rows.clear()

    def format_subsystems(self) -> str:
        """Human-readable per-subsystem wall-share table."""
        rows = self.subsystem_table()
        total = sum(r["wall_seconds"] for r in rows)
        lines = [f"subsystem wall shares ({total:.3f}s inside callbacks):"]
        for row in rows:
            lines.append(
                f"  {row['subsystem']:<14s} {row['calls']:>9d} calls "
                f"{row['wall_seconds']:9.3f}s  {row['share'] * 100:5.1f}%"
            )
        return "\n".join(lines)
