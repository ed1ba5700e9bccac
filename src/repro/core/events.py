"""Discrete event simulation engine.

This is the substrate of the "digital twin" used throughout the paper's
evaluation (Section 7): a classic monotonic event-queue simulator. Time is a
float in seconds; there is no wall clock. Entities schedule callbacks and the
simulation advances by popping the earliest event.

The engine is deliberately small and deterministic:

* the pending-event set is one binary heap of ``(time, seq, event)``
  tuples, so ordering compares plain floats/ints at C speed;
* events with equal timestamps fire in scheduling order (a monotonically
  increasing sequence number breaks ties), so a run is fully reproducible;
* cancellation is O(1) (lazy deletion via a ``cancelled`` flag; flagged
  entries are discarded when they reach the head of the heap);
* a caller may take an event's sequence number early
  (:meth:`Simulation.reserve_seq`) and push the event later
  (:meth:`Simulation.schedule_reserved`), so a sorted stream of future
  events can feed the heap one head at a time yet fire exactly as if
  every event had been scheduled when its number was taken.
"""

from __future__ import annotations

import sys
import threading
from collections import deque
from heapq import heappop, heappush
from time import monotonic
from typing import Any, Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised on invalid use of the simulation engine (e.g. past scheduling)."""


class Event:
    """A scheduled callback.

    Events sort by ``(time, seq)``; the payload fields do not participate in
    ordering, and ``label`` only names the event in its ``repr``. Use
    :meth:`cancel` to revoke an event that has not fired yet.

    A ``__slots__`` class (not a dataclass): hundreds of thousands of these
    are queued per run, and dropping the per-instance ``__dict__`` keeps the
    event queue's memory footprint flat.
    """

    __slots__ = ("time", "seq", "callback", "label", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        label: str = "",
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = cancelled

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, seq={self.seq!r}, label={self.label!r}, "
            f"cancelled={self.cancelled!r})"
        )

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def cancel(self) -> None:
        """Revoke this event. Safe to call multiple times."""
        self.cancelled = True


#: Heap entries are ``(time, seq, event)`` tuples rather than Event objects
#: so heap ordering compares plain floats/ints at C speed instead of calling
#: ``Event.__lt__`` (which dominated the event loop at ~2.5M calls per fig9
#: run before the tuple representation).
QueueEntry = Tuple[float, int, Event]


class Simulation:
    """An event-queue discrete event simulator.

    Besides :meth:`schedule`, a caller that holds a sorted stream of
    future events can reserve each one's sequence number up front
    (:meth:`reserve_seq`) and push them one at a time
    (:meth:`schedule_reserved`); :attr:`pending` then counts only what
    has been pushed.

    Example::

        sim = Simulation()
        sim.schedule(5.0, lambda: print("five seconds in"))
        sim.run()
    """

    def __init__(self) -> None:
        self._heap: List[QueueEntry] = []
        self._now = 0.0
        self._running = False
        #: Events scheduled so far; also the next event's sequence number.
        self._pushes = 0
        self._cancelled_skips = 0
        self._events_processed = 0
        #: Optional sim-time sampler installed by :meth:`set_sampler`:
        #: a mutable ``[next_due_time, callback]`` pair, or None (the
        #: default, costing one comparison of a loop-local per event).
        self._sampler: Optional[List[Any]] = None

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Entries in the heap, stale (cancelled-unskipped) included.

        An event whose sequence number is reserved but not yet pushed
        (see :meth:`reserve_seq`) is not counted: the request lifecycle's
        streamed intake keeps only its head arrival in the heap.
        """
        return len(self._heap)

    @property
    def scheduler_stats(self) -> dict:
        """Engine counters of the pending-event heap.

        ``pushes`` counts events scheduled, ``pops`` counts events dequeued
        and fired (always equal to :attr:`events_processed`), and
        ``cancelled_skips`` counts flagged entries discarded at the head.
        All three are deterministic under a pinned seed — they are
        published as the ``sim_engine_*`` gauges.
        """
        return {
            "pushes": self._pushes,
            "pops": self._events_processed,
            "cancelled_skips": self._cancelled_skips,
        }

    def schedule(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which can be cancelled. ``delay`` must be
        non-negative; zero-delay events run after already-queued events at the
        same timestamp.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self._now + delay
        seq = self._pushes
        self._pushes = seq + 1
        event = Event(time, seq, callback, label)
        heappush(self._heap, (time, seq, event))
        return event

    def schedule_at(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        return self.schedule(time - self._now, callback, label)

    def reserve_seq(self) -> int:
        """Take the next sequence number now, for an event pushed later.

        The number is counted in ``pushes`` at once, so
        :attr:`scheduler_stats` reads as if the event had been scheduled
        here. Push it with :meth:`schedule_reserved` before the clock can
        reach it: the event then fires exactly where an event scheduled
        at reservation time would have, because the heap orders by
        ``(time, seq)``.
        """
        seq = self._pushes
        self._pushes = seq + 1
        return seq

    def schedule_reserved(
        self, time: float, seq: int, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Push ``callback`` at absolute ``time`` under a reserved ``seq``.

        ``seq`` comes from :meth:`reserve_seq`, which already counted the
        push; this call does not count it again. Raises
        :class:`SimulationError` for a ``time`` in the past.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past (time={time}, now={self._now})"
            )
        event = Event(time, seq, callback, label)
        heappush(self._heap, (time, seq, event))
        return event

    def set_sampler(
        self,
        interval: float,
        callback: Callable[[float], Optional[float]],
        start: Optional[float] = None,
    ) -> None:
        """Install a sim-time sampling hook on the run loop.

        ``callback(ts)`` fires at ``ts = start`` (default: now +
        ``interval``) and thereafter every interval the callback returns
        (returning None stops sampling). Samples are *not* events: they
        are interleaved by the run loop whenever the clock is about to
        jump past a due sample, so they never extend a run, never shift
        event ordering or sequence numbers, and never count toward
        ``events_processed`` — which is what keeps a sampled run's
        simulated metrics byte-identical to an unsampled one. Because
        simulation state is piecewise constant between events, the state
        a sample observes is exactly the state at its timestamp. The
        callback must not schedule events or mutate simulation state.
        Samples fire only inside :meth:`run` (bare :meth:`step` calls
        skip them).
        """
        if interval <= 0:
            raise SimulationError(f"sampler interval must be > 0 (got {interval})")
        first = self._now + interval if start is None else start
        self._sampler = [first, callback]

    def clear_sampler(self) -> None:
        """Remove the sampling hook installed by :meth:`set_sampler`."""
        self._sampler = None

    def _fire_samples(
        self, sampler: List[Any], limit: float
    ) -> Optional[List[Any]]:
        """Fire every sample due at or before ``limit``.

        Advances the clock to each sample's timestamp (monotonic: the
        caller is about to advance it to ``limit`` or beyond). Returns
        the still-armed sampler, or None once the callback stops.
        """
        while sampler[0] <= limit:
            due = sampler[0]
            if due > self._now:
                self._now = due
            next_interval = sampler[1](due)
            if next_interval is None:
                self._sampler = None
                return None
            sampler[0] = due + next_interval
        return sampler

    def peek(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        heap = self._heap
        while heap:
            if heap[0][2].cancelled:
                heappop(heap)
                self._cancelled_skips += 1
                continue
            return heap[0][0]
        return None

    def step(self) -> bool:
        """Run the next event. Returns False if the queue is empty."""
        heap = self._heap
        while heap:
            time, _seq, event = heappop(heap)
            if event.cancelled:
                self._cancelled_skips += 1
                continue
            self._now = time
            self._events_processed += 1
            event.callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the queue drains earlier, so utilization denominators are
        well defined.
        """
        if self._running:
            raise SimulationError("simulation is already running (re-entrant run())")
        self._running = True
        processed = 0
        # This loop fires every event of a run, so the heap and sampler are
        # bound to locals. The ``until`` horizon is enforced by
        # pop-then-push-back: one extra heap operation per run() instead
        # of a head check per event.
        heap = self._heap
        horizon = float("inf") if until is None else until
        limit = sys.maxsize if max_events is None else max_events
        sampler = self._sampler
        try:
            while heap and processed < limit:
                time, seq, event = heappop(heap)
                if event.cancelled:
                    self._cancelled_skips += 1
                    continue
                if time > horizon:
                    heappush(heap, (time, seq, event))
                    break
                if sampler is not None and sampler[0] <= time:
                    sampler = self._fire_samples(sampler, time)
                self._now = time
                processed += 1
                event.callback()
        finally:
            self._running = False
            self._events_processed += processed
        if until is not None and self._now < until:
            # Close out samples due in the drained tail before pinning the
            # clock to the horizon (state is constant there, so each one
            # still observes the correct snapshot).
            if sampler is not None:
                self._fire_samples(sampler, until)
            self._now = until


class PacedEngine:
    """Couples a :class:`Simulation` to the wall clock, with safe ingress.

    The batch engine runs as fast as it can; a *paced* engine instead maps
    wall time onto sim time through a ``dilation`` factor (sim-seconds per
    wall-second) so the twin advances in real time — the substrate of the
    live service mode (``repro.serve``). Two ideas keep it deterministic
    enough to serve traffic:

    * Simulation state is touched only by the code that advances the
      clock — :meth:`run_slice`, which the live server calls from a pacer
      task on its asyncio loop. Everything else (other tasks, other
      threads) hands work in through :meth:`inject`, a thread-safe FIFO
      of callbacks.
    * Injections are drained only at slice boundaries, by the code that
      advances the clock, and each callback runs at the *current* sim
      time. Once a request has been injected at sim time ``t``,
      everything downstream of it is the ordinary deterministic kernel —
      wall-clock jitter only moves the admission timestamp, never the
      event interleaving after it.

    Virtual-time callers (tests, the soak harness) drive ``sim.run``
    themselves; :meth:`drain_injections` empties the queue outside a
    slice. ``clock`` is injectable for tests.
    """

    def __init__(
        self,
        sim: Simulation,
        dilation: float = 0.0,
        poll_wall_seconds: float = 0.05,
        max_pending: int = 0,
        clock: Callable[[], float] = monotonic,
    ) -> None:
        self.sim = sim
        self.dilation = float(dilation)
        #: Upper bound on one wall-clock wait between slices (seconds).
        self.poll_wall_seconds = float(poll_wall_seconds)
        #: Injection backpressure bound; 0 disables (see :meth:`inject`).
        self.max_pending = int(max_pending)
        self._clock = clock
        self._lock = threading.Lock()
        self._pending: deque = deque()
        self._injected_total = 0
        self._drained_total = 0
        self._refused_total = 0
        self._origin: Optional[Tuple[float, float]] = None

    @property
    def pending_injections(self) -> int:
        """Callbacks injected but not yet drained by a slice."""
        with self._lock:
            return len(self._pending)

    @property
    def injection_stats(self) -> Tuple[int, int, int]:
        """``(injected, drained, refused)`` lifetime counters."""
        with self._lock:
            return (self._injected_total, self._drained_total, self._refused_total)

    def inject(self, callback: Callable[[], None]) -> bool:
        """Hand ``callback`` to the next slice; safe from any thread.

        The callback runs at the next slice boundary, at the engine's
        current sim time, in FIFO order with other injections. Returns
        False (and counts a refusal) when ``max_pending`` is set and the
        queue is full — the caller's backpressure signal.
        """
        with self._lock:
            if self.max_pending > 0 and len(self._pending) >= self.max_pending:
                self._refused_total += 1
                return False
            self._pending.append(callback)
            self._injected_total += 1
        return True

    def drain_injections(self) -> int:
        """Run all pending injected callbacks; slice boundaries only."""
        ran = 0
        while True:
            with self._lock:
                if not self._pending:
                    return ran
                callback = self._pending.popleft()
                self._drained_total += 1
            callback()
            ran += 1

    def _wall_due(self) -> float:
        """Sim time the wall clock says we should have reached by now."""
        wall0, sim0 = self._origin  # type: ignore[misc]
        return sim0 + (self._clock() - wall0) * self.dilation

    def run_slice(self) -> Optional[float]:
        """Drain injections, then run the sim up to the wall-clock due time.

        One non-blocking step of a live server's pacer: it never sleeps and
        never runs sim time past ``origin + elapsed * dilation``. Returns
        the wall seconds until the next pending event is due, or None when
        the queue is empty; the caller waits at most that long (and at
        most ``poll_wall_seconds``) before the next slice. Requires
        ``dilation > 0`` — an unpaced slice would spin sim time to
        infinity.
        """
        if self.dilation <= 0:
            raise SimulationError("run_slice() requires dilation > 0 (paced mode)")
        if self._origin is None:
            self._origin = (self._clock(), self.sim.now)
        self.drain_injections()
        self.sim.run(until=self._wall_due())
        next_event = self.sim.peek()
        if next_event is None:
            return None
        return max(0.0, (next_event - self.sim.now) / self.dilation)
