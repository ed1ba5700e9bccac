"""PacedEngine: wall coupling, injection FIFO/backpressure."""

import threading

import pytest

from repro.core.events import PacedEngine, Simulation, SimulationError


class SteppingClock:
    """A fake monotonic clock that advances a fixed step per read.

    Every ``clock()`` call moves wall time forward, so each slice finds
    some sim time due without a real wait.
    """

    def __init__(self, step: float = 0.01) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def paced_engine(sim, dilation, **kwargs):
    clock = SteppingClock()
    engine = PacedEngine(
        sim,
        dilation=dilation,
        poll_wall_seconds=0.0,
        clock=clock,
        **kwargs,
    )
    return engine, clock


def test_injections_are_fifo_and_run_at_current_sim_time():
    sim = Simulation()
    engine, _ = paced_engine(sim, dilation=0.0)
    sim.run(until=5.0)
    seen = []
    assert engine.inject(lambda: seen.append(("first", sim.now)))
    assert engine.inject(lambda: seen.append(("second", sim.now)))
    assert engine.pending_injections == 2
    assert engine.drain_injections() == 2
    assert seen == [("first", 5.0), ("second", 5.0)]
    assert engine.pending_injections == 0
    assert engine.injection_stats == (2, 2, 0)


def test_injection_backpressure_refuses_when_full():
    engine, _ = paced_engine(Simulation(), dilation=0.0, max_pending=2)
    assert engine.inject(lambda: None)
    assert engine.inject(lambda: None)
    assert not engine.inject(lambda: None)
    assert engine.injection_stats == (2, 0, 1)
    assert engine.drain_injections() == 2
    # Draining frees the slot again.
    assert engine.inject(lambda: None)


class ManualClock:
    """A fake monotonic clock that moves only when the test sets it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_run_slice_requires_paced_mode():
    engine, _ = paced_engine(Simulation(), dilation=0.0)
    with pytest.raises(SimulationError):
        engine.run_slice()


def test_run_slice_drains_cross_thread_injections_at_current_sim_time():
    sim = Simulation()
    sim.run(until=5.0)
    engine, _ = paced_engine(sim, dilation=2.0)
    seen = []
    # Injected from another thread; the callback runs inside the next
    # slice, before the clock moves.
    thread = threading.Thread(
        target=engine.inject, args=(lambda: seen.append(sim.now),)
    )
    thread.start()
    thread.join(5.0)
    assert not thread.is_alive()
    assert seen == []
    engine.run_slice()
    assert seen == [5.0]
    assert engine.injection_stats == (1, 1, 0)


def test_run_slice_never_runs_past_the_wall_due_time():
    sim = Simulation()
    fired = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule(t, lambda t=t: fired.append(t), label="tick")
    clock = ManualClock()
    engine = PacedEngine(sim, dilation=2.0, poll_wall_seconds=0.05, clock=clock)
    # The first slice pins the origin (wall 0 = sim 0): nothing is due yet,
    # and the next event (sim 1.0) is half a wall second away.
    assert engine.run_slice() == pytest.approx(0.5)
    assert fired == [] and sim.now == 0.0
    clock.now = 1.0  # one wall second at dilation 2 -> sim 2.0 is due
    assert engine.run_slice() == pytest.approx(0.5)
    assert fired == [1.0, 2.0]
    assert sim.now == 2.0
    clock.now = 1.2
    engine.run_slice()
    assert fired == [1.0, 2.0]
    assert sim.now == pytest.approx(2.4)


def test_run_slice_on_an_empty_queue_returns_none():
    sim = Simulation()
    engine, _ = paced_engine(sim, dilation=1e6)
    assert engine.run_slice() is None
    assert sim.now > 0.0  # the clock still tracks the wall
