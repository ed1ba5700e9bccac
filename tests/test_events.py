"""Tests for the discrete event simulation engine."""

import pytest

from repro.core.events import Simulation, SimulationError


class TestScheduling:
    def test_initial_time_is_zero(self):
        assert Simulation().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulation()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_equal_times_fire_in_schedule_order(self):
        sim = Simulation()
        fired = []
        for name in "abcde":
            sim.schedule(1.0, lambda n=name: fired.append(n))
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulation()
        seen = []
        sim.schedule(5.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.5]
        assert sim.now == 5.5

    def test_negative_delay_rejected(self):
        sim = Simulation()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulation()
        seen = []
        sim.schedule_at(7.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.0]

    def test_nested_scheduling(self):
        sim = Simulation()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(2.0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 3.0)]

    def test_events_processed_counter(self):
        sim = Simulation()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_bare_step_counts_events(self):
        sim = Simulation()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None).cancel()
        assert sim.step()
        assert sim.events_processed == 1
        assert not sim.step()  # only the cancelled entry was left
        assert sim.events_processed == 1
        assert sim.scheduler_stats == {"pushes": 2, "pops": 1, "cancelled_skips": 1}


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulation()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulation()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_peek_skips_cancelled(self):
        sim = Simulation()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek() == 2.0


class TestRun:
    def test_run_until_stops_at_boundary(self):
        sim = Simulation()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0  # clock advanced to the boundary

    def test_run_until_then_resume(self):
        sim = Simulation()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        sim.run()
        assert fired == [1, 10]

    def test_max_events_bound(self):
        sim = Simulation()
        count = [0]

        def reschedule():
            count[0] += 1
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        sim.run(max_events=50)
        assert count[0] == 50

    def test_reentrant_run_rejected(self):
        sim = Simulation()

        def bad():
            sim.run()

        sim.schedule(1.0, bad)
        with pytest.raises(SimulationError):
            sim.run()


class TestEngineCounters:
    def test_pops_equal_events_fired_across_run_slices(self):
        """``pops`` counts fired events, not entries popped at a horizon.

        Each ``run(until=...)`` that stops short of a pending event pops
        that event and pushes it back; those round trips fire nothing.
        """
        sim = Simulation()
        for i in range(10):
            sim.schedule(1.0 + 2.0 * i, lambda: None)
        for horizon in (2.0, 6.0, 10.0, 14.0):
            sim.run(until=horizon)
            assert sim.scheduler_stats["pops"] == sim.events_processed
        sim.run()
        stats = sim.scheduler_stats
        assert sim.events_processed == 10
        assert stats["pops"] == 10
        assert stats["pushes"] == 10
        assert stats["cancelled_skips"] == 0

    def test_pops_equal_events_fired_with_step_and_cancel(self):
        sim = Simulation()
        events = [sim.schedule(float(i), lambda: None) for i in range(6)]
        events[0].cancel()
        events[4].cancel()
        assert sim.step()
        sim.run(until=2.5)
        assert sim.peek() == 3.0
        sim.run()
        stats = sim.scheduler_stats
        assert sim.events_processed == 4
        assert stats == {"pushes": 6, "pops": 4, "cancelled_skips": 2}


class TestReservedSequence:
    def test_reserved_event_fires_in_its_reserved_place(self):
        """A reserved seq is counted once, when taken, and the event
        pushed under it later still fires ahead of later-scheduled ties."""
        sim = Simulation()
        fired = []
        seq = sim.reserve_seq()
        sim.schedule(1.0, lambda: fired.append("scheduled"))
        assert sim.scheduler_stats["pushes"] == 2
        assert sim.pending == 1
        sim.schedule_reserved(1.0, seq, lambda: fired.append("reserved"))
        assert sim.scheduler_stats["pushes"] == 2
        assert sim.pending == 2
        sim.run()
        assert fired == ["reserved", "scheduled"]
        assert sim.scheduler_stats == {"pushes": 2, "pops": 2, "cancelled_skips": 0}

    def test_schedule_reserved_rejects_a_past_time(self):
        sim = Simulation()
        seq = sim.reserve_seq()
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.schedule_reserved(4.0, seq, lambda: None)
        sim.schedule_reserved(5.0, seq, lambda: None)
        sim.run()
        assert sim.events_processed == 1
