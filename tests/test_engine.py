"""Discrete-event engine semantics."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine


class TestOrdering:
    def test_fires_in_time_order(self):
        eng = Engine()
        order = []
        eng.schedule(30, lambda: order.append("c"))
        eng.schedule(10, lambda: order.append("a"))
        eng.schedule(20, lambda: order.append("b"))
        eng.run()
        assert order == ["a", "b", "c"]

    def test_same_tick_fifo(self):
        eng = Engine()
        order = []
        for i in range(5):
            eng.schedule(10, lambda i=i: order.append(i))
        eng.run()
        assert order == [0, 1, 2, 3, 4]

    def test_now_advances(self):
        eng = Engine()
        seen = []
        eng.schedule(42, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [42]
        assert eng.now == 42

    def test_past_schedule_clamped_to_now(self):
        eng = Engine()
        seen = []
        def late():
            eng.schedule(0, lambda: seen.append(eng.now))
        eng.schedule(100, late)
        eng.run()
        assert seen == [100]


class TestRunControl:
    def test_event_storm_detected(self):
        eng = Engine()
        def storm():
            eng.schedule(eng.now + 1, storm)
        eng.schedule(0, storm)
        with pytest.raises(SimulationError):
            eng.run(max_events=100)

    def test_step_empty_returns_false(self):
        assert Engine().step() is False

    def test_events_fired_counter(self):
        eng = Engine()
        for t in range(3):
            eng.schedule(t, lambda: None)
        eng.run()
        assert eng.events_fired == 3


class TestDeterminism:
    def test_identical_schedules_identical_traces(self):
        def run():
            eng = Engine()
            log = []
            def chain(depth):
                log.append((eng.now, depth))
                if depth < 20:
                    eng.schedule(eng.now + depth % 3, lambda: chain(depth + 1))
            eng.schedule(0, lambda: chain(0))
            eng.run()
            return log
        assert run() == run()
