"""Engine dispatch semantics added by the hot-path overhaul.

Covers the slotted ``(tick, seq, fn, args)`` event records, same-tick
batch dispatch ordering and the :meth:`Engine.stop` flag - the
invariants the rest of the simulator (and the golden-stats contract)
depends on.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine


class TestSlottedRecords:
    def test_schedule_passes_positional_args(self):
        eng = Engine()
        seen = []
        eng.schedule(5, seen.append, "a")
        eng.schedule(6, lambda x, y: seen.append((x, y)), 1, 2)
        eng.run()
        assert seen == ["a", (1, 2)]

    def test_schedule_in_passes_positional_args(self):
        eng = Engine()
        seen = []
        eng.schedule(10, lambda: None)
        eng.run()
        eng.schedule_in(7, seen.append, "later")
        eng.run()
        assert seen == ["later"]
        assert eng.now == 17

    def test_zero_arg_closures_still_work(self):
        eng = Engine()
        seen = []
        eng.schedule(1, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [1]


class TestSameTickBatchDispatch:
    def test_same_tick_events_fire_in_schedule_order(self):
        eng = Engine()
        order = []
        for i in range(8):
            eng.schedule(10, order.append, i)
        eng.run()
        assert order == list(range(8))

    def test_event_scheduled_during_batch_joins_the_batch(self):
        """An event scheduled *for the current tick* from inside the batch
        must fire within the same tick, after the already-queued events."""
        eng = Engine()
        order = []

        def first():
            order.append("first")
            eng.schedule(10, order.append, "late-join")

        eng.schedule(10, first)
        eng.schedule(10, order.append, "second")
        eng.schedule(20, order.append, "next-tick")
        eng.run()
        assert order == ["first", "second", "late-join", "next-tick"]

    def test_clock_is_stable_across_a_batch(self):
        eng = Engine()
        ticks = []
        for _ in range(4):
            eng.schedule(7, lambda: ticks.append(eng.now))
        eng.schedule(9, lambda: ticks.append(eng.now))
        eng.run()
        assert ticks == [7, 7, 7, 7, 9]

    def test_interleaved_ticks_dispatch_in_global_order(self):
        eng = Engine()
        order = []
        eng.schedule(3, order.append, "b1")
        eng.schedule(1, order.append, "a1")
        eng.schedule(3, order.append, "b2")
        eng.schedule(1, order.append, "a2")
        eng.run()
        assert order == ["a1", "a2", "b1", "b2"]


class TestStopFlag:
    def test_stop_halts_after_current_event(self):
        eng = Engine()
        fired = []

        def stopper():
            fired.append("stopper")
            eng.stop()

        eng.schedule(1, fired.append, "before")
        eng.schedule(2, stopper)
        eng.schedule(2, fired.append, "same-tick-after")
        eng.schedule(3, fired.append, "later")
        eng.run()
        assert fired == ["before", "stopper"]
        # The un-dispatched events stay queued ...
        assert eng.pending == 2
        # ... and a subsequent run resumes them.
        eng.run()
        assert fired == ["before", "stopper", "same-tick-after", "later"]

    def test_stop_counts_only_dispatched_events(self):
        eng = Engine()
        eng.schedule(1, eng.stop)
        eng.schedule(2, lambda: None)
        eng.run()
        assert eng.events_fired == 1

    def test_storm_guard_active_in_batch_path(self):
        eng = Engine()

        def storm():
            eng.schedule(eng.now + 1, storm)

        eng.schedule(0, storm)
        with pytest.raises(SimulationError):
            eng.run(max_events=50)

    def test_same_tick_storm_detected(self):
        """A zero-delay self-rescheduling event never leaves the current
        same-tick batch; the guard must still fire inside it."""
        eng = Engine()

        def storm():
            eng.schedule(eng.now, storm)

        eng.schedule(0, storm)
        with pytest.raises(SimulationError):
            eng.run(max_events=50)
