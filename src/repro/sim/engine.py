"""Discrete-event simulation engine.

A single binary-heap event queue keyed by ``(tick, sequence)`` so that
simultaneous events fire in schedule order (deterministic runs).  Components
self-schedule: cores tick themselves while they can make progress and go
dormant when stalled (woken by memory-completion callbacks), and DRAM
channels tick only while their queues are non-empty.  Simulated time is
therefore proportional to *activity*, not wall-clock cycles.

Performance notes (this is the innermost loop of every simulation):

* Each heap entry is a *slotted event record* - the 4-tuple
  ``(tick, seq, fn, args)``.  Callers pass a callable plus positional
  arguments instead of allocating a closure per event
  (``schedule(t, self._tick_sc, idx)`` rather than
  ``schedule(t, lambda: self._tick_sc(idx))``), which removes one object
  allocation and one indirection from every scheduled event.  Heap
  ordering only ever compares the ``(tick, seq)`` prefix, so the
  callable and args never participate in comparisons.
* :meth:`run` dispatches events in *same-tick batches*: the clock is
  advanced once per distinct tick and every event sharing that tick is
  fired from a tight inner loop with the heap bound to a local.
* Run termination uses the :meth:`stop` flag - a plain attribute test
  per event.  :meth:`run` is the one dispatch loop: a caller that needs
  to halt at a condition schedules or makes the event that calls
  :meth:`stop`.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Tuple

from repro.errors import SimulationError

#: Bound once: ``schedule`` runs once per event.
_heappush = heapq.heappush

#: One scheduled event: (tick, sequence, callable, positional args).
Event = Tuple[int, int, Callable[..., None], tuple]


class Engine:
    """Minimal deterministic discrete-event engine (integer ticks)."""

    __slots__ = ("now", "events_fired", "_heap", "_seq", "_stopped")

    def __init__(self) -> None:
        self.now: int = 0
        self.events_fired: int = 0
        self._heap: List[Event] = []
        self._seq: int = 0
        self._stopped: bool = False

    def schedule(self, tick: int, fn: Callable[..., None], *args) -> None:
        """Schedule ``fn(*args)`` to run at ``tick`` (clamped to the present).

        Events scheduled for the same tick fire in schedule order.
        """
        if tick < self.now:
            tick = self.now
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (tick, seq, fn, args))

    def schedule_in(self, delay: int, fn: Callable[..., None],
                    *args) -> None:
        """Schedule ``fn(*args)`` after ``delay`` ticks."""
        self.schedule(self.now + delay, fn, *args)

    def stop(self) -> None:
        """Ask the current :meth:`run` call to return after this event.

        Intended to be called from inside an event callback (e.g. when the
        last core retires its budget); pending events stay queued so a
        subsequent :meth:`run` can resume them.
        """
        self._stopped = True

    def clear(self) -> None:
        """Drop every pending event (they hold the components' methods)."""
        self._heap.clear()

    @property
    def pending(self) -> int:
        """Number of events waiting in the queue."""
        return len(self._heap)

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        heap = self._heap
        if not heap:
            return False
        tick, _, fn, args = heapq.heappop(heap)
        if tick < self.now:
            raise SimulationError("event queue went backwards in time")
        self.now = tick
        self.events_fired += 1
        fn(*args)
        return True

    def run(self, max_events: int = 500_000_000) -> None:
        """Run events until :meth:`stop` is called or the queue drains.

        Events are dispatched in same-tick batches and only the
        :meth:`stop` flag is tested between events.  ``max_events``
        bounds the dispatch count, so a self-rescheduling event storm
        raises :class:`SimulationError` instead of spinning forever.
        """
        heap = self._heap
        pop = heapq.heappop
        fired = 0
        limit = max_events
        self._stopped = False
        try:
            while heap:
                tick = heap[0][0]
                self.now = tick
                # Same-tick batch: drain every event at `tick` without
                # touching the clock again.  Events scheduled *for this
                # tick* during the batch keep the batch alive (their
                # sequence numbers order them after the current event),
                # so the storm guard must run per event - a zero-delay
                # self-rescheduling loop never leaves this batch.
                while heap and heap[0][0] == tick:
                    _, _, fn, args = pop(heap)
                    fired += 1
                    fn(*args)
                    if self._stopped:
                        return
                    if fired > limit:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; "
                            "likely an event storm"
                        )
        finally:
            self.events_fired += fired
