"""Channel edge cases: staged-write forwarding, kick coalescing,
finalization."""

import pytest

from repro.clock import TICKS_PER_DRAM_CYCLE
from repro.dram.channel import Channel
from repro.dram.commands import MemRequest, Op
from repro.dram.mapping import ZenMapping
from repro.dram.timing import ddr5_4800_x4
from repro.sim.engine import Engine

_M = ZenMapping(pbpl=False)


def _read(addr, cb=None):
    return MemRequest(addr=addr, op=Op.READ, coord=_M.map(addr),
                      on_complete=cb)


def _write(addr):
    return MemRequest(addr=addr, op=Op.WRITE, coord=_M.map(addr))


@pytest.fixture
def setup():
    eng = Engine()
    ch = Channel(ddr5_4800_x4())
    ch.attach(eng)
    return eng, ch


class TestStagedWriteForwarding:
    def test_read_forwards_from_staging_buffer(self, setup):
        """A read must see writes that overflowed into the staging buffer,
        not just the bounded WQ."""
        eng, ch = setup
        target = None
        n = 0
        addr = 0
        while n < 60:  # overflow the 48-entry WQ on subchannel 0
            if _M.map(addr).subchannel == 0:
                ch.submit(_write(addr))
                target = addr
                n += 1
            addr += 64
        assert ch.stats.staged_writes > 0
        done = []
        ch.submit(_read(target, cb=lambda t: done.append(t)))
        assert ch.stats.forwarded_reads == 1


class TestArrivalCycles:
    def test_arrival_cycle_stamped(self, setup):
        eng, ch = setup
        eng.schedule(1000, lambda: ch.submit(_read(0)))
        eng.run()
        req = None  # the request is already serviced; check via stats
        assert ch.stats.reads_received == 1

    def test_later_submissions_have_later_arrivals(self, setup):
        eng, ch = setup
        reqs = []

        def submit(addr):
            r = _read(addr)
            reqs.append(r)
            ch.submit(r)

        eng.schedule(0, lambda: submit(0))
        eng.schedule(6000, lambda: submit(1 << 13))
        eng.run()
        assert reqs[1].arrival_cycle > reqs[0].arrival_cycle


class TestFinalize:
    def test_finalize_closes_open_episode(self, setup):
        eng, ch = setup
        # Trip the watermark but stop mid-drain by bounding events.
        n = 0
        addr = 0
        while n < 40:
            if _M.map(addr).subchannel == 0:
                ch.submit(_write(addr))
                n += 1
            addr += 64
        # Run only a handful of events so the drain is mid-flight.
        for _ in range(6):
            if not eng.step():
                break
        ch.finalize()
        agg = ch.aggregate_stats()
        if agg.writes_issued:
            assert agg.episodes, "in-flight episode must be recorded"

    def test_double_finalize_safe(self, setup):
        eng, ch = setup
        ch.submit(_write(0))
        eng.run()
        ch.finalize()
        ch.finalize()


class TestKickCoalescing:
    def test_many_submissions_bounded_events(self, setup):
        """Submitting N requests must not create O(N^2) scheduler events."""
        eng, ch = setup
        for i in range(100):
            ch.submit(_read(i * 64))
        eng.run()
        # Each read needs a handful of events (kick, issue, completion);
        # allow a generous constant factor.
        assert eng.events_fired < 100 * 20


def _sc0_writes(n):
    """``n`` distinct writes that all map to sub-channel 0."""
    out = []
    addr = 0
    while len(out) < n:
        if _M.map(addr).subchannel == 0:
            out.append(_write(addr))
        addr += 64
    return out


class TestKickOnlyWhenIssuable:
    def test_writes_below_watermark_schedule_nothing(self, setup):
        """Writes below the high watermark cannot issue: no kick."""
        eng, ch = setup
        for req in _sc0_writes(39):
            ch.submit(req)
        assert eng.pending == 0
        eng.run()
        assert eng.events_fired == 0

    def test_watermark_crossing_while_bus_reserved(self, setup):
        """A drain starts at the arrival that trips the high watermark,
        not when the bus reservation falls back within the horizon."""
        eng, ch = setup
        sc = ch.subchannels[0]
        # A read to a precharged bank reserves the bus ~80 cycles ahead.
        ch.submit(_read(0))
        crossing = {}

        def trip():
            assert sc.bus_free_cycle - 24 > ch._now_cycle() == 10
            for req in _sc0_writes(40):
                ch.submit(req)
            crossing["arrival"] = req.arrival_cycle

        eng.schedule(10 * TICKS_PER_DRAM_CYCLE, trip)
        eng.run()
        ch.finalize()
        episodes = sc.stats.episodes
        assert len(episodes) == 1
        assert episodes[0].start_cycle == crossing["arrival"] == 10
        assert sc.stats.writes_issued == 32
