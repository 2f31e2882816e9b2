"""Memory controller routing and probes."""

import pytest

from repro.dram.channel import Channel
from repro.dram.mapping import ZenMapping
from repro.dram.timing import ddr5_4800_x4
from repro.sim.engine import Engine
from repro.sim.memctrl import MemoryController


def make_mc(channels=1):
    engine = Engine()
    mapping = ZenMapping(channels=channels)
    chans = []
    for _ in range(channels):
        ch = Channel(ddr5_4800_x4())
        ch.attach(engine)
        chans.append(ch)
    return engine, MemoryController(mapping, chans)


class TestRouting:
    def test_read_reaches_dram(self):
        engine, mc = make_mc()
        done = []
        mc.read(0, 0, lambda t: done.append(t), core_id=0,
                is_prefetch=False)
        engine.run()
        assert len(done) == 1
        assert mc.channels[0].stats.reads_received == 1

    def test_writeback_counted(self):
        engine, mc = make_mc()
        mc.writeback(0, 0)
        assert mc.channels[0].stats.writes_received == 1

    def test_two_channel_routing(self):
        engine, mc = make_mc(channels=2)
        mc.read(0, 0, lambda t: None, 0, False)       # channel 0
        mc.read(1 << 6, 0, lambda t: None, 0, False)  # channel 1
        assert mc.channels[0].stats.reads_received == 1
        assert mc.channels[1].stats.reads_received == 1

    def test_channel_count_mismatch_rejected(self):
        engine = Engine()
        ch = Channel(ddr5_4800_x4())
        ch.attach(engine)
        with pytest.raises(ValueError):
            MemoryController(ZenMapping(channels=2), [ch])


class TestProbe:
    def test_pending_writes_for_line(self):
        engine, mc = make_mc()
        mc.writeback(0x4000, 0)
        assert mc.pending_writes_for_line(0x4000) == 1
        # A line in a different bank reports zero.
        other = 0x4000 + (1 << 8)  # different bankgroup bits
        assert mc.pending_writes_for_line(other) == 0

    def test_finalize_propagates(self):
        engine, mc = make_mc()
        mc.writeback(0, 0)
        engine.run()
        mc.finalize()  # must not raise, and closes episodes
