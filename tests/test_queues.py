"""Read/write queue behaviour: watermarks, coalescing, lookups."""

import pytest

from repro.dram.commands import MemRequest, Op
from repro.dram.mapping import ZenMapping
from repro.dram.queues import ReadQueue, WriteQueue
from repro.errors import ConfigError

_M = ZenMapping()


def _req(addr, op=Op.WRITE):
    return MemRequest(addr=addr, op=op, coord=_M.map(addr))


class TestReadQueue:
    def test_push_until_full(self):
        q = ReadQueue(2)
        assert q.push(_req(0, Op.READ))
        assert q.push(_req(64, Op.READ))
        assert q.full
        assert not q.push(_req(128, Op.READ))

    def test_remove(self):
        q = ReadQueue(4)
        r = _req(0, Op.READ)
        q.push(r)
        q.remove(r)
        assert len(q) == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigError):
            ReadQueue(0)


class TestWriteQueueWatermarks:
    def test_paper_watermarks_accepted(self):
        q = WriteQueue(48, 40, 8)
        assert q.capacity == 48

    def test_high_watermark_trips(self):
        q = WriteQueue(48, 40, 8)
        for i in range(40):
            q.push(_req(i * 64))
        assert q.at_high_watermark

    def test_below_high_watermark(self):
        q = WriteQueue(48, 40, 8)
        for i in range(39):
            q.push(_req(i * 64))
        assert not q.at_high_watermark

    def test_low_watermark(self):
        q = WriteQueue(48, 40, 8)
        for i in range(8):
            q.push(_req(i * 64))
        assert q.at_or_below_low_watermark
        q.push(_req(9 * 64))
        assert not q.at_or_below_low_watermark

    @pytest.mark.parametrize("cap,high,low", [
        (48, 48, 48),   # low not < high
        (48, 50, 8),    # high > capacity
        (48, 40, -1),   # negative low
    ])
    def test_invalid_watermarks(self, cap, high, low):
        with pytest.raises(ConfigError):
            WriteQueue(cap, high, low)


class TestWriteQueueCoalescing:
    def test_same_address_coalesces(self):
        q = WriteQueue(4, 3, 1)
        first = _req(64)
        assert q.push(first)
        assert q.push(_req(64))
        assert len(q) == 1
        assert q.by_addr == {64: first}

    def test_coalesce_even_when_full(self):
        q = WriteQueue(2, 2, 0)
        q.push(_req(0))
        q.push(_req(64))
        assert q.full
        assert q.push(_req(64))  # coalesces, no space needed
        assert not q.push(_req(128))

    def test_remove_clears_addr_index(self):
        q = WriteQueue(4, 3, 1)
        r = _req(64)
        q.push(r)
        q.remove(r)
        assert 64 not in q.by_addr
        assert q.push(_req(64))
        assert len(q) == 1


class TestWriteQueueLookups:
    def test_contains_addr(self):
        q = WriteQueue(8, 6, 2)
        q.push(_req(0x1000 & ~63))
        assert (0x1000 & ~63) in q.by_addr
        assert 0x2000 not in q.by_addr

    def test_pending_for_bank(self):
        q = WriteQueue(48, 40, 8)
        r = _req(0)
        q.push(r)
        bank = r.coord.subchannel_bank_id
        assert q.pending_for_bank(bank) == 1
        assert q.pending_for_bank((bank + 1) % 32) == 0

    def test_oldest(self):
        q = WriteQueue(8, 6, 2)
        assert q.oldest() is None
        a, b = _req(0), _req(64)
        q.push(a)
        q.push(b)
        assert q.oldest() is a
