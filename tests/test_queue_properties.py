"""Property-based tests on the write queue (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.commands import MemRequest, Op
from repro.dram.mapping import ZenMapping
from repro.dram.queues import WriteQueue

_M = ZenMapping()


def _req(slot: int) -> MemRequest:
    addr = slot * 64
    return MemRequest(addr=addr, op=Op.WRITE, coord=_M.map(addr))


class TestWriteQueueInvariants:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 30)),
                    max_size=150))
    def test_index_and_list_stay_consistent(self, ops):
        """The address index always mirrors the entry list, under any
        interleaving of pushes and removals."""
        q = WriteQueue(16, 12, 2)
        for is_push, slot in ops:
            if is_push:
                q.push(_req(slot))
            else:
                match = next((r for r in q.entries
                              if r.addr == slot * 64), None)
                if match is not None:
                    q.remove(match)
            # Invariants after every operation:
            assert len(q.entries) == len(q.by_addr)
            assert len(q.entries) <= q.capacity
            addrs = [r.addr for r in q.entries]
            assert len(addrs) == len(set(addrs)), "duplicate addresses"
            for r in q.entries:
                assert r.addr in q.by_addr

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 60), min_size=1, max_size=100))
    def test_occupancy_never_exceeds_capacity(self, slots):
        q = WriteQueue(8, 6, 1)
        accepted = 0
        coalesced_before = 0
        for slot in slots:
            if q.push(_req(slot)):
                accepted += 1
        assert len(q) <= q.capacity
        # Everything accepted is either resident or was a coalesce.
        assert accepted == len(q) + q.coalesced

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=60))
    def test_pending_for_bank_totals(self, slots):
        q = WriteQueue(64, 50, 2)
        for slot in slots:
            q.push(_req(slot))
        per_bank = sum(q.pending_for_bank(b) for b in range(32))
        # Every resident entry is counted exactly once across banks of its
        # sub-channel; entries on sub-channel 1 are outside 0..31 ids only
        # if coord.subchannel == 1, but pending_for_bank matches on the
        # sub-channel-local id, so all entries are counted.
        assert per_bank == len(q)


class TestMappingChannels:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, (1 << 32) - 1), st.sampled_from([1, 2, 4]))
    def test_channel_in_range(self, addr, channels):
        m = ZenMapping(channels=channels)
        coord = m.map(addr & ~63)
        assert 0 <= coord.channel < channels
        assert 0 <= coord.bank_id < 64
