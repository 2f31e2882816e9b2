"""AMD Zen address mapping + PBPL (paper Fig. 6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.commands import LINE_SIZE, DramCoord
from repro.dram.mapping import ZenMapping
from repro.errors import MappingError


class TestZenLayout:
    def setup_method(self):
        self.m = ZenMapping(pbpl=False)

    def test_bit6_selects_subchannel(self):
        a, b = self.m.map(0), self.m.map(1 << 6)
        assert a.subchannel == 0 and b.subchannel == 1

    def test_bit7_is_column(self):
        a, b = self.m.map(0), self.m.map(1 << 7)
        assert a.column != b.column
        assert (a.bankgroup, a.bank, a.row) == (b.bankgroup, b.bank, b.row)

    def test_bits_8_10_are_bankgroup(self):
        for bg in range(8):
            assert self.m.map(bg << 8).bankgroup == bg

    def test_bits_11_12_are_bank(self):
        for ba in range(4):
            assert self.m.map(ba << 11).bank == ba

    def test_row_starts_at_bit_19(self):
        assert self.m.map(1 << 19).row == 1
        assert self.m.map(0).row == 0

    def test_page_spreads_across_32_banks(self):
        """Zen distributes a 4 KB page across 32 banks, two lines each."""
        banks = {}
        for line in range(64):
            c = self.m.map(line * LINE_SIZE)
            key = (c.subchannel, c.bankgroup, c.bank)
            banks.setdefault(key, 0)
            banks[key] += 1
        assert len(banks) == 32
        assert all(v == 2 for v in banks.values())

    def test_two_lines_per_bank_share_row(self):
        c0 = self.m.map(0)
        c1 = self.m.map(1 << 7)
        assert (c0.subchannel, c0.bankgroup, c0.bank, c0.row) == (
            c1.subchannel, c1.bankgroup, c1.bank, c1.row)


class TestPBPL:
    def test_swizzles_banks_across_rows(self):
        """PBPL must map the same set-conflicting lines to different banks."""
        m = ZenMapping(pbpl=True)
        # Same bank bits, different low row bits -> different banks.
        banks = {m.map(row << 19).bank_id for row in range(32)}
        assert len(banks) == 32

    def test_no_pbpl_keeps_same_bank(self):
        m = ZenMapping(pbpl=False)
        banks = {m.map(row << 19).bank_id for row in range(32)}
        assert len(banks) == 1

    def test_pbpl_preserves_row_and_column(self):
        a = ZenMapping(pbpl=True).map(0x1234567)
        b = ZenMapping(pbpl=False).map(0x1234567)
        assert a.row == b.row and a.column == b.column


class TestMultiChannel:
    def test_channel_bit_above_line_offset(self):
        m = ZenMapping(channels=2)
        assert m.map(0).channel == 0
        assert m.map(1 << 6).channel == 1

    def test_single_channel_always_zero(self):
        m = ZenMapping(channels=1)
        assert m.map(0xDEADBEEF).channel == 0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(MappingError):
            ZenMapping(channels=3)

    def test_bank_count_properties(self):
        m = ZenMapping()
        assert m.banks_per_subchannel == 32
        assert m.banks_per_channel == 64


class TestBankId:
    def test_bank_id_range(self):
        m = ZenMapping()
        for addr in range(0, 1 << 16, LINE_SIZE):
            assert 0 <= m.bank_id(addr) < 64

    def test_bank_id_composition(self):
        c = DramCoord(0, 1, 3, 2, 0, 0)
        assert c.bank_id == (1 * 8 + 3) * 4 + 2
        assert c.subchannel_bank_id == 3 * 4 + 2

    def test_rejects_negative_address(self):
        with pytest.raises(MappingError):
            ZenMapping().map(-1)

    @settings(max_examples=300, deadline=None)
    @given(addr=st.integers(min_value=0, max_value=(1 << 40) - 1),
           pbpl=st.booleans(), channels=st.sampled_from([1, 2, 4]))
    def test_channel_bank_matches_map(self, addr, pbpl, channels):
        """The fast path BARD uses equals the two fields of map()."""
        m = ZenMapping(channels=channels, pbpl=pbpl)
        coord = m.map(addr)
        assert m.channel_bank(addr) == (coord.channel, coord.bank_id)
        assert m.bank_id(addr) == coord.bank_id

    def test_channel_bank_rejects_negative_address(self):
        with pytest.raises(MappingError):
            ZenMapping().channel_bank(-1)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 36) - 1))
    def test_map_compose_roundtrip(self, addr):
        """map() and compose() are inverses on line-aligned addresses."""
        m = ZenMapping(pbpl=True)
        la = addr & ~(LINE_SIZE - 1)
        assert m.compose(m.map(la)) == la

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 36) - 1))
    def test_roundtrip_two_channels(self, addr):
        m = ZenMapping(channels=2, pbpl=True)
        la = addr & ~(LINE_SIZE - 1)
        assert m.compose(m.map(la)) == la

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 36) - 1))
    def test_roundtrip_without_pbpl(self, addr):
        m = ZenMapping(pbpl=False)
        la = addr & ~(LINE_SIZE - 1)
        assert m.compose(m.map(la)) == la
