"""Prefetchers: Berti-like stride detection and SPP-like signature paths."""

import pytest

from repro.errors import ConfigError
from repro.prefetch import (
    BertiPrefetcher,
    SPPPrefetcher,
    make_prefetcher,
)


class TestBerti:
    def test_learns_constant_stride(self):
        p = BertiPrefetcher(degree=2)
        pc = 0x400
        targets = []
        for i in range(6):
            targets = p.on_access(i * 64, pc, hit=False)
        assert targets  # confident by now
        assert targets[0] == 6 * 64  # next stride ahead

    def test_per_pc_tables(self):
        p = BertiPrefetcher(degree=1)
        for i in range(6):
            p.on_access(i * 64, 0x400, hit=False)
            p.on_access(1 << 20, 0x500, hit=True)  # no stride for pc 0x500
        assert p.on_access(6 * 64, 0x400, hit=False)
        assert not p.on_access(1 << 20, 0x500, hit=True)

    def test_stride_change_resets_confidence(self):
        p = BertiPrefetcher(degree=1)
        pc = 0x400
        for i in range(4):
            p.on_access(i * 64, pc, hit=False)
        assert not p.on_access(10_000_000, pc, hit=False)

    def test_no_duplicate_line_targets(self):
        p = BertiPrefetcher(degree=4)
        pc = 0x400
        targets = []
        for i in range(8):
            targets = p.on_access(i * 8, pc, hit=True)  # sub-line stride
        lines = [t // 64 for t in targets]
        assert len(lines) == len(set(lines))

    def test_stats(self):
        p = BertiPrefetcher()
        p.on_access(0, 1, hit=True)
        assert p.stats.observed == 1


class TestSPP:
    def test_learns_page_delta_pattern(self):
        p = SPPPrefetcher(degree=2)
        page = 7 << 12
        targets = []
        for block in range(0, 20, 1):
            targets = p.on_access(page + block * 64, 0, hit=False)
        assert targets
        assert all(t >> 12 == 7 for t in targets)  # stays in page

    def test_no_prediction_cold(self):
        p = SPPPrefetcher()
        assert not p.on_access(0x5000, 0, hit=False)

    def test_lookahead_multiple_blocks(self):
        p = SPPPrefetcher(degree=2)
        page = 3 << 12
        for block in range(30):
            targets = p.on_access(page + block * 64, 0, hit=False)
        assert len(targets) >= 1


class TestNullAndFactory:
    def test_factory_none(self):
        assert make_prefetcher(None) is None
        assert make_prefetcher("none") is None

    def test_factory_named(self):
        assert isinstance(make_prefetcher("berti"), BertiPrefetcher)
        assert isinstance(make_prefetcher("spp"), SPPPrefetcher)

    def test_factory_unknown(self):
        with pytest.raises(ConfigError):
            make_prefetcher("nextline-9000")
