"""Configuration dataclasses and presets."""

import pytest

from repro.config import (
    CacheConfig,
    DramConfig,
    SystemConfig,
    paper_8core,
    paper_16core,
    small_8core,
    small_16core,
)
from repro.errors import ConfigError


class TestPaperPresets:
    def test_paper_8core_matches_table_ii(self):
        cfg = paper_8core()
        assert cfg.cores == 8
        assert cfg.rob_size == 512
        assert cfg.l1i.size_bytes == 32 * 1024
        assert cfg.l1d.size_bytes == 48 * 1024 and cfg.l1d.ways == 12
        assert cfg.l2.size_bytes == 512 * 1024 and cfg.l2.ways == 8
        assert cfg.llc.size_bytes == 16 * 1024 * 1024 and cfg.llc.ways == 16
        assert cfg.dram.rq_capacity == 64
        assert cfg.dram.wq_capacity == 48
        assert cfg.dram.wq_high == 40 and cfg.dram.wq_low == 8
        assert cfg.dram.channels == 1
        assert cfg.l1d.prefetcher == "berti"
        assert cfg.l2.prefetcher == "spp"

    def test_paper_16core(self):
        cfg = paper_16core()
        assert cfg.cores == 16
        assert cfg.llc.size_bytes == 32 * 1024 * 1024
        assert cfg.dram.channels == 2

    def test_small_preserves_shape(self):
        s, p = small_8core(), paper_8core()
        assert s.llc.ways == p.llc.ways
        assert s.dram == p.dram
        assert s.l1d.ways == p.l1d.ways

    def test_small_16core(self):
        cfg = small_16core()
        assert cfg.cores == 16 and cfg.dram.channels == 2


class TestDerivedConfigs:
    def test_with_writeback(self):
        cfg = small_8core().with_writeback("bard-h")
        assert cfg.llc_writeback == "bard-h"
        assert small_8core().llc_writeback is None

    def test_with_replacement(self):
        cfg = small_8core().with_replacement("srrip")
        assert cfg.llc.replacement == "srrip"

    def test_with_wq_scales_watermarks(self):
        """Paper Fig. 17 sweep: high watermark tracks capacity - 8."""
        cfg = small_8core().with_wq(96)
        assert cfg.dram.wq_capacity == 96
        assert cfg.dram.wq_high == 88
        assert cfg.dram.wq_low == 8

    def test_with_ideal_writes(self):
        assert small_8core().with_ideal_writes().dram.ideal_writes

    def test_with_device(self):
        assert small_8core().with_device("x8").dram.device == "x8"


class TestValidation:
    def test_cache_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            CacheConfig(0, 4, 1, 1)
        with pytest.raises(ConfigError):
            CacheConfig(1024, 4, 0, 1)

    def test_dram_rejects_bad_device(self):
        with pytest.raises(ConfigError):
            DramConfig(device="x16")

    def test_dram_rejects_bad_watermarks(self):
        with pytest.raises(ConfigError):
            DramConfig(wq_high=8, wq_low=40)

    def test_system_rejects_zero_cores(self):
        with pytest.raises(ConfigError):
            SystemConfig(cores=0)
