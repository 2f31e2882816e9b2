"""Configuration presets.

``paper_8core`` mirrors paper Table II exactly.  ``small_8core`` keeps the
same *shape* (ways, latencies, MSHRs, watermarks, policies) but shrinks the
caches so a pure-Python cycle model finishes in seconds: L1I and L1D 8x
(4 KB, 6 KB), L2 16x (32 KB) and the LLC 128x (128 KB).  The levels do
not shrink alike, so relative capacities change: the LLC is half of the
eight L2s together (128 KB against 8 x 32 KB), where the paper's is 4x
(16 MB against 8 x 512 KB).  The workload generators size their working
sets relative to the LLC, so pressure on the LLC - the level BARD acts
on - scales with it.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config.system import CacheConfig, DramConfig, SystemConfig

KB = 1024
MB = 1024 * KB


def paper_8core() -> SystemConfig:
    """The paper's baseline 8-core configuration (Table II)."""
    return SystemConfig(
        cores=8,
        rob_size=512,
        issue_width=4,
        retire_width=4,
        l1i=CacheConfig(32 * KB, 8, 1, 8),
        l1d=CacheConfig(48 * KB, 12, 4, 16, prefetcher="berti"),
        l2=CacheConfig(512 * KB, 8, 14, 32, prefetcher="spp"),
        llc=CacheConfig(16 * MB, 16, 36, 128),
        dram=DramConfig(channels=1),
        warmup_instructions=25_000_000,
        sim_instructions=100_000_000,
    )


def paper_16core() -> SystemConfig:
    """The paper's 16-core configuration: 32 MB LLC, 2 channels."""
    base = paper_8core()
    return replace(
        base,
        cores=16,
        llc=CacheConfig(32 * MB, 16, 36, 128),
        dram=replace(base.dram, channels=2),
    )


def small_8core() -> SystemConfig:
    """Scaled-down 8-core system for fast pure-Python runs."""
    return SystemConfig(
        cores=8,
        rob_size=512,
        issue_width=4,
        retire_width=4,
        l1i=CacheConfig(4 * KB, 8, 1, 8),
        l1d=CacheConfig(6 * KB, 12, 4, 16, prefetcher="berti"),
        l2=CacheConfig(32 * KB, 8, 14, 32, prefetcher="spp"),
        llc=CacheConfig(128 * KB, 16, 36, 128),
        dram=DramConfig(channels=1),
        warmup_instructions=8_000,
        sim_instructions=24_000,
    )


def small_16core() -> SystemConfig:
    """Scaled-down 16-core system: doubled LLC, two channels."""
    base = small_8core()
    return replace(
        base,
        cores=16,
        llc=CacheConfig(256 * KB, 16, 36, 128),
        dram=replace(base.dram, channels=2),
    )


#: Named preset registry - the single source of truth for every surface
#: that accepts a preset by name (CLI ``--preset``, service submissions).
PRESETS = {
    "small-8core": small_8core,
    "small-16core": small_16core,
    "paper-8core": paper_8core,
    "paper-16core": paper_16core,
}
