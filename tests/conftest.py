"""Shared fixtures: tiny configurations for fast integration tests."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.config.system import CacheConfig, DramConfig, SystemConfig
from repro.dram.bank import AccessKind, Bank


def tiny_config(**overrides) -> SystemConfig:
    """A minimal 2-core system that still exercises every component."""
    defaults = dict(
        cores=2,
        rob_size=128,
        issue_width=4,
        retire_width=4,
        l1i=CacheConfig(1024, 8, 1, 4),
        l1d=CacheConfig(1536, 12, 4, 8, prefetcher="berti"),
        l2=CacheConfig(8192, 8, 14, 16, prefetcher="spp"),
        llc=CacheConfig(32768, 16, 36, 64),
        dram=DramConfig(channels=1),
        warmup_instructions=1_000,
        sim_instructions=4_000,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Keep the experiment layer's disk cache out of ~/.cache during tests."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "result-cache"))


@pytest.fixture(autouse=True)
def _no_leaked_fault_plans():
    """Never let one test's fault-injection plan infect the next."""
    from repro.resilience import faults

    faults.reset()
    yield
    faults.reset()


def count_bank_commits(monkeypatch) -> Counter:
    """From now on, count every ``Bank.commit`` by the kind it returns."""
    kinds: Counter = Counter()
    commit = Bank.commit

    def counted(self, row, op, burst_cycle):
        kind = commit(self, row, op, burst_cycle)
        kinds[kind] += 1
        return kind

    monkeypatch.setattr(Bank, "commit", counted)
    return kinds


def activations(kinds: Counter) -> int:
    """ACTs among counted commits: every kind but a row hit opens a row."""
    return sum(n for kind, n in kinds.items()
               if kind is not AccessKind.ROW_HIT)


@pytest.fixture
def tiny():
    return tiny_config()


@pytest.fixture
def tiny_bard():
    return tiny_config(llc_writeback="bard-h")
