"""RunResult derived metrics."""

import pytest

from repro.cache.cache import CacheStats
from repro.clock import TICKS_PER_DRAM_CYCLE
from repro.dram.stats import DrainEpisode, SubChannelStats
from repro.sim.results import RunResult


def _result(ipc, elapsed=120_000, write_mode=0, instructions=10_000,
            misses=0, prefetch_misses=0, writebacks=0, episodes=()):
    llc = CacheStats()
    llc.accesses = misses
    llc.misses = misses
    llc.prefetch_misses = prefetch_misses
    llc.writebacks = writebacks
    dram = SubChannelStats()
    dram.write_mode_cycles = write_mode
    dram.episodes = list(episodes)
    return RunResult(
        label="t", cores=len(ipc), instructions=instructions,
        elapsed_ticks=elapsed, ipc=list(ipc), llc=llc, dram=dram,
        subchannel_count=2,
    )


class TestDerived:
    def test_mpki_excludes_prefetch(self):
        r = _result([1.0], misses=100, prefetch_misses=40,
                    instructions=10_000)
        assert r.mpki == pytest.approx(6.0)

    def test_wpki(self):
        r = _result([1.0], writebacks=50, instructions=10_000)
        assert r.wpki == pytest.approx(5.0)

    def test_time_writing_pct(self):
        elapsed_cycles = 120_000 / TICKS_PER_DRAM_CYCLE
        r = _result([1.0], write_mode=int(elapsed_cycles))  # one sc fully
        assert r.time_writing_pct == pytest.approx(50.0)

    def test_write_blp_mean(self):
        eps = [DrainEpisode(32, 20, 0, 100), DrainEpisode(32, 30, 200, 300)]
        r = _result([1.0], episodes=eps)
        assert r.write_blp == pytest.approx(25.0)

    def test_runtime_ns(self):
        r = _result([1.0], elapsed=12_000)
        assert r.runtime_ns == pytest.approx(1000.0)


class TestSpeedup:
    def test_weighted_speedup(self):
        base = _result([1.0, 2.0])
        fast = _result([1.1, 2.2])
        assert fast.weighted_speedup(base) == pytest.approx(1.1)
        assert fast.speedup_pct(base) == pytest.approx(10.0)

    def test_asymmetric_cores(self):
        base = _result([1.0, 1.0])
        mixed = _result([2.0, 0.5])
        assert mixed.weighted_speedup(base) == pytest.approx(1.25)

    def test_zero_baseline_core_ignored(self):
        base = _result([0.0, 1.0])
        new = _result([1.0, 1.0])
        assert new.weighted_speedup(base) == pytest.approx(1.0)


class TestPowerReport:
    def test_report_fields(self):
        r = _result([1.0])
        rep = r.power_report()
        assert rep.energy_nj > 0
        assert rep.runtime_ns == r.runtime_ns


class TestTableIVDefinitions:
    """MPKI and WPKI as the scorecard's Table IV rows read them, pinned
    on a BARD-H run whose LLC both prefetches and cleanses."""

    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiment import Session
        from tests.conftest import tiny_config

        return Session(cache=False).run_one(
            tiny_config(llc_writeback="bard-h"), "lbm")

    def test_run_exercises_both_exclusions(self, result):
        llc = result.llc
        assert llc.cleanses > 0 and llc.prefetch_misses > 0

    def test_mpki_counts_llc_demand_misses_only(self, result):
        llc = result.llc
        demand = llc.read_misses + llc.write_misses
        assert demand == llc.misses - llc.prefetch_misses
        assert result.mpki == demand * 1000 / result.instructions

    def test_wpki_counts_llc_writebacks_with_cleanses(self, result):
        llc = result.llc
        assert llc.writebacks == llc.dirty_evictions + llc.cleanses
        assert result.wpki == llc.writebacks * 1000 / result.instructions
