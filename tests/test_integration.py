"""End-to-end integration: full systems running real workloads.

These use the tiny 2-core configuration from conftest so each run takes
well under a second; behavioural assertions mirror the paper's mechanisms.
"""

import pytest

from repro.core.bard import BardPolicy
from repro.experiment import ExperimentSpec, Session
from repro.sim.system import System
from repro.workloads import trace_factory

from .conftest import tiny_config


@pytest.fixture(scope="module")
def baseline_result():
    cfg = tiny_config()
    return Session(cache=False).run_one(cfg, "lbm")


@pytest.fixture(scope="module")
def bard_result():
    cfg = tiny_config(llc_writeback="bard-h")
    return Session(cache=False).run_one(cfg, "lbm")


class TestBaselineRun:
    def test_all_cores_retire_budget(self, baseline_result):
        r = baseline_result
        assert r.instructions == r.cores * 4_000

    def test_positive_ipc(self, baseline_result):
        assert all(ipc > 0 for ipc in baseline_result.ipc)

    def test_dram_traffic_flows(self, baseline_result):
        r = baseline_result
        assert r.dram.reads_issued > 0
        assert r.dram.writes_issued > 0

    def test_drain_episodes_recorded(self, baseline_result):
        r = baseline_result
        assert len(r.dram.episodes) > 0
        for ep in r.dram.episodes:
            assert 1 <= ep.unique_banks <= 32
            assert ep.unique_banks <= ep.writes

    def test_write_blp_in_range(self, baseline_result):
        assert 1 <= baseline_result.write_blp <= 32

    def test_time_writing_bounded(self, baseline_result):
        assert 0 < baseline_result.time_writing_pct < 100

    def test_w2w_at_least_bus_minimum(self, baseline_result):
        assert baseline_result.mean_w2w_ns >= 10 / 3 - 1e-6

    def test_wpki_positive(self, baseline_result):
        assert baseline_result.wpki > 0


class TestBardRun:
    def test_bard_improves_blp(self, baseline_result, bard_result):
        assert bard_result.write_blp > baseline_result.write_blp

    def test_bard_decisions_recorded(self, bard_result):
        s = bard_result.wb_stats
        assert s is not None
        assert s.victim_selections > 0
        assert s.overrides + s.cleanses > 0

    def test_accuracy_probe_active(self, bard_result):
        acc = bard_result.bard_accuracy
        assert acc is not None
        assert acc.checked > 0
        assert 0.0 <= acc.error_rate <= 1.0

    def test_mpki_not_inflated(self, baseline_result, bard_result):
        """Paper Table X: BARD barely changes the miss rate."""
        assert bard_result.mpki <= baseline_result.mpki * 1.25 + 1


class TestIdealRun:
    def test_ideal_w2w_is_3_33ns(self):
        cfg = tiny_config().with_ideal_writes()
        r = Session(cache=False).run_one(cfg, "lbm")
        assert r.mean_w2w_ns == pytest.approx(10 / 3, abs=0.05)

    def test_ideal_reduces_write_time(self, baseline_result):
        cfg = tiny_config().with_ideal_writes()
        r = Session(cache=False).run_one(cfg, "lbm")
        assert r.time_writing_pct < baseline_result.time_writing_pct


class TestComparisons:
    def test_policy_grid_baseline_first(self):
        spec = ExperimentSpec(workloads="copy", configs=tiny_config(),
                              policies=[None, "bard-h"])
        rs = Session(cache=False).run(spec)
        assert rs.axis_values("policy") == ["baseline", "bard-h"]
        paired = rs.speedup_vs("policy").only()
        assert paired.baseline == rs[0].result
        assert isinstance(paired.value("speedup_pct"), float)

    def test_weighted_speedup_self_is_one(self, baseline_result):
        assert baseline_result.weighted_speedup(baseline_result) == (
            pytest.approx(1.0))


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        cfg = tiny_config()
        a = Session(cache=False).run_one(cfg, "whiskey", seed=5)
        b = Session(cache=False).run_one(cfg, "whiskey", seed=5)
        assert a.ipc == b.ipc
        assert a.dram.writes_issued == b.dram.writes_issued
        assert a.elapsed_ticks == b.elapsed_ticks


class TestReplacementPolicies:
    @pytest.mark.parametrize("policy", ["lru", "srrip", "ship"])
    def test_bard_runs_under_each_policy(self, policy):
        cfg = tiny_config(llc_writeback="bard-h").with_replacement(policy)
        r = Session(cache=False).run_one(cfg, "copy")
        assert r.instructions > 0
        assert r.wb_stats.victim_selections > 0


class TestMixAndMultichannel:
    def test_mix_runs(self):
        r = Session(cache=False).run_one(tiny_config(), "mix0")
        assert r.instructions > 0

    def test_two_channel_system(self):
        from dataclasses import replace

        cfg = tiny_config()
        cfg = replace(cfg, dram=replace(cfg.dram, channels=2))
        r = Session(cache=False).run_one(cfg, "copy")
        assert len(r.channels) == 2
        assert r.dram.reads_issued > 0


class TestSystemInternals:
    def test_reset_stats_clears_counters(self):
        cfg = tiny_config()
        system = System(cfg, trace_factory("copy", cfg))
        result = system.run()
        assert result.instructions == cfg.cores * cfg.sim_instructions

    def test_x8_device_configured(self):
        cfg = tiny_config().with_device("x8")
        system = System(cfg, trace_factory("copy", cfg))
        assert system.channels[0].timing.tccd_l_wr == 24

    def test_bard_policy_wired_to_llc(self):
        cfg = tiny_config(llc_writeback="bard-h")
        system = System(cfg, trace_factory("copy", cfg))
        assert isinstance(system.llc.wb_policy, BardPolicy)
        assert system.llc.wb_policy.tracker is system.tracker
