"""DRAM power/energy model (Table IX support)."""

import pytest

from repro.dram.bank import AccessKind, Bank
from repro.dram.power import EnergyParams, estimate_power
from repro.dram.stats import SubChannelStats
from repro.sim.system import System
from repro.workloads.suites import trace_factory

from .conftest import activations, count_bank_commits, tiny_config


def _stats(reads=0, writes=0, acts=0, hits=0, conflicts=0):
    s = SubChannelStats()
    s.reads_issued = reads
    s.writes_issued = writes
    s.activates = acts
    s.write_row_hits = hits
    s.write_row_conflicts = conflicts
    return s


class TestEnergy:
    def test_background_only(self):
        rep = estimate_power(_stats(), runtime_ns=1000.0)
        assert rep.energy_nj == pytest.approx(
            EnergyParams().background_w * 1000.0)

    def test_writes_add_energy(self):
        base = estimate_power(_stats(), 1000.0).energy_nj
        with_writes = estimate_power(_stats(writes=100), 1000.0).energy_nj
        assert with_writes == pytest.approx(
            base + 100 * EnergyParams().write_nj)

    def test_same_bank_writes_pay_rmw(self):
        plain = estimate_power(_stats(writes=10), 1000.0).energy_nj
        rmw = estimate_power(_stats(writes=10, hits=10), 1000.0).energy_nj
        assert rmw > plain

    def test_activates_add_energy(self):
        a = estimate_power(_stats(acts=5), 1000.0).energy_nj
        b = estimate_power(_stats(), 1000.0).energy_nj
        assert a - b == pytest.approx(5 * EnergyParams().act_pre_nj)


class TestPowerAndEDP:
    def test_power_is_energy_over_time(self):
        rep = estimate_power(_stats(reads=50), 2000.0)
        assert rep.power_w == pytest.approx(rep.energy_nj / 2000.0)

    def test_edp(self):
        rep = estimate_power(_stats(reads=50), 2000.0)
        assert rep.edp == pytest.approx(rep.energy_nj * 2000.0)

    def test_zero_runtime_power(self):
        rep = estimate_power(_stats(), 0.0)
        assert rep.power_w == 0.0

    def test_faster_run_lower_edp_same_commands(self):
        """BARD's Table IX story: same work done sooner -> lower EDP."""
        slow = estimate_power(_stats(reads=100, writes=50), 3000.0)
        fast = estimate_power(_stats(reads=100, writes=50), 2500.0)
        assert fast.edp < slow.edp


class TestMeasuredCommands:
    """The ACT/PRE counts the power model reads cover the measured epoch
    only: each is counted once, when its burst (or refresh) issues."""

    def _warmed(self, cfg):
        system = System(cfg, trace_factory("copy", cfg, seed=7))
        system.warm_up()
        return system

    def test_detailed_warmup_commands_are_not_counted(self, monkeypatch):
        system = self._warmed(tiny_config())
        kinds = count_bank_commits(monkeypatch)
        result = system.run()
        assert result.dram.activates == activations(kinds) > 0
        assert result.dram.precharges == kinds[AccessKind.ROW_CONFLICT]

    def test_refresh_precharges_count_in_the_epoch(self, monkeypatch):
        # Long enough for one tREFI to pass inside the measured epoch.
        system = self._warmed(
            tiny_config(sim_instructions=9_000).with_refresh())
        kinds = count_bank_commits(monkeypatch)
        refresh_closes = []
        close_row = Bank.close_row

        def counted(self, now):
            if self.open_row is not None:
                refresh_closes.append(now)
            close_row(self, now)

        monkeypatch.setattr(Bank, "close_row", counted)
        result = system.run()
        assert refresh_closes
        assert result.dram.precharges == (kinds[AccessKind.ROW_CONFLICT]
                                          + len(refresh_closes))
