"""Extension features: refresh model, drain-policy ablation, frozen
tracker, the bandwidth helper and the record table."""

import pytest

from repro.analysis.bandwidth import (
    SYNC_BITS,
    WRITEBACK_BYTES,
    bandwidth_report,
)
from repro.analysis.tables import format_records
from repro.core.blp_tracker import BANKS_PER_SUBCHANNEL, BLPTracker
from repro.dram.commands import MemRequest, Op
from repro.dram.mapping import ZenMapping
from repro.dram.subchannel import SubChannel
from repro.dram.timing import ddr5_4800_x4
from repro.errors import ConfigError
from repro.experiment import ExperimentSpec, Session
from repro.experiment.resultset import DEFAULT_METRICS

from .conftest import tiny_config

_M = ZenMapping(pbpl=False)


class TestRefreshModel:
    def _run_reads(self, refresh: bool, n=40):
        sc = SubChannel(ddr5_4800_x4(), refresh=refresh)
        reqs = []
        for i in range(n):
            addr = i * 128  # subchannel 0
            r = MemRequest(addr=addr, op=Op.READ, coord=_M.map(addr))
            reqs.append(r)
            sc.rq.push(r)
        now = 20_000  # past the first tREFI
        for _ in range(10_000):
            nxt = sc.tick(now)
            if nxt is None:
                break
            now = max(nxt, now + 1)
        return sc, reqs

    def test_refresh_performed(self):
        sc, _ = self._run_reads(refresh=True)
        assert sc.refreshes_performed >= 2

    def test_refresh_closes_rows(self):
        sc, _ = self._run_reads(refresh=True)
        # Refresh precharges everything; trigger one more refresh window.
        sc._maybe_refresh(sc._next_refresh)
        assert all(b.open_row is None for b in sc.banks)

    def test_no_refresh_by_default(self):
        sc, _ = self._run_reads(refresh=False)
        assert sc.refreshes_performed == 0

    def test_refresh_slows_system(self):
        base = Session(cache=False).run_one(tiny_config(), "copy")
        slow = Session(cache=False).run_one(
            tiny_config().with_refresh(), "copy")
        assert slow.mean_ipc <= base.mean_ipc * 1.02


class TestDrainPolicyAblation:
    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            SubChannel(ddr5_4800_x4(), drain_policy="round-robin")
        with pytest.raises(ConfigError):
            tiny_config().with_drain_policy("round-robin")

    def test_fcfs_drains_in_order(self):
        sc = SubChannel(ddr5_4800_x4(), wq_capacity=8, wq_high=3, wq_low=0,
                        drain_policy="fcfs")
        reqs = []
        for row in (0, 1, 2):
            addr = (row << 19)  # same bank, conflicting rows
            r = MemRequest(addr=addr, op=Op.WRITE, coord=_M.map(addr))
            reqs.append(r)
            sc.wq.push(r)
        now = 0
        for _ in range(1000):
            nxt = sc.tick(now)
            if nxt is None:
                break
            now = max(nxt, now + 1)
        bursts = [r.burst_tick for r in reqs]
        assert bursts == sorted(bursts), "FCFS must preserve arrival order"

    def test_fcfs_config_runs(self):
        # lbm is write-heavy enough to trip the watermark on 2 tiny cores.
        r = Session(cache=False).run_one(
            tiny_config().with_drain_policy("fcfs"), "lbm")
        assert r.dram.writes_issued > 0


class TestFrozenTracker:
    def test_saturates_without_self_reset(self):
        t = BLPTracker(self_reset=False)
        for b in range(BANKS_PER_SUBCHANNEL):
            t.mark_writeback(0, b)
        assert t.popcount(0) == BANKS_PER_SUBCHANNEL
        assert t.stats.self_resets == 0


class TestBandwidthReport:
    def test_overhead_is_architectural_ratio(self):
        r = Session(cache=False).run_one(
            tiny_config(llc_writeback="bard-h"), "copy")
        bw = bandwidth_report(r)
        expected = 100 * SYNC_BITS / (WRITEBACK_BYTES * 8)
        assert bw.overhead_pct == pytest.approx(expected, abs=0.05)

    def test_scales_with_writebacks(self):
        r = Session(cache=False).run_one(tiny_config(), "copy")
        assert bandwidth_report(r, scale=32).writeback_gbps == (
            pytest.approx(2 * bandwidth_report(r, scale=16).writeback_gbps))


class TestReports:
    def test_comparison_report_contents(self):
        """What ``sweep --axis policy=baseline,bard-h --speedup-vs
        policy`` prints: one row per compared policy."""
        rs = Session(cache=False).run(ExperimentSpec(
            workloads="copy", configs=tiny_config(),
            policies=["baseline", "bard-h"]))
        metrics = ["write_blp", "speedup_pct", "override_pct",
                   "cleanse_pct"]
        text = format_records(rs.speedup_vs("policy").to_records(metrics),
                              metrics, title="copy")
        title, header, _, row = text.splitlines()
        assert header.split()[-4:] == metrics
        assert "bard-h" in row and "run_key" not in header

    def test_characterization_report(self):
        rs = Session(cache=False).run(ExperimentSpec(
            workloads="copy", configs=tiny_config()))
        text = format_records(rs.to_records(), DEFAULT_METRICS)
        assert "copy" in text and "write_blp" in text
