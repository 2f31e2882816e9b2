"""What a run reports under every policy type: speedups and the
writeback-decision shares (EW/VWQ also expose wb_stats)."""

import pytest

from repro.experiment import Session

from .conftest import tiny_config


@pytest.fixture(scope="module")
def base():
    return Session(cache=False).run_one(tiny_config(), "lbm", label="baseline")


class TestReportsForPriorWork:
    def test_eager_report(self, base):
        ew = Session(cache=False).run_one(
            tiny_config(llc_writeback="eager"), "lbm", label="eager")
        s = ew.wb_stats  # EW has wb_stats too
        assert s is not None and s.victim_selections > 0
        assert ew.override_pct == \
            100.0 * s.overrides / s.victim_selections
        assert ew.cleanse_pct == 100.0 * s.cleanses / s.victim_selections

    def test_vwq_report(self, base):
        vwq = Session(cache=False).run_one(
            tiny_config(llc_writeback="vwq"), "lbm", label="vwq")
        assert vwq.wb_stats is not None
        assert 0.0 <= vwq.override_pct + vwq.cleanse_pct <= 100.0

    def test_baseline_vs_baseline_zero_speedup(self, base):
        assert base.speedup_pct(base) == 0.0
        assert (base.override_pct, base.cleanse_pct) == (0.0, 0.0)

    def test_no_accuracy_line_without_bard(self, base):
        ew = Session(cache=False).run_one(
            tiny_config(llc_writeback="eager"), "lbm", label="eager")
        assert ew.bard_accuracy is None
        assert ew.tracker_error_pct == 0.0

    def test_accuracy_line_with_bard(self, base):
        bard = Session(cache=False).run_one(
            tiny_config(llc_writeback="bard-h"), "lbm", label="bard-h")
        assert bard.bard_accuracy.checked > 0
        assert bard.tracker_error_pct == \
            100.0 * bard.bard_accuracy.error_rate
