"""Reports across all policy types (EW/VWQ also expose wb_stats)."""

import pytest

from repro.analysis.report import comparison_report
from repro.experiment import Session

from .conftest import tiny_config


@pytest.fixture(scope="module")
def base():
    return Session(cache=False).run_one(tiny_config(), "lbm", label="baseline")


class TestReportsForPriorWork:
    def test_eager_report(self, base):
        ew = Session(cache=False).run_one(
            tiny_config(llc_writeback="eager"), "lbm", label="eager")
        text = comparison_report(base, ew, workload="lbm")
        assert "eager" in text
        assert "decisions" in text  # EW has wb_stats too

    def test_vwq_report(self, base):
        vwq = Session(cache=False).run_one(
            tiny_config(llc_writeback="vwq"), "lbm", label="vwq")
        text = comparison_report(base, vwq, workload="lbm")
        assert "vwq" in text

    def test_baseline_vs_baseline_zero_speedup(self, base):
        text = comparison_report(base, base, workload="lbm")
        assert "+0.00%" in text

    def test_no_accuracy_line_without_bard(self, base):
        ew = Session(cache=False).run_one(
            tiny_config(llc_writeback="eager"), "lbm", label="eager")
        text = comparison_report(base, ew, workload="lbm")
        assert "BLP-Tracker accuracy" not in text

    def test_accuracy_line_with_bard(self, base):
        bard = Session(cache=False).run_one(
            tiny_config(llc_writeback="bard-h"), "lbm", label="bard-h")
        text = comparison_report(base, bard, workload="lbm")
        assert "BLP-Tracker accuracy" in text
