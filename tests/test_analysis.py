"""Analysis helpers: metrics and table formatting."""

import pytest

from repro.analysis import amean, format_table, gmean
from repro.analysis.tables import format_records


class TestGmean:
    def test_identity(self):
        assert gmean([2, 2, 2]) == pytest.approx(2)

    def test_classic(self):
        assert gmean([1, 4]) == pytest.approx(2)

    def test_empty(self):
        assert gmean([]) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gmean([1.0, 0.0])

    def test_below_arithmetic_mean(self):
        vals = [1.0, 2.0, 9.0]
        assert gmean(vals) < amean(vals)


class TestSimpleMetrics:
    def test_amean(self):
        assert amean([1, 2, 3]) == 2
        assert amean([]) == 0.0


class TestFormatting:
    def test_table_contains_cells(self):
        out = format_table(["name", "v"], [["lbm", 4.25], ["cf", 1.0]],
                          title="Fig X")
        assert "Fig X" in out
        assert "lbm" in out and "4.25" in out

    def test_table_alignment(self):
        out = format_table(["a"], [["xxxxxxxx"]])
        header, rule, row = out.splitlines()
        assert len(rule) >= len("xxxxxxxx")

    def test_records_table(self):
        records = [{"workload": "lbm", "policy": "bard-h", "run_key": "k",
                    "mean_ipc": 0.5, "speedup_pct": 4.25}]
        out = format_records(records, ["mean_ipc", "speedup_pct"],
                             title="t")
        title, header, rule, row = out.splitlines()
        assert header.split() == ["workload", "policy", "mean_ipc",
                                  "speedup_pct"]
        assert row.split() == ["lbm", "bard-h", "0.500", "4.250"]

    def test_records_table_empty(self):
        assert format_records([], ["mean_ipc"]).splitlines()[0].strip() \
            == "mean_ipc"
