"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "lbm"])
        args_dict = vars(args)
        assert args_dict["workload"] == "lbm"
        assert args_dict["policy"] == "baseline"
        assert args_dict["preset"] == "small-8core"

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "doom3"])

    def test_compare_policies(self):
        args = build_parser().parse_args(
            ["compare", "copy", "--policies", "baseline", "bard-h"])
        assert args.policies == ["baseline", "bard-h"]

    def test_sweep_wq_is_gone(self):
        """Fig. 17 is a scorecard exhibit; ad-hoc queue sweeps use
        ``sweep --axis wq=...``."""
        with pytest.raises(SystemExit) as exc:
            main(["sweep-wq"])
        assert exc.value.code == 2


class TestCommands:
    """Exercise each command end-to-end on the tiniest real workloads.

    The small-8core preset is too slow for unit tests, so these monkeypatch
    the preset table to the tiny config.
    """

    @pytest.fixture(autouse=True)
    def _tiny_preset(self, monkeypatch):
        from tests.conftest import tiny_config

        import repro.cli as cli

        monkeypatch.setitem(cli._PRESETS, "small-8core", tiny_config)

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bard-h" in out and "lbm" in out

    def test_run(self, capsys):
        assert main(["run", "copy", "--policy", "bard-h"]) == 0
        out = capsys.readouterr().out
        assert "copy" in out and "WBLP" in out

    def test_compare(self, capsys):
        assert main(["compare", "copy", "--policies", "baseline",
                     "bard-h"]) == 0
        out = capsys.readouterr().out
        assert "weighted speedup" in out

    def test_characterize(self, capsys):
        assert main(["characterize", "copy", "whiskey"]) == 0
        out = capsys.readouterr().out
        assert "whiskey" in out
