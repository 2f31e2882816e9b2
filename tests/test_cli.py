"""Command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parent.parent


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

    def test_import_leaves_the_service_stack_unloaded(self):
        """Every command pays the CLI's import time; only ``serve``,
        ``submit`` and ``jobs`` need the HTTP server and the worker
        pool's multiprocessing machinery."""
        code = ("import sys, repro.cli; print(sorted(m for m in "
                "('http.server', 'multiprocessing.managers') "
                "if m in sys.modules))")
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


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
