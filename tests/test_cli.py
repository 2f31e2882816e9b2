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
        """Policies are compared along a sweep's ``policy`` axis."""
        args = build_parser().parse_args(
            ["sweep", "--workloads", "copy",
             "--axis", "policy=baseline,bard-h", "--speedup-vs", "policy"])
        assert args.axis == ["policy=baseline,bard-h"]
        assert args.speedup_vs == "policy"

    @pytest.mark.parametrize("command", ["compare", "characterize"])
    def test_removed_subcommands_exit_2(self, command, capsys):
        """``sweep`` is the one local grid command: ``compare`` is a
        ``--axis policy=...`` sweep, ``characterize`` one that prints
        the Table IV metrics."""
        with pytest.raises(SystemExit) as exc:
            main([command, "copy"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

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
        assert "copy" in out and "write_blp" in out
        assert "mpki" in out and "wpki" in out and "mean_ipc" in out

    def test_compare(self, capsys):
        assert main(["sweep", "--workloads", "copy",
                     "--axis", "policy=baseline,bard-h",
                     "--speedup-vs", "policy"]) == 0
        out = capsys.readouterr().out
        assert "speedup_pct" in out and "bard-h" in out

    def test_characterize(self, capsys):
        assert main(["sweep", "--workloads", "copy", "whiskey",
                     "--metrics", "mpki", "wpki", "write_blp",
                     "time_writing_pct"]) == 0
        out = capsys.readouterr().out
        assert "whiskey" in out
        assert "mpki" in out and "time_writing_pct" in out

    def test_sweep_prints_decision_shares(self, capsys):
        assert main(["sweep", "--workloads", "lbm",
                     "--axis", "policy=baseline,bard-h",
                     "--metrics", "override_pct", "cleanse_pct",
                     "tracker_error_pct"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[1].split()
        assert header[-3:] == ["override_pct", "cleanse_pct",
                               "tracker_error_pct"]
        rows = {line.split()[header.index("policy")]: line.split()
                for line in lines[3:]}
        assert rows["baseline"][-3:] == ["0.000"] * 3
        assert float(rows["bard-h"][-2]) > 0  # lbm writes back


class TestServiceBounds:
    """Out-of-range service numbers exit 2 before a service starts or
    a grid is submitted."""

    @pytest.mark.parametrize("flag", [
        "--max-pending-per-tenant", "--max-pending-total", "--max-group",
        "--max-attempts"])
    def test_serve_rejects_bound_below_one(self, flag, tmp_path,
                                            monkeypatch, capsys):
        import repro.service as service

        def never(*args, **kwargs):
            raise AssertionError("service started")

        monkeypatch.setattr(service, "ExperimentService", never)
        assert main(["serve", "--port", "0", "--state-dir",
                     str(tmp_path), flag, "0"]) == 2
        assert f"{flag} must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--poll", "-1"), ("--poll", "0"), ("--timeout", "0")])
    def test_submit_rejects_nonpositive_wait(self, flag, value,
                                             monkeypatch, capsys):
        from repro.service import ServiceClient

        def never(*args, **kwargs):
            raise AssertionError("grid submitted")

        monkeypatch.setattr(ServiceClient, "submit", never)
        assert main(["submit", "--server", "http://127.0.0.1:9",
                     "--workloads", "copy", flag, value]) == 2
        assert f"{flag} must be positive" in capsys.readouterr().err


class TestServeShutdown:
    def test_sigterm_right_after_the_banner_stops_cleanly(
            self, tmp_path, monkeypatch, capsys):
        """The SIGTERM handler raises KeyboardInterrupt wherever the
        main thread is; once the banner is out, that is a clean stop
        (exit 0, service stopped), not an uncaught interrupt."""
        import repro.cli as cli
        import repro.service as service

        stopped = []

        class FakeService:
            def __init__(self, config):
                self.store = type("Store", (), {"directory": tmp_path})

            def start(self):
                pass

            def stop(self):
                stopped.append(True)

        class FakeServer:
            server_address = ("127.0.0.1", 1)

            def serve_forever(self):
                raise AssertionError("the interrupt came first")

            def server_close(self):
                pass

        def sigterm(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(service, "ExperimentService", FakeService)
        monkeypatch.setattr(service, "make_server",
                            lambda *args, **kwargs: FakeServer())
        monkeypatch.setattr(cli._log, "debug", sigterm)
        assert main(["serve", "--port", "0",
                     "--state-dir", str(tmp_path)]) == 0
        assert stopped == [True]
        assert "listening" in capsys.readouterr().out
