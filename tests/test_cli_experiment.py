"""CLI over the experiment layer: sweep, JSON output, cache/parallel flags."""

import json

import pytest

from repro.cli import main
from repro.experiment import session as session_mod

from .conftest import tiny_config


@pytest.fixture(autouse=True)
def _tiny_preset(monkeypatch):
    import repro.cli as cli

    monkeypatch.setitem(cli._PRESETS, "small-8core", tiny_config)


@pytest.fixture
def counted(monkeypatch):
    calls = []
    real = session_mod.simulate

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(session_mod, "simulate", counting)
    return calls


class TestSweep:
    def test_wq_axis_table(self, capsys):
        assert main(["sweep", "--workloads", "copy",
                     "--axis", "wq=32,48", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "wq" in out and "mean_ipc" in out
        assert "32" in out and "48" in out

    def test_policy_axis_with_speedups(self, capsys):
        assert main(["sweep", "--workloads", "copy",
                     "--axis", "policy=baseline,bard-h",
                     "--speedup-vs", "policy", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "speedup_pct" in out and "bard-h" in out

    def test_json_records(self, capsys):
        assert main(["sweep", "--workloads", "copy",
                     "--axis", "wq=32,48",
                     "--metrics", "mean_ipc", "--json",
                     "--no-cache"]) == 0
        data = json.loads(capsys.readouterr().out)
        records = data["records"]
        assert len(records) == 2
        assert {r["wq"] for r in records} == {"32", "48"}
        assert all("mean_ipc" in r for r in records)
        # The session's accounting rides along for scripted consumers.
        assert data["stats"]["simulated"] == 2
        assert data["stats"]["unique"] == 2

    def test_bad_axis_is_an_error(self, capsys):
        assert main(["sweep", "--workloads", "copy",
                     "--axis", "voltage=1,2", "--no-cache"]) == 2
        assert "unknown axis" in capsys.readouterr().err

    def test_malformed_axis_is_an_error(self, capsys):
        assert main(["sweep", "--workloads", "copy",
                     "--axis", "wq", "--no-cache"]) == 2

    def test_repeated_axis_is_an_error(self, capsys, counted):
        assert main(["sweep", "--workloads", "copy",
                     "--axis", "policy=baseline",
                     "--axis", "policy=bard-h", "--no-cache"]) == 2
        assert "duplicate --axis" in capsys.readouterr().err
        assert counted == []

    def test_unknown_metric_fails_before_simulating(self, capsys,
                                                    counted):
        assert main(["sweep", "--workloads", "copy",
                     "--axis", "wq=32,48", "--metrics", "mean_ip",
                     "--no-cache"]) == 2
        assert "unknown metric" in capsys.readouterr().err
        assert counted == []

    def test_speedup_vs_missing_axis_fails_before_simulating(
            self, capsys, counted):
        assert main(["sweep", "--workloads", "copy",
                     "--speedup-vs", "policy", "--no-cache"]) == 2
        assert "speedup-vs" in capsys.readouterr().err
        assert counted == []

    def test_structured_field_metric_fails_before_simulating(
            self, capsys, counted):
        assert main(["sweep", "--workloads", "copy",
                     "--axis", "wq=32,48", "--metrics", "llc",
                     "--json", "--no-cache"]) == 2
        assert "unknown metric" in capsys.readouterr().err
        assert counted == []

    def test_relative_metric_needs_speedup_vs(self, capsys, counted):
        assert main(["sweep", "--workloads", "copy",
                     "--axis", "wq=32,48",
                     "--metrics", "weighted_speedup",
                     "--no-cache"]) == 2
        assert "--speedup-vs" in capsys.readouterr().err
        assert counted == []

    def test_explicit_speedup_pct_metric_not_duplicated(self, capsys):
        assert main(["sweep", "--workloads", "copy",
                     "--axis", "policy=baseline,bard-h",
                     "--metrics", "speedup_pct",
                     "--speedup-vs", "policy", "--json",
                     "--no-cache"]) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert all(list(r).count("speedup_pct") == 1 for r in records)

    def test_seed_option_reaches_sweep(self, capsys, counted):
        assert main(["sweep", "--workloads", "copy", "--seed", "11",
                     "--no-cache"]) == 0
        assert counted[0].seed == 11

    def test_zero_instructions_rejected(self, capsys):
        assert main(["run", "copy", "--instructions", "0",
                     "--no-cache"]) == 2
        assert "--instructions" in capsys.readouterr().err


class TestCacheAndParallel:
    def test_run_hits_cache_second_time(self, capsys, tmp_path, counted):
        argv = ["run", "copy", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert main(argv) == 0
        assert len(counted) == 1

    def test_compare_dedupes_listed_baseline(self, capsys, counted):
        assert main(["sweep", "--workloads", "copy",
                     "--axis", "policy=baseline,bard-h,baseline",
                     "--speedup-vs", "policy", "--no-cache"]) == 0
        assert len(counted) == 2
        rows = capsys.readouterr().out.splitlines()[3:]
        assert len(rows) == 1 and "bard-h" in rows[0]

    def test_parallel_flag(self, capsys):
        assert main(["sweep", "--workloads", "copy", "whiskey",
                     "--parallel", "2", "--no-cache"]) == 0
        assert "whiskey" in capsys.readouterr().out

    def test_run_json(self, capsys):
        assert main(["run", "copy", "--json", "--no-cache"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["records"][0]["workload"] == "copy"
        assert data["stats"]["planned"] == 1

    def test_json_stats_show_cache_hits(self, capsys, tmp_path):
        argv = ["run", "copy", "--json", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["stats"]["simulated"] == 1
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["stats"]["disk_hits"] == 1
        assert second["stats"]["simulated"] == 0
        assert first["records"] == second["records"]

    def test_parallel_zero_means_all_cores(self, capsys, counted):
        assert main(["run", "copy", "--parallel", "0",
                     "--no-cache"]) == 0
        assert len(counted) == 1

    def test_negative_parallel_rejected(self, capsys):
        assert main(["run", "copy", "--parallel", "-2",
                     "--no-cache"]) == 2
        assert "--parallel" in capsys.readouterr().err

    def test_run_policy_reaches_simulation(self, capsys, counted):
        assert main(["run", "copy", "--policy", "bard-h",
                     "--no-cache"]) == 0
        assert counted[0].config.llc_writeback == "bard-h"

    def test_speedup_vs_without_baseline_is_an_error(self, capsys):
        assert main(["sweep", "--workloads", "copy",
                     "--axis", "wq=32,48", "--speedup-vs", "wq",
                     "--no-cache"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_instruction_override(self, capsys, counted):
        assert main(["run", "copy", "--instructions", "2000",
                     "--warmup", "500", "--no-cache"]) == 0
        spec = counted[0]
        assert spec.config.sim_instructions == 2000
        assert spec.config.warmup_instructions == 500


class TestListAxes:
    def test_list_shows_axes(self, capsys):
        assert main(["list"]) == 0
        assert "axes:" in capsys.readouterr().out

    def test_list_json(self, capsys):
        assert main(["list", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "wq" in data["axes"]
