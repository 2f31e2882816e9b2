"""CLI: remaining commands and option plumbing."""

import pytest

from repro.cli import build_parser, main


class TestOptionPlumbing:
    @pytest.fixture(autouse=True)
    def _tiny_preset(self, monkeypatch):
        from tests.conftest import tiny_config

        import repro.cli as cli

        monkeypatch.setitem(cli._PRESETS, "small-8core", tiny_config)

    def test_replacement_option(self, capsys):
        assert main(["run", "copy", "--replacement", "srrip"]) == 0

    def test_device_option(self, capsys):
        assert main(["run", "copy", "--device", "x8"]) == 0

    def test_ideal_writes_flag(self, capsys):
        assert main(["run", "copy", "--ideal-writes"]) == 0

    def test_seed_option(self, capsys):
        assert main(["run", "copy", "--seed", "3"]) == 0

    def test_compare_adds_baseline_when_missing(self, capsys):
        assert main(["compare", "copy", "--policies", "bard-h"]) == 0
        out = capsys.readouterr().out
        assert "weighted speedup" in out

    def test_compare_eager_and_vwq(self, capsys):
        assert main(["compare", "copy", "--policies", "baseline",
                     "eager", "vwq"]) == 0
        out = capsys.readouterr().out
        assert out.count("weighted speedup") == 2


class TestSamplingFlags:
    @pytest.fixture(autouse=True)
    def _tiny_preset(self, monkeypatch):
        from tests.conftest import tiny_config

        import repro.cli as cli

        monkeypatch.setitem(cli._PRESETS, "small-8core", tiny_config)

    def test_run_with_sampling(self, capsys):
        assert main(["run", "copy", "--sample", "2",
                     "--sample-interval", "400"]) == 0
        out = capsys.readouterr().out
        assert "sampled" in out
        assert "2 x 400" in out

    def test_compare_with_sampling(self, capsys):
        assert main(["compare", "copy", "--policies", "bard-h",
                     "--sample", "2", "--sample-interval", "300"]) == 0
        out = capsys.readouterr().out
        assert "weighted speedup" in out
        assert "±" in out

    def test_sweep_with_sampling(self, capsys):
        assert main(["sweep", "--workloads", "copy",
                     "--axis", "policy=baseline,bard-h",
                     "--sample", "2", "--sample-interval", "300",
                     "--no-cache", "--json"]) == 0

    def test_random_scheme_flags(self, capsys):
        assert main(["run", "copy", "--sample", "2",
                     "--sample-interval", "300",
                     "--sample-scheme", "random",
                     "--sample-seed", "3"]) == 0

    def test_sample_with_detailed_warmup_is_config_error(self, capsys):
        rc = main(["run", "copy", "--sample", "2",
                   "--warmup-mode", "detailed"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "functional" in err

    def test_nonpositive_interval_is_config_error(self, capsys):
        rc = main(["run", "copy", "--sample", "2",
                   "--sample-interval", "0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_zero_intervals_is_config_error(self, capsys):
        rc = main(["run", "copy", "--sample", "0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_oversized_plan_is_config_error(self, capsys):
        # tiny preset simulates 4000 instructions; 8 x 2000 cannot fit.
        rc = main(["run", "copy", "--sample", "8",
                   "--sample-interval", "2000"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "does not fit" in err

    def test_large_fixed_interval_count_allowed(self, capsys):
        # more intervals than the adaptive planner's ladder cap (64);
        # the cap must not reject fixed-count plans
        assert main(["run", "copy", "--sample", "100",
                     "--sample-interval", "20"]) == 0

    def test_removed_adaptive_flag_exits_2(self, capsys):
        # the grid planner (sweep --adaptive --adaptive-error) is the
        # only adaptive path; run has no per-run error target
        with pytest.raises(SystemExit) as exc:
            main(["run", "copy", "--sample-error", "2"])
        assert exc.value.code == 2


class TestParserValidation:
    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "lbm", "--policy", "magic"])

    def test_bad_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "lbm", "--preset", "huge"])

    def test_bad_replacement_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "lbm", "--replacement", "belady"])

    def test_characterize_requires_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["characterize"])
