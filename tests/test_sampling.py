"""Sampled simulation subsystem: config, run loop, experiment plumbing."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.experiment import ExperimentSpec, Session
from repro.experiment.spec import RunSpec, make_axis
from repro.sampling import SamplingConfig
from repro.sim.system import System
from repro.workloads.suites import trace_factory

from .conftest import tiny_config


def sampled_tiny(sampling=None, **overrides):
    cfg = tiny_config(warmup_mode="functional", **overrides)
    return cfg.with_sampling(sampling or SamplingConfig(
        intervals=4, interval_instructions=400,
        warm_instructions=300, detailed_warm_instructions=200))


def run_system(cfg, workload="copy", seed=7):
    return System(cfg, trace_factory(workload, cfg, seed=seed)).run()


class TestConfigValidation:
    def test_requires_functional_warmup(self):
        with pytest.raises(ConfigError, match="functional"):
            tiny_config().with_sampling(SamplingConfig())

    def test_zero_warmup_still_requires_functional_mode(self):
        with pytest.raises(ConfigError):
            tiny_config(warmup_instructions=0).with_sampling(
                SamplingConfig())

    @pytest.mark.parametrize("kwargs", [
        dict(intervals=0),
        dict(interval_instructions=0),
        dict(interval_instructions=-5),
        dict(period_instructions=10, interval_instructions=100),
        dict(warm_instructions=-1),
        dict(detailed_warm_instructions=-1),
        dict(scheme="stratified"),
        dict(confidence=0.0),
        dict(confidence=1.5),
    ])
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SamplingConfig(**kwargs)


class TestGoldenEquivalence:
    def test_one_interval_covering_epoch_equals_full_run(self):
        """A 1-interval sample over the whole epoch is the full run."""
        full_cfg = tiny_config(warmup_mode="functional")
        full = run_system(full_cfg)
        sampled_cfg = full_cfg.with_sampling(SamplingConfig(
            intervals=1,
            interval_instructions=full_cfg.sim_instructions,
            warm_instructions=0, detailed_warm_instructions=0))
        sampled = run_system(sampled_cfg)
        want = dataclasses.asdict(full)
        have = dataclasses.asdict(sampled)
        assert want.pop("sampling") is None
        assert have.pop("sampling") is not None
        assert have == want

    def test_one_interval_equals_full_run_with_mshr_pipeline(self):
        """The equivalence survives the MSHR pipeline: interval
        boundaries drain the pipeline's pending queues, and a tight
        MSHR file exercises admission stalls inside the interval."""
        full_cfg = tiny_config(warmup_mode="functional").with_mshrs(2)
        full = run_system(full_cfg, workload="bc")
        assert full.mshr_stall_cycles > 0  # the pipeline actually bites
        sampled_cfg = full_cfg.with_sampling(SamplingConfig(
            intervals=1,
            interval_instructions=full_cfg.sim_instructions,
            warm_instructions=0, detailed_warm_instructions=0))
        sampled = run_system(sampled_cfg, workload="bc")
        want = dataclasses.asdict(full)
        have = dataclasses.asdict(sampled)
        assert want.pop("sampling") is None
        assert have.pop("sampling") is not None
        assert have == want

    def test_one_interval_summary_is_degenerate(self):
        cfg = tiny_config(warmup_mode="functional")
        sampled = run_system(cfg.with_sampling(SamplingConfig(
            intervals=1, interval_instructions=cfg.sim_instructions,
            warm_instructions=0, detailed_warm_instructions=0)))
        est = sampled.sampling.metrics["mean_ipc"]
        assert est.n == 1
        assert est.ci_lo == est.mean == est.ci_hi


class TestSampledRun:
    def test_summary_shape(self):
        result = run_system(sampled_tiny())
        summary = result.sampling
        assert summary is not None
        assert summary.intervals == 4
        assert len(summary.starts) == 4
        assert summary.starts == sorted(summary.starts)
        est = summary.metrics["mean_ipc"]
        assert est.n == 4
        assert est.ci_lo <= est.mean <= est.ci_hi
        lo, hi = summary.ci("mean_ipc")
        assert (lo, hi) == (est.ci_lo, est.ci_hi)

    def test_instructions_cover_measured_intervals(self):
        cfg = sampled_tiny()
        result = run_system(cfg)
        expected = cfg.cores * 4 * 400
        assert result.instructions == expected

    def test_deterministic(self):
        a = run_system(sampled_tiny())
        b = run_system(sampled_tiny())
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_random_scheme_reproducible(self):
        sampling = SamplingConfig(
            intervals=4, interval_instructions=300,
            warm_instructions=200, detailed_warm_instructions=100,
            scheme="random", scheme_seed=5)
        a = run_system(sampled_tiny(sampling))
        b = run_system(sampled_tiny(sampling))
        assert a.sampling.starts == b.sampling.starts
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_unknown_summary_metric_lists_available(self):
        result = run_system(sampled_tiny())
        with pytest.raises(ValueError, match="mean_ipc"):
            result.sampling.estimate("nope")

    def test_plan_must_fit_epoch(self):
        cfg = sampled_tiny(SamplingConfig(
            intervals=4, interval_instructions=400,
            period_instructions=2_000))  # span 6400 > epoch 4000
        with pytest.raises(ConfigError, match="exceeds the measured"):
            run_system(cfg)

    def test_random_plan_validates_worst_case_span(self):
        from repro.sampling import validate_plan

        periodic = SamplingConfig(intervals=3, interval_instructions=1000,
                                  period_instructions=4_000)
        assert validate_plan(periodic, 10_000) == 4_000
        randomised = SamplingConfig(intervals=3,
                                    interval_instructions=1000,
                                    period_instructions=4_000,
                                    scheme="random")
        # The last window's random offset could start an interval at up
        # to 11000 - past the 10000-instruction epoch.
        with pytest.raises(ConfigError, match="exceeds the measured"):
            validate_plan(randomised, 10_000)

    def test_dram_commands_cover_only_measured_intervals(self):
        """Discarded re-warm windows must not inflate DRAM commands."""
        cfg = sampled_tiny()
        system = System(cfg, trace_factory("copy", cfg, seed=7))
        result = system.run()
        lifetime = sum(
            bank.stats.activates
            for channel in system.channels
            for sc in channel.subchannels
            for bank in sc.banks)
        assert 0 < result.dram.activates < lifetime

    def test_run_sampled_requires_plan(self):
        from repro.errors import SimulationError

        cfg = tiny_config(warmup_mode="functional")
        system = System(cfg, trace_factory("copy", cfg, seed=7))
        with pytest.raises(SimulationError):
            system.run_sampled()


class TestExperimentIntegration:
    def test_sampled_and_full_keys_differ(self):
        full = tiny_config(warmup_mode="functional")
        sampled = sampled_tiny()
        a = RunSpec(workload="copy", config=full, seed=7)
        b = RunSpec(workload="copy", config=sampled, seed=7)
        assert a.key() != b.key()

    def test_sampling_plans_hash_distinctly(self):
        a = sampled_tiny(SamplingConfig(intervals=4,
                                        interval_instructions=400))
        b = sampled_tiny(SamplingConfig(intervals=5,
                                        interval_instructions=400))
        assert RunSpec(workload="copy", config=a).key() != \
            RunSpec(workload="copy", config=b).key()

    def test_resultset_ci_well_formed(self):
        rs = Session(cache=False).run(ExperimentSpec(
            workloads="copy", configs=sampled_tiny(), seeds=7))
        lo, hi = rs.ci("mean_ipc")
        assert lo <= hi
        assert lo <= rs.only().value("mean_ipc") * 1.5
        assert rs.only().sampled
        assert rs.error_bars("mean_ipc") == \
            [rs.only().error_bar("mean_ipc")]

    def test_full_observation_has_degenerate_ci(self):
        # Mixed grids (adaptive escalations next to sampled cells) need
        # full runs to answer ci() too: an exact measurement reports the
        # zero-width interval (value, value), not an error.
        rs = Session(cache=False).run(ExperimentSpec(
            workloads="copy", configs=tiny_config(), seeds=7))
        value = rs.only().value("mean_ipc")
        assert rs.ci("mean_ipc") == (value, value)
        assert rs.error_bars("mean_ipc") == [0.0]
        with pytest.raises(ValueError, match="unknown metric"):
            rs.ci("not_a_metric")

    def test_cached_sampled_result_round_trips(self, tmp_path):
        spec = ExperimentSpec(workloads="copy", configs=sampled_tiny(),
                              seeds=7)
        first = Session(cache_dir=tmp_path).run(spec)
        second = Session(cache_dir=tmp_path).run(spec)
        assert second[0].result.sampling is not None
        assert dataclasses.asdict(first[0].result) == \
            dataclasses.asdict(second[0].result)
        stats = Session(cache_dir=tmp_path)
        stats.run(spec)
        assert stats.stats.disk_hits == 1
        assert stats.stats.simulated == 0

    def test_sample_axis_sweeps_sampled_vs_full(self):
        spec = ExperimentSpec(
            workloads="copy",
            configs=tiny_config(warmup_mode="functional"),
            seeds=7,
            axes=[make_axis("sample", ["off", 2])],
        )
        plan = spec.expand()
        assert plan.unique_count == 2
        rs = Session(cache=False).run(plan)
        by_axis = {obs.coords["sample"]: obs for obs in rs}
        assert by_axis["off"].result.sampling is None
        assert by_axis["2"].result.sampling.intervals == 2

    def test_sampled_runs_share_warm_checkpoints_with_full(self):
        """Sampled and full runs of one (workload, seed) warm once."""
        session = Session(cache=False)
        spec = ExperimentSpec(
            workloads="copy",
            configs={"full": tiny_config(warmup_mode="functional"),
                     "sampled": sampled_tiny()},
            seeds=7,
        )
        session.run(spec)
        assert session.stats.warmups_executed == 1
        assert session.stats.checkpoint_restores == 1


class TestReportRendering:
    def test_comparison_report_shows_ci(self):
        from repro.analysis.report import comparison_report, sampling_note

        base = run_system(sampled_tiny())
        other = run_system(sampled_tiny(**{}), workload="copy")
        text = comparison_report(base, other, workload="copy")
        assert "±" in text
        assert "sampled" in text
        note = sampling_note(base)
        assert "4 x 400" in note

    def test_full_report_unchanged(self):
        from repro.analysis.report import comparison_report, sampling_note

        cfg = tiny_config()
        base = run_system(cfg)
        assert sampling_note(base) is None
        text = comparison_report(base, base, workload="copy")
        assert "±" not in text

    def test_figure_csv_error_columns(self):
        from repro.analysis.figures import read_figure_csv, series_to_csv

        text = series_to_csv(
            ["a", "b"],
            {"bard": [1.0, 2.0]},
            errors={"bard": [0.1, 0.2]},
        )
        lines = text.strip().splitlines()
        assert lines[0] == "workload,bard,bard_err"
        assert lines[1] == "a,1.0000,0.1000"

    def test_figure_csv_error_validation(self):
        from repro.analysis.figures import series_to_csv

        with pytest.raises(ValueError):
            series_to_csv(["a"], {"x": [1.0]}, errors={"y": [0.1]})
        with pytest.raises(ValueError):
            series_to_csv(["a"], {"x": [1.0]}, errors={"x": [0.1, 0.2]})
