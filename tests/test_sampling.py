"""Sampled simulation subsystem: config, run loop, experiment plumbing."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.experiment import ExperimentSpec, Session
from repro.experiment.serialize import config_from_dict
from repro.experiment.spec import RunSpec, make_axis
from repro.sampling import SamplingConfig
from repro.sim.system import System
from repro.workloads.suites import trace_factory

from .conftest import activations, count_bank_commits, tiny_config


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

    # Each plan goes through ``config_from_dict``, the path a cached or
    # persisted config takes: an invalid value and a field this version
    # no longer has (``period_instructions``, ``scheme``, ``confidence``)
    # are both a ConfigError, never a TypeError.
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
        payload = dataclasses.asdict(sampled_tiny())
        payload["sampling"].update(kwargs)
        with pytest.raises(ConfigError):
            config_from_dict(payload)


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

    def test_unknown_summary_metric_lists_available(self):
        result = run_system(sampled_tiny())
        with pytest.raises(ValueError, match="mean_ipc"):
            result.sampling.estimate("nope")

    def test_plan_must_fit_epoch(self):
        cfg = sampled_tiny(SamplingConfig(
            intervals=4, interval_instructions=1_200))  # 4 x 1200 > 4000
        with pytest.raises(ConfigError, match="does not fit"):
            run_system(cfg)

    def test_starts_tile_the_epoch(self):
        """Interval k starts at k * (epoch // intervals)."""
        cfg = sampled_tiny(SamplingConfig(
            intervals=3, interval_instructions=400,
            warm_instructions=300, detailed_warm_instructions=200))
        summary = run_system(cfg).sampling
        period = cfg.sim_instructions // 3
        assert period == 1_333
        assert summary.period_instructions == period
        assert summary.starts == [0, period, 2 * period]
        assert summary.confidence == 0.95

    def test_dram_commands_cover_only_measured_intervals(self,
                                                         monkeypatch):
        """Discarded re-warm windows must not inflate DRAM commands."""
        cfg = sampled_tiny()
        system = System(cfg, trace_factory("copy", cfg, seed=7))
        kinds = count_bank_commits(monkeypatch)
        result = system.run()
        assert 0 < result.dram.activates < activations(kinds)

    def test_run_sampled_requires_plan(self):
        from repro.errors import SimulationError

        cfg = tiny_config(warmup_mode="functional")
        system = System(cfg, trace_factory("copy", cfg, seed=7))
        with pytest.raises(SimulationError):
            system.run_sampled()


def assert_quiesced(system):
    """What functional warming needs to find when a gap's quiesce ends:
    nothing in flight, a tag index that matches the line arrays, and a
    writeback-policy dirty index that matches the LLC's dirty lines."""
    for cache in [system.llc, *system.l2s, *system.l1ds, *system.l1is]:
        assert not cache.mshr, cache.name
        assert not cache._issue_queue, cache.name
        assert not cache._pending, cache.name
        for tags, cset in zip(cache._tags, cache.sets):
            for addr, way in tags.items():
                line = cset.lines[way]
                assert line.valid and line.line_addr == addr, cache.name
            assert len(tags) == sum(line.valid for line in cset.lines)
    indexed = {addr for bucket in system.llc_policy._rows.values()
               for addr in bucket}
    dirty = {line.line_addr for cset in system.llc.sets
             for line in cset.lines if line.valid and line.dirty}
    assert indexed == dirty


class TestGapQuiesce:
    """A gap completes unsent accesses functionally and drains the rest
    in detail before functional warming rewrites the tag arrays.  VWQ is
    the writeback policy that keeps a dirty-line index, so it shows a
    missing re-prime."""

    @pytest.mark.parametrize("mshrs", [None, 16])
    def test_every_gap_leaves_the_hierarchy_quiet(self, monkeypatch,
                                                  mshrs):
        from repro.cache.cache import Cache
        from repro.cpu.core import Core

        cfg = sampled_tiny(llc_writeback="vwq")
        if mshrs is not None:
            cfg = cfg.with_mshrs(mshrs)
        system = System(cfg, trace_factory("lbm", cfg, seed=7))
        gaps = []
        completed = []
        warm_up = Core.warm_up
        complete_unsent = Cache.complete_unsent

        def checked_warm_up(core, budget):
            if core.core_id == 0 and core.engine.now:
                assert_quiesced(system)
                gaps.append(core.engine.now)
            warm_up(core, budget)

        def counted(cache, now):
            completed.append(len(cache._issue_queue) + len(cache._pending))
            complete_unsent(cache, now)

        monkeypatch.setattr(Core, "warm_up", checked_warm_up)
        monkeypatch.setattr(Cache, "complete_unsent", counted)
        system.run()
        assert len(gaps) == cfg.sampling.intervals - 1
        if mshrs is None:
            assert sum(completed) > 0


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
        assert rs.only().error_bar("mean_ipc") == \
            pytest.approx((hi - lo) / 2)

    def test_full_observation_has_degenerate_ci(self):
        # Mixed grids (adaptive escalations next to sampled cells) need
        # full runs to answer ci() too: an exact measurement reports the
        # zero-width interval (value, value), not an error.
        rs = Session(cache=False).run(ExperimentSpec(
            workloads="copy", configs=tiny_config(), seeds=7))
        value = rs.only().value("mean_ipc")
        assert rs.ci("mean_ipc") == (value, value)
        assert rs.only().error_bar("mean_ipc") == 0.0
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
        from repro.analysis.report import sampling_note

        base = run_system(sampled_tiny())
        note = sampling_note(base)
        assert note.startswith("sampled")
        assert "4 x 400" in note
        ipc = base.sampling.metrics["mean_ipc"]
        assert f"[{ipc.ci_lo:.3f}, {ipc.ci_hi:.3f}]" in note
        assert "95% CI" in note

    def test_full_report_unchanged(self):
        from repro.analysis.report import sampling_note

        assert sampling_note(run_system(tiny_config())) is None
