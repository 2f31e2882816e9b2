"""Experiment layer: spec expansion, hashing, caching, execution."""

import dataclasses
import json

import pytest

from repro import telemetry
from repro.config.system import DramConfig
from repro.errors import ConfigError
from repro.experiment import (
    Axis,
    ExperimentSpec,
    ResultCache,
    RunSpec,
    Session,
    make_axis,
    result_from_dict,
    result_to_dict,
)
from repro.experiment import session as session_mod
from repro.experiment.cache import payload_checksum
from repro.experiment.serialize import RESULT_FORMAT, config_from_dict

from .conftest import tiny_config


class TestExpansion:
    def test_grid_size(self):
        spec = ExperimentSpec(workloads=["lbm", "copy"],
                              configs=tiny_config(),
                              policies=["baseline", "bard-h"],
                              seeds=[7, 11])
        plan = spec.expand()
        assert len(plan) == 8
        assert plan.unique_count == 8

    def test_coords_cover_all_axes(self):
        spec = ExperimentSpec(workloads="lbm", configs=tiny_config(),
                              axes=[make_axis("wq", [32, 48])])
        plan = spec.expand()
        assert len(plan) == 2
        coords = plan.points[0].coords
        assert set(coords) == {"config", "workload", "policy", "seed", "wq"}
        assert [p.coords["wq"] for p in plan.points] == ["32", "48"]

    def test_axis_modifies_config(self):
        spec = ExperimentSpec(workloads="lbm", configs=tiny_config(),
                              axes=[make_axis("wq", [32])])
        run = spec.expand().points[0].spec
        assert run.config.dram.wq_capacity == 32

    def test_scalar_arguments_normalised(self):
        spec = ExperimentSpec(workloads="lbm", configs=tiny_config(),
                              policies="bard-h", seeds=3)
        assert spec.workloads == ("lbm",)
        assert spec.policies == ("bard-h",)
        assert spec.seeds == (3,)

    def test_named_config_variants(self):
        spec = ExperimentSpec(
            workloads="lbm",
            configs={"x4": tiny_config(),
                     "x8": tiny_config().with_device("x8")})
        plan = spec.expand()
        assert [p.coords["config"] for p in plan.points] == ["x4", "x8"]
        assert plan.unique_count == 2

    def test_duplicate_policies_deduplicated(self):
        spec = ExperimentSpec(workloads="lbm", configs=tiny_config(),
                              policies=[None, "bard-h", "baseline"])
        plan = spec.expand()
        assert len(plan) == 2
        assert plan.unique_count == 2
        assert [p.coords["policy"] for p in plan.points] == [
            "baseline", "bard-h"]

    def test_overlapping_points_share_runs(self):
        # wq=48 equals the tiny config's stock queue only after with_wq
        # rewrites the watermarks, so overlap instead via two identical
        # named variants.
        spec = ExperimentSpec(
            workloads="lbm",
            configs={"a": tiny_config(), "b": tiny_config()})
        plan = spec.expand()
        assert len(plan) == 2
        assert plan.unique_count == 1
        assert plan.duplicate_count == 1

    def test_policy_inherited_from_config_by_default(self):
        spec = ExperimentSpec(workloads="lbm",
                              configs=tiny_config(llc_writeback="bard-h"))
        point = spec.expand().points[0]
        assert point.spec.config.llc_writeback == "bard-h"
        assert point.coords["policy"] == "bard-h"

    def test_explicit_policies_override_config(self):
        spec = ExperimentSpec(workloads="lbm",
                              configs=tiny_config(llc_writeback="bard-h"),
                              policies=["baseline"])
        point = spec.expand().points[0]
        assert point.spec.config.llc_writeback is None
        assert point.coords["policy"] == "baseline"

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(workloads=[], configs=tiny_config())
        with pytest.raises(ConfigError):
            ExperimentSpec(workloads="lbm", configs=tiny_config(),
                           policies=[])

    def test_duplicate_axis_name_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(workloads="lbm", configs=tiny_config(),
                           axes=[make_axis("wq", [32]),
                                 Axis("wq", "device", ("x4",))])

    def test_unknown_axis_setting_rejected(self):
        with pytest.raises(ConfigError):
            Axis("banks", "banks", ("8",))

    def test_flag_axis_sets_state_both_ways(self):
        # 'off' must clear a flag the base config enabled, and vice versa.
        spec = ExperimentSpec(workloads="lbm",
                              configs=tiny_config().with_refresh(),
                              axes=[make_axis("refresh", ["on", "off"])])
        plan = spec.expand()
        assert plan.unique_count == 2
        states = {p.coords["refresh"]: p.spec.config.dram.refresh
                  for p in plan.points}
        assert states == {"on": True, "off": False}
        pb = ExperimentSpec(workloads="lbm",
                            configs=tiny_config(
                                dram=DramConfig(channels=1, pbpl=False)),
                            axes=[make_axis("pbpl", ["on"])])
        assert pb.expand().points[0].spec.config.dram.pbpl is True


class TestHashing:
    def test_same_spec_same_key(self):
        a = RunSpec("lbm", tiny_config(), seed=7)
        b = RunSpec("lbm", tiny_config(), seed=7)
        assert a.key() == b.key()

    def test_label_excluded_from_key(self):
        a = RunSpec("lbm", tiny_config(), label="x")
        b = RunSpec("lbm", tiny_config(), label="y")
        assert a.key() == b.key()

    def test_changed_field_changes_key(self):
        base = RunSpec("lbm", tiny_config(), seed=7)
        assert base.key() != RunSpec("lbm", tiny_config(), seed=8).key()
        assert base.key() != RunSpec("copy", tiny_config(), seed=7).key()
        assert base.key() != RunSpec(
            "lbm", tiny_config().with_device("x8"), seed=7).key()
        assert base.key() != RunSpec(
            "lbm", tiny_config(llc_writeback="bard-h"), seed=7).key()

    def test_spec_hash_stable_and_sensitive(self):
        def build(seeds=(7,)):
            return ExperimentSpec(workloads=["lbm"], configs=tiny_config(),
                                  seeds=seeds)
        assert build().hash() == build().hash()
        assert build().hash() != build(seeds=(8,)).hash()


class TestSerialization:
    def test_round_trip(self):
        session = Session(cache=False)
        result = session.run_one(tiny_config(llc_writeback="bard-h"),
                                 "lbm")
        payload = json.loads(json.dumps(result_to_dict(result)))
        back = result_from_dict(payload)
        assert back == result
        assert back.mean_ipc == result.mean_ipc
        assert back.dram.mean_blp == result.dram.mean_blp
        assert back.wb_stats == result.wb_stats

    def test_unknown_format_reads_as_none(self):
        assert result_from_dict({"format": 999, "result": {}}) is None
        assert result_from_dict("garbage") is None

    def test_removed_cache_field_is_config_error(self):
        # A config serialised before CacheConfig lost mshr_targets.
        payload = dataclasses.asdict(tiny_config())
        payload["llc"]["mshr_targets"] = 0
        with pytest.raises(ConfigError, match="mshr_targets"):
            config_from_dict(payload)


class TestCache:
    def test_second_session_hits_cache(self, tmp_path):
        spec = ExperimentSpec(workloads=["lbm", "copy"],
                              configs=tiny_config())
        first = Session(cache_dir=tmp_path)
        rs1 = first.run(spec)
        assert first.stats.simulated == 2

        second = Session(cache_dir=tmp_path)
        rs2 = second.run(spec)
        assert second.stats.simulated == 0
        assert second.stats.disk_hits == 2
        assert [o.result for o in rs2] == [o.result for o in rs1]

    @pytest.mark.parametrize("garbage", [
        "{not json", "null", "[1, 2]", '{"payload": {"format": 1, '
        '"result": {"unexpected": true}}}'])
    def test_corrupt_entry_is_a_miss(self, tmp_path, garbage):
        spec = ExperimentSpec(workloads="lbm", configs=tiny_config())
        Session(cache_dir=tmp_path).run(spec)
        for path in tmp_path.glob("*.json"):
            path.write_text(garbage)
        again = Session(cache_dir=tmp_path)
        again.run(spec)
        assert again.stats.simulated == 1

    def test_older_result_format_is_a_miss(self, tmp_path):
        # A checksum-valid entry written by an older RESULT_FORMAT.
        spec = ExperimentSpec(workloads="lbm", configs=tiny_config())
        Session(cache_dir=tmp_path).run(spec)
        (path,) = tmp_path.glob("*.json")
        body = json.loads(path.read_text())
        body["payload"]["format"] = RESULT_FORMAT - 1
        body["checksum"] = payload_checksum(body["payload"])
        path.write_text(json.dumps(body))
        again = Session(cache_dir=tmp_path)
        again.run(spec)
        assert again.stats.disk_hits == 0
        assert again.stats.simulated == 1

    def test_other_format_entry_reads_as_absent(self, tmp_path):
        # An intact entry of another RESULT_FORMAT is a plain miss: not
        # present (so admission never waits on it), not quarantined, and
        # counted as a miss rather than a hit.
        spec = RunSpec("lbm", tiny_config())
        key = spec.key()
        ResultCache(tmp_path).put(key, spec, session_mod.simulate(spec))
        path = tmp_path / f"{key}.json"
        body = json.loads(path.read_text())
        body["payload"]["format"] = RESULT_FORMAT - 1
        body["checksum"] = payload_checksum(body["payload"])
        path.write_text(json.dumps(body))

        cache = ResultCache(tmp_path)
        count = telemetry.registry_value
        telemetry.enable()
        try:
            hits = count("repro_cache_hits_total")
            misses = count("repro_cache_misses_total")
            assert key not in cache
            assert not cache.verify(key)
            assert cache.get(key) is None
            assert count("repro_cache_hits_total") == hits
            assert count("repro_cache_misses_total") == misses + 1
        finally:
            telemetry.disable()
        assert path.exists()
        assert cache.integrity_failures == 0

    def test_unwritable_cache_dir_degrades_gracefully(self):
        session = Session(cache_dir="/proc/no-such-cache")
        rs = session.run(ExperimentSpec(workloads="lbm",
                                        configs=tiny_config()))
        assert session.stats.simulated == 1
        assert len(rs) == 1

    def test_cache_disabled_writes_nothing(self, tmp_path):
        session = Session(cache_dir=tmp_path, cache=False)
        session.run(ExperimentSpec(workloads="lbm",
                                   configs=tiny_config()))
        assert list(tmp_path.glob("*.json")) == []

    def test_contains(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("lbm", tiny_config())
        assert spec.key() not in cache
        result = session_mod.simulate(spec)
        cache.put(spec.key(), spec, result)
        assert spec.key() in cache
        assert cache.get(spec.key()) == result

    def test_concurrent_writers_all_publish(self, tmp_path):
        """Many threads hammering one directory: every entry lands
        intact and no tmp files are left behind (the locking path)."""
        import threading

        cache = ResultCache(tmp_path)
        spec = RunSpec("lbm", tiny_config())
        result = session_mod.simulate(spec)
        keys = [f"{'%04x' % i}{'0' * 20}" for i in range(24)]

        def publish(key):
            for _ in range(5):
                cache.put(key, spec, result)

        threads = [threading.Thread(target=publish, args=(k,))
                   for k in keys]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for key in keys:
            assert cache.get(key) == result
        assert list(tmp_path.glob("*.tmp")) == []

    def test_put_retries_transient_failures(self, tmp_path,
                                            monkeypatch):
        import os as os_mod

        from repro.experiment import cache as cache_mod

        cache = ResultCache(tmp_path)
        spec = RunSpec("lbm", tiny_config())
        result = session_mod.simulate(spec)
        real_replace = os_mod.replace
        failures = iter([OSError("EIO"), OSError("EIO")])

        def flaky_replace(src, dst):
            try:
                raise next(failures)
            except StopIteration:
                return real_replace(src, dst)

        monkeypatch.setattr(cache_mod.os, "replace", flaky_replace)
        monkeypatch.setattr(cache_mod, "_RETRY_DELAY", 0.0)
        cache.put(spec.key(), spec, result)
        assert cache.get(spec.key()) == result


class TestExecution:
    def test_serial_and_parallel_identical(self):
        spec = ExperimentSpec(workloads=["lbm", "copy", "cf"],
                              configs=tiny_config())
        serial = Session(cache=False).run(spec)
        parallel = Session(cache=False, parallel=4).run(spec)
        for s, p in zip(serial, parallel):
            assert s.coords == p.coords
            assert s.result == p.result

    def test_memo_shared_across_calls(self):
        session = Session(cache=False)
        spec = ExperimentSpec(workloads="lbm", configs=tiny_config())
        session.run(spec)
        session.run(spec)
        assert session.stats.simulated == 1
        assert session.stats.memo_hits == 1

    def test_run_one_memoises_and_relabels(self):
        session = Session(cache=False)
        a = session.run_one(tiny_config(), "lbm", label="first")
        b = session.run_one(tiny_config(), "lbm", label="second")
        assert session.stats.simulated == 1
        assert a.label == "first" and b.label == "second"
        assert a.elapsed_ticks == b.elapsed_ticks

    def test_run_one_publishes_telemetry_once_per_simulation(self):
        def runs():
            return telemetry.registry_value(
                "repro_runs_total", workload="lbm", policy="baseline")

        session = Session(cache=False)
        telemetry.enable()
        try:
            before = runs()
            session.run_one(tiny_config(), "lbm")
            fresh = runs()
            session.run_one(tiny_config(), "lbm")
            hit = runs()
        finally:
            telemetry.disable()
        assert fresh - before == 1
        assert hit - fresh == 0

    def test_run_one_shares_warm_checkpoints_across_calls(self):
        base = tiny_config(warmup_mode="functional")
        bard = tiny_config(warmup_mode="functional", llc_writeback="bard-h")
        session = Session(cache=False)
        shared = [session.run_one(base, "lbm"),
                  session.run_one(bard, "lbm")]
        assert session.stats.warmups_executed == 1
        assert session.stats.checkpoint_restores == 1
        fresh = [Session(cache=False).run_one(cfg, "lbm")
                 for cfg in (base, bard)]
        assert shared == fresh

    def test_progress_callback(self):
        seen = []
        spec = ExperimentSpec(workloads=["lbm", "copy"],
                              configs=tiny_config())
        Session(cache=False).run(
            spec, progress=lambda done, total, rspec:
            seen.append((done, total, rspec.workload)))
        assert [s[:2] for s in seen] == [(1, 2), (2, 2)]


class TestBaselineDedupInSpec:
    def test_duplicate_baseline_runs_once(self, monkeypatch):
        calls = []
        real = session_mod.simulate

        def counting(spec):
            calls.append(spec.workload)
            return real(spec)

        monkeypatch.setattr(session_mod, "simulate", counting)
        spec = ExperimentSpec(workloads="lbm", configs=tiny_config(),
                              policies=[None, "bard-h", None])
        rs = Session(cache=False).run(spec)
        assert len(calls) == 2
        assert rs.axis_values("policy") == ["baseline", "bard-h"]
