"""ResultSet query/aggregation vocabulary."""

import json

import pytest

from repro.experiment import ExperimentSpec, Session

from .conftest import tiny_config


@pytest.fixture(scope="module")
def rs():
    spec = ExperimentSpec(workloads=["lbm", "copy"],
                          configs=tiny_config(),
                          policies=["baseline", "bard-h"],
                          name="rs-fixture")
    return Session(cache=False).run(spec)


class TestFilterGroup:
    def test_filter_scalar(self, rs):
        sub = rs.filter(workload="lbm")
        assert len(sub) == 2
        assert all(o.coords["workload"] == "lbm" for o in sub)

    def test_filter_membership_and_callable(self, rs):
        assert len(rs.filter(policy=["bard-h"])) == 2
        assert len(rs.filter(workload=lambda w: w.startswith("l"))) == 2

    def test_filter_no_match(self, rs):
        assert len(rs.filter(workload="bwaves")) == 0

    def test_group_by(self, rs):
        groups = rs.group_by("policy")
        assert list(groups) == ["baseline", "bard-h"]
        assert all(len(g) == 2 for g in groups.values())

    def test_axis_values(self, rs):
        assert rs.axis_values("workload") == ["lbm", "copy"]

    def test_only_rejects_plural(self, rs):
        with pytest.raises(ValueError):
            rs.only()


class TestSpeedups:
    def test_speedup_vs_pairs_baselines(self, rs):
        sp = rs.speedup_vs("policy")
        assert len(sp) == 2
        for obs in sp:
            base = rs.filter(policy="baseline",
                             workload=obs.coords["workload"]).only()
            assert obs.value("speedup_pct") == pytest.approx(
                obs.result.speedup_pct(base.result))

    def test_gmean_speedup_pct(self, rs):
        sp = rs.speedup_vs("policy").filter(policy="bard-h")
        val = sp.gmean_speedup_pct()
        assert isinstance(val, float)

    def test_speedup_vs_pairs_configs_of_an_inherit_policy_grid(self):
        # Each named config records its own policy coordinate; that
        # coordinate follows from the config, so it must not split the
        # pairing anchor.
        cfg = tiny_config()
        spec = ExperimentSpec(workloads=["lbm", "copy"],
                              configs={"a": cfg,
                                       "b": cfg.with_writeback("bard-h")})
        grid = Session(cache=False).run(spec)
        sp = grid.speedup_vs("config", "a")
        assert sp.axis_values("config") == ["b"]
        assert len(sp) == 2
        for obs in sp:
            base = grid.filter(config="a",
                               workload=obs.coords["workload"]).only()
            assert obs.baseline == base.result

    def test_missing_baseline_raises(self, rs):
        with pytest.raises(ValueError):
            rs.filter(policy="bard-h").speedup_vs("policy")

    def test_speedup_metric_needs_baseline(self, rs):
        with pytest.raises(ValueError):
            rs[0].value("speedup_pct")


class TestExport:
    def test_to_records_default_metrics(self, rs):
        records = rs.to_records()
        assert len(records) == 4
        assert {"workload", "policy", "mean_ipc", "mpki",
                "run_key"} <= set(records[0])

    def test_to_records_custom_metric(self, rs):
        records = rs.speedup_vs("policy").to_records(["speedup_pct"])
        assert all("speedup_pct" in r for r in records)

    def test_non_scalar_metric_rejected(self, rs):
        with pytest.raises(ValueError):
            rs.to_records(["power_report"])

    def test_unknown_metric_error_lists_valid_names(self, rs):
        with pytest.raises(ValueError) as exc:
            rs[0].value("ipcc")
        message = str(exc.value)
        assert "ipcc" in message
        assert "mean_ipc" in message and "write_blp" in message

    def test_valid_metric_is_single_source_of_truth(self, rs):
        from repro.experiment.resultset import metric_names, valid_metric

        names = metric_names()
        assert "mean_ipc" in names and "speedup_pct" in names
        assert all(valid_metric(n) for n in names)
        assert not valid_metric("llc")  # structured field
        assert not valid_metric("sampling")  # structured field
        for name in names:
            if name in ("weighted_speedup", "speedup_pct"):
                continue
            assert isinstance(rs[0].value(name), (int, float))

    def test_to_json_round_trips(self, rs):
        # the records are plain JSON values: json.dumps is the export
        records = rs.to_records(["mean_ipc"])
        assert json.loads(json.dumps(records)) == records

    def test_metric_vector(self, rs):
        assert len(rs.metric("mean_ipc")) == 4
