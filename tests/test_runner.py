"""Running simulations: policy comparison grids and single runs."""

import pytest

from repro.errors import ConfigError
from repro.experiment import ExperimentSpec, Session

from .conftest import tiny_config


@pytest.fixture(scope="module")
def comparison():
    spec = ExperimentSpec(workloads="lbm", configs=tiny_config(),
                          policies=[None, "bard-h", "eager"])
    return Session(cache=False).run(spec)


class TestComparePolicies:
    def test_all_policies_present(self, comparison):
        assert set(comparison.axis_values("policy")) == {
            "baseline", "bard-h", "eager"}

    def test_baseline_first(self, comparison):
        assert comparison.axis_values("policy")[0] == "baseline"

    def test_baseline_speedup_zero(self, comparison):
        base = comparison.filter(policy="baseline").only().result
        assert base.speedup_pct(base) == pytest.approx(0.0)
        paired = comparison.speedup_vs("policy")
        assert set(paired.axis_values("policy")) == {"bard-h", "eager"}
        assert all(obs.baseline == base for obs in paired)

    def test_results_labeled(self, comparison):
        obs = comparison.filter(policy="bard-h").only()
        assert obs.result.label == "lbm/bard-h"

    def test_same_instruction_counts(self, comparison):
        assert len(set(comparison.metric("instructions"))) == 1


class TestRunWorkload:
    def test_label_defaults_to_workload(self):
        r = Session(cache=False).run_one(tiny_config(), "copy")
        assert r.label == "copy"

    def test_seed_changes_results(self):
        session = Session(cache=False)
        a = session.run_one(tiny_config(), "cf", seed=1)
        b = session.run_one(tiny_config(), "cf", seed=2)
        assert a.elapsed_ticks != b.elapsed_ticks

    def test_unknown_workload_raises(self):
        with pytest.raises(ConfigError):
            Session(cache=False).run_one(tiny_config(), "quake4")
