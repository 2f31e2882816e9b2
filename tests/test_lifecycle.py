"""System lifecycle: ``close()`` and the executor's collector pause.

A built :class:`~repro.sim.system.System` is one large reference cycle
(engine events hold bound methods, MSHR waiters and DRAM requests hold
``partial``s of the caches above, the writeback policy and its cache
point at each other).  ``close()`` breaks every cycle so that dropping a
finished machine frees it by reference counting, and the executor keeps
the cycle collector paused while a run simulates.  These tests pin both
halves: no run leaves cyclic garbage behind, and the collector's on/off
state always comes back as the caller left it.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import pytest

from repro.errors import ConfigError, SimulationError
from repro.experiment.execute import iter_group, simulate
from repro.experiment.spec import RunSpec
from repro.resilience import FaultInjected, FaultPlan, FaultRule, injected
from repro.sampling.config import SamplingConfig
from repro.sim.system import System
from repro.workloads.suites import trace_factory

from .conftest import tiny_config
from .test_golden_stats import GOLDEN, golden_config


def _keyed(*specs):
    return [(spec.key(), spec) for spec in specs]


def _golden_spec(name: str) -> RunSpec:
    golden = GOLDEN[name]
    return RunSpec(golden["workload"], golden_config(name),
                   seed=golden["seed"])


def _sampled_pair():
    """A shared warm group whose second member (a sampled BARD-H run)
    restores the first member's checkpoint."""
    base = tiny_config(warmup_mode="functional",
                       sampling=SamplingConfig(intervals=2,
                                               interval_instructions=500,
                                               warm_instructions=200))
    return _keyed(RunSpec("lbm", base, seed=3),
                  RunSpec("lbm", replace(base, llc_writeback="bard-h"),
                          seed=3))


#: Work items per case, each run through the executor as one group.
CASES = {
    **{f"golden:{name}": _keyed(_golden_spec(name))
       for name in sorted(GOLDEN)},
    **{f"policy:{policy}": _keyed(
        RunSpec("lbm", tiny_config(llc_writeback=policy), seed=5))
       for policy in ("vwq", "eager", "bard-c")},
    "mshr-pipeline": _keyed(RunSpec("bc", tiny_config().with_mshrs(1),
                                    seed=5)),
    "sampled-restored": _sampled_pair(),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_runs_leave_no_cyclic_garbage(case):
    """Everything a run allocates is freed by reference counting.

    ``DEBUG_SAVEALL`` keeps whatever a collection finds in
    ``gc.garbage``, so garbage found by an automatic collection between
    runs is counted too, as is cyclic garbage made mid-run (the pause
    would otherwise let it pile up unseen).
    """
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        members = list(iter_group(CASES[case]))
        found = gc.collect()
        leaked = sorted({type(o).__name__ for o in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert found == 0, leaked
    assert not leaked
    # Every member after the first of a group restored its checkpoint.
    assert sum(m[3] for m in members) == len(members) - 1


class TestClose:
    def _system(self, **overrides):
        config = tiny_config(**overrides)
        return System(config, trace_factory("lbm", config, seed=1))

    def test_close_is_idempotent_and_keeps_the_result(self):
        system = self._system(llc_writeback="bard-h")
        result = system.run()
        system.close()
        system.close()
        assert system.engine.pending == 0
        assert system.llc_policy.cache is None
        assert all(not c.mshr and "access" not in vars(c)
                   for c in system._warm_caches())
        assert result.instructions == 2 * 4_000

    @pytest.mark.parametrize("sampled", [False, True])
    def test_closed_system_refuses_to_run(self, sampled):
        overrides = dict(warmup_mode="functional",
                         sampling=SamplingConfig(
                             intervals=2, interval_instructions=500)) \
            if sampled else {}
        system = self._system(**overrides)
        system.close()
        with pytest.raises(SimulationError, match="closed"):
            system.run()
        if sampled:
            with pytest.raises(SimulationError, match="closed"):
                system.run_sampled()


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """Start the test with the collector on or off; restore it after."""
    was = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    if was:
        gc.enable()
    else:
        gc.disable()


class TestCollectorState:
    """Every exit from a run leaves ``gc.isenabled()`` as it found it."""

    def test_simulate(self, collector):
        simulate(RunSpec("copy", tiny_config(), seed=1))
        assert gc.isenabled() is collector

    def test_shared_group(self, collector):
        assert len(list(iter_group(_sampled_pair()))) == 2
        assert gc.isenabled() is collector

    def test_config_error(self, collector):
        with pytest.raises(ConfigError):
            simulate(RunSpec("no-such-kernel", tiny_config()))
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("shared", [False, True])
    def test_fault_plan_crash(self, collector, shared):
        plan = FaultPlan(rules=[FaultRule(site="simulate",
                                          action="raise")])
        items = _sampled_pair() if shared \
            else _keyed(RunSpec("copy", tiny_config(), seed=1))
        with injected(plan), pytest.raises(FaultInjected):
            list(iter_group(items))
        assert gc.isenabled() is collector

    def test_simulation_error_mid_run(self, collector, monkeypatch):
        def boom(self, label=None):
            raise SimulationError("mid-run failure")

        monkeypatch.setattr(System, "run", boom)
        with pytest.raises(SimulationError):
            simulate(RunSpec("copy", tiny_config(), seed=1))
        assert gc.isenabled() is collector
