"""Warmup modes and warm-state checkpoints.

Three contracts from the warmup layer:

(a) ``warmup_mode="detailed"`` (the default) is bit-identical to the
    historical behaviour - ``tests/test_golden_stats.py`` pins that
    against the seed implementation; here we pin the default itself and
    the config surface.
(b) A run restored from a warm-state snapshot produces statistics
    identical to a fresh functional-warmup run of the same spec -
    including across LLC writeback policy variants, which is what lets
    one snapshot serve a whole comparison grid.
(c) A policy-comparison grid executed through a :class:`Session` with
    checkpointing runs its warmup exactly once.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config.presets import small_8core
from repro.config.system import SystemConfig
from repro.errors import ConfigError, SimulationError
from repro.experiment import ExperimentSpec, Session, warm_group_key
from repro.experiment.session import simulate
from repro.experiment.spec import RunSpec
from repro.sim.system import System
from repro.sim.warmstate import warm_config_signature
from repro.workloads.suites import trace_factory

WARMUP = 2_000
SIM = 2_000


def _config(mode: str = "functional", **overrides) -> SystemConfig:
    cfg = replace(small_8core(), warmup_instructions=WARMUP,
                  sim_instructions=SIM, warmup_mode=mode)
    return replace(cfg, **overrides) if overrides else cfg


def _stats_dict(result) -> dict:
    """The counters test (b) compares bit-for-bit."""
    out = {
        "events": result.events,
        "instructions": result.instructions,
        "elapsed_ticks": result.elapsed_ticks,
        "ipc": result.ipc,
    }
    for field in ("accesses", "hits", "misses", "fills", "evictions",
                  "dirty_evictions", "writebacks", "cleanses",
                  "prefetch_accesses", "writeback_installs"):
        out[f"llc.{field}"] = getattr(result.llc, field)
    out["dram.reads"] = result.dram.reads_issued
    out["dram.writes"] = result.dram.writes_issued
    return out


# ----------------------------------------------------------------------
# (a) config surface; the detailed default stays the historical path
# ----------------------------------------------------------------------

class TestWarmupModeConfig:
    def test_default_is_detailed(self):
        assert SystemConfig().warmup_mode == "detailed"
        assert small_8core().warmup_mode == "detailed"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(warmup_mode="magic")

    def test_with_warmup_mode(self):
        cfg = small_8core().with_warmup_mode("functional")
        assert cfg.warmup_mode == "functional"
        assert small_8core().warmup_mode == "detailed"

    def test_mode_changes_run_key(self):
        detailed = RunSpec("copy", _config("detailed"))
        functional = RunSpec("copy", _config("functional"))
        assert detailed.key() != functional.key()

    def test_detailed_and_functional_modes_agree_on_shape(self):
        """Functional warmup changes warm state, not simulation sanity."""
        det = simulate(RunSpec("copy", _config("detailed"), 7, "d"))
        fun = simulate(RunSpec("copy", _config("functional"), 7, "f"))
        assert det.instructions == fun.instructions
        assert fun.elapsed_ticks > 0
        assert fun.llc.accesses > 0


# ----------------------------------------------------------------------
# (b) snapshot restore == fresh functional run
# ----------------------------------------------------------------------

class TestWarmStateSnapshots:
    def test_restore_matches_fresh_run(self):
        cfg = _config()
        fresh = simulate(RunSpec("copy", cfg, 7, "copy"))

        donor = System(cfg, trace_factory("copy", cfg, seed=7))
        snapshot = donor.snapshot_warm_state()
        restored_system = System(cfg, trace_factory("copy", cfg, seed=7))
        restored_system.restore_warm_state(snapshot)
        restored = restored_system.run(label="copy")

        assert _stats_dict(restored) == _stats_dict(fresh)

    def test_restore_across_policies_matches_fresh_run(self):
        """One snapshot serves every writeback-policy variant."""
        base_cfg = _config()
        donor = System(base_cfg, trace_factory("copy", base_cfg, seed=7))
        snapshot = donor.snapshot_warm_state()

        for policy in ("bard-h", "eager", "vwq"):
            cfg = base_cfg.with_writeback(policy)
            fresh = simulate(RunSpec("copy", cfg, 7, policy))
            restored_system = System(
                cfg, trace_factory("copy", cfg, seed=7))
            restored_system.restore_warm_state(snapshot)
            restored = restored_system.run(label=policy)
            assert _stats_dict(restored) == _stats_dict(fresh), policy

    def test_snapshot_leaves_donor_reusable(self):
        """Snapshotting is non-destructive: the donor still runs true."""
        cfg = _config()
        donor = System(cfg, trace_factory("copy", cfg, seed=7))
        donor.snapshot_warm_state()
        result = donor.run(label="copy")
        fresh = simulate(RunSpec("copy", cfg, 7, "copy"))
        assert _stats_dict(result) == _stats_dict(fresh)

    def test_restores_are_independent_copies(self):
        """Two systems restored from one snapshot run identically, and
        neither shares a replacement policy or prefetcher object (or any
        container inside one) with the donor or with the other; running
        them leaves the snapshot's pickled policies untouched."""
        cfg = _config().with_replacement("ship")
        donor = System(cfg, trace_factory("copy", cfg, seed=7))
        snapshot = donor.snapshot_warm_state()
        frozen = [c.policies for c in snapshot.caches]
        systems = []
        for _ in range(2):
            system = System(cfg, trace_factory("copy", cfg, seed=7))
            system.restore_warm_state(snapshot)
            systems.append(system)

        def owned(system):
            objs = []
            for cache in system._warm_caches():
                for obj in (cache.repl, cache.prefetcher):
                    if obj is not None:
                        objs.append(obj)
                        objs.extend(v for v in vars(obj).values()
                                    if isinstance(v, (list, dict)))
            return {id(o) for o in objs}

        first, second = (owned(s) for s in systems)
        assert not first & second
        assert not (first | second) & owned(donor)
        results = [s.run(label="copy") for s in systems]
        assert _stats_dict(results[0]) == _stats_dict(results[1])
        assert [c.policies for c in snapshot.caches] == frozen

    def test_detailed_mode_cannot_snapshot(self):
        cfg = _config("detailed")
        system = System(cfg, trace_factory("copy", cfg, seed=7))
        with pytest.raises(SimulationError):
            system.snapshot_warm_state()

    def test_restore_rejects_mismatched_config(self):
        cfg = _config()
        donor = System(cfg, trace_factory("copy", cfg, seed=7))
        snapshot = donor.snapshot_warm_state()
        other = replace(cfg, warmup_instructions=WARMUP + 500)
        target = System(other, trace_factory("copy", other, seed=7))
        with pytest.raises(SimulationError):
            target.restore_warm_state(snapshot)

    def test_restore_rejects_used_system(self):
        cfg = _config()
        donor = System(cfg, trace_factory("copy", cfg, seed=7))
        snapshot = donor.snapshot_warm_state()
        used = System(cfg, trace_factory("copy", cfg, seed=7))
        used.run(label="copy")
        with pytest.raises(SimulationError):
            used.restore_warm_state(snapshot)


# ----------------------------------------------------------------------
# (c) a comparison grid warms up exactly once
# ----------------------------------------------------------------------

class TestSessionCheckpointSharing:
    def _grid(self, cfg, policies=("baseline", "bard-h")):
        return ExperimentSpec(workloads="copy", configs=cfg,
                              policies=list(policies), name="warm-grid")

    def test_two_policy_grid_warms_once(self):
        session = Session(cache=False)
        session.run(self._grid(_config()))
        assert session.stats.simulated == 2
        assert session.stats.warmups_executed == 1
        assert session.stats.checkpoint_restores == 1

    def test_checkpointed_grid_matches_unshared_grid(self):
        spec = self._grid(_config(),
                          policies=("baseline", "bard-h", "vwq"))
        shared = Session(cache=False).run(spec)
        unshared = Session(cache=False, checkpoints=False).run(spec)
        for a, b in zip(shared, unshared):
            assert a.coords == b.coords
            assert _stats_dict(a.result) == _stats_dict(b.result), a.coords

    def test_detailed_grid_does_not_share(self):
        session = Session(cache=False)
        session.run(self._grid(_config("detailed")))
        assert session.stats.warmups_executed == 2
        assert session.stats.checkpoint_restores == 0

    def test_zero_warmup_runs_never_count_warmups(self):
        session = Session(cache=False)
        session.run(self._grid(_config(warmup_instructions=0)))
        assert session.stats.warmups_executed == 0
        assert session.stats.checkpoint_restores == 0

    def test_different_workloads_do_not_share(self):
        cfg = _config()
        session = Session(cache=False)
        session.run(ExperimentSpec(workloads=["copy", "add"],
                                   configs=cfg, name="two-workloads"))
        assert session.stats.warmups_executed == 2
        assert session.stats.checkpoint_restores == 0

    def test_groups_split_to_fill_pool_workers(self):
        """A parallel session trades sharing back for parallelism."""
        cfg = _config()
        plan = self._grid(cfg, policies=("baseline", "bard-e", "bard-h",
                                         "eager")).expand()
        missing = list(plan.runs.items())

        serial = Session(cache=False)
        assert [len(g) for _, g in serial._warm_groups(missing)] == [4]

        wide = Session(cache=False, parallel=4)
        chunks = wide._warm_groups(missing)
        assert sorted(len(c) for _, c in chunks) == [1, 1, 1, 1]
        # Split chunks keep the shared warm-group key of their parent.
        assert len({gk for gk, _ in chunks}) == 1
        # Order-preserving partition of the same work items.
        assert [ks for _, chunk in chunks for ks in chunk] != []
        assert sorted(k for _, chunk in chunks for k, _ in chunk) == \
            sorted(k for k, _ in missing)

        two = Session(cache=False, parallel=2)
        assert sorted(len(c) for _, c in two._warm_groups(missing)) == \
            [2, 2]


# ----------------------------------------------------------------------
# warm grouping keys
# ----------------------------------------------------------------------

class TestWarmGroupKey:
    def test_policy_variants_share(self):
        cfg = _config()
        a = warm_group_key(RunSpec("copy", cfg))
        b = warm_group_key(RunSpec("copy", cfg.with_writeback("bard-h")))
        assert a is not None and a == b

    def test_dram_variants_share(self):
        cfg = _config()
        a = warm_group_key(RunSpec("copy", cfg))
        b = warm_group_key(RunSpec("copy", cfg.with_device("x8")))
        c = warm_group_key(RunSpec("copy", cfg.with_wq(96)))
        assert a == b == c

    def test_sim_budget_variants_share(self):
        cfg = _config()
        a = warm_group_key(RunSpec("copy", cfg))
        b = warm_group_key(
            RunSpec("copy", replace(cfg, sim_instructions=SIM * 2)))
        assert a == b

    def test_detailed_and_zero_warmup_never_share(self):
        assert warm_group_key(RunSpec("copy", _config("detailed"))) is None
        assert warm_group_key(
            RunSpec("copy", _config(warmup_instructions=0))) is None

    def test_seed_workload_and_geometry_split_groups(self):
        cfg = _config()
        base = warm_group_key(RunSpec("copy", cfg))
        assert warm_group_key(RunSpec("copy", cfg, seed=8)) != base
        assert warm_group_key(RunSpec("add", cfg)) != base
        resized = replace(cfg, llc=replace(cfg.llc, ways=8))
        assert warm_group_key(RunSpec("copy", resized)) != base

    def test_signature_ignores_writeback_and_dram(self):
        cfg = _config()
        assert warm_config_signature(cfg) == \
            warm_config_signature(cfg.with_writeback("vwq"))
        assert warm_config_signature(cfg) == \
            warm_config_signature(cfg.with_device("x8"))
        assert warm_config_signature(cfg) != \
            warm_config_signature(replace(cfg, cores=4))
