"""The benchmark's named workloads: what each one simulates and checks.

Every workload is one closed-loop job driven by a single client from a
single process: a serial :class:`repro.Session` (``parallel=1``) for the
three grid workloads, one HTTP client against an in-process experiment
service with inline workers for ``service_grid``.  The client submits the
whole job, waits for it, and only then does the benchmark look at the
results, so a slower simulator simply finishes later.

A workload is described by a :class:`Workload` record: its simulated
kernels, the policies it compares, and the :class:`~repro.SystemConfig`
per budget scale.  ``bench`` is the scale the benchmark measures;
``tiny`` is the self-test scale (same shape, a fraction of the work).
The workload seed comes from the command line and is the only input that
changes between runs; the program receives only the configs and seeds
generated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

#: Paper Fig. 10-top gmean speedups and Fig. 10-bottom BARD-H decision
#: shares, for the reference ledger (never gated on).
PAPER_FIG10_GMEAN_PCT = {"bard-e": 4.1, "bard-c": 3.3, "bard-h": 4.3}
PAPER_FIG10_OVERRIDE_PCT = 4.8
PAPER_FIG10_CLEANSE_PCT = 30.5

#: Banks per DDR5 sub-channel: the upper bound of write BLP.
BANKS_PER_SUBCHANNEL = 32


@dataclass(frozen=True)
class Budget:
    """Instruction budget of one run, per core."""

    warmup: int
    sim: int
    #: ``(intervals, interval, warm, detailed_warm)`` for sampled runs.
    sampling: Optional[Tuple[int, int, int, int]] = None


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    kernels: Tuple[str, ...]
    policies: Tuple[str, ...]
    #: MSHR-pipeline L1D MSHR count (``with_mshrs``); None = legacy regime.
    mshrs: Optional[int]
    warmup_mode: str
    budgets: Dict[str, Budget]
    #: Seeds per kernel (service_grid submits several per kernel).
    seeds_per_kernel: int = 1
    #: Run through the HTTP service instead of a Session.
    service: bool = False
    #: Expected Session warmups / checkpoint restores (None = unchecked).
    warmups: Optional[int] = None
    restores: Optional[int] = None

    def config(self, scale: str):
        """The workload's base :class:`~repro.SystemConfig` at ``scale``."""
        from repro import SamplingConfig, small_8core

        budget = self.budgets[scale]
        config = replace(small_8core(), warmup_instructions=budget.warmup,
                         sim_instructions=budget.sim,
                         warmup_mode=self.warmup_mode)
        if self.mshrs is not None:
            config = config.with_mshrs(self.mshrs)
        if budget.sampling is not None:
            intervals, interval, warm, detailed = budget.sampling
            config = config.with_sampling(SamplingConfig(
                intervals=intervals, interval_instructions=interval,
                warm_instructions=warm,
                detailed_warm_instructions=detailed))
        return config

    def seeds(self, seed: int) -> List[int]:
        """Simulation seeds the workload runs for benchmark seed ``seed``."""
        return [seed + i for i in range(self.seeds_per_kernel)]

    def spec(self, seed: int, scale: str):
        """The :class:`~repro.ExperimentSpec` the client submits."""
        from repro import ExperimentSpec

        return ExperimentSpec(workloads=list(self.kernels),
                              configs=self.config(scale),
                              policies=list(self.policies),
                              seeds=self.seeds(seed),
                              name=f"perfbench-{self.name}")

    @property
    def runs(self) -> int:
        """Simulations one job runs."""
        return len(self.kernels) * len(self.policies) * self.seeds_per_kernel

    def epoch_kinst(self, scale: str) -> float:
        """Requested instructions of the whole job, in thousands.

        Warmup plus measured epoch, every core, every run; fast-forwarded
        and functionally warmed instructions count.
        """
        config = self.config(scale)
        per_core = config.warmup_instructions + config.sim_instructions
        return self.runs * config.cores * per_core / 1000.0

    def retired_per_core(self, scale: str) -> int:
        """Instructions every core must retire in the measured epoch."""
        budget = self.budgets[scale]
        if budget.sampling is not None:
            intervals, interval, _, _ = budget.sampling
            return intervals * interval
        return budget.sim


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# Every run of every job must drain the write queue at least once (write
# BLP is checked on every run), which is what sets the smallest budgets.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in [
    Workload(
        name="write_drain",
        kernels=("lbm",),
        policies=("baseline", "bard-h"),
        mshrs=None,
        warmup_mode="detailed",
        budgets={"bench": Budget(2_500, 7_500),
                 "tiny": Budget(2_000, 5_000)},
    ),
    Workload(
        name="read_mshr",
        kernels=("bellmanford",),
        policies=("baseline", "bard-h"),
        mshrs=2,
        warmup_mode="functional",
        budgets={"bench": Budget(6_000, 1_500),
                 "tiny": Budget(4_000, 1_000)},
        warmups=1, restores=1,
    ),
    Workload(
        name="fig10_slice",
        kernels=("whiskey", "cf"),
        policies=("baseline", "bard-e", "bard-c", "bard-h"),
        mshrs=None,
        warmup_mode="functional",
        budgets={"bench": Budget(5_000, 4_200, (6, 200, 200, 50)),
                 "tiny": Budget(4_000, 2_400, (3, 200, 300, 100))},
        warmups=2, restores=6,
    ),
    Workload(
        name="service_grid",
        kernels=("cf", "whiskey", "bc", "mis"),
        policies=("baseline", "bard-h"),
        mshrs=None,
        warmup_mode="functional",
        budgets={"bench": Budget(3_000, 500), "tiny": Budget(3_000, 400)},
        seeds_per_kernel=2,
        service=True,
    ),
]}


# ----------------------------------------------------------------------
# Summaries of finished runs
# ----------------------------------------------------------------------

def run_summary(workload: str, policy: str, seed: int, result) -> dict:
    """The simulated facts of one :class:`~repro.RunResult` the benchmark
    keeps: everything the checks, metrics and ledger read."""
    from repro.clock import NS_PER_TICK
    from repro.workloads.suites import WORKLOADS as KERNELS

    wb = result.wb_stats
    accuracy = result.bard_accuracy
    return {
        "workload": workload,
        "policy": policy,
        "seed": seed,
        "instructions": result.instructions,
        "cores": result.cores,
        "ipc": list(result.ipc),
        "events": result.events,
        "write_blp": result.write_blp,
        "drain_episodes": len(result.dram.episodes),
        "time_writing_pct": result.time_writing_pct,
        "mean_w2w_ns": result.mean_w2w_ns,
        "llc_demand_misses": result.llc.demand_misses,
        "llc_writebacks": result.llc.writebacks,
        "mshr_occupancy_hist": list(result.llc.mshr_occupancy_hist),
        "secondary_misses": result.secondary_misses,
        "mshr_stall_cycles": result.mshr_stall_cycles,
        "read_latency_ns": NS_PER_TICK * sum(c.read_latency_ticks
                                             for c in result.channels),
        "reads_completed": sum(c.reads_completed for c in result.channels),
        "forwarded_reads": sum(c.forwarded_reads for c in result.channels),
        "staged_writes": sum(c.staged_writes for c in result.channels),
        "victim_selections": wb.victim_selections if wb else 0,
        "overrides": wb.overrides if wb else 0,
        "cleanses": wb.cleanses if wb else 0,
        "tracker_checked": accuracy.checked if accuracy else 0,
        "tracker_incorrect": accuracy.incorrect if accuracy else 0,
        "intervals": (result.sampling.intervals
                      if result.sampling is not None else 0),
        "paper_wblp": KERNELS[workload].paper.wblp,
    }


def weighted_speedup(run: dict, base: dict) -> float:
    """The paper's weighted speedup of ``run`` over ``base`` (same kernel)."""
    ratios = [mine / ref if ref > 0 else 1.0
              for mine, ref in zip(run["ipc"], base["ipc"])]
    return sum(ratios) / len(ratios)


def policy_speedups(runs: Sequence[dict], policy: str) -> List[float]:
    """Weighted speedup of ``policy`` over baseline per (kernel, seed)."""
    base = {(r["workload"], r["seed"]): r for r in runs
            if r["policy"] == "baseline"}
    return [weighted_speedup(r, base[(r["workload"], r["seed"])])
            for r in runs if r["policy"] == policy
            and (r["workload"], r["seed"]) in base]


def gmean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

def check_runs(workload: Workload, scale: str,
               runs: Sequence[dict]) -> List[Tuple[str, bool, str]]:
    """Per-run output checks: ``(name, passed, detail)`` triples.

    Every run retires exactly its requested instructions on every core,
    reports finite positive IPC on every core, keeps write BLP within
    [1, banks per sub-channel], and a sampled run carries the requested
    interval count.  The grid must also hold every planned run.
    """
    checks: List[Tuple[str, bool, str]] = []
    checks.append(("grid_complete", len(runs) == workload.runs,
                   f"{len(runs)}/{workload.runs} runs"))
    per_core = workload.retired_per_core(scale)
    sampling = workload.budgets[scale].sampling
    for run in runs:
        tag = f"{run['workload']}/{run['policy']}/s{run['seed']}"
        want = per_core * run["cores"]
        checks.append((f"retired[{tag}]", run["instructions"] == want,
                       f"{run['instructions']} of {want}"))
        ok = all(math.isfinite(v) and v > 0 for v in run["ipc"])
        checks.append((f"ipc[{tag}]", ok, f"{min(run['ipc']):.5f} min"))
        blp = run["write_blp"]
        checks.append((f"write_blp[{tag}]",
                       1.0 <= blp <= BANKS_PER_SUBCHANNEL,
                       f"{blp:.3f} over {run['drain_episodes']} drains"))
        if sampling is not None:
            checks.append((f"intervals[{tag}]",
                           run["intervals"] == sampling[0],
                           f"{run['intervals']} of {sampling[0]}"))
    return checks
