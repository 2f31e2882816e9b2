"""BARD reproduction: bank-aware replacement decisions for DDR5 writes.

Reproduction of Vittal & Qureshi, "BARD: Reducing Write Latency of DDR5
Memory by Exploiting Bank-Parallelism" (HPCA 2026), including the full
simulation substrate: a trace-driven multi-core model, a three-level cache
hierarchy with pluggable replacement/writeback policies, and a cycle-level
DDR5 memory system.

Quickstart - declare an experiment grid, run it (deduplicated, cached,
optionally parallel), and query the results::

    from repro import ExperimentSpec, Session, small_8core

    spec = ExperimentSpec(workloads=["lbm", "copy"],
                          configs=small_8core(),
                          policies=["baseline", "bard-h"])
    rs = Session(parallel=4).run(spec)
    bard = rs.speedup_vs("policy").filter(policy="bard-h")
    print(f"BARD-H gmean speedup: {bard.gmean_speedup_pct():+.2f}%")

Single runs stay one call: ``Session().run_one(small_8core(), "lbm")``.
"""

from repro.adaptive import AdaptivePolicy, AdaptiveReport
from repro.config import (
    CacheConfig,
    DramConfig,
    SystemConfig,
    paper_8core,
    paper_16core,
    small_8core,
    small_16core,
)
from repro.core import BLPTracker, BardPolicy, make_bard
from repro.experiment import (
    Axis,
    ExperimentSpec,
    Observation,
    ResultCache,
    ResultSet,
    RunPlan,
    RunSpec,
    Session,
    make_axis,
)
from repro.sampling import MetricEstimate, SamplingConfig, SamplingSummary
from repro.sim import RunResult, System
from repro.workloads import (
    ALL_WORKLOADS,
    MIXES,
    QUICK_WORKLOADS,
    WORKLOADS,
    trace_factory,
    workload_names,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_WORKLOADS",
    "AdaptivePolicy",
    "AdaptiveReport",
    "Axis",
    "BLPTracker",
    "BardPolicy",
    "CacheConfig",
    "DramConfig",
    "ExperimentSpec",
    "MIXES",
    "Observation",
    "ResultCache",
    "ResultSet",
    "RunPlan",
    "RunSpec",
    "MetricEstimate",
    "Session",
    "SamplingConfig",
    "SamplingSummary",
    "QUICK_WORKLOADS",
    "RunResult",
    "System",
    "SystemConfig",
    "WORKLOADS",
    "__version__",
    "make_axis",
    "make_bard",
    "paper_8core",
    "paper_16core",
    "small_8core",
    "small_16core",
    "trace_factory",
    "workload_names",
]
