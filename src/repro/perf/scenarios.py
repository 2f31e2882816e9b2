"""Performance scenarios: what the perf harness times, and how.

Four throughput scenarios cover the simulator's qualitatively different
hot paths:

``write_stream``
    ``copy`` on the 8-core system - a write-heavy streaming kernel that
    stresses the LLC writeback path, the write queue and drain episodes.
``graph_mix``
    ``bc`` on the 8-core system - irregular graph-analytics accesses with
    high MLP, stressing MSHR handling and the FR-FCFS read scheduler.
``multicore_ddr5``
    ``mix0`` on the 16-core, two-channel system - the scaling
    configuration, stressing the engine's event queue and both channels.
``mshr_pressure``
    ``bc`` again, but with the MSHR pipeline enabled and a tight MSHR
    file (``with_mshrs(2)``) - stressing admission control, the pending
    queue, and the core's issue-stall path.

Throughput is reported as **engine events per second of host wall time**.
The event count for a given (config, workload, seed) is deterministic
(the golden-stats test pins the run's statistics bit-for-bit), so
events/sec moves only when the host or the simulator implementation
changes - which is exactly what a perf trajectory should measure.

A fourth, differently shaped scenario tracks the warmup layer:

``paper_warmup``
    A warmup-dominated two-policy comparison grid, timed end-to-end
    twice - per-run detailed warmup vs functional warmup with shared
    warm-state checkpoints.  Events/sec is meaningless here (functional
    warmup fires no events by design), so the scenario reports wall
    seconds per strategy and their ratio, ``speedup_vs_detailed``.

A fifth tracks the sampled-simulation subsystem (``docs/sampling.md``):

``paper_sampling``
    A long-trace two-policy grid timed end-to-end twice - the status-quo
    pipeline (detailed warmup, full detailed measurement) vs the sampled
    pipeline (shared functional warmup, interval sampling fast-forwarded
    by the functional engine).  Reports ``speedup_vs_full`` plus the
    sampled estimates' relative error on mean IPC and write BLP against
    the full runs, both grid-averaged (the paper's headline numbers are
    workload averages) and per-point worst case.  The simulation is
    deterministic, so the error figures are host-independent constants -
    exactly what a fidelity gate wants.

A sixth tracks adaptive grid orchestration (``docs/adaptive.md``):

``adaptive_grid``
    A decisive two-policy grid run twice - exhaustively at full detail,
    and through ``Session.run_adaptive`` deciding on write BLP.  Reports
    wall seconds per leg, the instruction-budget ratio
    (``instruction_savings_x`` = exhaustive detailed instructions over
    what the orchestrator actually spent), and whether both legs crowned
    the same winners.  The planner is deterministic, so the savings
    ratio and winner agreement are host-independent constants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.analysis.metrics import amean, gmean
from repro.config.presets import small_8core, small_16core
from repro.config.system import SystemConfig
from repro.sampling import SamplingConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiment.session import Session

#: Schema identifier stamped into every BENCH_simcore.json.
BENCH_SCHEMA = "repro-bench-simcore/1"

#: Instruction budgets for the tiny golden-stats runs (fast enough for
#: the tier-1 suite while still exercising warmup-boundary behaviour).
GOLDEN_WARMUP_INSTRUCTIONS = 1_000
GOLDEN_SIM_INSTRUCTIONS = 3_000

#: Instruction budgets for timed runs: (warmup, sim) per mode.
_FULL_BUDGET = (8_000, 24_000)
_QUICK_BUDGET = (2_000, 6_000)

#: Budgets for the warmup-dominated scenario: warmup 10x the measured
#: window, the paper-scale proportion (25M warmup / 100M x 4 policies).
_WARM_FULL_BUDGET = (60_000, 6_000)
_WARM_QUICK_BUDGET = (12_000, 2_000)


@dataclass(frozen=True)
class PerfScenario:
    """One named perf scenario: a workload on a preset configuration."""

    name: str
    workload: str
    preset: str  # "small_8core" | "small_16core"
    description: str
    #: When set, enables the MSHR pipeline with this L1D MSHR count
    #: (scaled through the hierarchy by ``SystemConfig.with_mshrs``).
    mshrs: Optional[int] = None

    def config(self, warmup: int, sim: int) -> SystemConfig:
        """The scenario's system config with the given instruction budget."""
        base = small_16core() if self.preset == "small_16core" \
            else small_8core()
        if self.mshrs is not None:
            base = base.with_mshrs(self.mshrs)
        return replace(base, warmup_instructions=warmup,
                       sim_instructions=sim)


SCENARIOS: List[PerfScenario] = [
    PerfScenario(
        name="write_stream",
        workload="copy",
        preset="small_8core",
        description="write-heavy streaming kernel (LLC writeback / "
                    "WRQ drain path)",
    ),
    PerfScenario(
        name="graph_mix",
        workload="bc",
        preset="small_8core",
        description="irregular graph-analytics mix (MSHR / FR-FCFS "
                    "read path)",
    ),
    PerfScenario(
        name="multicore_ddr5",
        workload="mix0",
        preset="small_16core",
        description="16-core two-channel DDR5 mix (event-queue scaling)",
    ),
    PerfScenario(
        name="mshr_pressure",
        workload="bc",
        preset="small_8core",
        description="graph mix under a tight MSHR file (pipeline "
                    "admission / core-stall path)",
        mshrs=2,
    ),
]


@dataclass(frozen=True)
class WarmupScenario:
    """The warmup-layer scenario: a policy grid timed per warmup strategy."""

    name: str
    workload: str
    preset: str
    policies: Tuple[str, ...]
    description: str


WARMUP_SCENARIO = WarmupScenario(
    name="paper_warmup",
    workload="lbm",
    preset="small_8core",
    policies=("baseline", "bard-h"),
    description="warmup-dominated two-policy grid: functional warmup "
                "with shared warm-state checkpoints vs per-run detailed "
                "warmup",
)


def warmup_scenario_config(quick: bool = False) -> SystemConfig:
    """Warmup-dominated system config (mode set per measurement leg)."""
    warmup, sim = _WARM_QUICK_BUDGET if quick else _WARM_FULL_BUDGET
    return replace(small_8core(), warmup_instructions=warmup,
                   sim_instructions=sim)


@dataclass(frozen=True)
class SamplingScenario:
    """The sampling scenario: a long-trace grid, sampled vs full."""

    name: str
    workloads: Tuple[str, ...]
    preset: str
    policies: Tuple[str, ...]
    description: str


SAMPLING_SCENARIO = SamplingScenario(
    name="paper_sampling",
    workloads=("bc", "whiskey"),
    preset="small_8core",
    policies=("baseline", "bard-h"),
    description="long-trace two-policy grid: interval sampling "
                "fast-forwarded by the functional engine vs full "
                "detailed measurement with detailed warmup",
)

#: (warmup, sim) budgets and sampling plan per mode.  The workloads are
#: the two paper kernels whose sampled estimates are most faithful
#: (write-streaming kernels like copy/lbm need denser warming; see
#: docs/sampling.md for the error-vs-speedup table).
_SAMPLING_FULL = (60_000, 150_000, SamplingConfig(
    intervals=12, interval_instructions=1_000,
    warm_instructions=1_000, detailed_warm_instructions=1_000))
_SAMPLING_QUICK = (15_000, 30_000, SamplingConfig(
    intervals=6, interval_instructions=600,
    warm_instructions=1_000, detailed_warm_instructions=1_200))


def sampling_scenario_configs(
        quick: bool = False) -> Tuple[SystemConfig, SystemConfig]:
    """``(full, sampled)`` configs for the sampling scenario.

    The full leg is the out-of-the-box pipeline (detailed warmup, whole
    epoch measured in detail); the sampled leg is the sampled-simulation
    subsystem end to end (functional warmup shared via checkpoints,
    interval sampling fast-forwarded by the functional engine).
    """
    warmup, sim, sampling = _SAMPLING_QUICK if quick else _SAMPLING_FULL
    base = replace(small_8core(), warmup_instructions=warmup,
                   sim_instructions=sim)
    sampled = base.with_warmup_mode("functional").with_sampling(sampling)
    return base, sampled


@dataclass(frozen=True)
class AdaptiveScenario:
    """The adaptive-orchestration scenario: exhaustive vs adaptive grid."""

    name: str
    workloads: Tuple[str, ...]
    preset: str
    policies: Tuple[str, ...]
    metric: str
    description: str


ADAPTIVE_SCENARIO = AdaptiveScenario(
    name="adaptive_grid",
    workloads=("copy", "lbm"),
    preset="small_8core",
    policies=("baseline", "bard-h"),
    metric="write_blp",
    description="two-policy grid decided on write BLP: exhaustive "
                "full-detail runs vs adaptive orchestration (sampled "
                "survey + CI-driven refinement, dominated cells pruned)",
)

#: (warmup, sim, survey sampling plan) per mode.  write BLP separates
#: the policies by 20-44% on these kernels, so the orchestrator should
#: retire cells in a round or two; the epoch dwarfs the intervals,
#: which is the regime where sampling actually saves budget.
_ADAPTIVE_FULL = (20_000, 200_000, SamplingConfig(
    intervals=4, interval_instructions=1_000,
    warm_instructions=1_000, detailed_warm_instructions=1_000,
    max_intervals=64))
_ADAPTIVE_QUICK = (5_000, 50_000, SamplingConfig(
    intervals=4, interval_instructions=500,
    warm_instructions=300, detailed_warm_instructions=200,
    max_intervals=64))


def adaptive_scenario_configs(
        quick: bool = False) -> Tuple[SystemConfig, SystemConfig]:
    """``(exhaustive, surveyed)`` configs for the adaptive scenario."""
    warmup, sim, sampling = _ADAPTIVE_QUICK if quick else _ADAPTIVE_FULL
    base = replace(small_8core(), warmup_instructions=warmup,
                   sim_instructions=sim).with_warmup_mode("functional")
    return base, base.with_sampling(sampling)


def scenario_config(scenario: PerfScenario, quick: bool = False,
                    golden: bool = False) -> SystemConfig:
    """Resolve a scenario to a concrete :class:`SystemConfig`.

    ``golden`` selects the tiny budget the golden-stats test pins;
    ``quick`` the CI smoke budget; otherwise the full perf budget.
    """
    if golden:
        return scenario.config(GOLDEN_WARMUP_INSTRUCTIONS,
                               GOLDEN_SIM_INSTRUCTIONS)
    warmup, sim = _QUICK_BUDGET if quick else _FULL_BUDGET
    return scenario.config(warmup, sim)


def measure_scenario(scenario: PerfScenario, quick: bool = False,
                     repeats: int = 2, seed: int = 7) -> Dict[str, object]:
    """Time one scenario; returns its BENCH_simcore.json entry.

    Each repeat simulates from scratch through a fresh, cache-disabled
    :class:`~repro.experiment.Session` (a cached run would time JSON
    deserialisation, not the simulator).  The best repeat is reported,
    which is standard practice for throughput benchmarks: the minimum
    wall time is the least contaminated by host noise.
    """
    from repro.experiment.session import Session

    config = scenario_config(scenario, quick=quick)
    best_seconds: Optional[float] = None
    events = 0
    for _ in range(max(1, repeats)):
        session = Session(cache=False)
        start = time.perf_counter()
        result = session.run_one(config, scenario.workload, seed=seed)
        seconds = time.perf_counter() - start
        events = result.events
        if best_seconds is None or seconds < best_seconds:
            best_seconds = seconds
    # Warmup and measurement both run through the timing model here.
    kinst = config.cores * (config.warmup_instructions
                            + config.sim_instructions) / 1000.0
    return {
        "name": scenario.name,
        "workload": scenario.workload,
        "preset": scenario.preset,
        "description": scenario.description,
        "warmup_instructions": config.warmup_instructions,
        "sim_instructions": config.sim_instructions,
        "seed": seed,
        "events": events,
        "best_seconds": round(best_seconds, 4),
        "events_per_sec": round(events / best_seconds, 1),
        "kinst_per_sec": round(kinst / best_seconds, 2),
    }


def measure_warmup_scenario(quick: bool = False, repeats: int = 2,
                            seed: int = 7) -> Dict[str, object]:
    """Time the warmup-dominated grid under both warmup strategies.

    Runs the :data:`WARMUP_SCENARIO` policy grid end-to-end through a
    fresh cache-disabled :class:`~repro.experiment.Session` twice per
    repeat: once with per-run detailed warmup (the historical baseline
    strategy) and once with functional warmup plus warm-state checkpoint
    sharing.  The best wall time per strategy is kept and their ratio
    reported as ``speedup_vs_detailed`` - the end-to-end win of the
    warmup layer on grid-shaped studies.
    """
    from repro.experiment import ExperimentSpec, Session

    scenario = WARMUP_SCENARIO
    config = warmup_scenario_config(quick)

    def grid(mode: str) -> "ExperimentSpec":
        return ExperimentSpec(
            workloads=scenario.workload,
            configs=replace(config, warmup_mode=mode),
            policies=list(scenario.policies),
            seeds=seed,
            name=f"{scenario.name}:{mode}",
        )

    best: Dict[str, float] = {}
    session_stats: Dict[str, object] = {}
    for mode, checkpoints in (("detailed", False), ("functional", True)):
        for _ in range(max(1, repeats)):
            session = Session(cache=False, checkpoints=checkpoints)
            start = time.perf_counter()
            session.run(grid(mode))
            seconds = time.perf_counter() - start
            if mode not in best or seconds < best[mode]:
                best[mode] = seconds
                session_stats[mode] = session.stats
    functional = session_stats["functional"]
    return {
        "name": scenario.name,
        "workload": scenario.workload,
        "preset": scenario.preset,
        "description": scenario.description,
        "policies": list(scenario.policies),
        "warmup_instructions": config.warmup_instructions,
        "sim_instructions": config.sim_instructions,
        "seed": seed,
        "detailed_seconds": round(best["detailed"], 4),
        "functional_seconds": round(best["functional"], 4),
        "speedup_vs_detailed": round(
            best["detailed"] / best["functional"], 3),
        "warmups_executed": functional.warmups_executed,
        "checkpoint_restores": functional.checkpoint_restores,
    }


def measure_sampling_scenario(quick: bool = False, repeats: int = 1,
                              seed: int = 7) -> Dict[str, object]:
    """Time the long-trace grid fully and sampled; report speedup + error.

    Each leg runs through a fresh cache-disabled
    :class:`~repro.experiment.Session` (checkpoint sharing on - it is
    part of the subsystem under test); the best wall time per leg is
    kept.  Relative errors of the sampled estimates against the full
    runs are computed for mean IPC and write BLP, grid-averaged
    (``*_grid_error_pct``, the paper's headline-number view) and
    worst-point (``*_max_error_pct``).  Both are deterministic in
    (config, workload, seed): they do not vary with the host or the
    repeat count.
    """
    from repro.experiment import ExperimentSpec, Session

    scenario = SAMPLING_SCENARIO
    full_cfg, sampled_cfg = sampling_scenario_configs(quick)

    def grid(config: SystemConfig) -> "ExperimentSpec":
        return ExperimentSpec(
            workloads=scenario.workloads,
            configs=config,
            policies=list(scenario.policies),
            seeds=seed,
            name=f"{scenario.name}:"
                 f"{'sampled' if config.sampling else 'full'}",
        )

    best: Dict[str, float] = {}
    results: Dict[str, object] = {}
    for leg, config in (("full", full_cfg), ("sampled", sampled_cfg)):
        for _ in range(max(1, repeats)):
            session = Session(cache=False)
            start = time.perf_counter()
            rs = session.run(grid(config))
            seconds = time.perf_counter() - start
            if leg not in best or seconds < best[leg]:
                best[leg] = seconds
            results[leg] = rs

    errors: Dict[str, float] = {}
    for metric in ("mean_ipc", "write_blp"):
        full_values: List[float] = []
        sampled_values: List[float] = []
        point_errors: List[float] = []
        for obs in results["full"]:
            full = obs.value(metric)
            sampled = results["sampled"].filter(
                workload=obs.coords["workload"],
                policy=obs.coords["policy"]).only().value(metric)
            full_values.append(full)
            sampled_values.append(sampled)
            point_errors.append(100.0 * abs(sampled - full) / full)
        key = "ipc" if metric == "mean_ipc" else metric
        errors[f"{key}_grid_error_pct"] = round(
            100.0 * abs(amean(sampled_values) - amean(full_values))
            / amean(full_values), 3)
        errors[f"{key}_max_error_pct"] = round(max(point_errors), 3)

    sampling = sampled_cfg.sampling
    return {
        "name": scenario.name,
        "workloads": list(scenario.workloads),
        "preset": scenario.preset,
        "policies": list(scenario.policies),
        "description": scenario.description,
        "warmup_instructions": full_cfg.warmup_instructions,
        "sim_instructions": full_cfg.sim_instructions,
        "seed": seed,
        "intervals": sampling.intervals,
        "interval_instructions": sampling.interval_instructions,
        "warm_instructions": sampling.warm_instructions,
        "detailed_warm_instructions": sampling.detailed_warm_instructions,
        "full_seconds": round(best["full"], 4),
        "sampled_seconds": round(best["sampled"], 4),
        "speedup_vs_full": round(best["full"] / best["sampled"], 3),
        **errors,
    }


def measure_adaptive_scenario(quick: bool = False, repeats: int = 1,
                              seed: int = 7) -> Dict[str, object]:
    """Run the decisive grid exhaustively and adaptively; compare.

    Each leg runs through a fresh cache-disabled
    :class:`~repro.experiment.Session`; the best wall time per leg is
    kept.  Beyond the wall-clock ratio (``speedup_vs_exhaustive``,
    host-noisy like every timing), the entry reports the
    host-independent fidelity facts the adaptive-orchestration gate
    cares about: ``instruction_savings_x`` (detailed instructions the
    exhaustive grid simulated over what the orchestrator spent) and
    ``winners_match`` (both legs crowned the same per-workload winner
    on the decision metric).
    """
    from repro.adaptive import AdaptivePolicy
    from repro.experiment import ExperimentSpec, Session

    scenario = ADAPTIVE_SCENARIO
    exhaustive_cfg, surveyed_cfg = adaptive_scenario_configs(quick)
    policy = AdaptivePolicy(metric=scenario.metric,
                            target_relative_error=0.02,
                            start_intervals=surveyed_cfg.sampling.intervals,
                            max_rounds=3)

    def grid(config: SystemConfig, leg: str) -> "ExperimentSpec":
        return ExperimentSpec(
            workloads=scenario.workloads,
            configs=config,
            policies=list(scenario.policies),
            seeds=seed,
            name=f"{scenario.name}:{leg}",
        )

    best: Dict[str, float] = {}
    results: Dict[str, object] = {}
    for _ in range(max(1, repeats)):
        for leg in ("exhaustive", "adaptive"):
            session = Session(cache=False)
            start = time.perf_counter()
            if leg == "exhaustive":
                rs = session.run(grid(exhaustive_cfg, leg))
            else:
                rs = session.run_adaptive(grid(surveyed_cfg, leg), policy)
            seconds = time.perf_counter() - start
            if leg not in best or seconds < best[leg]:
                best[leg] = seconds
            results[leg] = rs

    report = results["adaptive"].adaptive
    exhaustive_cost = sum(r.instructions
                          for r in results["exhaustive"].results())
    winners_match = True
    for workload, sub in results["exhaustive"].group_by(
            "workload").items():
        exhaustive_best = max(
            sub, key=lambda obs: obs.value(scenario.metric))
        group = f"config=default,seed={seed},workload={workload}"
        if report.winners.get(group) != \
                exhaustive_best.coords[policy.compare_axis]:
            winners_match = False

    return {
        "name": scenario.name,
        "workloads": list(scenario.workloads),
        "preset": scenario.preset,
        "policies": list(scenario.policies),
        "metric": scenario.metric,
        "description": scenario.description,
        "warmup_instructions": exhaustive_cfg.warmup_instructions,
        "sim_instructions": exhaustive_cfg.sim_instructions,
        "seed": seed,
        "target_relative_error": policy.target_relative_error,
        "exhaustive_seconds": round(best["exhaustive"], 4),
        "adaptive_seconds": round(best["adaptive"], 4),
        "speedup_vs_exhaustive": round(
            best["exhaustive"] / best["adaptive"], 3),
        "instructions_exhaustive": exhaustive_cost,
        "instructions_spent": report.instructions_spent,
        "instruction_savings_x": round(
            exhaustive_cost / report.instructions_spent, 3),
        "rounds": report.rounds,
        "escalations": report.escalations,
        "pruned": report.pruned,
        "winners_match": winners_match,
    }


def measure_telemetry_overhead(quick: bool = False, repeats: int = 5,
                               seed: int = 7) -> Dict[str, object]:
    """Time ``write_stream`` with telemetry disabled vs enabled.

    The telemetry layer promises a near-zero disabled hot path (module
    singletons, no allocation) and low single-digit-percent cost when
    spans and per-run metrics are on.  The overhead is a small
    difference between two noisy measurements, so this leg is measured
    differently from the throughput scenarios: per-process **CPU time**
    (``time.process_time``, immune to scheduler interference on shared
    hosts), one untimed priming run, then ``repeats`` back-to-back
    disabled/enabled *pairs* whose per-pair ratios are summarised by
    their **median** - pairing cancels slow host drift and the median
    rejects the odd interrupted run.  Reports ``overhead_pct`` plus the
    enabled leg's ``phase_breakdown``, so BENCH_simcore.json tracks
    where run time goes phase by phase alongside what the measuring
    itself costs.
    """
    from repro import telemetry
    from repro.experiment.session import Session

    scenario = SCENARIOS[0]  # write_stream: the busiest writeback path
    config = scenario_config(scenario, quick=quick)
    was_enabled = telemetry.enabled()
    best: Dict[str, float] = {}
    ratios: List[float] = []
    phases: Dict[str, float] = {}

    def timed_run() -> Tuple[float, object]:
        telemetry.get_tracer().reset()
        session = Session(cache=False)
        start = time.process_time()
        result = session.run_one(config, scenario.workload, seed=seed)
        return time.process_time() - start, result

    try:
        telemetry.disable()
        Session(cache=False).run_one(config, scenario.workload,
                                     seed=seed)  # untimed priming run
        for _ in range(max(1, repeats)):
            telemetry.disable()
            disabled_seconds, _ = timed_run()
            telemetry.enable()
            enabled_seconds, result = timed_run()
            ratios.append(enabled_seconds / disabled_seconds - 1.0)
            for leg, seconds in (("disabled", disabled_seconds),
                                 ("enabled", enabled_seconds)):
                if leg not in best or seconds < best[leg]:
                    best[leg] = seconds
                    if leg == "enabled":
                        phases = dict(result.phase_breakdown or {})
    finally:
        telemetry.get_tracer().reset()
        if was_enabled:
            telemetry.enable()
        else:
            telemetry.disable()
    ratios.sort()
    median = ratios[len(ratios) // 2] if len(ratios) % 2 else \
        (ratios[len(ratios) // 2 - 1] + ratios[len(ratios) // 2]) / 2.0
    return {
        "name": "telemetry_overhead",
        "scenario": scenario.name,
        "workload": scenario.workload,
        "preset": scenario.preset,
        "warmup_instructions": config.warmup_instructions,
        "sim_instructions": config.sim_instructions,
        "seed": seed,
        "repeats": max(1, repeats),
        "disabled_seconds": round(best["disabled"], 4),
        "enabled_seconds": round(best["enabled"], 4),
        "overhead_pct": round(100.0 * median, 3),
        "phase_breakdown": {phase: round(seconds, 6)
                            for phase, seconds
                            in sorted(phases.items())},
    }


def bench_report(entries: List[Dict[str, object]], mode: str,
                 repeats: int,
                 baseline: Optional[Dict[str, object]] = None,
                 warmup: Optional[Dict[str, object]] = None,
                 sampling: Optional[Dict[str, object]] = None,
                 telemetry: Optional[Dict[str, object]] = None,
                 adaptive: Optional[Dict[str, object]] = None,
                 ) -> Dict[str, object]:
    """Assemble the BENCH_simcore.json payload.

    ``baseline`` is the parsed ``benchmarks/perf/baseline_seed.json``
    (the pre-overhaul engine measured on the reference host); when given,
    the report carries the geomean speedup against it, and every scenario
    entry with a per-scenario baseline gains its own
    ``speedup_vs_baseline``.  Cross-host comparisons are indicative only -
    the trajectory is meaningful when baseline and measurement ran on the
    same machine.  ``warmup`` is the entry from
    :func:`measure_warmup_scenario`; it is reported under
    ``warmup_scenario`` (its metric is wall seconds, not events/sec, so
    it stays out of the throughput geomean).  ``sampling`` is the entry
    from :func:`measure_sampling_scenario`, reported under
    ``sampling_scenario`` for the same reason.  ``telemetry`` is the
    entry from :func:`measure_telemetry_overhead`, reported under
    ``telemetry_overhead`` (a cost/phase profile, not a throughput).
    ``adaptive`` is the entry from :func:`measure_adaptive_scenario`,
    reported under ``adaptive_scenario`` (its headline figures are
    instruction-budget savings and winner agreement, not events/sec).
    """
    base_scenarios: Dict[str, Dict[str, object]] = \
        dict(baseline.get("scenarios", {})) if baseline else {}
    for entry in entries:
        base_entry = base_scenarios.get(str(entry["name"]))
        if base_entry and base_entry.get("events_per_sec"):
            entry["speedup_vs_baseline"] = round(
                float(entry["events_per_sec"])
                / float(base_entry["events_per_sec"]), 3)
    gm = round(gmean(e["events_per_sec"] for e in entries), 1)
    report: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "created_unix": int(time.time()),
        "mode": mode,
        "repeats": repeats,
        "scenarios": entries,
        "geomean_events_per_sec": gm,
    }
    if baseline is not None:
        base_gm = float(baseline["geomean_events_per_sec"])
        report["baseline"] = {
            "source": baseline.get("source", "benchmarks/perf/"
                                             "baseline_seed.json"),
            "geomean_events_per_sec": base_gm,
            "speedup_vs_baseline": round(gm / base_gm, 3) if base_gm else None,
        }
    if warmup is not None:
        report["warmup_scenario"] = warmup
    if sampling is not None:
        report["sampling_scenario"] = sampling
    if telemetry is not None:
        report["telemetry_overhead"] = telemetry
    if adaptive is not None:
        report["adaptive_scenario"] = adaptive
    return report
