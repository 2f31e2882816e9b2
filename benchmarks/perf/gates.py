#!/usr/bin/env python
"""Same-process gates for the warmup, sampling, telemetry and adaptive layers.

Each gate runs the two legs of one study in this process and returns
the quantities that :data:`GATES` bounds.  Every leg runs through a
fresh cache-disabled :class:`~repro.experiment.Session`, which is
serial (``parallel=1``), so timed legs are measured in CPU time
(``time.process_time``), which ignores scheduler interference on
shared hosts; a ratio of two legs cancels the host's speed as long as
it holds steady.  Errors, savings, winners, rounds and warmup counters
are deterministic in the simulation.

Simulator throughput is not gated here; ``perfbench/`` measures it per
workload (``sim_kips``), and ``perfbench/compare.py`` compares two
commits on one host.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/perf/gates.py          # full budgets
    PYTHONPATH=src python benchmarks/perf/gates.py --quick --json gates.json

Exits 1 if any bound fails.
"""

from __future__ import annotations

import argparse
import json
import operator
import statistics
import sys
import time
from dataclasses import replace

from repro import telemetry as tele
from repro.adaptive import AdaptivePolicy
from repro.analysis.metrics import amean
from repro.config.presets import small_8core
from repro.experiment import ExperimentSpec, Session
from repro.sampling import SamplingConfig

SEED = 7
POLICIES = ("baseline", "bard-h")

#: gate -> [(quantity, op, quick bound, full bound)].  The quick bounds
#: are breakage detectors for CI; the full bounds are the layers' claims.
GATES = {
    "warmup": [("speedup", ">=", 1.2, 3.0),
               ("warmups_executed", "==", 1, 1),
               ("checkpoint_restores", "==", 1, 1)],
    "sampling": [("speedup", ">=", 3.0, 5.0),
                 ("ipc_error_pct", "<=", 5.0, 2.0),
                 ("write_blp_error_pct", "<=", 5.0, 2.0)],
    "telemetry": [("overhead_pct", "<=", 3.0, 3.0),
                  ("measure_traced", "==", True, True)],
    "adaptive": [("instruction_savings_x", ">=", 2.0, 2.0),
                 ("winners_match", "==", True, True),
                 ("rounds", ">=", 1, 1)],
}
OPS = {">=": operator.ge, "<=": operator.le, "==": operator.eq}


def _config(warmup, sim):
    return replace(small_8core(), warmup_instructions=warmup,
                   sim_instructions=sim)


def _grid(workloads, config):
    return ExperimentSpec(workloads=workloads, configs=config,
                          policies=list(POLICIES), seeds=SEED)


def _cpu(run):
    """``(CPU seconds, result)`` of ``run()``."""
    start = time.process_time()
    result = run()
    return time.process_time() - start, result


def warmup(quick):
    """lbm x 2 policies, warmup 10x the measured window: per-run detailed
    warmup vs one functional warmup shared through a checkpoint."""
    config = _config(*((12_000, 2_000) if quick else (60_000, 6_000)))
    detailed, _ = _cpu(lambda: Session(cache=False, checkpoints=False).run(
        _grid("lbm", replace(config, warmup_mode="detailed"))))
    session = Session(cache=False)
    functional, _ = _cpu(lambda: session.run(
        _grid("lbm", replace(config, warmup_mode="functional"))))
    return {"speedup": detailed / functional,
            "warmups_executed": session.stats.warmups_executed,
            "checkpoint_restores": session.stats.checkpoint_restores,
            "detailed_s": detailed, "functional_s": functional}


def sampling(quick):
    """bc + whiskey x 2 policies on a long trace: full detailed runs vs
    interval sampling after a shared functional warmup.  Errors compare
    grid-averaged mean IPC and write BLP."""
    if quick:
        warm, sim, plan = 15_000, 30_000, SamplingConfig(
            intervals=6, interval_instructions=600,
            warm_instructions=1_000, detailed_warm_instructions=1_200)
    else:
        warm, sim, plan = 60_000, 150_000, SamplingConfig(
            intervals=12, interval_instructions=1_000,
            warm_instructions=1_000, detailed_warm_instructions=1_000)
    legs = {"full": _config(warm, sim)}
    legs["sampled"] = legs["full"].with_warmup_mode(
        "functional").with_sampling(plan)
    seconds = dict.fromkeys(legs, 0.0)
    results = {leg: [] for leg in legs}
    # The legs alternate per workload, so that a change of host speed
    # during the gate slows both of them.
    for workload in ("bc", "whiskey"):
        for leg, config in legs.items():
            spent, rs = _cpu(lambda: Session(cache=False).run(
                _grid(workload, config)))
            seconds[leg] += spent
            results[leg] += rs
    out = {"speedup": seconds["full"] / seconds["sampled"],
           "full_s": seconds["full"], "sampled_s": seconds["sampled"]}
    for metric, key in (("mean_ipc", "ipc_error_pct"),
                        ("write_blp", "write_blp_error_pct")):
        want = amean([obs.value(metric) for obs in results["full"]])
        got = amean([obs.value(metric) for obs in results["sampled"]])
        out[key] = 100.0 * abs(got - want) / want
    return out


def telemetry(quick):
    """copy on the 8-core system with telemetry off vs on: the median of
    5 back-to-back CPU-time pairs after one untimed priming run.  The
    pairs alternate which leg runs first, so a drift in host speed
    within a pair does not bias every pair the same way."""
    config = _config(*((2_000, 6_000) if quick else (8_000, 24_000)))

    def run(enabled):
        (tele.enable if enabled else tele.disable)()
        tele.get_tracer().reset()
        return _cpu(lambda: Session(cache=False).run_one(
            config, "copy", seed=SEED))

    was_enabled = tele.enabled()
    ratios = []
    try:
        run(False)
        for pair in range(5):
            if pair % 2:
                enabled_s, result = run(True)
                disabled_s, _ = run(False)
            else:
                disabled_s, _ = run(False)
                enabled_s, result = run(True)
            ratios.append(enabled_s / disabled_s - 1.0)
    finally:
        tele.get_tracer().reset()
        (tele.enable if was_enabled else tele.disable)()
    return {"overhead_pct": 100.0 * statistics.median(ratios),
            "measure_traced": "measure" in (result.phase_breakdown or {})}


def adaptive(quick):
    """copy + lbm x 2 policies decided on write BLP: the exhaustive
    full-detail grid vs adaptive orchestration from a sampled survey."""
    if quick:
        warm, sim, plan = 5_000, 50_000, SamplingConfig(
            intervals=4, interval_instructions=500, warm_instructions=300,
            detailed_warm_instructions=200)
    else:
        warm, sim, plan = 20_000, 200_000, SamplingConfig(
            intervals=4, interval_instructions=1_000,
            warm_instructions=1_000, detailed_warm_instructions=1_000)
    config = _config(warm, sim).with_warmup_mode("functional")
    policy = AdaptivePolicy(metric="write_blp", target_relative_error=0.02,
                            start_intervals=plan.intervals, max_rounds=3)
    exhaustive = Session(cache=False).run(_grid(("copy", "lbm"), config))
    report = Session(cache=False).run_adaptive(
        _grid(("copy", "lbm"), config.with_sampling(plan)), policy).adaptive
    winners = {
        f"config=default,seed={SEED},workload={workload}":
            max(sub, key=lambda obs: obs.value("write_blp")).coords["policy"]
        for workload, sub in exhaustive.group_by("workload").items()}
    spent = sum(r.instructions for r in exhaustive.results())
    return {"instruction_savings_x": spent / report.instructions_spent,
            "winners_match": all(report.winners.get(group) == winner
                                 for group, winner in winners.items()),
            "rounds": report.rounds}


def _show(value):
    return f"{value:.3f}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI budgets and bounds")
    parser.add_argument("--json", metavar="PATH",
                        help="also write every value and verdict as JSON")
    args = parser.parse_args(argv)

    report = {}
    failed = 0
    for gate, rows in GATES.items():
        print(f"[{gate}]", flush=True)
        values = globals()[gate](args.quick)
        checks = []
        for quantity, op, quick_bound, full_bound in rows:
            bound = quick_bound if args.quick else full_bound
            ok = OPS[op](values[quantity], bound)
            failed += not ok
            print(f"  {'PASS' if ok else 'FAIL'}: {quantity} "
                  f"{_show(values[quantity])} {op} {bound}")
            checks.append({"quantity": quantity, "op": op, "bound": bound,
                           "value": values[quantity], "ok": ok})
        report[gate] = {"values": values, "checks": checks}
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"mode": "quick" if args.quick else "full",
                       "ok": not failed, "gates": report}, f, indent=2)
            f.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
