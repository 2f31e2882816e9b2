"""Same-host benchmark of the BARD simulator: one workload per invocation.

    python3 perfbench/run.py --workload write_drain --seed 7 \
        --seconds 28 --trace 0

Run it from the repository root; it simulates with the sources under
``src/``.  Each measured iteration runs the workload's whole job once in
a fresh ``perfbench/worker.py`` process; iterations repeat until the
next one would overrun ``--seconds`` (at least ``MIN_ITERATIONS``).  The
report prints every metric by name with its unit, the host fingerprint,
and a paper-reference ledger; the last stdout line is the JSON result.

``--trace 0`` reports the end-to-end metrics of untraced iterations.
``--trace 1`` runs untraced iterations for part of the time and then one
traced iteration, and reports the per-layer metrics of the traced one
plus the tracing overhead between the two.  Both modes check every
run's outputs and that repeated (and traced) runs of one seed simulate
bit-identical counters.

Results, per-iteration records and the traced run's spans are written
under ``.perfbench_out/`` in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from workloads import PAPER_FIG10_CLEANSE_PCT, PAPER_FIG10_GMEAN_PCT, \
    PAPER_FIG10_OVERRIDE_PCT, WORKLOADS, Workload, gmean, policy_speedups

#: Iterations every untraced measurement makes, whatever ``--seconds``
#: (per scale: the tiny self-test scale only needs a repeat to compare).
MIN_ITERATIONS = {"bench": 3, "tiny": 2}

#: Share of ``--seconds`` a traced invocation spends on untraced runs.
TRACE_UNTRACED_SHARE = 0.4

#: Hard ceiling on one invocation (the worker timeout derives from it).
DEADLINE_S = 170.0

HERE = Path(__file__).resolve().parent

#: End-to-end metric -> unit (the ``--trace 0`` result).
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_kips": "kinst/s",
    "peak_rss_mb": "MB",
    "error_rate": "fraction",
    "bard_gain_pct": "%",
    "write_blp": "banks",
}


#: Per-layer timings of layers only some workloads exercise.  They are
#: printed and written to the result file, but left out of the JSON
#: result, where a layer that never runs would read a constant 0 s.
WORKLOAD_SPECIFIC_TIMES = frozenset({
    "sampling.self_s", "sim.warmstate.self_s", "sim.warmstate.snapshot_s",
    "sim.warmstate.restore_s", "service.self_s", "service.submit_ms",
    "service.queue_wait_ms_p50", "service.queue_wait_ms_high",
    "service.poll_late_ms",
})


class WorkerFailed(RuntimeError):
    """A worker process crashed, timed out, or printed no result."""


# ----------------------------------------------------------------------
# Host fingerprint and worker processes
# ----------------------------------------------------------------------

def host_fingerprint() -> Dict[str, Any]:
    """CPU model, usable CPUs, Python version and current load."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


def run_worker(workload: str, seed: int, scale: str, traced: bool,
               timeout: float) -> Dict[str, Any]:
    """One iteration in a fresh worker process; returns its JSON record."""
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # Keep any cache the program might default to inside the checkout.
    env["REPRO_CACHE_DIR"] = str(Path(".perfbench_out/cache").resolve())
    env.pop("REPRO_TELEMETRY", None)
    load_before = list(os.getloadavg())
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--scale", scale,
           "--trace", str(int(traced)), "--spawned-at", repr(spawned)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {exc.timeout:.0f} s")
    elapsed = time.monotonic() - spawned
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise WorkerFailed(f"worker exited {proc.returncode}: {tail}")
    record = json.loads(lines[-1])
    record["process_s"] = elapsed
    record["loadavg_before"] = load_before
    record["loadavg_after"] = list(os.getloadavg())
    return record


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def simulated(runs: List[dict]) -> Dict[str, float]:
    """Deterministic metrics of one job's runs (identical every iteration)."""
    bard_runs = [r for r in runs if r["policy"] == "bard-h"]
    return {
        # BARD-H weighted speedup over baseline, gmean over the grid's
        # (kernel, seed) pairs, as a percentage of baseline performance
        # (100 = no change; the paper's "+4.3%" reads 104.3 here).
        "bard_gain_pct": 100.0 * gmean(policy_speedups(runs, "bard-h")),
        "write_blp": statistics.fmean(r["write_blp"] for r in bard_runs),
    }


def end_to_end(records: List[dict], checks: int,
               failed_checks: int) -> Dict[str, float]:
    """The end-to-end metrics of a set of untraced iterations (timings
    and memory are medians over the iterations)."""
    sim = simulated(records[0]["runs"])
    return {
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "sim_kips": statistics.median(r["epoch_kinst"] / r["cpu_s"]
                                      for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        # Rule-of-succession estimate over the distinct checks a job
        # makes, (failed + 1) / (checks + 1): a clean run reads
        # 1 / (checks + 1) - never 0, and the same however many
        # iterations ran - and any failed check at least doubles it.
        "error_rate": (failed_checks + 1) / (checks + 1),
        "bard_gain_pct": sim["bard_gain_pct"],
        "write_blp": sim["write_blp"],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: dict,
              untraced: List[dict]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of the traced iteration, ``name -> (value, unit)``."""
    trace = traced["trace"]
    layers = trace["layers"]
    entries = trace["entries"]
    runs = traced["runs"]
    bard_runs = [r for r in runs if r["policy"] == "bard-h"]
    kinst = traced["epoch_kinst"]

    def calls(entry: str) -> int:
        return int(entries.get(entry, {}).get("calls", 0))

    def self_s(entry: str) -> float:
        return float(entries.get(entry, {}).get("self_s", 0.0))

    def total(key: str) -> float:
        return float(sum(r[key] for r in runs))

    out: Dict[str, Tuple[float, str]] = {}
    for layer in ("sim.engine", "cpu", "cache", "core", "prefetch", "dram",
                  "workloads", "sampling", "experiment", "sim.warmstate",
                  "service"):
        data = layers.get(layer, {"calls": 0, "self_s": 0.0})
        out[f"{layer}.self_s"] = (data["self_s"], "s")
        out[f"{layer}.calls"] = (data["calls"], "count")

    events = trace["events"]
    out["sim.engine.events"] = (events, "count")
    out["sim.engine.events_per_kinst"] = (_ratio(events, kinst), "1/kinst")
    out["sim.engine.us_per_event"] = (
        _ratio(1e6 * layers.get("sim.engine", {}).get("self_s", 0.0),
               events), "us")

    out["cpu.ticks"] = (calls("Core._tick"), "count")
    out["cpu.mshr_stall_cycles"] = (total("mshr_stall_cycles"), "cycles")

    instructions = total("instructions")
    hist: List[int] = []
    for run in runs:
        for i, n in enumerate(run["mshr_occupancy_hist"]):
            hist.extend([0] * (i + 1 - len(hist)))
            hist[i] += n
    out["cache.warm_calls"] = (calls("Cache.warm_access"), "count")
    out["cache.llc_mpki"] = (
        _ratio(1000 * total("llc_demand_misses"), instructions), "1/kinst")
    out["cache.llc_wpki"] = (
        _ratio(1000 * total("llc_writebacks"), instructions), "1/kinst")
    out["cache.mshr_occupancy_mean"] = (
        _ratio(sum(i * n for i, n in enumerate(hist)), sum(hist)),
        "entries")
    out["cache.secondary_misses"] = (total("secondary_misses"), "count")

    selections = sum(r["victim_selections"] for r in bard_runs)
    checked = sum(r["tracker_checked"] for r in bard_runs)
    out["core.choose_victim"] = (calls("BardPolicy.choose_victim"), "count")
    out["core.override_pct"] = (_ratio(
        100 * sum(r["overrides"] for r in bard_runs), selections), "%")
    out["core.cleanse_pct"] = (_ratio(
        100 * sum(r["cleanses"] for r in bard_runs), selections), "%")
    out["core.tracker_error_rate"] = (_ratio(
        sum(r["tracker_incorrect"] for r in bard_runs), checked),
        "fraction")

    submits = calls("Channel.submit")
    sc_ticks = calls("Channel._tick_sc")
    reads = total("reads_completed")
    w2w = [r["mean_w2w_ns"] for r in runs if r["drain_episodes"]]
    out["dram.submits"] = (submits, "count")
    out["dram.sc_ticks"] = (sc_ticks, "count")
    out["dram.ticks_per_request"] = (_ratio(sc_ticks, submits), "ratio")
    out["dram.time_writing_pct"] = (statistics.fmean(
        r["time_writing_pct"] for r in runs), "%")
    out["dram.mean_read_latency_ns"] = (
        _ratio(total("read_latency_ns"), reads), "ns")
    out["dram.mean_w2w_ns"] = (statistics.fmean(w2w) if w2w else 0.0, "ns")
    out["dram.drain_episodes"] = (total("drain_episodes"), "count")
    out["dram.forwarded_reads"] = (total("forwarded_reads"), "count")
    out["dram.staged_writes"] = (total("staged_writes"), "count")

    out["workloads.records"] = (calls("trace.__next__"), "count")
    out["workloads.krec_per_s"] = (trace["krec_per_s"], "krec/s")

    out["sampling.intervals"] = (total("intervals"), "count")
    out["experiment.warmups"] = (traced["warmups"], "count")
    out["experiment.restores"] = (traced["restores"], "count")
    out["sim.warmstate.snapshot_s"] = (
        self_s("System.snapshot_warm_state"), "s")
    out["sim.warmstate.restore_s"] = (
        self_s("System.restore_warm_state"), "s")

    service = traced.get("service") or {}
    waits = service.get("queue_wait_ms", [])
    high_pct, high = high_percentile(waits)
    out["service.submit_ms"] = (service.get("submit_ms", 0.0), "ms")
    out["service.queue_wait_ms_p50"] = (
        statistics.median(waits) if waits else 0.0, "ms")
    out["service.queue_wait_ms_high"] = (high, "ms")
    out["service.queue_wait_high_pct"] = (high_pct, "%")
    out["service.queue_wait_samples"] = (len(waits), "count")
    out["service.jobs"] = (service.get("jobs", 0), "count")
    out["service.retries"] = (service.get("retries", 0), "count")
    out["service.poll_late_ms"] = (service.get("poll_late_ms", 0.0), "ms")

    out["phase.setup_s"] = (traced["setup_s"], "s")
    out["phase.warmup_s"] = (trace["phase_warmup_s"], "s")
    out["phase.measure_s"] = (trace["phase_measure_s"], "s")
    base_wall = statistics.median(r["wall_s"] for r in untraced)
    out["trace.overhead_pct"] = (
        100.0 * (traced["wall_s"] / base_wall - 1.0), "%")
    return out


def high_percentile(values: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``; ``(0, 0)`` when there are no samples
    and ``(0, min)`` when there are ten or fewer.
    """
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    index = max(0, len(ordered) - 11)
    return 100.0 * index / len(ordered), ordered[index]


# ----------------------------------------------------------------------
# Checks and the paper ledger
# ----------------------------------------------------------------------

def cross_checks(records: List[dict],
                 traced: Optional[dict]) -> List[Tuple[str, bool, str]]:
    """Checks across iterations: one seed simulates one set of counters."""
    checks = []
    digests = {r["digest"] for r in records}
    checks.append(("repeat_identical", len(digests) == 1,
                   f"{len(digests)} distinct digests over {len(records)} "
                   f"iterations"))
    if traced is not None:
        checks.append(("traced_identical",
                       traced["digest"] == records[0]["digest"],
                       "traced vs untraced counters"))
    return checks


def failed_runs(job: dict, runs_per_job: int) -> int:
    """Runs of one job that failed a check (all of them for a job-level
    check such as the warmup count or the service's final state)."""
    bad = [name for name, ok, _ in job["checks"] if not ok]
    if any("[" not in name for name in bad):
        return runs_per_job
    return len({name.split("[", 1)[1] for name in bad})


def ledger(workload: Workload, runs: List[dict]) -> List[str]:
    """Model figures beside the paper's, for reference (never gated)."""
    lines = ["paper-reference ledger (the model is not validated against "
             "hardware; these comparisons are informational, never gated):"]
    for policy, paper in PAPER_FIG10_GMEAN_PCT.items():
        speedups = policy_speedups(runs, policy)
        if speedups:
            model = 100.0 * (gmean(speedups) - 1.0)
            lines.append(f"  {policy} gmean speedup: model {model:+.2f}% "
                         f"vs paper {paper:+.1f}% (Fig. 10-top)")
    bard_runs = [r for r in runs if r["policy"] == "bard-h"]
    selections = sum(r["victim_selections"] for r in bard_runs)
    if selections:
        override = 100.0 * sum(r["overrides"] for r in bard_runs) \
            / selections
        cleanse = 100.0 * sum(r["cleanses"] for r in bard_runs) / selections
        lines.append(f"  bard-h overrides: model {override:.1f}% vs paper "
                     f"{PAPER_FIG10_OVERRIDE_PCT}%; cleanses: model "
                     f"{cleanse:.1f}% vs paper {PAPER_FIG10_CLEANSE_PCT}% "
                     f"(Fig. 10-bottom)")
    for kernel in workload.kernels:
        mine = [r for r in bard_runs if r["workload"] == kernel]
        if mine:
            blp = statistics.fmean(r["write_blp"] for r in mine)
            lines.append(f"  {kernel} bard-h write BLP: model {blp:.2f} "
                         f"vs paper baseline {mine[0]['paper_wblp']} "
                         f"(Table IV)")
    return lines


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def measure(workload: Workload, seed: int, seconds: float, scale: str,
            trace: bool, log) -> Tuple[List[dict], Optional[dict], int]:
    """Run the iterations; returns (untraced, traced, failed iterations)."""
    started = time.monotonic()
    budget = seconds * (TRACE_UNTRACED_SHARE if trace else 1.0)
    records: List[dict] = []
    failed = 0

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    while True:
        elapsed = time.monotonic() - started
        if records:
            typical = statistics.median(r["process_s"] for r in records)
            enough = len(records) >= (1 if trace
                                      else MIN_ITERATIONS[scale])
            if enough and elapsed + typical > budget:
                break
            if elapsed + typical > DEADLINE_S * 0.8:
                break
        try:
            record = run_worker(workload.name, seed, scale, False,
                                timeout=remaining())
        except WorkerFailed as exc:
            failed += 1
            log(f"iteration {len(records) + failed}: FAILED: {exc}")
            break
        records.append(record)
        raw = record["raw"]
        log(f"iteration {len(records)}: wall {record['wall_s']:.4f} s "
            f"(raw {raw['wall_s']:.4f}), cpu {record['cpu_s']:.4f} s "
            f"(raw {raw['cpu_s']:.4f}), setup {record['setup_s']:.4f} s "
            f"(raw {raw['setup_s']:.4f}), host speed "
            f"{record['host_speed']['factor']:.3f}, rss "
            f"{record['peak_rss_mb']:.1f} MB, load "
            f"{record['loadavg_before'][0]:.2f}->"
            f"{record['loadavg_after'][0]:.2f}")
    traced = None
    if trace and records:
        try:
            traced = run_worker(workload.name, seed, scale, True,
                                timeout=remaining())
            log(f"traced iteration: wall {traced['wall_s']:.4f} s "
                f"(raw {traced['raw']['wall_s']:.4f}), spans in "
                f"{traced['trace']['spans_file']}")
        except WorkerFailed as exc:
            failed += 1
            log(f"traced iteration: FAILED: {exc}")
    return records, traced, failed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--scale", default="bench", choices=("bench", "tiny"),
                        help="instruction budgets (tiny: self-test only)")
    args = parser.parse_args(argv)

    if not Path("src/repro/__init__.py").is_file():
        print("error: run from the repository root: src/repro is missing",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = Path(".perfbench_out")
    out_dir.mkdir(exist_ok=True)

    def log(line: str) -> None:
        print(line, flush=True)

    host = host_fingerprint()
    log(f"perfbench {workload.name}: seed {args.seed}, {args.seconds:g} s, "
        f"trace {args.trace}, scale {args.scale}")
    log(f"host: {host['cpu_model']}, nproc {host['nproc']}, python "
        f"{host['python']}, load {host['loadavg']}")
    records, traced, failed_iterations = measure(
        workload, args.seed, args.seconds, args.scale, bool(args.trace),
        log)

    checks: List[Tuple[str, bool, str]] = []
    for record in records + ([traced] if traced else []):
        checks.extend(tuple(c) for c in record["checks"])
    cross = cross_checks(records, traced) if records else []
    checks.extend(cross)
    checks.append(("iterations_completed", not failed_iterations,
                   f"{failed_iterations} worker(s) failed"))
    failed_checks = [c for c in checks if not c[1]]
    for name, _, detail in failed_checks:
        log(f"CHECK FAILED {name}: {detail}")

    runs_per_job = workload.runs
    jobs = records + ([traced] if traced else [])
    attempted = runs_per_job * (len(jobs) + failed_iterations)
    failed = runs_per_job * failed_iterations + sum(
        failed_runs(job, runs_per_job) for job in jobs)
    if any(not ok for _, ok, _ in cross):
        failed += runs_per_job
    failed = min(attempted, failed)

    metrics: Dict[str, Tuple[float, str]] = {}
    if records and not args.trace:
        names = {name for name, _, _ in checks}
        failed_names = {name for name, ok, _ in checks if not ok}
        values = end_to_end(records, len(names), len(failed_names))
        metrics = {name: (values[name], unit)
                   for name, unit in END_TO_END_UNITS.items()}
        samples = {
            "wall_s": [r["wall_s"] for r in records],
            "setup_s": [r["setup_s"] for r in records],
            "sim_kips": [r["epoch_kinst"] / r["cpu_s"] for r in records],
            "peak_rss_mb": [r["peak_rss_mb"] for r in records],
        }
        for name, unit in END_TO_END_UNITS.items():
            line = f"{name:<14} {values[name]:.6g} {unit}"
            if name in samples:
                q1, q2, q3 = quartiles(samples[name])
                line += (f" (over {len(records)} iterations: q1 {q1:.6g}, "
                         f"median {q2:.6g}, q3 {q3:.6g})")
            log(line)
    elif records and traced is not None:
        metrics = per_layer(traced, records)
        for name, (value, unit) in metrics.items():
            log(f"{name:<30} {value:.6g} {unit}")
    if records:
        for line in ledger(workload, records[0]["runs"]):
            log(line)

    result = {
        "correct": bool(metrics) and not failed_checks,
        "attempted": max(1, attempted),
        "failed": failed if metrics else max(1, attempted),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if name not in WORKLOAD_SPECIFIC_TIMES},
    }
    detail = dict(result, workload=workload.name, seed=args.seed,
                  all_metrics={name: {"value": value, "unit": unit}
                               for name, (value, unit) in metrics.items()},
                  seconds=args.seconds, trace=args.trace, scale=args.scale,
                  host=dict(host, loadavg_end=list(os.getloadavg())),
                  checks=checks, iterations=records, traced=traced)
    (out_dir / f"result-{workload.name}-seed{args.seed}-trace{args.trace}"
               f".json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
