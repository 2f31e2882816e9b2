#!/usr/bin/env python
"""Simulator-core performance harness: emits ``BENCH_simcore.json``.

Times the four representative throughput scenarios defined in
:mod:`repro.perf.scenarios` through the experiment layer's ``Session``
(cache disabled - every timed run is a real simulation), plus the
warmup-dominated ``paper_warmup`` grid scenario (detailed warmup vs
functional warmup with shared warm-state checkpoints), and writes the
trajectory file at the repository root.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/perf/run_perf.py            # full
    PYTHONPATH=src python benchmarks/perf/run_perf.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/perf/run_perf.py --check 1.5
    PYTHONPATH=src python benchmarks/perf/run_perf.py --check-warmup 3
    PYTHONPATH=src python benchmarks/perf/run_perf.py \\
        --check-sampling 5 --max-sampling-error 2

``--check R`` exits non-zero unless the measured geomean is at least
``R`` times the checked-in seed baseline (same-host comparisons only;
see ``docs/performance.md``).  ``--check-warmup R`` gates the warmup
scenario's end-to-end speedup the same way (host-independent: both legs
are measured in the same invocation).  ``--check-sampling R`` gates the
``paper_sampling`` scenario's sampled-vs-full speedup, and
``--max-sampling-error PCT`` its grid-averaged relative error on mean
IPC and write BLP (the error figures are deterministic in the
simulation, so this gate is host-independent; see ``docs/sampling.md``).
``--check-telemetry PCT`` gates the telemetry layer's enabled-vs-disabled
overhead on the write-stream scenario (both legs measured in the same
invocation; see ``docs/observability.md``).
``--check-adaptive R`` gates the ``adaptive_grid`` scenario: the
adaptive orchestrator must spend at least ``R`` times fewer detailed
instructions than the exhaustive grid *and* crown the same winners
(both facts are deterministic in the simulation, so this gate is
host-independent; see ``docs/adaptive.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
BASELINE_PATH = Path(__file__).resolve().parent / "baseline_seed.json"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_simcore.json"


def _load_baseline():
    try:
        with open(BASELINE_PATH) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the simulator-core perf scenarios and emit "
                    "BENCH_simcore.json.")
    parser.add_argument("--quick", action="store_true",
                        help="small instruction budget (CI smoke; numbers "
                             "are noisier and not baseline-comparable)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timed repeats per scenario; best is kept "
                             "(default 2)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the report "
                             "(default: BENCH_simcore.json at repo root)")
    parser.add_argument("--check", type=float, metavar="RATIO",
                        default=None,
                        help="fail unless geomean events/sec >= RATIO x "
                             "the seed baseline")
    parser.add_argument("--skip-warmup-scenario", action="store_true",
                        dest="skip_warmup",
                        help="skip the warmup-dominated grid scenario "
                             "(throughput scenarios only)")
    parser.add_argument("--check-warmup", type=float, metavar="RATIO",
                        dest="check_warmup", default=None,
                        help="fail unless functional warmup + checkpoints "
                             "beat per-run detailed warmup by >= RATIO x "
                             "on the warmup-dominated grid")
    parser.add_argument("--skip-sampling-scenario", action="store_true",
                        dest="skip_sampling",
                        help="skip the sampled-vs-full long-trace grid "
                             "scenario")
    parser.add_argument("--check-sampling", type=float, metavar="RATIO",
                        dest="check_sampling", default=None,
                        help="fail unless interval sampling beats full "
                             "detailed measurement by >= RATIO x on the "
                             "long-trace grid")
    parser.add_argument("--max-sampling-error", type=float, metavar="PCT",
                        dest="max_sampling_error", default=None,
                        help="fail if the sampled estimates' grid-averaged "
                             "relative error on mean IPC or write BLP "
                             "exceeds PCT percent")
    parser.add_argument("--skip-telemetry-scenario", action="store_true",
                        dest="skip_telemetry",
                        help="skip the telemetry-overhead measurement")
    parser.add_argument("--skip-adaptive-scenario", action="store_true",
                        dest="skip_adaptive",
                        help="skip the exhaustive-vs-adaptive grid "
                             "scenario")
    parser.add_argument("--check-adaptive", type=float, metavar="RATIO",
                        dest="check_adaptive", default=None,
                        help="fail unless adaptive orchestration spends "
                             ">= RATIO x fewer detailed instructions "
                             "than the exhaustive grid while crowning "
                             "the same winners")
    parser.add_argument("--check-telemetry", type=float, metavar="PCT",
                        dest="check_telemetry", default=None,
                        help="fail if enabling telemetry costs more than "
                             "PCT percent wall time on the write-stream "
                             "scenario")
    args = parser.parse_args(argv)

    from repro.perf import ADAPTIVE_SCENARIO, SAMPLING_SCENARIO, \
        SCENARIOS, WARMUP_SCENARIO, bench_report, \
        measure_adaptive_scenario, measure_sampling_scenario, \
        measure_scenario, measure_telemetry_overhead, \
        measure_warmup_scenario

    mode = "quick" if args.quick else "full"
    entries = []
    for scenario in SCENARIOS:
        print(f"[{scenario.name}] {scenario.workload} on {scenario.preset} "
              f"({mode}, {args.repeats} repeats) ...", flush=True)
        entry = measure_scenario(scenario, quick=args.quick,
                                 repeats=args.repeats)
        print(f"  {entry['events']} events in {entry['best_seconds']}s "
              f"-> {entry['events_per_sec']:,} events/sec, "
              f"{entry['kinst_per_sec']:,} kinst/sec")
        entries.append(entry)

    warmup_entry = None
    if not args.skip_warmup:
        ws = WARMUP_SCENARIO
        print(f"[{ws.name}] {ws.workload} x {list(ws.policies)} grid, "
              f"detailed vs functional+checkpoints ({mode}) ...",
              flush=True)
        warmup_entry = measure_warmup_scenario(quick=args.quick,
                                               repeats=args.repeats)
        print(f"  detailed {warmup_entry['detailed_seconds']}s vs "
              f"functional {warmup_entry['functional_seconds']}s "
              f"-> {warmup_entry['speedup_vs_detailed']}x "
              f"({warmup_entry['warmups_executed']} warmup, "
              f"{warmup_entry['checkpoint_restores']} restores)")

    sampling_entry = None
    if not args.skip_sampling:
        ss = SAMPLING_SCENARIO
        print(f"[{ss.name}] {list(ss.workloads)} x {list(ss.policies)} "
              f"grid, sampled vs full detailed ({mode}) ...", flush=True)
        # One repeat by default: the full leg is deliberately expensive
        # (that is what the subsystem speeds up) and the error figures
        # are deterministic regardless of repeats.
        sampling_entry = measure_sampling_scenario(quick=args.quick,
                                                   repeats=1)
        print(f"  full {sampling_entry['full_seconds']}s vs sampled "
              f"{sampling_entry['sampled_seconds']}s "
              f"-> {sampling_entry['speedup_vs_full']}x "
              f"(IPC err {sampling_entry['ipc_grid_error_pct']}%, "
              f"write BLP err "
              f"{sampling_entry['write_blp_grid_error_pct']}%)")

    telemetry_entry = None
    if not args.skip_telemetry:
        print(f"[telemetry_overhead] write_stream, telemetry disabled "
              f"vs enabled ({mode}) ...", flush=True)
        # At least 5 disabled/enabled pairs regardless of --repeats:
        # the gate compares two measurements of the same simulation, so
        # squeezing host noise out of the paired median matters more
        # than it does for the baseline-relative throughput numbers.
        telemetry_entry = measure_telemetry_overhead(
            quick=args.quick, repeats=max(5, args.repeats))
        print(f"  disabled {telemetry_entry['disabled_seconds']}s vs "
              f"enabled {telemetry_entry['enabled_seconds']}s "
              f"-> {telemetry_entry['overhead_pct']}% overhead; phases: "
              + ", ".join(f"{phase}={seconds}s" for phase, seconds
                          in telemetry_entry["phase_breakdown"].items()))

    adaptive_entry = None
    if not args.skip_adaptive:
        ads = ADAPTIVE_SCENARIO
        print(f"[{ads.name}] {list(ads.workloads)} x {list(ads.policies)} "
              f"grid on {ads.metric}, exhaustive vs adaptive ({mode}) "
              f"...", flush=True)
        # One repeat by default: the exhaustive leg is deliberately
        # expensive, and the savings/winner figures are deterministic.
        adaptive_entry = measure_adaptive_scenario(quick=args.quick,
                                                   repeats=1)
        print(f"  exhaustive {adaptive_entry['exhaustive_seconds']}s vs "
              f"adaptive {adaptive_entry['adaptive_seconds']}s "
              f"-> {adaptive_entry['speedup_vs_exhaustive']}x wall, "
              f"{adaptive_entry['instruction_savings_x']}x fewer "
              f"instructions ({adaptive_entry['rounds']} rounds, "
              f"{adaptive_entry['pruned']} pruned, winners "
              f"{'match' if adaptive_entry['winners_match'] else 'DIFFER'})")

    report = bench_report(entries, mode=mode, repeats=args.repeats,
                          baseline=_load_baseline(), warmup=warmup_entry,
                          sampling=sampling_entry,
                          telemetry=telemetry_entry,
                          adaptive=adaptive_entry)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    gm = report["geomean_events_per_sec"]
    print(f"geomean: {gm:,} events/sec -> {args.output}")
    baseline = report.get("baseline")
    if baseline and baseline.get("speedup_vs_baseline") is not None:
        print(f"speedup vs seed baseline: "
              f"{baseline['speedup_vs_baseline']}x")

    if args.check is not None:
        if not baseline or baseline.get("speedup_vs_baseline") is None:
            print("--check requested but no baseline available",
                  file=sys.stderr)
            return 2
        if baseline["speedup_vs_baseline"] < args.check:
            print(f"FAIL: {baseline['speedup_vs_baseline']}x < "
                  f"required {args.check}x", file=sys.stderr)
            return 1
        print(f"PASS: >= {args.check}x")
    if args.check_warmup is not None:
        if warmup_entry is None:
            print("--check-warmup requested but the warmup scenario "
                  "was skipped", file=sys.stderr)
            return 2
        if warmup_entry["speedup_vs_detailed"] < args.check_warmup:
            print(f"FAIL: warmup scenario "
                  f"{warmup_entry['speedup_vs_detailed']}x < required "
                  f"{args.check_warmup}x", file=sys.stderr)
            return 1
        print(f"PASS: warmup >= {args.check_warmup}x")
    if args.check_sampling is not None or \
            args.max_sampling_error is not None:
        if sampling_entry is None:
            print("sampling gates requested but the sampling scenario "
                  "was skipped", file=sys.stderr)
            return 2
    if args.check_sampling is not None:
        if sampling_entry["speedup_vs_full"] < args.check_sampling:
            print(f"FAIL: sampling scenario "
                  f"{sampling_entry['speedup_vs_full']}x < required "
                  f"{args.check_sampling}x", file=sys.stderr)
            return 1
        print(f"PASS: sampling >= {args.check_sampling}x")
    if args.max_sampling_error is not None:
        worst = max(sampling_entry["ipc_grid_error_pct"],
                    sampling_entry["write_blp_grid_error_pct"])
        if worst > args.max_sampling_error:
            print(f"FAIL: sampling error {worst}% > allowed "
                  f"{args.max_sampling_error}%", file=sys.stderr)
            return 1
        print(f"PASS: sampling error <= {args.max_sampling_error}%")
    if args.check_telemetry is not None:
        if telemetry_entry is None:
            print("--check-telemetry requested but the telemetry "
                  "scenario was skipped", file=sys.stderr)
            return 2
        if telemetry_entry["overhead_pct"] > args.check_telemetry:
            print(f"FAIL: telemetry overhead "
                  f"{telemetry_entry['overhead_pct']}% > allowed "
                  f"{args.check_telemetry}%", file=sys.stderr)
            return 1
        print(f"PASS: telemetry overhead <= {args.check_telemetry}%")
    if args.check_adaptive is not None:
        if adaptive_entry is None:
            print("--check-adaptive requested but the adaptive scenario "
                  "was skipped", file=sys.stderr)
            return 2
        if not adaptive_entry["winners_match"]:
            print("FAIL: adaptive orchestration crowned different "
                  "winners than the exhaustive grid", file=sys.stderr)
            return 1
        if adaptive_entry["instruction_savings_x"] < args.check_adaptive:
            print(f"FAIL: adaptive scenario "
                  f"{adaptive_entry['instruction_savings_x']}x < "
                  f"required {args.check_adaptive}x", file=sys.stderr)
            return 1
        print(f"PASS: adaptive >= {args.check_adaptive}x, winners match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
