"""Seed-to-seed spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py --workloads write_drain fig10_slice \
        --seeds 10 --first-seed 1

Runs ``perfbench/run.py --trace 0`` once per (workload, seed) with the
``run_seconds`` of ``BENCHMARK.json`` and prints, per metric, the median
of the values, their quartiles, and the interquartile range as a share
of the median - the figure each metric's ``bound`` must cover.  Run it
from the repository root; the runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List


def main() -> int:
    config = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=config["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    here = Path(__file__).resolve().parent
    report: Dict[str, Dict[str, List[float]]] = {}
    ok = True
    for workload in args.workloads:
        values: Dict[str, List[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(here / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=200)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode or not result["correct"]:
                print(f"{workload} seed {seed}: run not correct "
                      f"(exit {proc.returncode})")
                ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        report[workload] = values
        print(f"{workload}: {args.seeds} seeds from {args.first_seed}")
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else \
                "  <- above a third of the bound"
            print(f"  {name:<14} median {median:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f} bound {bound}{flag}")
    out = Path(".perfbench_out")
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
