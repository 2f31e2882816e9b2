"""Compare two source trees on this host, in one invocation.

    python3 perfbench/compare.py --base ../parent-checkout \
        --workload write_drain --seeds 10

Runs this directory's ``perfbench/run.py`` once per seed against the head
sources (the working directory) and the base sources (``--base``, a
checkout of the other commit, e.g. made with ``git archive``), with the
same benchmark code and settings, alternating which side goes first.
Never compare against timings recorded on another host or in another
invocation.

For each end-to-end metric it prints both sides' medians and quartiles,
the number of seeds the head wins (ties count for neither side), and a
verdict: ``better`` when the head wins at least nine tenths of the seeds
and the medians differ by more than the base's quartile distance;
``worse`` when the head's median is worse than the base's by more than
the metric's bound; ``unresolved`` when the base's own spread exceeds
the bound; otherwise ``within bound``.  Needs at least two seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark invocation on the sources in ``tree``."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{tree}: seed {seed} failed (exit "
                         f"{proc.returncode}): {proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"warning: {tree} seed {seed} reported incorrect outputs")
    return result["metrics"]


def verdict(base: List[float], head: List[float], wins: int,
            metric: dict) -> str:
    q1, base_median, q3 = statistics.quantiles(base, n=4)
    sign = 1.0 if metric["better"] == "higher" else -1.0
    delta = sign * (statistics.median(head) - base_median)
    allowed = metric["bound"] * abs(base_median)
    if wins >= 0.9 * len(base) and abs(delta) > q3 - q1:
        return "better"
    if -delta > allowed:
        return "worse"
    if q3 - q1 > allowed:
        return "unresolved"
    return "within bound"


def main() -> int:
    config = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=config["run_seconds"])
    args = parser.parse_args()
    if args.seeds < 2:
        parser.error("--seeds must be at least 2")
    sides = {"base": args.base.resolve(), "head": Path.cwd()}
    values: Dict[str, Dict[str, List[float]]] = {"base": {}, "head": {}}
    for i, seed in enumerate(range(args.first_seed,
                                   args.first_seed + args.seeds)):
        order = ("head", "base") if i % 2 == 0 else ("base", "head")
        for side in order:
            metrics = run(sides[side], args.workload, seed, args.seconds)
            for name, metric in metrics.items():
                values[side].setdefault(name, []).append(metric["value"])
    print(f"{args.workload}: {args.seeds} seeds, base {sides['base']}")
    for metric in config["end_to_end"]:
        name = metric["name"]
        base, head = values["base"][name], values["head"][name]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
        bq = statistics.quantiles(base, n=4)
        hq = statistics.quantiles(head, n=4)
        print(f"  {name:<14} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
              f"head {hq[1]:.6g} [{hq[0]:.6g}, {hq[2]:.6g}]  "
              f"head wins {wins}/{len(base)}  "
              f"{verdict(base, head, wins, metric)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
