"""Self-test of the benchmark at a tiny instruction budget.

    python3 perfbench/selftest.py [--workloads write_drain ...]

For every workload, from the repository root:

* every metric ``BENCHMARK.json`` names prints, by name with its unit, in
  the report and in the JSON result (``--trace 0`` and ``--trace 1``);
* two invocations with one seed simulate bit-identical counters and
  report identical simulated metrics;
* a second seed given on the command line simulates different stats;
* a traced run simulates the same counters as the untraced ones.

Exits 0 when every check passes.  Takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
SIMULATED = ("bard_gain_pct", "write_blp")


def invoke(workload: str, seed: int, trace: int) -> Tuple[dict, str, dict]:
    """One tiny benchmark invocation: (result, report text, detail file)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    detail = json.loads(Path(
        f".perfbench_out/result-{workload}-seed{seed}-trace{trace}.json")
        .read_text())
    return result, "\n".join(lines[:-1]), detail


def check_metrics(result: dict, report: str,
                  declared: List[dict]) -> List[str]:
    """Every declared metric is in the result with its unit and printed."""
    problems = []
    metrics = result.get("metrics", {})
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        got = metrics.get(name)
        if got is None or got.get("unit") != unit:
            problems.append(f"{name}: missing or unit {got!r} != {unit!r}")
        elif not any(line.split()[:1] == [name] and unit in line.split()
                     for line in report.splitlines()):
            problems.append(f"{name}: not printed with its unit")
    return problems


def main() -> int:
    config = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    args = parser.parse_args()
    failures: Dict[str, List[str]] = {}
    for workload in args.workloads:
        problems: List[str] = []
        first, report, first_detail = invoke(workload, 7, 0)
        if not first.get("correct"):
            problems.append("seed 7 untraced run not correct")
        problems += check_metrics(first, report, config["end_to_end"])
        again, _, again_detail = invoke(workload, 7, 0)
        digest = first_detail["iterations"][0]["digest"]
        if again_detail["iterations"][0]["digest"] != digest:
            problems.append("same seed simulated different counters")
        for name in SIMULATED:
            if first["metrics"][name] != again["metrics"][name]:
                problems.append(f"same seed changed {name}")
        _, _, other_detail = invoke(workload, 8, 0)
        if other_detail["iterations"][0]["digest"] == digest:
            problems.append("seed 8 simulated the same stats as seed 7")
        traced, report, _ = invoke(workload, 7, 1)
        if not traced.get("correct"):
            problems.append("seed 7 traced run not correct (traced and "
                            "untraced counters must match)")
        problems += check_metrics(traced, report, config["per_layer"])
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
        if problems:
            failures[workload] = problems
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
