#!/usr/bin/env python
"""Quickstart: measure BARD's effect on one write-intensive workload.

Declares the two-run experiment (baseline vs BARD-H on the paper's
``lbm``, the most write-intensive SPEC2017 member) as an
:class:`repro.ExperimentSpec`, executes it through a cached
:class:`repro.Session` - re-running this script is instant because
finished runs persist under ``~/.cache/repro`` - and queries the
:class:`repro.ResultSet` for the metrics the paper is built around:
write bank-level parallelism, time spent writing, write-to-write delay,
and weighted speedup.

Usage::

    python examples/quickstart.py [workload]
"""

import sys

from repro import ExperimentSpec, Session, small_8core


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "lbm"
    config = small_8core()
    print(f"simulating {workload!r} on {config.cores} cores "
          f"(baseline vs BARD-H)...")

    spec = ExperimentSpec(workloads=workload, configs=config,
                          policies=["baseline", "bard-h"],
                          name="quickstart")
    rs = Session().run(spec)
    base = rs.filter(policy="baseline").only().result
    bard = rs.filter(policy="bard-h").only().result

    print(f"\n{'metric':<28} {'baseline':>10} {'BARD-H':>10}")
    print("-" * 50)
    rows = [
        ("write BLP (banks / 32)", base.write_blp, bard.write_blp),
        ("time writing (%)", base.time_writing_pct, bard.time_writing_pct),
        ("mean w2w delay (ns)", base.mean_w2w_ns, bard.mean_w2w_ns),
        ("LLC MPKI", base.mpki, bard.mpki),
        ("LLC WPKI", base.wpki, bard.wpki),
        ("mean IPC", base.mean_ipc, bard.mean_ipc),
    ]
    for name, b, r in rows:
        print(f"{name:<28} {b:>10.2f} {r:>10.2f}")

    speedup = rs.speedup_vs("policy").only().value("speedup_pct")
    print("-" * 50)
    print(f"{'weighted speedup':<28} {speedup:>+9.2f}%")
    print(f"\nBARD-H decisions: {bard.wb_stats.victim_selections} victim "
          f"selections, {bard.override_pct:.1f}% overridden (BARD-E), "
          f"{bard.cleanse_pct:.1f}% cleansed (BARD-C)")


if __name__ == "__main__":
    main()
