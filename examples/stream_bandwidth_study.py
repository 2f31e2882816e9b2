#!/usr/bin/env python
"""STREAM kernel study: how write scheduling limits streaming bandwidth.

STREAM kernels (copy/scale/add/triad) are the canonical bandwidth
workloads the paper's introduction motivates: every store eventually
becomes a DRAM write, so the write path directly gates sustained
bandwidth.  This example sweeps all four kernels and reports, per kernel,
the baseline/BARD/ideal share of time the DDR5 bus spends on writes and
the achieved write BLP.
"""

from repro import Session, small_8core

KERNELS = ["copy", "scale", "add", "triad"]


def main() -> None:
    config = small_8core()
    session = Session(cache=False)
    print(f"{'kernel':<8} {'cfg':<10} {'W%':>6} {'BLP':>6} "
          f"{'w2w ns':>7} {'WPKI':>6}")
    print("-" * 48)
    for kernel in KERNELS:
        variants = [
            ("baseline", config),
            ("bard-h", config.with_writeback("bard-h")),
            ("ideal", config.with_ideal_writes()),
        ]
        for name, cfg in variants:
            r = session.run_one(cfg, kernel, label=name)
            print(f"{kernel:<8} {name:<10} {r.time_writing_pct:>6.1f} "
                  f"{r.write_blp:>6.1f} {r.mean_w2w_ns:>7.2f} "
                  f"{r.wpki:>6.1f}")
        print()


if __name__ == "__main__":
    main()
