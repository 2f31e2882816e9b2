#!/usr/bin/env python
"""BLP-Tracker accuracy study (paper section VII-I).

The BLP-Tracker never talks to the memory controller, so its "pending
write" bits are an approximation of the WRQ's true contents.  This example
cross-checks every BARD decision against ground truth (the controller's
actual write queues) across several workloads, reproducing the paper's
observation that ~30% of decisions are imprecise yet BARD still delivers
its BLP gains - and contrasts the self-resetting tracker with a frozen
(never-resetting) one.
"""

from repro import small_8core
from repro.sim.system import System
from repro.workloads import trace_factory

WORKLOADS = ["lbm", "cf", "copy"]


def run(workload: str, self_reset: bool):
    config = small_8core().with_writeback("bard-h")
    system = System(config, trace_factory(workload, config))
    system.tracker.self_reset = self_reset
    return system.run(label="bard-h")


def main() -> None:
    print(f"{'workload':<8} {'tracker':<12} {'decisions':>9} "
          f"{'imprecise %':>11} {'BLP':>6} {'speedup basis'}")
    print("-" * 64)
    for wl in WORKLOADS:
        for self_reset, name in ((True, "self-reset"), (False, "frozen")):
            r = run(wl, self_reset)
            print(f"{wl:<8} {name:<12} {r.bard_accuracy.checked:>9} "
                  f"{r.tracker_error_pct:>11.1f} "
                  f"{r.write_blp:>6.1f}   IPC={r.mean_ipc:.3f}")
        print()
    print("paper: ~30.3% of decisions are imprecise; the self-reset is what"
          "\nkeeps the tracker producing candidates at all (frozen trackers"
          "\nsaturate and stop making decisions).")


if __name__ == "__main__":
    main()
