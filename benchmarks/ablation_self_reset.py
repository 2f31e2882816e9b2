#!/usr/bin/env python
"""Ablation: BARD-H with the BLP-Tracker's self-reset off (paper Fig. 7b).

Not a row of the claims ledger: it switches off
``BLPTracker.self_reset`` on a built ``System``, which no config or
sweep axis can reach, so it cannot be a grid point.

Without self-reset the tracker saturates, BARD stops finding low-cost
banks and its write-BLP advantage collapses.  Prints the table and exits
1 if on any workload the frozen tracker's write BLP beats the
self-resetting one's by more than one bank.

Usage (from the repository root; ``REPRO_SCALE`` and
``REPRO_CACHE_DIR`` as for ``scorecard.py``)::

    PYTHONPATH=src python benchmarks/ablation_self_reset.py
"""

from __future__ import annotations

import os
import sys

from repro.analysis import format_table
from repro.analysis.claims import SEED, designs
from repro.experiment import CACHE_DIR_ENV, Session
from repro.sim.system import System
from repro.workloads import trace_factory


def main() -> int:
    scale = os.environ.get("REPRO_SCALE", "quick").lower()
    grid = designs("bard-h", sweep=True, first=2)(scale)
    session = Session(cache=bool(os.environ.get(CACHE_DIR_ENV)))
    rows = []
    for obs in session.run(grid):
        config, workload = obs.spec.config, obs.spec.workload
        system = System(config, trace_factory(workload, config, seed=SEED))
        system.tracker.self_reset = False
        system.llc_policy.tracker = system.tracker
        frozen = system.run(label="no-self-reset")
        rows.append((workload, obs.result.write_blp, frozen.write_blp,
                     frozen.wb_stats.overrides + frozen.wb_stats.cleanses))
    print(format_table(
        ["workload", "BLP (self-reset)", "BLP (frozen)", "frozen decisions"],
        rows, title="Ablation - BLP-Tracker self-reset (paper Fig. 7b)"))
    return 0 if all(frozen <= normal + 1.0
                    for _, normal, frozen, _ in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
