#!/usr/bin/env python
"""Reproduce the paper's figures and tables and score its claims.

Runs the selected tables below and the selected rows of the claims
ledger (:data:`repro.analysis.claims.CLAIMS`) through one
:class:`~repro.experiment.Session` that fans out over all CPUs.  Prints
each table and a scorecard, writes the scorecard as JSON (claim, paper,
measured, direction, ``direction_match``, ``sign_match``,
``magnitude_ratio``) and exits 1 if any claim's direction does not hold.
``sign_match`` is False on a row that holds only through its tolerance
(the measurement lies on the other side of the bound); it never changes
the exit code.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/scorecard.py              # everything
    PYTHONPATH=src python benchmarks/scorecard.py fig10 table05
    PYTHONPATH=src python benchmarks/scorecard.py \\
        fig03.mean_write_blp --out slice.json

A name selects every table and claim whose id starts with it.
``REPRO_SCALE`` picks the workloads (``quick``, the default, or
``full``); set ``REPRO_CACHE_DIR`` to keep results on disk between
runs.  ``--out`` defaults to ``benchmarks/scorecard.json``, the
committed quick-scale scorecard, so pass it when running a slice.

The BLP-Tracker self-reset ablation is not a grid; see
``ablation_self_reset.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.analysis import amean, bandwidth_report, format_table
from repro.analysis.claims import CLAIMS, SEED, WQ_SIZES, best_gain, \
    change_pct, designs, gain, incorrect_pct, paired, power_ratios, score, \
    shares, sync_overhead_pct
from repro.experiment import CACHE_DIR_ENV, RunPlan, Session
from repro.workloads.suites import WORKLOADS

OUT = Path(__file__).resolve().parent / "scorecard.json"

#: table id -> (grid, render: ResultSet -> text)
TABLES = {}


def table(name, grid):
    def register(render):
        TABLES[name] = (grid, render)
        return render
    return register


def by_workload(rs, columns, *totals):
    """One row per workload of the given columns, then the totals."""
    return list(zip(rs.axis_values("workload"), *columns)) + list(totals)


def metric_table(rs, names, metric, headers, title):
    columns = [rs.filter(config=d).metric(metric) for d in names]
    rows = by_workload(rs, columns, ("mean", *map(amean, columns)))
    return format_table(["workload", *headers], rows, title=title)


def speedup_table(rs, names, headers, title, reference="baseline"):
    columns = [paired(rs, d, reference).metric("speedup_pct")
               for d in names]
    gmeans = [gain(rs, d, reference) for d in names]
    rows = by_workload(rs, columns, ("gmean", *gmeans))
    return format_table(["workload", *headers], rows, title=title)


def gain_table(rs, rows, title):
    return format_table(["configuration", "gmean speedup vs baseline %"],
                        [(label, gain(rs, d)) for label, d in rows],
                        title=title)


@table("fig02", designs("baseline", "ideal"))
def fig02(rs):
    return metric_table(rs, ("baseline", "ideal"), "time_writing_pct",
                        ["baseline W%", "ideal W%"],
                        "Fig. 2 - time spent writing to DRAM "
                        "(paper: baseline 33.0%, ideal 24.1%)")


@table("fig03", designs("baseline"))
def fig03(rs):
    return metric_table(rs, ("baseline",), "write_blp",
                        ["write BLP (of 32)"],
                        "Fig. 3 - baseline write bank-level parallelism "
                        "(paper: 22.1)")


@table("fig10_top", designs("baseline", "bard-e", "bard-c", "bard-h"))
def fig10_top(rs):
    return speedup_table(rs, ("bard-e", "bard-c", "bard-h"),
                         ["BARD-E %", "BARD-C %", "BARD-H %"],
                         "Fig. 10 (top) - BARD variant speedups "
                         "(paper gmean: E 4.1%, C 3.3%, H 4.3%)")


@table("fig10_bottom", designs("bard-h"))
def fig10_bottom(rs):
    columns = list(zip(*map(shares, rs.results())))
    rows = by_workload(rs, columns, ("mean", *map(amean, columns)))
    return format_table(["workload", "plain evict %", "BARD-E override %",
                         "BARD-C cleanse %"], rows,
                        title="Fig. 10 (bottom) - BARD-H decision breakdown"
                              " (paper mean: 64.7 / 4.8 / 30.5)")


@table("fig11", designs("baseline", "bard-h", "eager", "vwq"))
def fig11(rs):
    return speedup_table(rs, ("bard-h", "eager", "vwq"),
                         ["BARD %", "EW %", "VWQ %"],
                         "Fig. 11 - BARD vs Eager Writeback vs Virtual "
                         "Write Queue (paper gmean: +4.3 / -0.5 / -0.3)")


@table("fig11_vwq", designs("baseline", "vwq", first=4))
def fig11_vwq(rs):
    columns = [rs.filter(config=d).metric("write_blp")
               for d in ("baseline", "vwq")]
    return format_table(["workload", "baseline BLP", "VWQ BLP"],
                        by_workload(rs, columns),
                        title="Fig. 11 mechanism - VWQ lowers write BLP")


@table("fig14_top", designs("baseline", "bard-h"))
def fig14_top(rs):
    return metric_table(rs, ("baseline", "bard-h"), "write_blp",
                        ["baseline BLP", "BARD BLP"],
                        "Fig. 14 (top) - write BLP, baseline vs BARD "
                        "(paper: 22.1 -> 28.8)")


@table("fig14_bottom", designs("baseline", "bard-h", "ideal"))
def fig14_bottom(rs):
    return metric_table(rs, ("baseline", "bard-h", "ideal"),
                        "time_writing_pct",
                        ["baseline W%", "BARD W%", "ideal W%"],
                        "Fig. 14 (bottom) - time writing to DRAM "
                        "(paper: 33.0 -> 29.3, ideal 24.1)")


_REPL = [f"replacement={p}{b}" for p in ("lru", "srrip", "ship")
         for b in ("", "+bard-h")]


@table("fig15", designs(*_REPL, sweep=True))
def fig15(rs):
    columns, gmeans = [], []
    for base, bard in zip(_REPL[::2], _REPL[1::2]):
        columns.append(paired(rs, bard, base).metric("speedup_pct"))
        gmeans.append(gain(rs, bard, base))
    return format_table(
        ["workload", "BARD(LRU) %", "BARD(SRRIP) %", "BARD(SHiP) %"],
        by_workload(rs, columns, ("gmean", *gmeans)),
        title="Fig. 15 - BARD speedup under LRU/SRRIP/SHiP "
              "(paper gmean: 4.3 / 5.0 / 4.9)")


@table("fig17", designs("baseline", *(f"wq={n}{b}" for n in WQ_SIZES
                                      for b in ("", "+bard-h")),
                        sweep=True))
def fig17(rs):
    rows = [(n, gain(rs, f"wq={n}"), gain(rs, f"wq={n}+bard-h"))
            for n in WQ_SIZES]
    return format_table(["WQ entries", "baseline %", "BARD %"], rows,
                        title="Fig. 17 - speedup vs 48-entry baseline "
                              "(paper: base -6.2/0.0/3.3/8.1/10.7; "
                              "BARD 0.4/4.3/7.0/10.0/11.7)")


@table("table04", designs("baseline"))
def table04(rs):
    rows = []
    for obs in rs:
        r, wl = obs.result, obs.coords["workload"]
        p = WORKLOADS[wl].paper if wl in WORKLOADS else None
        rows.append((wl, *(x for pair in zip(
            (r.mpki, r.wpki, r.write_blp, r.time_writing_pct),
            (p.mpki, p.wpki, p.wblp, p.write_pct) if p
            else (float("nan"),) * 4) for x in pair)))
    return format_table(["workload", "MPKI", "(paper)", "WPKI", "(paper)",
                         "WBLP", "(paper)", "W%", "(paper)"], rows,
                        title="Table IV - workload characteristics "
                              "(measured vs paper)")


@table("table05", designs("baseline", "bard-h", "ideal"))
def table05(rs):
    rows = []
    for label, d in (("Baseline", "baseline"), ("BARD", "bard-h"),
                     ("Ideal", "ideal")):
        means = rs.filter(config=d).metric("mean_w2w_ns")
        rows.append((label, amean(means), max(means)))
    return format_table(["design", "mean w2w (ns)", "max w2w (ns)"], rows,
                        title="Table V - write-to-write delay (paper: base "
                              "5.0/5.7, BARD 4.2/5.0, ideal 3.3/3.3)")


@table("table06", designs("baseline", "bard-h", "ideal", "device=x8",
                          "device=x8+bard-h", "device=x8+ideal",
                          sweep=True))
def table06(rs):
    rows = [(label, gain(rs, x4), gain(rs, x8)) for label, x4, x8 in (
        ("Baseline", "baseline", "device=x8"),
        ("BARD", "bard-h", "device=x8+bard-h"),
        ("Ideal", "ideal", "device=x8+ideal"))]
    return format_table(["system", "x4 device %", "x8 device %"], rows,
                        title="Table VI - x4 vs x8 devices, relative to x4 "
                              "baseline (paper: base 0.0/2.1, BARD 4.3/7.1,"
                              " ideal 14.5/14.5)")


@table("table07", designs("baseline", "bard-h", "small-16core",
                          "small-16core+bard-h", sweep=True))
def table07(rs):
    rows = []
    for label, base, bard in (("8-core", "baseline", "bard-h"),
                              ("16-core", "small-16core",
                               "small-16core+bard-h")):
        rows.append((label, gain(rs, bard, base),
                     best_gain(rs, bard, base)))
    return format_table(["system", "gmean speedup %", "max speedup %"],
                        rows, title="Table VII - BARD speedup vs core count"
                                    " (paper: 8-core 4.2/8.8, 16-core "
                                    "5.1/11.1)")


@table("table08", designs("bard-h"))
def table08(rs):
    reports = [bandwidth_report(r) for r in rs.results()]
    wb = [b.writeback_gbps for b in reports]
    sync = [b.sync_gbps for b in reports]
    overhead = sync_overhead_pct(rs)
    rows = [("Writeback (70B)", amean(wb), max(wb)),
            ("Synchronization (9b)", amean(sync), max(sync)),
            ("sync overhead %", overhead, overhead)]
    return format_table(["purpose", "mean GB/s", "max GB/s"], rows,
                        title="Table VIII - 128-core bandwidth overheads "
                              "(paper: WB 153.9/281.3, sync 2.5/4.5, "
                              "~1.6%)")


@table("table09", designs("baseline", "bard-h", "vwq"))
def table09(rs):
    rows = [(label, *power_ratios(rs, d))
            for label, d in (("BARD", "bard-h"), ("VWQ", "vwq"))]
    return format_table(["system", "power", "energy", "EDP"], rows,
                        title="Table IX - power/energy/EDP normalised to "
                              "baseline (paper: BARD 1.06/1.015/0.970, "
                              "VWQ 0.989/0.993/0.995)")


@table("table10", designs("baseline", "bard-h"))
def table10(rs):
    columns = [change_pct(rs, "bard-h", m) for m in ("mpki", "wpki")]
    rows = by_workload(rs, columns,
                       ("mean", *map(amean, columns)),
                       ("max", *map(max, columns)))
    return format_table(["workload", "dMPKI %", "dWPKI %"], rows,
                        title="Table X - misses/writebacks relative to "
                              "baseline (paper: misses ~0.0%/+1.3%, "
                              "writebacks +2.7%/+8.5%)")


@table("tracker", designs("bard-h"))
def tracker(rs):
    accuracy = [r.bard_accuracy for r in rs.results()]
    checked = [a.checked for a in accuracy]
    wrong = [100.0 * a.error_rate for a in accuracy]
    return format_table(["workload", "decisions checked", "incorrect %"],
                        by_workload(rs, (checked, wrong),
                                    ("mean", sum(checked),
                                     incorrect_pct(rs))),
                        title="Section VII-I - BLP-Tracker decision "
                              "accuracy (paper: 30.3% incorrect)")


@table("ablation_drain", designs("baseline", "drain=fcfs",
                                 "drain=fcfs+bard-h", "bard-h", sweep=True))
def ablation_drain(rs):
    return gain_table(rs, [("fcfs drain (baseline LLC)", "drain=fcfs"),
                           ("fcfs drain + BARD", "drain=fcfs+bard-h"),
                           ("min-latency + BARD", "bard-h")],
                      "Ablation - write-drain scheduling policy")


@table("ablation_pbpl", designs("baseline", "pbpl=off", "pbpl=off+bard-h",
                                sweep=True))
def ablation_pbpl(rs):
    return gain_table(rs, [("no PBPL (baseline LLC)", "pbpl=off"),
                           ("no PBPL + BARD", "pbpl=off+bard-h")],
                      "Ablation - permutation-based page interleaving "
                      "(PBPL)")


@table("ablation_refresh", designs("baseline", "refresh=on",
                                   "refresh=on+bard-h", sweep=True,
                                   first=2))
def ablation_refresh(rs):
    return gain_table(rs, [("refresh on (baseline LLC)", "refresh=on"),
                           ("refresh on + BARD", "refresh=on+bard-h")],
                      "Ablation - all-bank refresh model")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Reproduce the paper's tables and score its claims.")
    parser.add_argument("names", nargs="*",
                        help="table or claim id prefixes (default: all)")
    parser.add_argument("--out", type=Path, default=OUT,
                        help="scorecard JSON path (default: %(default)s)")
    args = parser.parse_args(argv)
    ids = list(TABLES) + [c.id for c in CLAIMS]
    unknown = [n for n in args.names
               if not any(i.startswith(n) for i in ids)]
    if unknown:
        parser.error(f"no table or claim id starts with {unknown}")

    def chosen(ident):
        return not args.names or any(ident.startswith(n) for n in args.names)

    tables = [(n, g, r) for n, (g, r) in TABLES.items() if chosen(n)]
    claims = [c for c in CLAIMS if chosen(c.id)]
    scale = os.environ.get("REPRO_SCALE", "quick").lower()
    session = Session(parallel=os.cpu_count() or 1,
                      cache=bool(os.environ.get(CACHE_DIR_ENV)))
    grids = [g(scale) for _, g, _ in tables] + [c.grid(scale)
                                                for c in claims]
    session.run(RunPlan(None, [p for g in grids for p in g.expand().points]),
                progress=lambda done, total, spec: print(
                    f"[{done}/{total}] {spec.label}", file=sys.stderr))

    for _, grid, render in tables:
        print()
        print(render(session.run(grid(scale))))
    records = [score(c, c.measure(session.run(c.grid(scale))), scale)
               for c in claims]
    held = sum(r["direction_match"] for r in records)
    by_tolerance = sum(r["direction_match"] and r["sign_match"] is False
                       for r in records)
    print()
    print(format_table(
        ["claim", "paper", "measured", "direction", "holds", "sign"],
        [(r["claim"], "-" if r["paper"] is None else r["paper"],
          r["measured"], r["direction"], r["direction_match"],
          "-" if r["sign_match"] is None else r["sign_match"])
         for r in records],
        title=f"Scorecard ({scale} scale, seed {SEED}): {held} of "
              f"{len(records)} claim directions hold, {by_tolerance} "
              f"only through tolerance"))
    args.out.write_text(json.dumps(
        {"scale": scale, "seed": SEED, "claims": records}, indent=2) + "\n")
    return 0 if held == len(records) else 1


if __name__ == "__main__":
    sys.exit(main())
