"""The paper-claims ledger: BARD's checkable results as data.

Each :class:`Claim` is one row: an id, the paper figure or table it comes
from, the grid it needs (a function of the benchmark scale that builds an
:class:`~repro.experiment.ExperimentSpec`), what it measures and how it
aggregates over workloads, the paper's value, and the direction the
measurement must take (``op`` against ``bound``, give or take
``tolerance``).  ``benchmarks/scorecard.py`` runs the rows through one
:class:`~repro.experiment.Session` and scores each with :func:`score`.

The model is a scaled-down system on synthetic traces, so the paper's
magnitudes are not expected; the direction is the check, and
``magnitude_ratio`` (measured / paper) records how far the magnitude
lies.  A claim whose measurement is a difference of two designs carries
the paper's difference too (e.g. Fig. 2's ideal-writes cut of
24.1 - 33.0 = -8.9 points of time writing).

Every grid point is a *design*: a ``+``-joined list of tokens applied to
``small_8core`` in order (see :func:`variant`).  Its ``config``
coordinate is the design name, so ``rs.filter(config="ideal")`` selects
it and :func:`paired` sets any design against any reference design.

This module is not imported by ``import repro``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.analysis.bandwidth import SYNC_BITS, WRITEBACK_BYTES, \
    bandwidth_report
from repro.analysis.metrics import amean
from repro.config.presets import PRESETS, small_8core
from repro.config.system import SystemConfig
from repro.experiment import AXIS_MODIFIERS, ExperimentSpec, ResultSet
from repro.sim.results import RunResult
from repro.workloads.suites import WORKLOADS, workload_names

#: The one seed every claim runs at (no confidence intervals).
SEED = 7

Grid = Callable[[str], ExperimentSpec]


def workloads(scale: str, sweep: bool = False) -> List[str]:
    """Workloads for a scale; ``sweep`` is the smaller list that the
    multi-dimensional grids (Figs. 15/17, Tables VI/VII) use."""
    if sweep:
        return (["lbm", "bwaves", "cf", "bc", "copy", "whiskey", "mix0"]
                if scale == "full" else ["lbm", "copy", "cf", "whiskey"])
    return list(workload_names(scale))


def variant(design: str) -> SystemConfig:
    """The config a design names.  Tokens apply to ``small_8core`` in
    order: ``baseline`` changes nothing, a preset name (``small-16core``)
    replaces the system, ``ideal`` makes every write take 3.3 ns,
    ``setting=value`` is a sweep axis (``wq=32``, ``device=x8``,
    ``refresh=on``, ...), and anything else is an LLC writeback policy."""
    config = small_8core()
    for token in design.split("+"):
        if token in PRESETS:
            config = PRESETS[token]()
        elif token == "ideal":
            config = config.with_ideal_writes()
        elif "=" in token:
            setting, value = token.split("=", 1)
            config = AXIS_MODIFIERS[setting](config, value)
        elif token != "baseline":
            config = config.with_writeback(token)
    return config


def designs(*names: str, sweep: bool = False,
            first: Optional[int] = None) -> Grid:
    """A grid of the named designs over the scale's workloads (the
    ``first`` few of them, if given); each design keeps its own policy."""
    def grid(scale: str) -> ExperimentSpec:
        return ExperimentSpec(
            workloads=workloads(scale, sweep)[:first],
            configs={name: variant(name) for name in names},
            seeds=SEED, name="+".join(names))
    return grid


def paired(rs: ResultSet, design: str,
           reference: str = "baseline") -> ResultSet:
    """``design``'s observations, each with the same workload's
    ``reference`` result attached as its baseline."""
    return rs.speedup_vs("config", reference).filter(config=design)


def gain(rs: ResultSet, design: str, reference: str = "baseline") -> float:
    """Gmean weighted speedup (%) of ``design`` over ``reference``."""
    return paired(rs, design, reference).gmean_speedup_pct()


def best_gain(rs: ResultSet, design: str,
              reference: str = "baseline") -> float:
    """Largest per-workload weighted speedup (%) of ``design``."""
    ratios = paired(rs, design, reference).metric("weighted_speedup")
    return 100.0 * (max(ratios) - 1)


def mean(rs: ResultSet, design: str, metric: str) -> float:
    """``metric`` averaged over ``design``'s workloads."""
    return rs.filter(config=design).amean(metric)


def shares(result: RunResult) -> Tuple[float, float, float]:
    """BARD-H decisions as % of victim selections: plain LRU evictions,
    BARD-E overrides, BARD-C cleanses (Fig. 10 bottom)."""
    s = result.wb_stats
    total = max(1, s.victim_selections)
    return (100.0 * (total - s.overrides - s.cleanses) / total,
            100.0 * s.overrides / total, 100.0 * s.cleanses / total)


def incorrect_pct(rs: ResultSet) -> float:
    """BARD decisions whose bank had no pending write, %: mean of the
    workloads with checked decisions (Sec. VII-I)."""
    return amean(100.0 * r.bard_accuracy.error_rate for r in rs.results()
                 if r.bard_accuracy.checked > 0)


def sync_overhead_pct(rs: ResultSet) -> float:
    """Table VIII: mean sync over mean writeback bandwidth, %."""
    reports = [bandwidth_report(r) for r in rs.results()]
    wb = amean(b.writeback_gbps for b in reports)
    return 100.0 * amean(b.sync_gbps for b in reports) / max(wb, 1e-9)


def power_ratios(rs: ResultSet, design: str) -> Tuple[float, float, float]:
    """``design``'s DRAM power, energy and energy-delay product over
    baseline's, each a mean of workloads (Table IX)."""
    pairs = [(obs.result.power_report(), obs.baseline.power_report())
             for obs in paired(rs, design)]
    return (amean(mine.power_w / base.power_w for mine, base in pairs),
            amean(mine.energy_nj / base.energy_nj for mine, base in pairs),
            amean(mine.edp / base.edp for mine, base in pairs))


def change_pct(rs: ResultSet, design: str, metric: str) -> List[float]:
    """Per-workload % change of ``metric`` from baseline (Table X)."""
    return [100.0 * (getattr(obs.result, metric)
                     - getattr(obs.baseline, metric))
            / max(getattr(obs.baseline, metric), 1e-9)
            for obs in paired(rs, design)]


def table4(metric: str, field: str, agg: Callable) -> Tuple[
        Callable[[ResultSet], float], Callable[[str], float]]:
    """Both sides of a Table IV row: ``agg`` of the baseline's ``metric``
    over the workloads, and of ``PaperRef.<field>`` over those Table IV
    lists (mixes have no paper value).  A mean keeps the measured side
    to the listed workloads too, so both sides average one set."""
    def measure(rs: ResultSet) -> float:
        if agg is amean:
            rs = rs.filter(workload=lambda w: w in WORKLOADS)
        return agg(rs.metric(metric))

    def paper(scale: str) -> float:
        return agg(getattr(WORKLOADS[w].paper, field)
                   for w in workloads(scale) if w in WORKLOADS)
    return measure, paper


OPS: Dict[str, Callable[[float, float, float], bool]] = {
    ">": lambda m, b, t: m > b - t,
    ">=": lambda m, b, t: m >= b - t,
    "<": lambda m, b, t: m < b + t,
    "<=": lambda m, b, t: m <= b + t,
    "~": lambda m, b, t: abs(m - b) < t,
}


@dataclass(frozen=True)
class Claim:
    """One checkable paper claim (see the module docstring)."""

    id: str
    figure: str
    grid: Grid
    metric: str
    measure: Callable[[ResultSet], float]
    paper: Union[None, float, Callable[[str], float]]
    op: str
    bound: float
    tolerance: float = 0.0

    def paper_value(self, scale: str) -> Optional[float]:
        return self.paper(scale) if callable(self.paper) else self.paper

    def holds(self, measured: float) -> bool:
        return OPS[self.op](measured, self.bound, self.tolerance)

    def holds_without_tolerance(self, measured: float) -> Optional[bool]:
        """Whether an ordering claim holds with its tolerance taken away:
        the measurement lies on the paper's side of the bound (for a
        bound of 0, it has the sign the paper reports).  None for a
        ``~`` claim, whose tolerance is the claim itself."""
        if self.op == "~":
            return None
        return OPS[self.op](measured, self.bound, 0.0)


def _num(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value, 4)


def score(claim: Claim, measured: float, scale: str) -> Dict[str, object]:
    """The claim's scorecard record; ``magnitude_ratio`` is measured /
    paper, ``None`` when the paper gives no value or zero.
    ``sign_match`` is :meth:`Claim.holds_without_tolerance`: a row whose
    ``direction_match`` holds only through its tolerance reads False."""
    paper = claim.paper_value(scale)
    direction = f"{claim.op} {claim.bound:g}"
    if claim.tolerance:
        direction += f" (tolerance {claim.tolerance:g})"
    return {
        "claim": claim.id,
        "figure": claim.figure,
        "metric": claim.metric,
        "paper": _num(paper),
        "measured": _num(measured),
        "direction": direction,
        "direction_match": claim.holds(measured),
        "sign_match": claim.holds_without_tolerance(measured),
        "magnitude_ratio": _num(measured / paper) if paper else None,
    }


_MAIN = ("baseline", "bard-h")
#: Fig. 17's queue sizes; ``wq=48`` is the baseline config itself.
WQ_SIZES = (32, 48, 64, 96, 128)
_WQ = [f"wq={n}{p}" for n in WQ_SIZES for p in ("", "+bard-h")]
_CORES16 = ("small-16core", "small-16core+bard-h")

CLAIMS: Tuple[Claim, ...] = (
    Claim("fig02.ideal_time_writing_cut", "Fig. 2",
          designs("baseline", "ideal"),
          "mean time writing (%), ideal writes minus baseline, points",
          lambda rs: (mean(rs, "ideal", "time_writing_pct")
                      - mean(rs, "baseline", "time_writing_pct")),
          24.1 - 33.0, "<", 0),
    Claim("fig03.mean_write_blp", "Fig. 3", designs("baseline"),
          "baseline write BLP (banks of 32 per drain), mean of workloads",
          lambda rs: mean(rs, "baseline", "write_blp"), 22.1, "<", 32),
    Claim("fig10_top.bard_e_gain", "Fig. 10 (top)",
          designs("baseline", "bard-e"),
          "gmean weighted speedup of BARD-E over baseline, %",
          lambda rs: gain(rs, "bard-e"), 4.1, ">", 0),
    Claim("fig10_top.bard_c_gain", "Fig. 10 (top)",
          designs("baseline", "bard-c"),
          "gmean weighted speedup of BARD-C over baseline, %",
          lambda rs: gain(rs, "bard-c"), 3.3, ">", 0),
    Claim("fig10_top.bard_h_gain", "Fig. 10 (top)", designs(*_MAIN),
          "gmean weighted speedup of BARD-H over baseline, %",
          lambda rs: gain(rs, "bard-h"), 4.3, ">", 0),
    Claim("fig10_bottom.cleanses_over_overrides", "Fig. 10 (bottom)",
          designs("bard-h"),
          "BARD-H cleanse minus override share of victim selections, "
          "means of workloads, points",
          lambda rs: (amean(shares(r)[2] for r in rs.results())
                      - amean(shares(r)[1] for r in rs.results())),
          30.5 - 4.8, ">", 0),
    Claim("fig11.bard_over_eager", "Fig. 11",
          designs("baseline", "bard-h", "eager"),
          "gmean speedup, BARD-H minus Eager Writeback, points",
          lambda rs: gain(rs, "bard-h") - gain(rs, "eager"),
          4.3 - (-0.5), ">", 0, 0.3),
    Claim("fig11.bard_over_vwq", "Fig. 11",
          designs("baseline", "bard-h", "vwq"),
          "gmean speedup, BARD-H minus Virtual Write Queue, points",
          lambda rs: gain(rs, "bard-h") - gain(rs, "vwq"),
          4.3 - (-0.3), ">", 0, 0.3),
    Claim("fig11_vwq.lowers_blp", "Fig. 11 (Sec. VI-C)",
          designs("baseline", "vwq", first=4),
          "share of workloads whose write BLP VWQ lowers",
          lambda rs: amean(
              float(o.value("write_blp") < o.baseline.write_blp)
              for o in paired(rs, "vwq")),
          None, ">=", 0.5),
    Claim("fig14_top.blp_gain", "Fig. 14 (top)", designs(*_MAIN),
          "mean write BLP, BARD-H over baseline, ratio",
          lambda rs: (mean(rs, "bard-h", "write_blp")
                      / mean(rs, "baseline", "write_blp")),
          28.8 / 22.1, ">", 1.02),
    Claim("fig14_bottom.bard_time_writing_cut", "Fig. 14 (bottom)",
          designs(*_MAIN),
          "mean time writing (%), BARD-H minus baseline, points",
          lambda rs: (mean(rs, "bard-h", "time_writing_pct")
                      - mean(rs, "baseline", "time_writing_pct")),
          29.3 - 33.0, "<=", 0, 0.5),
    Claim("fig14_bottom.ideal_below_bard", "Fig. 14 (bottom)",
          designs("bard-h", "ideal"),
          "mean time writing (%), ideal writes minus BARD-H, points",
          lambda rs: (mean(rs, "ideal", "time_writing_pct")
                      - mean(rs, "bard-h", "time_writing_pct")),
          24.1 - 29.3, "<=", 0, 0.5),
    Claim("fig15.bard_gain_lru", "Fig. 15", designs(*_MAIN, sweep=True),
          "gmean speedup of BARD-H over baseline under LRU, %",
          lambda rs: gain(rs, "bard-h"), 4.3, ">", 0),
    Claim("fig15.bard_gain_srrip", "Fig. 15",
          designs("replacement=srrip", "replacement=srrip+bard-h",
                  sweep=True),
          "gmean speedup of BARD-H over baseline under SRRIP, %",
          lambda rs: gain(rs, "replacement=srrip+bard-h",
                          "replacement=srrip"), 5.0, ">", 0, 2.0),
    Claim("fig15.bard_gain_ship", "Fig. 15",
          designs("replacement=ship", "replacement=ship+bard-h", sweep=True),
          "gmean speedup of BARD-H over baseline under SHiP, %",
          lambda rs: gain(rs, "replacement=ship+bard-h",
                          "replacement=ship"), 4.9, ">", 0, 2.0),
    Claim("fig17.bigger_queue_helps", "Fig. 17",
          designs("baseline", "wq=32", "wq=128", sweep=True),
          "gmean speedup over the 48-entry baseline, 128 minus 32 "
          "write-queue entries, points",
          lambda rs: gain(rs, "wq=128") - gain(rs, "wq=32"),
          10.7 - (-6.2), ">", 0),
    Claim("fig17.bard_tracks_baseline", "Fig. 17",
          designs("baseline", *_WQ, sweep=True),
          "least (over 32-128 entries) BARD-H minus baseline speedup at "
          "one queue size, points",
          lambda rs: min(gain(rs, f"wq={n}+bard-h") - gain(rs, f"wq={n}")
                         for n in WQ_SIZES),
          min(0.4 - (-6.2), 4.3 - 0.0, 7.0 - 3.3, 10.0 - 8.1, 11.7 - 10.7),
          ">", 0, 1.5),
    Claim("fig17.bard_gain_48", "Fig. 17", designs(*_MAIN, sweep=True),
          "gmean speedup of BARD-H with the stock 48-entry queue, %",
          lambda rs: gain(rs, "bard-h"), 4.3, ">", 0),
    Claim("table04.mean_mpki", "Table IV", designs("baseline"),
          "mean MPKI: LLC demand misses (prefetch misses excluded) per "
          "kilo-instruction, workloads Table IV lists",
          *table4("mpki", "mpki", amean), ">", 0),
    Claim("table04.min_wpki", "Table IV", designs("baseline"),
          "least WPKI: LLC writebacks to DRAM (cleanses included) per "
          "kilo-instruction",
          *table4("wpki", "wpki", min), ">", 1),
    Claim("table04.min_write_blp", "Table IV", designs("baseline"),
          "least per-workload baseline write BLP",
          *table4("write_blp", "wblp", min), ">=", 1),
    Claim("table04.max_write_blp", "Table IV", designs("baseline"),
          "greatest per-workload baseline write BLP",
          *table4("write_blp", "wblp", max), "<=", 32),
    Claim("table04.min_time_writing", "Table IV", designs("baseline"),
          "least per-workload baseline time writing, %",
          *table4("time_writing_pct", "write_pct", min),
          ">", 0),
    Claim("table04.max_time_writing", "Table IV", designs("baseline"),
          "greatest per-workload baseline time writing, %",
          *table4("time_writing_pct", "write_pct", max),
          "<", 100),
    Claim("table05.bard_w2w_cut", "Table V", designs(*_MAIN),
          "mean write-to-write delay (ns), BARD-H minus baseline",
          lambda rs: (mean(rs, "bard-h", "mean_w2w_ns")
                      - mean(rs, "baseline", "mean_w2w_ns")),
          4.2 - 5.0, "<", 0),
    Claim("table05.ideal_w2w", "Table V", designs("ideal"),
          "mean write-to-write delay with ideal writes, ns",
          lambda rs: mean(rs, "ideal", "mean_w2w_ns"), 3.3, "~", 10 / 3,
          0.05),
    Claim("table06.x8_baseline_gain", "Table VI",
          designs("baseline", "device=x8", sweep=True),
          "gmean speedup of the x8 over the x4 baseline, %",
          lambda rs: gain(rs, "device=x8"), 2.1, ">", 0),
    Claim("table06.bard_gain_compounds", "Table VI",
          designs(*_MAIN, "device=x8+bard-h", sweep=True),
          "gmean speedup of BARD-H over the x4 baseline, x8 minus x4 "
          "devices, points",
          lambda rs: gain(rs, "device=x8+bard-h") - gain(rs, "bard-h"),
          7.1 - 4.3, ">", 0, 0.3),
    Claim("table06.ideal_above_bard", "Table VI",
          designs(*_MAIN, "ideal", sweep=True),
          "gmean speedup over the x4 baseline, ideal writes minus BARD-H, "
          "points",
          lambda rs: gain(rs, "ideal") - gain(rs, "bard-h"),
          14.5 - 4.3, ">=", 0, 0.3),
    Claim("table07.gain_8core", "Table VII", designs(*_MAIN, sweep=True),
          "gmean speedup of BARD-H over baseline, 8 cores, %",
          lambda rs: gain(rs, "bard-h"), 4.2, ">", 0),
    Claim("table07.max_gain_16core", "Table VII",
          designs(*_CORES16, sweep=True),
          "greatest per-workload speedup of BARD-H, 16 cores, %",
          lambda rs: best_gain(rs, *_CORES16[::-1]), 11.1, ">", 0),
    Claim("table07.gain_16core", "Table VII",
          designs(*_CORES16, sweep=True),
          "gmean speedup of BARD-H over baseline, 16 cores, %",
          lambda rs: gain(rs, *_CORES16[::-1]), 5.1, ">", 0, 1.0),
    Claim("table08.sync_overhead", "Table VIII", designs("bard-h"),
          "BLP-Tracker sync over writeback bandwidth at 128 cores "
          "(means of workloads), %",
          sync_overhead_pct, 1.6, "~",
          100 * SYNC_BITS / (8 * WRITEBACK_BYTES), 0.1),
    Claim("table09.bard_edp", "Table IX", designs(*_MAIN),
          "BARD-H DRAM energy-delay product over baseline's, mean of "
          "workloads",
          lambda rs: power_ratios(rs, "bard-h")[2], 0.970, "<", 1, 0.03),
    Claim("table09.bard_edp_vs_vwq", "Table IX",
          designs(*_MAIN, "vwq"),
          "normalised EDP, BARD-H minus VWQ",
          lambda rs: (power_ratios(rs, "bard-h")[2]
                      - power_ratios(rs, "vwq")[2]),
          0.970 - 0.995, "<", 0, 0.02),
    Claim("table10.mpki_change", "Table X", designs(*_MAIN),
          "change of MPKI under BARD-H, mean of workloads, %",
          lambda rs: amean(change_pct(rs, "bard-h", "mpki")), 0.0, "~", 0,
          10),
    Claim("tracker.incorrect_pct", "Sec. VII-I", designs("bard-h"),
          "BARD decisions whose bank had no pending write, mean of "
          "workloads with checked decisions, %",
          incorrect_pct, 30.3, "<", 100),
    Claim("tracker.decisions_checked", "Sec. VII-I", designs("bard-h"),
          "BARD decisions checked against the write queues, summed",
          lambda rs: sum(r.bard_accuracy.checked for r in rs.results()),
          None, ">", 0),
    Claim("ablation_drain.fcfs_baseline", "Ablation",
          designs("baseline", "drain=fcfs", sweep=True),
          "gmean speedup of oldest-first over min-latency drains, %",
          lambda rs: gain(rs, "drain=fcfs"), None, "<=", 0, 0.5),
    Claim("ablation_pbpl.bard_helps", "Ablation",
          designs("baseline", "pbpl=off", "pbpl=off+bard-h", sweep=True),
          "gmean speedup without PBPL, BARD-H minus baseline, points",
          lambda rs: gain(rs, "pbpl=off+bard-h") - gain(rs, "pbpl=off"),
          None, ">", 0),
    Claim("ablation_refresh.cost", "Ablation",
          designs("baseline", "refresh=on", sweep=True, first=2),
          "gmean speedup of refresh on over off, %",
          lambda rs: gain(rs, "refresh=on"), None, "<=", 0, 0.5),
    Claim("ablation_refresh.bard_helps", "Ablation",
          designs("baseline", "refresh=on", "refresh=on+bard-h",
                  sweep=True, first=2),
          "gmean speedup with refresh, BARD-H minus baseline, points",
          lambda rs: gain(rs, "refresh=on+bard-h") - gain(rs, "refresh=on"),
          None, ">", 0),
)
