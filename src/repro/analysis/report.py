"""One-stop textual report for a baseline/BARD comparison.

Used by the CLI (``python -m repro compare``) and handy in notebooks: takes
the run results and renders the paper's headline metrics side by side.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.bandwidth import bandwidth_report
from repro.analysis.tables import format_table
from repro.sim.results import RunResult


def _cell(result: RunResult, metric: str, value: float) -> object:
    """A table cell: ``mean +/- CI half-width`` for sampled runs."""
    summary = result.sampling
    if summary is not None and metric in summary.metrics:
        est = summary.metrics[metric]
        return f"{value:.2f} ±{est.half_width:.2f}"
    return value


def sampling_note(result: RunResult) -> Optional[str]:
    """One-line description of how a sampled result was measured."""
    summary = result.sampling
    if summary is None:
        return None
    ipc = summary.metrics.get("mean_ipc")
    detail = ""
    if ipc is not None:
        detail = (f"; mean IPC {ipc.mean:.3f} "
                  f"[{ipc.ci_lo:.3f}, {ipc.ci_hi:.3f}] "
                  f"({100 * ipc.rel_error:.1f}% rel err)")
    return (f"sampled ({result.label}): {summary.intervals} x "
            f"{summary.interval_instructions} instructions, "
            f"every {summary.period_instructions}, "
            f"{100 * summary.confidence:.0f}% CI{detail}")


def comparison_report(base: RunResult, other: RunResult,
                      workload: str = "") -> str:
    """Render the paper's headline metrics for two runs of one workload.

    Sampled runs show each metric as mean +/- its CI half-width, with a
    per-run sampling footnote (interval plan and IPC interval).
    """
    metrics = [
        ("write BLP (/32)", "write_blp", base.write_blp, other.write_blp),
        ("time writing (%)", "time_writing_pct", base.time_writing_pct,
         other.time_writing_pct),
        ("mean w2w delay (ns)", "mean_w2w_ns", base.mean_w2w_ns,
         other.mean_w2w_ns),
        ("LLC MPKI", "mpki", base.mpki, other.mpki),
        ("LLC WPKI", "wpki", base.wpki, other.wpki),
        ("mean IPC", "mean_ipc", base.mean_ipc, other.mean_ipc),
        ("DRAM energy (uJ)", "", base.power_report().energy_nj / 1000,
         other.power_report().energy_nj / 1000),
    ]
    rows: List[tuple] = [
        (name, _cell(base, metric, bval), _cell(other, metric, oval))
        for name, metric, bval, oval in metrics
    ]
    title = f"{workload}: {base.label} vs {other.label}"
    body = format_table(["metric", base.label, other.label], rows,
                        title=title)
    speedup = other.speedup_pct(base)
    lines = [body, f"weighted speedup: {speedup:+.2f}%"]
    for result in (base, other):
        note = sampling_note(result)
        if note:
            lines.append(note)
    if other.wb_stats is not None:
        s = other.wb_stats
        total = max(1, s.victim_selections)
        lines.append(
            f"decisions: {s.victim_selections} victim selections, "
            f"{100 * s.overrides / total:.1f}% overrides, "
            f"{100 * s.cleanses / total:.1f}% cleanses"
        )
    if other.bard_accuracy is not None and other.bard_accuracy.checked:
        lines.append(
            "BLP-Tracker accuracy: "
            f"{100 * other.bard_accuracy.error_rate:.1f}% of "
            f"{other.bard_accuracy.checked} decisions were to banks with "
            "pending writes"
        )
    bw = bandwidth_report(other)
    lines.append(
        f"sync bandwidth (128-core scale): {bw.sync_gbps:.2f} GB/s "
        f"({bw.overhead_pct:.1f}% of writeback traffic)"
    )
    return "\n".join(lines)


def characterization_report(results: List[tuple],
                            title: Optional[str] = None) -> str:
    """Table IV-style characterization for (workload, RunResult) pairs."""
    rows = [
        (wl, r.mpki, r.wpki, r.write_blp, r.time_writing_pct, r.mean_ipc)
        for wl, r in results
    ]
    return format_table(
        ["workload", "MPKI", "WPKI", "WBLP", "W%", "IPC"],
        rows,
        title=title or "Workload characterization (cf. paper Table IV)",
    )
