"""Interval planning and result aggregation for sampled runs.

The interval-driven run loop itself lives on
:meth:`repro.sim.system.System.run` (it manipulates engine, core, and
cache internals); this module supplies the pure parts:

* :func:`interval_starts` - the interval start offsets a
  :class:`~repro.sampling.config.SamplingConfig` places in a measured
  epoch,
* :func:`validate_plan` - check those intervals fit the epoch,
* :func:`aggregate_results` - fold the per-interval
  :class:`~repro.sim.results.RunResult` snapshots into one whole-run
  result carrying a :class:`~repro.sampling.stats.SamplingSummary`.

Aggregation sums counters, so a 1-interval sample covering the whole
epoch is bit-identical to the corresponding full run - the equivalence
the golden sampling test pins.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence

from repro.cache.cache import CacheStats
from repro.cache.writeback.base import WritebackPolicyStats
from repro.core.bard import BardAccuracy
from repro.dram.channel import ChannelStats
from repro.dram.stats import SubChannelStats
from repro.sampling.config import SamplingConfig
from repro.sampling.stats import SamplingSummary

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported lazily at runtime: repro.sim pulls in the config layer,
    # which imports repro.sampling - a module-level import would cycle.
    from repro.sim.results import RunResult


def interval_starts(sampling: SamplingConfig,
                    epoch_instructions: int) -> Iterator[int]:
    """Yield the plan's ``intervals`` start offsets (instructions past
    the warmup end): interval ``k`` starts at ``k * period``, so the
    same plan always measures the same slices of the trace.
    """
    period = sampling.resolve_period(epoch_instructions)
    for index in range(sampling.intervals):
        yield index * period


def validate_plan(sampling: SamplingConfig,
                  epoch_instructions: int) -> int:
    """Check every interval lies inside the epoch; returns the period."""
    return sampling.resolve_period(epoch_instructions)


def _sum_counters(cls, items: Sequence):
    """Field-wise sum of plain counter dataclasses.

    Numeric fields sum directly; list-valued fields (histograms, e.g.
    ``CacheStats.mshr_occupancy_hist``) sum element-wise with the result
    as long as the longest interval's list.
    """
    out = cls()
    for f in dataclasses.fields(cls):
        values = [getattr(item, f.name) for item in items]
        if values and isinstance(values[0], list):
            merged: List[float] = []
            for hist in values:
                if len(hist) > len(merged):
                    merged.extend([0] * (len(hist) - len(merged)))
                for i, count in enumerate(hist):
                    merged[i] += count
            setattr(out, f.name, merged)
        else:
            setattr(out, f.name, sum(values))
    return out


def aggregate_results(
    intervals: List[RunResult],
    per_core_retired: Sequence[int],
    per_core_cycles: Sequence[float],
    label: str,
    summary: SamplingSummary,
) -> RunResult:
    """Fold per-interval results into one whole-run :class:`RunResult`.

    Counters are summed (the LLC/DRAM/channel statistics of the measured
    intervals; fast-forward contributes nothing by construction) and the
    per-core IPC list is pooled - total retired over total cycles - so
    ratio metrics derived from the aggregate match a full run when the
    sample covers the whole epoch.
    """
    from repro.sim.results import RunResult

    first = intervals[0]
    dram = SubChannelStats()
    for res in intervals:
        dram.merge_from(res.dram)
    channels = [
        _sum_counters(ChannelStats,
                      [res.channels[i] for res in intervals])
        for i in range(len(first.channels))
    ]
    wb_stats: Optional[WritebackPolicyStats] = None
    if first.wb_stats is not None:
        wb_stats = _sum_counters(WritebackPolicyStats,
                                 [res.wb_stats for res in intervals])
    accuracy: Optional[BardAccuracy] = None
    if first.bard_accuracy is not None:
        accuracy = _sum_counters(BardAccuracy,
                                 [res.bard_accuracy for res in intervals])
    llc = _sum_counters(CacheStats, [res.llc for res in intervals])
    ipc = [
        retired / cycles if cycles > 0 else 0.0
        for retired, cycles in zip(per_core_retired, per_core_cycles)
    ]
    return RunResult(
        label=label,
        cores=first.cores,
        instructions=sum(res.instructions for res in intervals),
        elapsed_ticks=sum(res.elapsed_ticks for res in intervals),
        ipc=ipc,
        llc=llc,
        dram=dram,
        channels=channels,
        subchannel_count=first.subchannel_count,
        wb_stats=wb_stats,
        bard_accuracy=accuracy,
        llc_demand_accesses=llc.demand_accesses,
        events=sum(res.events for res in intervals),
        mshr_stall_cycles=sum(res.mshr_stall_cycles
                              for res in intervals),
        sampling=summary,
    )


def collect_metric_values(
    intervals: List[RunResult],
    metrics: Sequence[str],
) -> Dict[str, List[float]]:
    """Per-metric value lists across the interval results."""
    return {
        name: [float(getattr(res, name)) for res in intervals]
        for name in metrics
    }
