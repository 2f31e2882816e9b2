"""Run results: the measured quantities every experiment consumes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cache.cache import CacheStats
from repro.cache.writeback.base import WritebackPolicyStats
from repro.clock import NS_PER_TICK, TICKS_PER_DRAM_CYCLE
from repro.core.bard import BardAccuracy
from repro.dram.channel import ChannelStats
from repro.dram.power import PowerReport, estimate_power
from repro.dram.stats import SubChannelStats
from repro.sampling.stats import SamplingSummary


@dataclass
class RunResult:
    """Everything measured in one simulation run."""

    label: str
    cores: int
    instructions: int
    elapsed_ticks: int
    ipc: List[float]
    llc: CacheStats
    dram: SubChannelStats
    channels: List[ChannelStats] = field(default_factory=list)
    subchannel_count: int = 2
    wb_stats: Optional[WritebackPolicyStats] = None
    bard_accuracy: Optional[BardAccuracy] = None
    llc_demand_accesses: int = 0
    #: Engine events dispatched over the whole run (warmup + measurement);
    #: deterministic in (config, workload, seed); perfbench reports it
    #: as ``sim.engine.events``.
    events: int = 0
    #: CPU cycles core issue stalled on L1D MSHR-pipeline backpressure,
    #: summed over cores (0 unless ``mshr_pipeline`` is on somewhere).
    mshr_stall_cycles: int = 0
    #: How the run was sampled, with per-metric confidence intervals;
    #: ``None`` for full (unsampled) runs.
    sampling: Optional[SamplingSummary] = None
    #: Wall-clock seconds per execution phase (``warmup.functional``,
    #: ``measure``, ``sampling.interval``, ...), recorded when telemetry
    #: is enabled; ``None`` otherwise.  Indexed phases are collapsed
    #: (every ``sampling.interval[i]`` accumulates into one key), so the
    #: dict stays small regardless of interval count.
    phase_breakdown: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------
    # Derived metrics (the paper's reporting vocabulary)
    # ------------------------------------------------------------------

    @property
    def runtime_ns(self) -> float:
        return self.elapsed_ticks * NS_PER_TICK

    @property
    def elapsed_dram_cycles(self) -> float:
        return self.elapsed_ticks / TICKS_PER_DRAM_CYCLE

    @property
    def mpki(self) -> float:
        """LLC demand misses per kilo-instruction (Table IV)."""
        if not self.instructions:
            return 0.0
        return self.llc.demand_misses * 1000 / self.instructions

    @property
    def wpki(self) -> float:
        """LLC writebacks per kilo-instruction (Table IV)."""
        if not self.instructions:
            return 0.0
        return self.llc.writebacks * 1000 / self.instructions

    @property
    def time_writing_pct(self) -> float:
        """% of execution time spent writing to DRAM (Figs. 2/14).

        Write-mode cycles are summed across sub-channels, so normalise by
        elapsed time times the number of sub-channels.
        """
        denom = self.elapsed_dram_cycles * max(1, self.subchannel_count)
        if denom <= 0:
            return 0.0
        return 100.0 * self.dram.write_mode_cycles / denom

    @property
    def write_blp(self) -> float:
        """Mean banks written per WRQ drain episode (Figs. 3/14)."""
        return self.dram.mean_blp

    @property
    def mean_w2w_ns(self) -> float:
        return self.dram.mean_w2w_ns

    @property
    def max_w2w_ns(self) -> float:
        return self.dram.max_w2w_ns

    @property
    def mean_ipc(self) -> float:
        return sum(self.ipc) / len(self.ipc) if self.ipc else 0.0

    # -- writeback decisions (Fig. 10 bottom, Sec. VII-I) ---------------

    @property
    def override_pct(self) -> float:
        """BARD-E overrides as % of LLC victim selections (0.0 when the
        policy keeps no decision counters)."""
        s = self.wb_stats
        if s is None:
            return 0.0
        return 100.0 * s.overrides / max(1, s.victim_selections)

    @property
    def cleanse_pct(self) -> float:
        """BARD-C cleanses as % of LLC victim selections (0.0 when the
        policy keeps no decision counters)."""
        s = self.wb_stats
        if s is None:
            return 0.0
        return 100.0 * s.cleanses / max(1, s.victim_selections)

    @property
    def tracker_error_pct(self) -> float:
        """BARD decisions aimed at a bank with no pending write, % of
        those checked (0.0 for a non-BARD policy)."""
        if self.bard_accuracy is None:
            return 0.0
        return 100.0 * self.bard_accuracy.error_rate

    # -- MSHR pipeline pressure (LLC view; docs/architecture.md) -------

    @property
    def secondary_misses(self) -> int:
        """LLC demand accesses that merged into an outstanding miss."""
        return self.llc.secondary_misses

    @property
    def coalesced_words(self) -> int:
        """New 8-byte words merges contributed to LLC MSHR entries."""
        return self.llc.coalesced_words

    @property
    def mshr_occupancy_mean(self) -> float:
        """Mean LLC MSHR occupancy observed at entry allocation."""
        hist = self.llc.mshr_occupancy_hist
        total = sum(hist)
        if not total:
            return 0.0
        return sum(i * n for i, n in enumerate(hist)) / total

    def weighted_speedup(self, baseline: "RunResult") -> float:
        """Normalised weighted speedup versus ``baseline`` (same workload).

        ``sum_i(IPC_i / IPC_i^base) / n`` - per-core IPC ratios averaged, the
        paper's weighted-speedup metric with the baseline run providing the
        reference IPCs.
        """
        assert len(self.ipc) == len(baseline.ipc)
        ratios = [
            mine / base if base > 0 else 1.0
            for mine, base in zip(self.ipc, baseline.ipc)
        ]
        return sum(ratios) / len(ratios)

    def speedup_pct(self, baseline: "RunResult") -> float:
        """Percentage speedup over ``baseline`` (paper Figs. 10/11/15/17)."""
        return 100.0 * (self.weighted_speedup(baseline) - 1.0)

    def power_report(self) -> PowerReport:
        return estimate_power(self.dram, self.runtime_ns)
