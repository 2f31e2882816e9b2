"""Statistics collected by the DRAM model.

These counters directly feed the paper's evaluation metrics:

* **time spent writing** (Figs. 2 and 14 bottom): fraction of execution time
  the sub-channel spends in write-drain mode (including turnarounds),
* **write bank-level parallelism** (Figs. 3 and 14 top): unique banks that
  receive a write during one drain episode,
* **write-to-write delay** (Table V): burst-to-burst spacing of consecutive
  writes within a drain episode,
* command counters for the power model (Table IX) and bandwidth analysis
  (Table VIII).  ACT/PRE are counted where a burst is committed (and a
  PRE for each row an all-bank refresh closes); like every counter here
  they cover one measurement epoch, as ``System.reset_stats`` replaces
  the stats object at each epoch boundary.

Per-bank read/write burst counts live on each bank
(:class:`~repro.dram.bank.BankStats`) and are reset with these, so after
a run they cover its last measured window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.dram.timing import DRAM_CYCLE_NS


@dataclass
class DrainEpisode:
    """One write-drain episode (high watermark -> low watermark)."""

    writes: int
    unique_banks: int
    start_cycle: int
    end_cycle: int

    @property
    def duration(self) -> int:
        return self.end_cycle - self.start_cycle


@dataclass
class SubChannelStats:
    """Counters for one DDR5 sub-channel (all times in DRAM cycles)."""

    reads_issued: int = 0
    writes_issued: int = 0
    read_row_hits: int = 0
    read_row_conflicts: int = 0
    write_row_hits: int = 0
    write_row_conflicts: int = 0
    activates: int = 0
    precharges: int = 0
    write_mode_cycles: int = 0
    turnaround_cycles: int = 0
    busy_cycles: int = 0
    episodes: List[DrainEpisode] = field(default_factory=list)
    w2w_delay_sum: int = 0
    w2w_delay_count: int = 0
    w2w_delay_max: int = 0

    def record_w2w(self, delta: int) -> None:
        self.w2w_delay_sum += delta
        self.w2w_delay_count += 1
        if delta > self.w2w_delay_max:
            self.w2w_delay_max = delta

    @property
    def mean_w2w_ns(self) -> float:
        """Mean write-to-write burst delay in nanoseconds (Table V)."""
        if not self.w2w_delay_count:
            return 0.0
        return self.w2w_delay_sum / self.w2w_delay_count * DRAM_CYCLE_NS

    @property
    def max_w2w_ns(self) -> float:
        return self.w2w_delay_max * DRAM_CYCLE_NS

    @property
    def mean_blp(self) -> float:
        """Mean unique banks written per drain episode (Figs. 3/14)."""
        if not self.episodes:
            return 0.0
        return sum(e.unique_banks for e in self.episodes) / len(self.episodes)

    def merge_from(self, other: "SubChannelStats") -> None:
        """Accumulate ``other`` into this stats object (channel roll-up)."""
        self.reads_issued += other.reads_issued
        self.writes_issued += other.writes_issued
        self.read_row_hits += other.read_row_hits
        self.read_row_conflicts += other.read_row_conflicts
        self.write_row_hits += other.write_row_hits
        self.write_row_conflicts += other.write_row_conflicts
        self.activates += other.activates
        self.precharges += other.precharges
        self.write_mode_cycles += other.write_mode_cycles
        self.turnaround_cycles += other.turnaround_cycles
        self.busy_cycles += other.busy_cycles
        self.episodes.extend(other.episodes)
        self.w2w_delay_sum += other.w2w_delay_sum
        self.w2w_delay_count += other.w2w_delay_count
        self.w2w_delay_max = max(self.w2w_delay_max, other.w2w_delay_max)
