"""DDR5 channel: two independent sub-channels plus controller front-end.

The channel is the component the LLC talks to.  It

* routes requests to the correct sub-channel using the address mapping's
  coordinates,
* forwards reads that hit a buffered write (WRQ forwarding logic),
* stages requests that do not fit in the bounded read/write queues and
  replays them as space frees up, and
* bridges the DRAM clock domain to the engine's tick domain.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List

from repro.clock import TICKS_PER_DRAM_CYCLE
from repro.dram.commands import MemRequest
from repro.dram.stats import SubChannelStats
from repro.dram.subchannel import SubChannel
from repro.dram.timing import DDR5Timing

#: Latency (DRAM cycles) of servicing a read by forwarding from the WRQ.
_FORWARD_LATENCY = 4

#: Number of sub-channels per DDR5 channel.
SUBCHANNELS = 2


@dataclass
class ChannelStats:
    """Front-end counters (per channel, engine-tick domain)."""

    reads_received: int = 0
    writes_received: int = 0
    forwarded_reads: int = 0
    staged_reads: int = 0
    staged_writes: int = 0
    read_latency_ticks: int = 0
    reads_completed: int = 0

    @property
    def mean_read_latency_ticks(self) -> float:
        if not self.reads_completed:
            return 0.0
        return self.read_latency_ticks / self.reads_completed


class Channel:
    """One DDR5 channel with two sub-channels."""

    def __init__(
        self,
        timing: DDR5Timing,
        rq_capacity: int = 64,
        wq_capacity: int = 48,
        wq_high: int = 40,
        wq_low: int = 8,
        ideal_writes: bool = False,
        drain_policy: str = "min-latency",
        refresh: bool = False,
    ) -> None:
        self.timing = timing
        self.subchannels: List[SubChannel] = [
            SubChannel(
                timing,
                rq_capacity=rq_capacity,
                wq_capacity=wq_capacity,
                wq_high=wq_high,
                wq_low=wq_low,
                ideal_writes=ideal_writes,
                drain_policy=drain_policy,
                refresh=refresh,
            )
            for _ in range(SUBCHANNELS)
        ]
        self.stats = ChannelStats()
        self._engine = None
        self._staged_reads: List[Deque[MemRequest]] = [
            deque() for _ in range(SUBCHANNELS)
        ]
        self._staged_writes: List[Deque[MemRequest]] = [
            deque() for _ in range(SUBCHANNELS)
        ]
        self._tick_pending: List[bool] = [False] * SUBCHANNELS

    def attach(self, engine) -> None:
        """Connect the channel to the simulation engine."""
        self._engine = engine

    # ------------------------------------------------------------------
    # Request submission (LLC-facing)
    # ------------------------------------------------------------------

    def submit(self, req: MemRequest) -> None:
        """Accept a read or write request for this channel.

        A read that hits a buffered (or staged) write is forwarded
        without touching DRAM.  The sub-channel is kicked only when its
        scheduler can issue, at the first cycle it can (see
        :meth:`SubChannel.on_arrival`).
        """
        sc_idx = req.coord.subchannel
        sc = self.subchannels[sc_idx]
        engine = self._engine
        now_tick = engine.now if engine is not None else 0
        now_cycle = -(-now_tick // TICKS_PER_DRAM_CYCLE)  # ceil division
        req.arrival_cycle = now_cycle
        stats = self.stats
        if not req.is_write:
            stats.reads_received += 1
            addr = req.addr
            staged = self._staged_writes[sc_idx]
            if addr in sc.wq.by_addr or (
                    staged and any(r.addr == addr for r in staged)):
                stats.forwarded_reads += 1
                self._complete_read_at(req, now_cycle + _FORWARD_LATENCY,
                                       now_tick)
                return
            self._wrap_read(req, now_tick)
            if not sc.rq.push(req):
                stats.staged_reads += 1
                self._staged_reads[sc_idx].append(req)
        else:
            stats.writes_received += 1
            if not sc.wq.push(req):
                stats.staged_writes += 1
                self._staged_writes[sc_idx].append(req)
        issue_cycle = sc.on_arrival(now_cycle)
        if issue_cycle is not None and not self._tick_pending[sc_idx]:
            self._kick(sc_idx, issue_cycle)

    def _wrap_read(self, req: MemRequest, arrival: int) -> None:
        """Wrap the completion callback to account read latency.

        ``arrival`` is the tick the read reached the channel.
        """
        inner = req.on_complete

        def done(cycle: int) -> None:
            tick = cycle * TICKS_PER_DRAM_CYCLE
            # Resolve stats at completion time: reset_stats() swaps the
            # stats object at the warmup boundary, and reads in flight
            # across it must land in the measurement-epoch counters.
            stats = self.stats
            stats.reads_completed += 1
            if tick > arrival:
                stats.read_latency_ticks += tick - arrival
            if inner is not None:
                self._engine.schedule(tick, inner, tick)

        req.on_complete = done

    def _complete_read_at(self, req: MemRequest, cycle: int,
                          arrival: int) -> None:
        """Complete a forwarded read at ``cycle`` (arrived at tick
        ``arrival``)."""
        tick = cycle * TICKS_PER_DRAM_CYCLE
        inner = req.on_complete
        self.stats.reads_completed += 1
        if tick > arrival:
            self.stats.read_latency_ticks += tick - arrival
        if inner is not None:
            self._engine.schedule(tick, inner, tick)

    # ------------------------------------------------------------------
    # Clock bridging and scheduling
    # ------------------------------------------------------------------

    def _now_cycle(self) -> int:
        """The current engine tick as a DRAM cycle (rounded up)."""
        tick = self._engine.now if self._engine is not None else 0
        return -(-tick // TICKS_PER_DRAM_CYCLE)  # ceil division

    def _kick(self, sc_idx: int, cycle: int) -> None:
        """Schedule the scheduler tick of sub-channel ``sc_idx`` at ``cycle``.

        Callers kick only while no tick is pending: kick cycles never
        decrease - arrivals and the bus reservation only move forward -
        so a tick already pending is due at or before ``cycle`` and
        serves that kick too.
        """
        self._tick_pending[sc_idx] = True
        self._engine.schedule(cycle * TICKS_PER_DRAM_CYCLE, self._tick_sc,
                              sc_idx)

    def _tick_sc(self, sc_idx: int) -> None:
        tick_pending = self._tick_pending
        tick_pending[sc_idx] = False
        nxt = self.subchannels[sc_idx].tick(
            self._engine.now // TICKS_PER_DRAM_CYCLE)
        if self._staged_writes[sc_idx] or self._staged_reads[sc_idx]:
            self._replay_staged(sc_idx)
        if nxt is not None and not tick_pending[sc_idx]:
            self._kick(sc_idx, nxt)

    def _replay_staged(self, sc_idx: int) -> None:
        """Move staged requests into the bounded queues as space frees."""
        sc = self.subchannels[sc_idx]
        staged_w = self._staged_writes[sc_idx]
        while staged_w and sc.wq.push(staged_w[0]):
            staged_w.popleft()
        staged_r = self._staged_reads[sc_idx]
        while staged_r and sc.rq.push(staged_r[0]):
            staged_r.popleft()

    # ------------------------------------------------------------------
    # Introspection / end-of-run
    # ------------------------------------------------------------------

    def pending_writes_for_bank(self, bank_id: int) -> int:
        """Ground-truth pending writes for a per-channel bank id (0..63).

        Used only by the BLP-Tracker accuracy probe (paper section VII-I);
        BARD itself never calls this.
        """
        sc_idx, sub_bank = divmod(bank_id, 32)
        count = self.subchannels[sc_idx].wq.pending_for_bank(sub_bank)
        count += sum(
            1 for r in self._staged_writes[sc_idx] if r.sc_bank == sub_bank
        )
        return count

    def finalize(self) -> None:
        """Close out statistics at the end of a run."""
        cycle = self._now_cycle()
        for sc in self.subchannels:
            sc.finalize(cycle)

    def close(self) -> None:
        """Drop every queued and staged request (reads carry completion
        callbacks into the cache hierarchy)."""
        for sc in self.subchannels:
            sc.rq.entries.clear()
            sc.wq.entries.clear()
            sc.wq.by_addr.clear()
        for staged in (*self._staged_reads, *self._staged_writes):
            staged.clear()

    def aggregate_stats(self) -> SubChannelStats:
        """Sum of both sub-channels' statistics."""
        total = SubChannelStats()
        for sc in self.subchannels:
            total.merge_from(sc.stats)
        return total
