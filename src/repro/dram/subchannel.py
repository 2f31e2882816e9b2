"""DDR5 sub-channel model: 32 banks, one simplex data bus, one scheduler.

Each DDR5 sub-channel has its own 32-bit data bus and operates independently
(paper section II-B), so scheduling, write-drain watermarks, bus turnaround
and the BLP statistics are all per-sub-channel.

Scheduling policy (paper Table II): FR-FCFS with read priority.  The bus
stays in read mode until the write queue reaches its high watermark, then
drains writes until the low watermark is reached.  While draining, the
scheduler picks the write with the *earliest achievable data burst* (the
paper: "the memory controller tries to issue lower latency writes from the
WRQ"), which naturally prefers different-bankgroup banks without pending
conflicts.

Row-buffer policy: open page.  A row stays open after its burst until
an access to another row of the same bank conflicts with it (or an
all-bank refresh precharges every bank); the scheduler never closes a
row early.

All times in this module are DRAM command-clock cycles.
"""

from __future__ import annotations

from typing import List, Optional

from repro.dram.bank import AccessKind, Bank
from repro.dram.commands import MemRequest, Op
from repro.dram.queues import ReadQueue, WriteQueue
from repro.dram.stats import DrainEpisode, SubChannelStats
from repro.dram.timing import DDR5Timing

#: Number of bankgroups and banks per bankgroup in a DDR5 sub-channel.
BANKGROUPS = 8
BANKS_PER_GROUP = 4
BANKS_PER_SUBCHANNEL = BANKGROUPS * BANKS_PER_GROUP

_FAR_PAST = -(10**9)

# Enum members bound once: a class-attribute lookup on an Enum costs
# several times a global's, and the scheduler tests these per request.
_WRITE = Op.WRITE
_ROW_HIT = AccessKind.ROW_HIT
_ROW_CONFLICT = AccessKind.ROW_CONFLICT

#: Scheduling lookahead (DRAM cycles): the scheduler keeps committing
#: requests while the bus is reserved less than this far into the future.
#: This models command-bus pipelining - a bank's PRE/ACT preparation
#: overlaps the data bursts of other banks - while keeping decisions fresh
#: enough to react to newly arriving requests.
_PIPELINE_HORIZON = 24


class SubChannel:
    """One DDR5 sub-channel: banks, queues, bus, and scheduler."""

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
        """``drain_policy`` selects how writes are picked during a drain:
        'min-latency' (the baseline MC behaviour the paper assumes - issue
        the lowest-latency write available) or 'fcfs' (oldest first, an
        ablation showing how much the scheduler itself contributes).

        ``refresh`` enables an all-bank refresh model (tREFI/tRFC); the
        paper omits refresh, so it defaults off and exists for ablation.
        """
        if drain_policy not in ("min-latency", "fcfs"):
            raise ValueError(f"unknown drain policy {drain_policy!r}")
        self.timing = timing
        self.drain_policy = drain_policy
        self.refresh_enabled = refresh
        # Flat copies of the cross-bank timing constraints: `earliest_burst`
        # runs once per queued request per scheduling decision, so the
        # constraint maxima are composed from plain ints instead of
        # attribute chains through the frozen DDR5Timing dataclass.
        self._tccd_s_wr = timing.tccd_s_wr
        self._tccd_l_wr = timing.tccd_l_wr
        self._tccd_s_rd = timing.tccd_s_rd
        self._tccd_l_rd = timing.tccd_l_rd
        self._turnaround = timing.turnaround
        self._burst_cycles = timing.burst
        #: All-bank refresh interval and duration in DRAM cycles
        #: (DDR5: tREFI ~3.9 us, tRFC ~295 ns at 2.4 GHz).
        self.trefi = 9360
        self.trfc = 708
        self._next_refresh = self.trefi
        self.refreshes_performed = 0
        self.banks: List[Bank] = [
            Bank(timing) for _ in range(BANKS_PER_SUBCHANNEL)
        ]
        self.rq = ReadQueue(rq_capacity)
        self.wq = WriteQueue(wq_capacity, wq_high, wq_low)
        self.ideal_writes = ideal_writes
        self.stats = SubChannelStats()

        self.bus_free_cycle = 0
        self.bus_mode: Op = Op.READ
        self._last_wr_burst_bg = [_FAR_PAST] * BANKGROUPS
        self._last_rd_burst_bg = [_FAR_PAST] * BANKGROUPS
        self._last_wr_burst = _FAR_PAST
        self._last_rd_burst = _FAR_PAST

        self._in_drain = False
        self._episode_start = 0
        self._episode_writes = 0
        self._episode_banks: set[int] = set()
        self._episode_last_burst = _FAR_PAST

    # ------------------------------------------------------------------
    # Arrivals (the channel pushes requests onto ``rq``/``wq`` itself;
    # reads that hit a buffered write are forwarded there and never
    # reach the read queue)
    # ------------------------------------------------------------------

    @property
    def idle(self) -> bool:
        return not self.rq.entries and not self.wq.entries

    def on_arrival(self, now: int) -> Optional[int]:
        """Account for a request queued at cycle ``now``.

        Applies refresh and the drain watermarks at ``now``, so an
        episode starts at the arrival that trips the high watermark even
        while the bus is reserved beyond the pipelining horizon.  Returns
        the first cycle :meth:`tick` could issue at, or None when it has
        nothing to issue (no drain in progress and no queued read).
        """
        if self.refresh_enabled:
            self._maybe_refresh(now)
        self._update_drain_mode(now)
        if not self._in_drain and not self.rq.entries:
            return None
        start = self.bus_free_cycle - _PIPELINE_HORIZON
        return start if start > now else now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def earliest_burst(self, req: MemRequest, now: int) -> int:
        """Earliest data-burst start for ``req`` given all constraints."""
        is_write = req.is_write
        ready = req.arrival_cycle
        if ready > now:
            ready = now
        bus_free = self.bus_free_cycle
        if is_write and self.ideal_writes:
            # Idealised system (paper Figs. 2/14, Table V "Ideal"): every
            # write occupies the bus for BL/2 and nothing else.
            burst = self._last_wr_burst + self._tccd_s_wr
            if bus_free > burst:
                burst = bus_free
            if ready > burst:
                burst = ready
        else:
            burst = self.banks[req.sc_bank].earliest_burst(
                req.row, req.op, ready
            )
            if bus_free > burst:
                burst = bus_free
            if is_write:
                c = self._last_wr_burst_bg[req.bankgroup] + self._tccd_l_wr
                if c > burst:
                    burst = c
                c = self._last_wr_burst + self._tccd_s_wr
                if c > burst:
                    burst = c
            else:
                c = self._last_rd_burst_bg[req.bankgroup] + self._tccd_l_rd
                if c > burst:
                    burst = c
                c = self._last_rd_burst + self._tccd_s_rd
                if c > burst:
                    burst = c
        if req.op is not self.bus_mode:
            c = bus_free + self._turnaround
            if c > burst:
                burst = c
        return burst

    def _pick_write(self, now: int) -> Optional[MemRequest]:
        """Select the next write to drain.

        'min-latency': the paper's assumed MC behaviour - issue the write
        with the earliest achievable burst, the oldest one on a tie.
        'fcfs': oldest write first (ablation).

        No write can burst before the *floor*: the bus freeing, tCCD_S
        after the last write burst, and the read-to-write turnaround.  So
        the first queued write that reaches the floor is already the
        exact argmin and the scan stops there.
        """
        if self.drain_policy == "fcfs":
            return self.wq.oldest()
        bus_free = self.bus_free_cycle
        floor = self._last_wr_burst + self._tccd_s_wr
        if bus_free > floor:
            floor = bus_free
        if self.bus_mode is not _WRITE:
            c = bus_free + self._turnaround
            if c > floor:
                floor = c
        best: Optional[MemRequest] = None
        best_burst = 0
        earliest = self.earliest_burst
        for req in self.wq.entries:
            burst = earliest(req, now)
            if burst <= floor:
                return req
            if best is None or burst < best_burst:
                best, best_burst = req, burst
        return best

    def _update_drain_mode(self, now: int) -> None:
        # The write queue's watermark predicates, as compares on locals.
        wq = self.wq
        queued = len(wq.entries)
        if self._in_drain:
            if queued <= wq.low_watermark:
                self._end_episode()
        elif queued >= wq.high_watermark:
            self._in_drain = True
            self._episode_start = now
            self._episode_writes = 0
            self._episode_banks = set()
            self._episode_last_burst = _FAR_PAST

    def _end_episode(self) -> None:
        self._in_drain = False
        if self._episode_writes:
            end = self._episode_last_burst + self.timing.burst
            self.stats.episodes.append(
                DrainEpisode(
                    writes=self._episode_writes,
                    unique_banks=len(self._episode_banks),
                    start_cycle=self._episode_start,
                    end_cycle=end,
                )
            )
            self.stats.write_mode_cycles += end - self._episode_start

    def tick(self, now: int) -> Optional[int]:
        """Issue requests until the bus is reserved past the horizon.

        Returns the cycle to retry at, when the bus reservation falls
        back within the horizon, or None when nothing is left to issue;
        the channel kicks the sub-channel again when a new arrival makes
        something issuable (see :meth:`on_arrival`).

        Reads go FR-FCFS: the oldest row hit first, else the oldest
        read.  Open-row equality is exactly the ROW_HIT classification
        (a precharged bank's open_row is None, never a row number).
        The drain mode is re-evaluated after each issued write; issuing
        a read leaves the write queue, and so the mode, as it was.
        """
        if self.refresh_enabled:
            self._maybe_refresh(now)
        rq_entries = self.rq.entries
        wq_entries = self.wq.entries
        banks = self.banks
        horizon = now + _PIPELINE_HORIZON
        self._update_drain_mode(now)
        while True:
            if not rq_entries and not wq_entries:
                return None
            if self.bus_free_cycle > horizon:
                return self.bus_free_cycle - _PIPELINE_HORIZON
            if self._in_drain:
                req = self._pick_write(now)
                if req is None:
                    return None
                self._issue(req, self.earliest_burst(req, now))
                self._update_drain_mode(now)
                continue
            if not rq_entries:
                # Reads drained; nothing to do until the write watermark
                # trips or a new read arrives.
                return None
            for req in rq_entries:
                if banks[req.sc_bank].open_row == req.row:
                    break
            else:
                req = rq_entries[0]
            # Commit the best candidate: its bank preparation (PRE/ACT)
            # starts now and overlaps earlier requests' bursts; the data
            # burst itself is serialised on the bus.
            self._issue(req, self.earliest_burst(req, now))

    def _issue(self, req: MemRequest, burst: int) -> None:
        stats = self.stats
        is_write = req.is_write
        op = req.op
        if op is not self.bus_mode:
            stats.turnaround_cycles += self._turnaround
            self.bus_mode = op
        burst_end = burst + self._burst_cycles
        self.bus_free_cycle = burst_end
        stats.busy_cycles += self._burst_cycles
        req.burst_tick = burst

        if is_write and self.ideal_writes:
            self._last_wr_burst = burst
        else:
            kind = self.banks[req.sc_bank].commit(req.row, op, burst)
            if kind is not _ROW_HIT:
                stats.activates += 1
                if kind is _ROW_CONFLICT:
                    stats.precharges += 1
            if is_write:
                if kind is _ROW_HIT:
                    stats.write_row_hits += 1
                elif kind is _ROW_CONFLICT:
                    stats.write_row_conflicts += 1
                self._last_wr_burst_bg[req.bankgroup] = burst
                self._last_wr_burst = burst
            else:
                if kind is _ROW_HIT:
                    stats.read_row_hits += 1
                elif kind is _ROW_CONFLICT:
                    stats.read_row_conflicts += 1
                self._last_rd_burst_bg[req.bankgroup] = burst
                self._last_rd_burst = burst

        if is_write:
            self.wq.remove(req)
            stats.writes_issued += 1
            if self._episode_writes:
                stats.record_w2w(burst - self._episode_last_burst)
            self._episode_writes += 1
            self._episode_banks.add(req.sc_bank)
            self._episode_last_burst = burst
        else:
            self.rq.remove(req)
            stats.reads_issued += 1
        if req.on_complete is not None:
            req.on_complete(burst_end)

    def _maybe_refresh(self, now: int) -> None:
        """All-bank refresh: stall the sub-channel for tRFC every tREFI.

        Modelled as a bus reservation plus closing every row (refresh
        precharges all banks; each open one counts a PRE).  Disabled by
        default to match the paper.
        """
        if not self.refresh_enabled:
            return
        while now >= self._next_refresh:
            start = max(self._next_refresh, self.bus_free_cycle)
            end = start + self.trfc
            self.bus_free_cycle = max(self.bus_free_cycle, end)
            for bank in self.banks:
                if bank.open_row is not None:
                    self.stats.precharges += 1
                bank.close_row(start)
                bank.pre_done_cycle = max(bank.pre_done_cycle, end)
            self._next_refresh += self.trefi
            self.refreshes_performed += 1

    # ------------------------------------------------------------------
    # End-of-simulation helpers
    # ------------------------------------------------------------------

    def finalize(self, now: int) -> None:
        """Close out an in-progress drain episode for the statistics."""
        if self._in_drain:
            self._end_episode()
