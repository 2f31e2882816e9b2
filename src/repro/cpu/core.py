"""Trace-driven out-of-order core model.

The core consumes an infinite instruction trace and retires a configured
budget.  Fidelity targets the paper's needs: memory-level parallelism is
bounded by the ROB (512 entries) and the cache MSHRs, loads block retirement
until their data returns, and stores dirty cache lines that later percolate
to the LLC and DRAM as writebacks.

Event-efficiency: a core self-schedules ticks only while it can make
progress.  When the ROB head is an outstanding load and the ROB is full (or
the issue window is blocked), the core goes dormant and is woken by the
load-completion callback, so stall time costs no events.  MSHR stalls
(the L1D's ``stalled`` flag, raised only by the MSHR pipeline) cost no
events either: with nothing left to retire the core sleeps until the L1D
unstalls or the ROB head completes, resumes on the stall's CPU-cycle
grid, and charges the skipped cycles to ``mshr_stall_cycles`` in one go.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import repeat, starmap
from typing import Callable, Deque, Iterator, Optional

from repro.clock import TICKS_PER_CPU_CYCLE
from repro.cpu.trace import LOAD, NONMEM, TraceRecord
from repro.dram.commands import LINE_BITS

#: Budget sentinel for quota-driven windows: never reached, so the core
#: runs until explicitly re-targeted (see :meth:`Core.begin_quota`).
_UNBOUNDED = 1 << 62


class RobEntry:
    """One in-flight instruction; ``done_tick`` is None while outstanding."""

    __slots__ = ("done_tick",)

    def __init__(self, done_tick: Optional[int]) -> None:
        self.done_tick = done_tick


@dataclass
class CoreStats:
    """Retirement / traffic counters for one core."""

    retired: int = 0
    loads: int = 0
    stores: int = 0
    nonmem: int = 0
    start_tick: int = 0
    finish_tick: int = 0
    sleeps: int = 0
    #: CPU cycles issue stalled because the L1D MSHR pipeline backed up
    #: (admission queue non-empty; only a pipeline-regime L1D raises it).
    mshr_stall_cycles: int = 0

    @property
    def cycles(self) -> float:
        return (self.finish_tick - self.start_tick) / TICKS_PER_CPU_CYCLE

    @property
    def ipc(self) -> float:
        return self.retired / self.cycles if self.cycles > 0 else 0.0


class Core:
    """One out-of-order core fed by a trace iterator."""

    def __init__(
        self,
        core_id: int,
        trace: Iterator[TraceRecord],
        engine,
        l1d,
        l1i,
        dtlb,
        itlb,
        rob_size: int = 512,
        issue_width: int = 4,
        retire_width: int = 4,
        budget: int = 100_000,
        on_finish: Optional[Callable[["Core"], None]] = None,
    ) -> None:
        self.core_id = core_id
        self.trace = trace
        self.engine = engine
        self.l1d = l1d
        if not hasattr(l1d, "stalled"):
            # Duck-type substitutes (test fakes, ideal memories) never
            # stall; give them the flag so the per-tick read stays a
            # plain attribute load.
            l1d.stalled = False
        l1d.on_unstall = self._on_unstall
        self.l1i = l1i
        self.dtlb = dtlb
        self.itlb = itlb
        #: The reorder buffer: in-flight instructions, retired in order
        #: from the left, at most ``rob_size`` of them.
        self.rob: Deque[RobEntry] = deque()
        self.rob_size = rob_size
        self.issue_width = issue_width
        self.retire_width = retire_width
        self.budget = budget
        self.on_finish = on_finish
        self.stats = CoreStats()
        self.finished = False
        self._sleeping = False
        self._tick_scheduled = False
        #: Tick of the first CPU cycle of an MSHR stall not yet charged
        #: to ``stats.mshr_stall_cycles`` (None when not stalled).
        self._stall_base: Optional[int] = None
        self._last_fetch_line = -1
        #: Soft retirement quota (sampled intervals): the core keeps
        #: executing when it is reached - only the callback fires.
        self._quota: Optional[int] = None
        self._on_quota: Optional[Callable[["Core"], None]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        self.stats.start_tick = self.engine.now
        if self._stall_base is None:
            # An MSHR-stall sleeper resumes on its own wake (see _wake).
            self._schedule_tick(self.engine.now)

    def reset_measurement(self, budget: int) -> None:
        """Begin a fresh measurement epoch (end of warmup)."""
        self._carry_stall()
        self.stats = CoreStats(start_tick=self.engine.now)
        self.budget = budget
        self.finished = False

    def begin_quota(self, quota: int,
                    on_quota: Callable[["Core"], None]) -> None:
        """Begin a soft measurement window without stopping the core.

        Counters reset and ``on_quota`` fires once ``quota`` more
        instructions have retired (``stats.finish_tick`` records the
        crossing) - but unlike the budget mechanism the core *keeps
        executing*, so memory contention from this core persists while
        slower cores complete their own windows.  That is what makes
        short sampled intervals faithful: stopping each core at its
        quota would hand the remaining cores an artificially idle
        memory system.  Retirement is clamped at the quota tick, so the
        snapshot taken by the callback holds exactly ``quota`` retired
        instructions.

        The core is (re)scheduled if it is not already live - sampled
        intervals chain without interruption, but the first interval
        after a functional warmup starts from an idle core.
        """
        self._carry_stall()
        self.stats = CoreStats(start_tick=self.engine.now)
        self.budget = _UNBOUNDED
        self.finished = False
        self._quota = quota
        self._on_quota = on_quota
        if self._stall_base is None:
            self._sleeping = False
            if not self._tick_scheduled:
                self._schedule_tick(self.engine.now)

    def pause(self) -> None:
        """Idle the core at a fast-forward boundary.

        Pending completion callbacks still land (they only mark ROB
        entries done), but the core schedules no further work until
        :meth:`begin_quota` or :meth:`reset_measurement`/:meth:`start`
        resume it.  Used by the sampled run loop so the event queue can
        drain before functional warming mutates cache state.
        """
        self.finished = True
        self._sleeping = False
        # Resumption starts from a fresh tick, which re-detects a stall
        # that outlived the pause.
        self._stall_base = None

    def _carry_stall(self) -> None:
        """Carry a live MSHR stall across an epoch boundary.

        Called before the old epoch's stats are replaced: they are charged
        the stalled cycles before the boundary, and the new epoch is
        charged from the stall's next grid cycle at or after it.  The
        core keeps its tick or sleep: the stall did not end at the
        boundary.
        """
        base = self._stall_base
        if base is not None:
            self._stall_base = self._next_stall_cycle()
            self.stats.mshr_stall_cycles += \
                (self._stall_base - base) // TICKS_PER_CPU_CYCLE

    def _next_stall_cycle(self) -> int:
        """The first tick ``_stall_base + k*cycle >= now`` with k >= 1."""
        base = self._stall_base
        cycle = TICKS_PER_CPU_CYCLE
        return base + max(1, -(-(self.engine.now - base) // cycle)) * cycle

    # ------------------------------------------------------------------
    # Functional warmup
    # ------------------------------------------------------------------

    def warm_up(self, budget: int) -> None:
        """Drive ``budget`` trace records through the warm state machines.

        The functional counterpart of the detailed warmup phase: every
        record updates the TLBs, the instruction-fetch line cursor, and
        the cache hierarchy's tag/replacement/prefetcher state through
        :meth:`~repro.cache.cache.Cache.warm_access` - with zero engine
        events (no ROB, no MSHRs, no DRAM timing).  One record counts as
        one warmed instruction, so exactly ``budget`` records are
        consumed; the trace iterator then continues seamlessly into the
        measurement phase.
        """
        trace_next = self.trace.__next__
        l1d_warm = self.l1d.warm_access
        l1i_warm = self.l1i.warm_access
        dtlb_translate = self.dtlb.translate
        itlb_translate = self.itlb.translate
        last_line = self._last_fetch_line
        for _ in range(budget):
            kind, addr, pc = trace_next()
            line = pc >> LINE_BITS
            if line != last_line:
                last_line = line
                itlb_translate(pc)
                l1i_warm(pc, False, pc)
            if kind == NONMEM:
                continue
            dtlb_translate(addr)
            l1d_warm(addr, kind != LOAD, pc)
        self._last_fetch_line = last_line

    def skip_trace(self, records: int) -> None:
        """Fast-forward the trace cursor (warm-state checkpoint restore)."""
        # ``records`` calls of the trace's ``__next__``, driven from C.
        deque(starmap(self.trace.__next__, repeat((), records)), 0)

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------

    def _schedule_tick(self, tick: int) -> None:
        if self._tick_scheduled or self.finished:
            return
        self._tick_scheduled = True
        self.engine.schedule(tick, self._tick)

    def _wake(self) -> None:
        """Resume a sleeping core (a load completed or the L1D unstalled)."""
        if not self._sleeping or self.finished:
            return
        if self._stall_base is None:
            self._sleeping = False
            self._schedule_tick(self.engine.now)
            return
        # Asleep on an MSHR stall: only an unstall or a completed head
        # lets the core act again.
        rob = self.rob
        if self.l1d.stalled and (not rob or rob[0].done_tick is None):
            return
        # Resume on the stall's cycle grid, where a per-cycle poll would
        # have seen the change.
        self._sleeping = False
        self._schedule_tick(self._next_stall_cycle())

    def _on_unstall(self) -> None:
        """The L1D's ``on_unstall`` hook: wakes an MSHR-stall sleeper."""
        if self._stall_base is not None:
            self._wake()

    # ------------------------------------------------------------------
    # The per-activation core step
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        self._tick_scheduled = False
        if self.finished:
            return
        # Invariant per-access state (config-derived widths, the ROB, the
        # trace cursor, the clock ratio) is hoisted into locals: this
        # method runs once per active CPU cycle per core.  Retirement,
        # fetch, the memory sends and the next-tick plan all live in this
        # one body: a call saved here is saved once per instruction.
        engine = self.engine
        now = engine.now
        stats = self.stats
        rob = self.rob
        budget = self.budget
        cpu_cycle = TICKS_PER_CPU_CYCLE

        if self._stall_base is not None:
            # Charge the cycles issue stalled since the stall began.  This
            # runs before retirement so a quota crossing or finish on this
            # tick sees them and no stale stall leaks into the next epoch.
            stats.mshr_stall_cycles += (now - self._stall_base) // cpu_cycle
            self._stall_base = None

        # Retire, in order, up to retire_width completed head entries
        # (fewer when the budget or quota is closer).
        quota = self._quota
        cap = budget if quota is None or budget < quota else quota
        room = cap - stats.retired
        if room > self.retire_width:
            room = self.retire_width
        retired = 0
        while retired < room and rob:
            done = rob[0].done_tick
            if done is None or done > now:
                break
            rob.popleft()
            retired += 1
        stats.retired += retired
        if quota is not None and stats.retired >= quota:
            # Soft window boundary: record it and keep executing.
            stats.finish_tick = now
            self._quota = None
            on_quota, self._on_quota = self._on_quota, None
            on_quota(self)
        if stats.retired >= budget:
            self._finish(now)
            return

        if self.l1d.stalled:
            # The L1D's MSHR admission queue backed up into us: issue
            # stalls from this cycle on (retirement above still ran).
            # While the head can retire, keep ticking once per cycle;
            # otherwise sleep until the L1D unstalls or the head load
            # completes (see _wake).  Progress is guaranteed - a
            # non-empty queue implies a fill in flight.  Always False in
            # the legacy regime, so the default configuration's event
            # schedule is untouched.
            self._stall_base = now
            if rob and rob[0].done_tick is not None:
                self._schedule_tick(now + cpu_cycle)
            else:
                self._sleeping = True
            return

        rob_size = self.rob_size
        issue = rob_size - len(rob)
        if issue > self.issue_width:
            issue = self.issue_width
        trace_next = self.trace.__next__
        push = rob.append
        schedule = engine.schedule
        dtlb_translate = self.dtlb.translate
        l1d_access = self.l1d.access
        load_done = self._load_done
        core_id = self.core_id
        last_line = self._last_fetch_line
        # Every non-load retires at the next cycle and is never mutated,
        # so one entry stands for all of this tick's.
        ready = None
        loads = stores = 0
        for _ in range(issue):
            kind, addr, pc = trace_next()
            line = pc >> LINE_BITS
            if line != last_line:
                # Instruction side: one L1I access per new fetch line.
                last_line = self._last_fetch_line = line
                self.itlb.translate(pc)
                self.l1i.access(pc, False, pc, now, None, core_id)
            if kind == NONMEM:
                if ready is None:
                    ready = RobEntry(now + cpu_cycle)
                push(ready)
                continue
            delay = dtlb_translate(addr) * cpu_cycle
            if kind == LOAD:
                entry = RobEntry(None)
                push(entry)
                loads += 1
                done = partial(load_done, entry)
                if delay:
                    send = now + delay
                    schedule(send, l1d_access, addr, False, pc, send, done,
                             core_id)
                else:
                    l1d_access(addr, False, pc, now, done, core_id)
            else:
                # Stores retire immediately (post-retirement store
                # buffer); the write still traverses the hierarchy and
                # dirties lines.
                if ready is None:
                    ready = RobEntry(now + cpu_cycle)
                push(ready)
                stores += 1
                if delay:
                    send = now + delay
                    schedule(send, l1d_access, addr, True, pc, send, None,
                             core_id)
                else:
                    l1d_access(addr, True, pc, now, None, core_id)
        stats.loads += loads
        stats.stores += stores
        stats.nonmem += issue - loads - stores

        if len(rob) < rob_size:
            # Still issuing: out-of-order issue continues past a blocked
            # head until the ROB fills.
            tick = now + cpu_cycle
        else:
            tick = rob[0].done_tick
            if tick is None:
                # ROB full behind an outstanding load; sleep until a
                # completion callback wakes us.
                self._sleeping = True
                stats.sleeps += 1
                return
            if tick < now + cpu_cycle:
                tick = now + cpu_cycle
        if not (self._tick_scheduled or self.finished):
            self._tick_scheduled = True
            schedule(tick, self._tick)

    def _load_done(self, entry: RobEntry, tick: int) -> None:
        """A load's data arrived: its ROB entry may retire from ``tick``."""
        entry.done_tick = tick
        if self._sleeping:
            self._wake()

    def _finish(self, now: int) -> None:
        self.finished = True
        self.stats.finish_tick = now
        if self.on_finish is not None:
            self.on_finish(self)
