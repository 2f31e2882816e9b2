"""Set-associative write-back cache with MSHRs and policy hooks.

This is the building block for the paper's three-level hierarchy
(Table II).  It supports:

* write-allocate stores (a store miss fetches the line, then dirties it),
* writeback-allocate from the level above (a dirty victim arriving from the
  upper level installs directly as dirty, no fetch - the line's data is
  complete),
* a pluggable :class:`~repro.cache.replacement.base.ReplacementPolicy`,
* a pluggable :class:`~repro.cache.writeback.base.WritebackPolicy` - this is
  the hook BARD, Eager Writeback and Virtual Write Queue plug into, and
* an optional prefetcher driven on demand accesses.

Timing: hit latency is charged per level; misses descend to the lower level
after the tag-lookup latency and complete when the lower level responds.
All externally visible times are engine ticks.
"""

from __future__ import annotations

import copy
import pickle
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, \
    Protocol, Tuple

from repro.cache.line import CacheSet
from repro.cache.mshr import DRAINING, DoneCallback, FILLING, \
    FULL_WORD_MASK, ISSUED, MSHREntry, WORDS_PER_LINE
from repro.cache.replacement import ReplacementPolicy
from repro.cache.replacement.ship import SHCT_SIZE
from repro.clock import TICKS_PER_CPU_CYCLE
from repro.dram.commands import LINE_BITS, LINE_SIZE
from repro.errors import ConfigError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.warmstate import CacheWarmState

#: Mask clearing the block-offset bits of a physical address.
_LINE_MASK = ~(LINE_SIZE - 1)

#: Mask selecting the word index of an address (see repro.cache.mshr).
_WORD_IDX_MASK = WORDS_PER_LINE - 1

#: Index mask of :func:`repro.cache.replacement.ship.pc_signature`, the
#: SHiP hash every install stamps on its line (inlined there: it runs once
#: per fill and per warm install).
_SIG_MASK = SHCT_SIZE - 1

#: One queued (not yet admitted) access in an MSHR pipeline:
#: (addr, is_write, pc, core_id, is_prefetch, on_done, queued_tick).
_PendingAccess = Tuple[int, bool, int, int, bool, Optional[DoneCallback],
                       int]


class LowerLevel(Protocol):
    """What a cache needs from the memory side below the last level.

    A cache above another cache calls the lower cache's per-instance
    ``access`` (and ``writeback``) directly instead.
    """

    def read(self, line_addr: int, now: int, on_done: DoneCallback,
             core_id: int, is_prefetch: bool, pc: int = 0) -> None: ...

    def writeback(self, line_addr: int, now: int) -> None: ...


@dataclass
class CacheStats:
    """Per-cache counters (demand and prefetch traffic separated)."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    read_misses: int = 0
    write_misses: int = 0
    prefetch_accesses: int = 0
    prefetch_misses: int = 0
    mshr_merges: int = 0
    fills: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    writebacks: int = 0
    cleanses: int = 0
    writeback_installs: int = 0
    #: Demand accesses that merged into an already outstanding miss.
    secondary_misses: int = 0
    #: New 8-byte words contributed by merges (request coalescing).
    coalesced_words: int = 0
    #: Accesses deferred by MSHR-pipeline admission (occupancy full,
    #: secondary-miss bound hit, or a blocking cache mid-miss).
    mshr_stalls: int = 0
    #: CPU cycles deferred accesses spent queued before admission.
    mshr_stall_cycles: int = 0
    #: Local prefetches dropped at admission (they never queue).
    prefetch_drops: int = 0
    #: ``hist[k]`` = allocations that brought MSHR occupancy to ``k``.
    mshr_occupancy_hist: List[int] = field(default_factory=list)

    def snapshot(self) -> "CacheStats":
        """Copy safe to keep while the live counters mutate.

        ``copy.copy`` alone would alias the occupancy histogram list;
        sampled runs snapshot per-interval stats while the live object
        keeps accumulating through discarded re-warm windows.
        """
        out = copy.copy(self)
        out.mshr_occupancy_hist = list(self.mshr_occupancy_hist)
        return out

    @property
    def demand_accesses(self) -> int:
        return self.accesses - self.prefetch_accesses

    @property
    def demand_misses(self) -> int:
        return self.misses - self.prefetch_misses

    @property
    def miss_rate(self) -> float:
        if not self.demand_accesses:
            return 0.0
        return self.demand_misses / self.demand_accesses


class Cache:
    """One level of the cache hierarchy."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        hit_latency: int,
        mshr_count: int,
        replacement: ReplacementPolicy,
        engine,
        lower: LowerLevel,
        writeback_policy=None,
        prefetcher=None,
        pipeline: bool = False,
    ) -> None:
        if size_bytes % (ways * LINE_SIZE):
            raise ConfigError(
                f"{name}: size {size_bytes} not divisible by "
                f"ways*line ({ways}*{LINE_SIZE})"
            )
        self.name = name
        self.num_sets = size_bytes // (ways * LINE_SIZE)
        if self.num_sets & (self.num_sets - 1):
            raise ConfigError(f"{name}: set count must be a power of two")
        self.ways = ways
        self.hit_latency_ticks = hit_latency * TICKS_PER_CPU_CYCLE
        self._set_mask = self.num_sets - 1
        self.mshr_count = mshr_count
        self.repl = replacement
        self.engine = engine
        self.lower = lower
        self.wb_policy = writeback_policy
        self.prefetcher = prefetcher
        self.stats = CacheStats()

        self.sets = [CacheSet(ways) for _ in range(self.num_sets)]
        # Resident-line index: one {line_addr: way} dict per set, kept in
        # lockstep with the line array by _install.  Tag lookup is
        # the most frequent cache operation, and the dict makes it O(1)
        # instead of a scan over the ways.
        self._tags: List[Dict[int, int]] = [
            {} for _ in range(self.num_sets)
        ]
        self.mshr: Dict[int, MSHREntry] = {}
        self._outstanding = 0
        #: Allocated misses waiting for an outstanding slot below.
        self._issue_queue: Deque[MSHREntry] = deque()

        # MSHR pipeline (opt-in; see repro.cache.mshr).  The access
        # entry point, ``access(addr, is_write, pc, now, on_done,
        # core_id=0, is_prefetch=False)`` - ``on_done(tick)`` fires when
        # the data is available - exists only per instance: the legacy
        # regime keeps admission unconditional, so it binds straight to
        # the processing body and the default configuration pays
        # nothing for the machinery.
        self._pipeline = pipeline
        self._pending: Deque[_PendingAccess] = deque()
        #: Stale fills to swallow: drain() completed these misses
        #: functionally while their lower-level fill was in flight.
        self._cancelled_fills: Dict[int, int] = {}
        #: True while admission has accesses queued - the signal Core
        #: uses to stall issue (plain attribute: read every core tick).
        self.stalled = False
        #: Called with no arguments when ``stalled`` drops; the owning
        #: Core sleeps on it instead of polling the flag every cycle.
        self.on_unstall: Optional[Callable[[], None]] = None
        if pipeline:
            self.access = self._admit_access  # type: ignore[method-assign]
        else:
            self.access = self._process  # type: ignore[method-assign]

        # Functional-warmup plumbing: the next level's warm entry points,
        # or None when the level below is the memory controller (warm
        # traffic stops at the DRAM boundary - there is no timing state
        # to warm there).
        self._warm_lower = getattr(lower, "warm_access", None)
        self._warm_lower_wb = getattr(lower, "warm_writeback", None)
        #: A miss descends into a lower cache through its ``access`` and
        #: into the memory side through ``LowerLevel.read``.
        self._lower_is_cache = isinstance(lower, Cache)

        if self.wb_policy is not None:
            self.wb_policy.attach(self)

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------

    def set_index(self, line_addr: int) -> int:
        return (line_addr >> LINE_BITS) & self._set_mask

    def find_line(self, line_addr: int) -> Optional[Tuple[int, int]]:
        """(set_idx, way) for a resident line, else None."""
        set_idx = (line_addr >> LINE_BITS) & self._set_mask
        way = self._tags[set_idx].get(line_addr)
        if way is None:
            return None
        return set_idx, way

    # ------------------------------------------------------------------
    # Demand / prefetch access path
    # ------------------------------------------------------------------

    def _admit_access(
        self,
        addr: int,
        is_write: bool,
        pc: int,
        now: int,
        on_done: Optional[DoneCallback],
        core_id: int = 0,
        is_prefetch: bool = False,
    ) -> None:
        """Pipeline-regime entry point: admission control, then process."""
        if (self.mshr or self._pending) and not self._admit(
                addr, is_write, pc, now, on_done, core_id, is_prefetch):
            return
        self._process(addr, is_write, pc, now, on_done, core_id,
                      is_prefetch)

    def _admit(self, addr: int, is_write: bool, pc: int, now: int,
               on_done: Optional[DoneCallback], core_id: int,
               is_prefetch: bool) -> bool:
        """Whether an access may enter the pipeline right now.

        Only consulted while misses are outstanding.  Admitted (True):
        hits; secondary misses merging into an outstanding entry (merges
        are unbounded); new misses while the MSHR file has a free entry
        and nothing older is queued (queued accesses drain FIFO -
        nothing overtakes them except hits and merges, which attach to
        strictly older misses).  Everything else queues in ``_pending``
        and raises :attr:`stalled`; inadmissible *local* prefetches -
        those with no completion callback - are dropped instead (a real
        prefetcher gives up under pressure rather than occupying
        pipeline queue slots).  A prefetch that does carry ``on_done``
        is an upper level's MSHR fill in flight; dropping it would wedge
        that entry forever, so it queues like a demand.
        """
        la = addr & _LINE_MASK
        if la in self._tags[(la >> LINE_BITS) & self._set_mask] \
                or la in self.mshr \
                or (not self._pending and len(self.mshr) < self.mshr_count):
            return True
        if is_prefetch and on_done is None:
            self.stats.prefetch_drops += 1
            return False
        self.stats.mshr_stalls += 1
        self._pending.append(
            (addr, is_write, pc, core_id, is_prefetch, on_done, now))
        self.stalled = True
        return False

    def _head_admissible(self, addr: int) -> bool:
        """Whether the oldest queued access could enter the pipeline."""
        if not self.mshr:
            return True
        la = addr & _LINE_MASK
        return la in self._tags[(la >> LINE_BITS) & self._set_mask] \
            or la in self.mshr or len(self.mshr) < self.mshr_count

    def _drain_pending(self, now: int) -> None:
        """Replay queued accesses in FIFO order while capacity lasts.

        Called when a fill retires an MSHR entry.  Head-of-line order is
        strict: the loop stops at the first inadmissible access, which
        is what makes queued misses drain FIFO (per set and globally).
        """
        pending = self._pending
        stats = self.stats
        while pending:
            head = pending[0]
            if not self._head_admissible(head[0]):
                break
            pending.popleft()
            addr, is_write, pc, core_id, is_prefetch, on_done, queued = \
                head
            stats.mshr_stall_cycles += (now - queued) \
                // TICKS_PER_CPU_CYCLE
            self._process(addr, is_write, pc, now, on_done, core_id,
                          is_prefetch)
        if not pending:
            self._unstall()

    def _unstall(self) -> None:
        self.stalled = False
        if self.on_unstall is not None:
            self.on_unstall()

    def _process(
        self,
        addr: int,
        is_write: bool,
        pc: int,
        now: int,
        on_done: Optional[DoneCallback],
        core_id: int = 0,
        is_prefetch: bool = False,
    ) -> None:
        """The access body proper (admission, if any, already passed)."""
        la = addr & _LINE_MASK
        set_idx = (la >> LINE_BITS) & self._set_mask
        stats = self.stats
        stats.accesses += 1
        if is_prefetch:
            stats.prefetch_accesses += 1

        way = self._tags[set_idx].get(la)
        if way is not None:
            hit_line = self.sets[set_idx].lines[way]
            stats.hits += 1
            hit_line.reused = True
            wb_policy = self.wb_policy
            if not is_prefetch:
                self.repl.on_hit(set_idx, way, pc)
            if is_write and not hit_line.dirty:
                hit_line.dirty = True
                if wb_policy is not None:
                    wb_policy.on_dirty(la)
            if wb_policy is not None and not is_prefetch:
                wb_policy.on_hit(set_idx, way, now)
            if on_done is not None:
                done_at = now + self.hit_latency_ticks
                self.engine.schedule(done_at, on_done, done_at)
        else:
            # Miss: merge into an outstanding MSHR or allocate a new one.
            stats.misses += 1
            if is_prefetch:
                stats.prefetch_misses += 1
            elif is_write:
                stats.write_misses += 1
            else:
                stats.read_misses += 1

            word = (addr >> 3) & _WORD_IDX_MASK
            mshr = self.mshr
            entry = mshr.get(la)
            if entry is not None:
                mask_before = entry.word_mask
                entry.merge(is_write, is_prefetch, on_done, word=word)
                stats.mshr_merges += 1
                if entry.word_mask != mask_before:
                    stats.coalesced_words += 1
                if not is_prefetch:
                    stats.secondary_misses += 1
            else:
                entry = MSHREntry(la, is_write, pc, core_id, is_prefetch,
                                  now, word_mask=1 << word)
                if on_done is not None:
                    entry.waiters.append(on_done)
                mshr[la] = entry
                occ = len(mshr)
                hist = stats.mshr_occupancy_hist
                try:
                    hist[occ] += 1
                except IndexError:
                    # A new occupancy high: grow the histogram to it.
                    hist.extend([0] * (occ + 1 - len(hist)))
                    hist[occ] += 1
                # At most ``mshr_count`` misses outstanding below; the
                # rest wait in the issue queue for a fill to free one.
                if self._outstanding >= self.mshr_count:
                    self._issue_queue.append(entry)
                else:
                    self._issue(entry, now)

        # Demand accesses train the prefetcher, which may request lines
        # that are neither resident nor already outstanding.
        prefetcher = self.prefetcher
        if prefetcher is None or is_prefetch:
            return
        tags = self._tags
        set_mask = self._set_mask
        mshr = self.mshr
        for target in prefetcher.on_access(addr, pc, way is not None):
            tla = target & _LINE_MASK
            if tla == la or tla in tags[(tla >> LINE_BITS) & set_mask] \
                    or tla in mshr:
                continue
            self.access(tla, False, pc, now, None, 0, True)

    # ------------------------------------------------------------------
    # Miss handling
    # ------------------------------------------------------------------

    def _issue(self, entry: MSHREntry, now: int) -> None:
        entry.issued = True
        entry.state = ISSUED
        self._outstanding += 1
        self.engine.schedule(now + self.hit_latency_ticks,
                             self._send, entry.line_addr, entry)

    def _send(self, line_addr: int, entry: MSHREntry) -> None:
        """Forward an issued miss to the lower level (tag latency elapsed)."""
        if entry.drained:
            # drain() completed this miss functionally before the send.
            return
        entry.state = FILLING
        on_fill = partial(self._on_fill, line_addr)
        if self._lower_is_cache:
            self.lower.access(line_addr, False, entry.pc, self.engine.now,
                              on_fill, entry.core_id, entry.is_prefetch)
        else:
            self.lower.read(line_addr, self.engine.now, on_fill,
                            entry.core_id, entry.is_prefetch, entry.pc)

    def _on_fill(self, line_addr: int, now: int) -> None:
        if self._cancelled_fills:
            stale = self._cancelled_fills.get(line_addr, 0)
            if stale:
                # drain() already completed this miss functionally;
                # swallow the fill before it can touch a same-line entry
                # allocated after the drain.
                if stale == 1:
                    del self._cancelled_fills[line_addr]
                else:
                    self._cancelled_fills[line_addr] = stale - 1
                return
        entry = self.mshr.pop(line_addr, None)
        self._outstanding -= 1
        if self._issue_queue:
            self._issue(self._issue_queue.popleft(), now)
        if entry is None:
            # The fill raced with a writeback-install of the same line.
            return
        entry.state = DRAINING
        self.stats.fills += 1
        self._install(line_addr, entry.is_write, entry.pc, now,
                      entry.is_prefetch)
        for waiter in entry.waiters:
            waiter(now)
        if self._pending:
            self._drain_pending(now)

    # ------------------------------------------------------------------
    # Fill / install / evict
    # ------------------------------------------------------------------

    def _install(self, line_addr: int, dirty: bool, pc: int, now: int,
                 is_prefetch: bool) -> None:
        """Install a line, evicting the chosen victim if the set is full.

        The replacement policy proposes the victim and the writeback
        policy (BARD) may override it.  A valid victim is written back
        if dirty; its line object is then refilled in place, every field
        overwritten.
        """
        set_idx = (line_addr >> LINE_BITS) & self._set_mask
        cset = self.sets[set_idx]
        lines = cset.lines
        tags = self._tags[set_idx]
        repl = self.repl
        wb_policy = self.wb_policy
        # All ways resident (the steady state) - skip the invalid-way scan.
        way = None if len(tags) >= self.ways else cset.find_invalid()
        if way is None:
            way = repl.victim(set_idx, lines)
            if wb_policy is not None:
                way = wb_policy.choose_victim(set_idx, way, now)
            victim = lines[way]
            if victim.valid:
                victim_addr = victim.line_addr
                del tags[victim_addr]
                stats = self.stats
                stats.evictions += 1
                on_eviction = repl.on_eviction
                if on_eviction is not None:
                    on_eviction(set_idx, way, victim)
                if victim.dirty:
                    stats.dirty_evictions += 1
                    self._write_back(victim_addr, now)
                    if wb_policy is not None:
                        wb_policy.on_undirty(victim_addr)
        line = lines[way]
        tags[line_addr] = way
        line.valid = True
        line.dirty = dirty
        line.line_addr = line_addr
        line.signature = (pc ^ (pc >> 14) ^ (pc >> 28)) & _SIG_MASK
        line.reused = False
        line.prefetched = is_prefetch
        repl.on_fill(set_idx, way, pc, is_prefetch)
        if dirty and wb_policy is not None:
            wb_policy.on_dirty(line_addr)

    def _write_back(self, line_addr: int, now: int) -> None:
        self.stats.writebacks += 1
        if self.wb_policy is not None:
            self.wb_policy.on_writeback(line_addr)
        self.lower.writeback(line_addr, now + self.hit_latency_ticks)

    def cleanse(self, set_idx: int, way: int, now: int) -> None:
        """Proactively write back a dirty line *without* evicting it.

        This is the primitive BARD-C, Eager Writeback and VWQ build on
        (paper Fig. 9): the line's data goes to the write queue and its
        dirty bit clears, but it stays resident.
        """
        line = self.sets[set_idx].lines[way]
        if not line.valid or not line.dirty:
            return
        line.dirty = False
        self.stats.cleanses += 1
        self._write_back(line.line_addr, now)
        if self.wb_policy is not None:
            self.wb_policy.on_undirty(line.line_addr)

    # ------------------------------------------------------------------
    # Writeback path from the level above
    # ------------------------------------------------------------------

    def writeback(self, line_addr: int, now: int) -> None:
        """Receive a dirty victim from the upper level.

        Hits update the line in place; misses install the line as dirty
        without fetching (writeback-allocate, non-inclusive hierarchy).
        """
        la = line_addr & _LINE_MASK
        self.stats.writeback_installs += 1
        set_idx = (la >> LINE_BITS) & self._set_mask
        way = self._tags[set_idx].get(la)
        if way is not None:
            line = self.sets[set_idx].lines[way]
            line.reused = True
            wb_policy = self.wb_policy
            if not line.dirty:
                line.dirty = True
                if wb_policy is not None:
                    wb_policy.on_dirty(la)
            self.repl.on_hit(set_idx, way, 0)
            if wb_policy is not None:
                wb_policy.on_hit(set_idx, way, now)
            return
        entry = self.mshr.get(la)
        if entry is not None:
            # A fill for this line is in flight; it will install dirty.
            # The victim carries the whole line's data, so the fill now
            # covers every word of the entry (fill-merge).
            entry.is_write = True
            entry.word_mask = FULL_WORD_MASK
            return
        self._install(la, True, 0, now, False)

    # ------------------------------------------------------------------
    # Functional warmup path (zero engine events)
    # ------------------------------------------------------------------

    def warm_access(self, addr: int, is_write: bool, pc: int,
                    is_prefetch: bool = False) -> None:
        """One warmup access with no timing: state machines only.

        Updates exactly the architectural state the detailed path would
        leave behind - tag arrays, dirty bits, replacement metadata,
        prefetcher tables - while skipping everything timing-related
        (MSHRs, engine events, the writeback policy, DRAM).  Misses
        descend recursively so lower levels warm too, and evicted dirty
        victims install into the level below as writeback-allocates.
        Statistics are not maintained: warmup counters are discarded at
        the measurement boundary anyway, and this loop runs once per
        warmup instruction per core.
        """
        la = addr & _LINE_MASK
        set_mask = self._set_mask
        tags = self._tags
        set_idx = (la >> LINE_BITS) & set_mask
        way = tags[set_idx].get(la)
        if way is not None:
            line = self.sets[set_idx].lines[way]
            line.reused = True
            if not is_prefetch:
                self.repl.on_hit(set_idx, way, pc)
            if is_write:
                line.dirty = True
        else:
            # Fetch descends first (mirroring the detailed fill's
            # temporal order); the write's dirty bit lands at this
            # level only, exactly as a detailed store miss would.
            if self._warm_lower is not None:
                self._warm_lower(la, False, pc, is_prefetch)
            self._warm_install(la, is_write, pc, is_prefetch)
        if is_prefetch or self.prefetcher is None:
            return
        for target in self.prefetcher.on_access(addr, pc, way is not None):
            tla = target & _LINE_MASK
            if tla != la and tla not in tags[(tla >> LINE_BITS) & set_mask]:
                self.warm_access(tla, False, pc, True)

    def _warm_install(self, line_addr: int, dirty: bool, pc: int,
                      is_prefetch: bool) -> None:
        """Install a line during functional warmup.

        Victim choice uses the replacement policy alone - the writeback
        policy is deliberately *not* consulted, which keeps the warm
        state identical under every ``llc_writeback`` setting (the
        property warm-state checkpoint sharing relies on).
        """
        set_idx = (line_addr >> LINE_BITS) & self._set_mask
        cset = self.sets[set_idx]
        lines = cset.lines
        tags = self._tags[set_idx]
        repl = self.repl
        way = None if len(tags) >= self.ways else cset.find_invalid()
        if way is None:
            way = repl.victim(set_idx, lines)
            victim = lines[way]
            del tags[victim.line_addr]
            on_eviction = repl.on_eviction
            if on_eviction is not None:
                on_eviction(set_idx, way, victim)
            if victim.dirty and self._warm_lower_wb is not None:
                self._warm_lower_wb(victim.line_addr)
        # The victim's line object is refilled in place, every field
        # overwritten.
        line = lines[way]
        tags[line_addr] = way
        line.valid = True
        line.dirty = dirty
        line.line_addr = line_addr
        line.signature = (pc ^ (pc >> 14) ^ (pc >> 28)) & _SIG_MASK
        line.reused = False
        line.prefetched = is_prefetch
        repl.on_fill(set_idx, way, pc, is_prefetch)

    def warm_writeback(self, line_addr: int) -> None:
        """Receive a dirty victim from the level above during warmup."""
        la = line_addr & _LINE_MASK
        set_idx = (la >> LINE_BITS) & self._set_mask
        way = self._tags[set_idx].get(la)
        if way is not None:
            line = self.sets[set_idx].lines[way]
            line.reused = True
            line.dirty = True
            self.repl.on_hit(set_idx, way, 0)
            return
        self._warm_install(la, True, 0, False)

    # ------------------------------------------------------------------
    # Drain / warm-state snapshot / restore
    # ------------------------------------------------------------------

    def drain(self, now: int = 0) -> None:
        """Complete every outstanding miss functionally, right now.

        Queued (not yet admitted) accesses replay through the functional
        warm path (dropping ``stalled`` through :attr:`on_unstall`, so a
        core asleep on the stall resumes), then every MSHR entry installs
        its line and fires its waiters at ``now``.  Fills already
        requested from the lower level are remembered in
        ``_cancelled_fills`` and swallowed when they arrive, so a stale
        fill can never complete a same-line entry allocated after the
        drain; sends still scheduled see the entry's ``drained`` flag and
        do nothing.  Used by warm-state
        checkpointing to snapshot mid-miss.  Installs go through the
        warm path, which never consults the writeback policy - callers
        tracking dirty lines must re-prime it afterwards (see
        ``System._prime_writeback_policy``).
        """
        while self._pending:
            (addr, is_write, pc, _core_id, is_prefetch, on_done,
             _queued) = self._pending.popleft()
            self.warm_access(addr, is_write, pc, is_prefetch=is_prefetch)
            if on_done is not None:
                on_done(now)
        if self.stalled:
            self._unstall()
        if not self.mshr:
            return
        for la, entry in self.mshr.items():
            if entry.state == FILLING:
                self._cancelled_fills[la] = \
                    self._cancelled_fills.get(la, 0) + 1
            entry.state = DRAINING
            entry.drained = True
        for la, entry in self.mshr.items():
            found = self.find_line(la)
            if found is None:
                self._warm_install(la, entry.is_write, entry.pc,
                                   entry.is_prefetch)
            elif entry.is_write:
                set_idx, way = found
                self.sets[set_idx].lines[way].dirty = True
            for waiter in entry.waiters:
                waiter(now)
        self.mshr.clear()
        self._issue_queue.clear()
        self._outstanding = 0

    def close(self) -> None:
        """Drop what points back into the hierarchy: outstanding misses
        and queued accesses (their waiters are ``partial``s of the level
        above), the per-instance ``access`` binding, the ``on_unstall``
        hook and the writeback policy's link to this cache."""
        self.mshr.clear()
        self._issue_queue.clear()
        self._pending.clear()
        self.__dict__.pop("access", None)
        self.on_unstall = None
        if self.wb_policy is not None:
            self.wb_policy.cache = None

    def snapshot_warm_state(self) -> "CacheWarmState":
        """Warm state: tag array + pickled replacement and prefetcher.

        Outstanding misses (MSHR entries or queued accesses) no longer
        raise: they are completed functionally via :meth:`drain` first,
        so mid-miss checkpointing captures the post-drain state.
        """
        from repro.sim.warmstate import CacheWarmState

        if self.mshr or self._pending:
            self.drain(self.engine.now)
        lines: List[List[Optional[Tuple[int, bool, int, bool, bool]]]] = []
        for cset in self.sets:
            lines.append([
                (ln.line_addr, ln.dirty, ln.signature, ln.reused,
                 ln.prefetched) if ln.valid else None
                for ln in cset.lines
            ])
        return CacheWarmState(
            lines=lines,
            policies=pickle.dumps((self.repl, self.prefetcher),
                                  pickle.HIGHEST_PROTOCOL),
        )

    def restore_warm_state(self, state: "CacheWarmState") -> None:
        """Overwrite this cache's state with a snapshot's (fresh copies)."""
        if len(state.lines) != self.num_sets or (
                state.lines and len(state.lines[0]) != self.ways):
            raise SimulationError(
                f"{self.name}: snapshot geometry mismatch "
                f"({len(state.lines)} sets vs {self.num_sets})")
        for set_idx, row in enumerate(state.lines):
            tags = self._tags[set_idx]
            tags.clear()
            for way, data in enumerate(row):
                line = self.sets[set_idx].lines[way]
                if data is None:
                    line.reset()
                    continue
                la, dirty, signature, reused, prefetched = data
                line.valid = True
                line.dirty = dirty
                line.line_addr = la
                line.signature = signature
                line.reused = reused
                line.prefetched = prefetched
                tags[la] = way
        repl, prefetcher = pickle.loads(state.policies)
        self.repl = repl
        if self.prefetcher is not None and prefetcher is not None:
            self.prefetcher = prefetcher
