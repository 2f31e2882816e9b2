"""System builder: wires cores, caches, BARD, and DRAM from a config."""

from __future__ import annotations

import copy
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro import telemetry

from repro.cache.cache import Cache, CacheStats
from repro.cache.replacement import make_replacement
from repro.cache.writeback import make_writeback_policy
from repro.cache.writeback.base import WritebackPolicyStats
from repro.config.system import SystemConfig
from repro.core.bard import BardPolicy
from repro.core.blp_tracker import BLPTracker
from repro.cpu.core import Core, CoreStats
from repro.cpu.tlb import TLBHierarchy
from repro.cpu.trace import TraceRecord
from repro.dram.channel import Channel, ChannelStats
from repro.dram.mapping import ZenMapping
from repro.dram.stats import SubChannelStats
from repro.dram.timing import ddr5_4800_x4, ddr5_4800_x8
from repro.errors import SimulationError
from repro.prefetch import make_prefetcher
from repro.sim.engine import Engine
from repro.sim.memctrl import MemoryController
from repro.sim.results import RunResult
from repro.sim.warmstate import CoreWarmState, WarmState, \
    warm_config_signature

TraceFactory = Callable[[int], Iterator[TraceRecord]]


class System:
    """A complete simulated machine built from a :class:`SystemConfig`."""

    def __init__(self, config: SystemConfig, traces: TraceFactory) -> None:
        self.config = config
        self.engine = Engine()
        # Phase timings accumulate here when telemetry is on; None keeps
        # the disabled path branch-free at every span site (the span()
        # helper itself is the gate and ignores a None breakdown).
        self._phases: Optional[Dict[str, float]] = \
            {} if telemetry.enabled() else None

        timing = ddr5_4800_x8() if config.dram.device == "x8" else (
            ddr5_4800_x4()
        )
        self.mapping = ZenMapping(channels=config.dram.channels,
                                  pbpl=config.dram.pbpl)
        self.channels: List[Channel] = []
        for _ in range(config.dram.channels):
            channel = Channel(
                timing,
                rq_capacity=config.dram.rq_capacity,
                wq_capacity=config.dram.wq_capacity,
                wq_high=config.dram.wq_high,
                wq_low=config.dram.wq_low,
                ideal_writes=config.dram.ideal_writes,
                drain_policy=config.dram.drain_policy,
                refresh=config.dram.refresh,
            )
            channel.attach(self.engine)
            self.channels.append(channel)
        self.memctrl = MemoryController(self.mapping, self.channels)

        self.tracker = BLPTracker(channels=config.dram.channels)
        self.llc_policy = make_writeback_policy(
            config.llc_writeback,
            self.mapping,
            tracker=self.tracker,
            memctrl=self.memctrl,
        )
        self.llc = Cache(
            "LLC",
            config.llc.size_bytes,
            config.llc.ways,
            config.llc.hit_latency,
            config.llc.mshrs,
            make_replacement(
                config.llc.replacement,
                config.llc.size_bytes // (config.llc.ways * 64),
                config.llc.ways,
            ),
            self.engine,
            self.memctrl,
            writeback_policy=self.llc_policy,
            pipeline=config.llc.mshr_pipeline,
        )

        self.cores: List[Core] = []
        self.l2s: List[Cache] = []
        self.l1ds: List[Cache] = []
        self.l1is: List[Cache] = []
        self._finished_count = 0
        self._warmed = False
        for core_id in range(config.cores):
            l2 = self._make_cache(f"L2-{core_id}", config.l2, self.llc)
            l1d = self._make_cache(f"L1D-{core_id}", config.l1d, l2)
            l1i = self._make_cache(f"L1I-{core_id}", config.l1i, l2)
            dtlb = TLBHierarchy(name=f"dtlb-{core_id}")
            itlb = TLBHierarchy(name=f"itlb-{core_id}")
            core = Core(
                core_id,
                traces(core_id),
                self.engine,
                l1d,
                l1i,
                dtlb,
                itlb,
                rob_size=config.rob_size,
                issue_width=config.issue_width,
                retire_width=config.retire_width,
                budget=config.warmup_instructions,
                on_finish=self._core_finished,
            )
            self.cores.append(core)
            self.l2s.append(l2)
            self.l1ds.append(l1d)
            self.l1is.append(l1i)

    def _make_cache(self, name: str, cfg, lower) -> Cache:
        return Cache(
            name,
            cfg.size_bytes,
            cfg.ways,
            cfg.hit_latency,
            cfg.mshrs,
            make_replacement(cfg.replacement,
                             cfg.size_bytes // (cfg.ways * 64), cfg.ways),
            self.engine,
            lower,
            prefetcher=make_prefetcher(cfg.prefetcher),
            pipeline=cfg.mshr_pipeline,
        )

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------

    def _core_finished(self, core: Core) -> None:
        self._finished_count += 1
        if self._finished_count >= len(self.cores):
            # Stop the engine from inside the finishing event: cheaper than
            # evaluating an `until()` predicate before every dispatch, and
            # it halts at exactly the same event boundary.
            self.engine.stop()

    def _all_finished(self) -> bool:
        return self._finished_count >= len(self.cores)

    def _run_phase(self) -> None:
        self._finished_count = sum(1 for c in self.cores if c.finished)
        if self._all_finished():
            return
        self.engine.run()

    def _run_quota(self, quota: int) -> List["CoreStats"]:
        """Run until every core retires ``quota`` more instructions.

        The soft-quota counterpart of :meth:`_run_phase` for sampled
        intervals: each core's counters reset and are snapshotted the
        tick its quota is reached, but the core *keeps executing* until
        the slowest core gets there - memory contention never
        artificially drains the way it would if finished cores went
        idle.  Returns the per-core stat snapshots, each holding exactly
        ``quota`` retired instructions.
        """
        pending = len(self.cores)
        snapshots: List[Optional[CoreStats]] = [None] * len(self.cores)

        def on_quota(core: Core) -> None:
            nonlocal pending
            snapshots[core.core_id] = copy.copy(core.stats)
            pending -= 1
            if pending == 0:
                self.engine.stop()

        for core in self.cores:
            core.begin_quota(quota, on_quota)
        self.engine.run()
        if pending:
            raise SimulationError(
                "event queue drained before every core reached its "
                "sampling quota")
        return snapshots

    def reset_stats(self) -> None:
        """Start a fresh measurement epoch (end of warmup)."""
        for cache in [self.llc, *self.l2s, *self.l1ds, *self.l1is]:
            cache.stats = CacheStats()
        for channel in self.channels:
            channel.stats = ChannelStats()
            for sc in channel.subchannels:
                sc.stats = SubChannelStats()
        if self.llc_policy is not None:
            self.llc_policy.stats = WritebackPolicyStats()
            if isinstance(self.llc_policy, BardPolicy):
                self.llc_policy.accuracy = type(self.llc_policy.accuracy)()

    # ------------------------------------------------------------------
    # Warmup and warm-state checkpoints
    # ------------------------------------------------------------------

    def warm_up(self) -> None:
        """Execute the warmup phase now (idempotent; :meth:`run` skips it).

        ``warmup_mode="detailed"`` runs the warmup through the full
        timing model, exactly as :meth:`run` historically did.
        ``"functional"`` drives each core's trace straight through the
        cache/TLB/replacement/prefetcher state machines with zero engine
        events - no ROB, no MSHRs, no DRAM timing - so the engine clock
        stays at 0 and measurement starts from a warm hierarchy at tick
        0.  Either way statistics are reset so measurement begins a
        clean epoch.
        """
        if self._warmed:
            return
        self._warmed = True
        config = self.config
        if config.warmup_instructions <= 0:
            return
        if config.warmup_mode == "functional":
            with telemetry.span("warmup.functional",
                                breakdown=self._phases,
                                instructions=config.warmup_instructions):
                for core in self.cores:
                    core.warm_up(config.warmup_instructions)
                self._prime_writeback_policy()
        else:
            with telemetry.span("warmup.detailed",
                                breakdown=self._phases,
                                instructions=config.warmup_instructions):
                for core in self.cores:
                    core.start()
                self._run_phase()
        self.reset_stats()

    def _prime_writeback_policy(self) -> None:
        """Rebuild the LLC policy's dirty index from the warm tag array.

        Replays ``on_dirty`` for every resident dirty LLC line in
        canonical (set, way) order.  Running the same walk after a
        functional warmup and after a checkpoint restore makes both
        paths leave bit-identical policy state, regardless of the order
        lines became dirty while warming.
        """
        policy = self.llc_policy
        if policy is None:
            return
        policy.reset_dirty_tracking()
        for cset in self.llc.sets:
            for line in cset.lines:
                if line.valid and line.dirty:
                    policy.on_dirty(line.line_addr)

    def _warm_caches(self) -> List[Cache]:
        """Caches in canonical snapshot order."""
        return [self.llc, *self.l2s, *self.l1ds, *self.l1is]

    def drain(self) -> None:
        """Functionally complete every in-flight cache miss, top down.

        Upper levels drain first so their warm installs (and any warm
        writebacks of evicted dirty victims) land in still-live lower
        levels; the LLC drains last.  The writeback policy's dirty index
        is re-primed afterwards (the warm path never consults it).
        """
        for cache in [*self.l1is, *self.l1ds, *self.l2s, self.llc]:
            cache.drain(self.engine.now)
        self._prime_writeback_policy()

    def _bank_command_totals(self) -> Tuple[int, int]:
        """Lifetime (activates, precharges) summed over every bank."""
        acts = pres = 0
        for channel in self.channels:
            for sc in channel.subchannels:
                for bank in sc.banks:
                    acts += bank.stats.activates
                    pres += bank.stats.precharges
        return acts, pres

    def snapshot_warm_state(self) -> WarmState:
        """Copied post-warmup state, restorable into a fresh system.

        Requires ``warmup_mode="functional"``; warms the system first if
        :meth:`warm_up` has not run yet.  The snapshot is independent of
        this system - its caches/TLBs/traces may keep running without
        disturbing it - and independent of the LLC writeback policy, so
        one snapshot forks into every policy variant of a comparison
        grid (see :meth:`restore_warm_state`).
        """
        if self.config.warmup_mode != "functional":
            raise SimulationError(
                "warm-state snapshots require warmup_mode='functional' "
                "(a detailed warmup leaves in-flight timing state that "
                "cannot be checkpointed)")
        self.warm_up()
        if self.engine.now or self.engine.events_fired:
            raise SimulationError(
                "snapshot_warm_state must run before measurement starts")
        consumed = self.config.warmup_instructions
        with telemetry.span("checkpoint.snapshot",
                            breakdown=self._phases):
            return WarmState(
                signature=warm_config_signature(self.config),
                caches=[c.snapshot_warm_state()
                        for c in self._warm_caches()],
                cores=[
                    CoreWarmState(
                        dtlb=core.dtlb.snapshot(),
                        itlb=core.itlb.snapshot(),
                        last_fetch_line=core._last_fetch_line,
                        consumed=consumed,
                    )
                    for core in self.cores
                ],
            )

    def restore_warm_state(self, state: WarmState) -> None:
        """Adopt a snapshot's warm state instead of executing warmup.

        Must be called on a freshly built system whose warmup-relevant
        configuration matches the snapshot's (same cores, cache
        geometries, replacement/prefetcher settings, and warmup budget -
        the DRAM configuration and LLC writeback policy may differ).
        The caller is responsible for building the system from the same
        (workload, seed): the snapshot records how far each core's trace
        was consumed, and this method fast-forwards the fresh trace
        iterators to that point.
        """
        if warm_config_signature(self.config) != state.signature:
            raise SimulationError(
                "warm-state snapshot does not match this system's "
                "warmup-relevant configuration")
        if self.engine.now or self.engine.events_fired or self._warmed:
            raise SimulationError(
                "restore_warm_state requires a freshly built system")
        with telemetry.span("checkpoint.restore",
                            breakdown=self._phases):
            for cache, cache_state in zip(self._warm_caches(),
                                          state.caches):
                cache.restore_warm_state(cache_state)
            for core, core_state in zip(self.cores, state.cores):
                core.dtlb.restore(core_state.dtlb)
                core.itlb.restore(core_state.itlb)
                core._last_fetch_line = core_state.last_fetch_line
                core.skip_trace(core_state.consumed)
            self._prime_writeback_policy()
        self._warmed = True

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def run(self, label: Optional[str] = None) -> RunResult:
        """Warmup, reset statistics, measure, and collect the result.

        When the config carries a :class:`~repro.sampling.SamplingConfig`
        the measurement epoch is sampled (alternating fast-forward and
        detailed intervals, see :meth:`run_sampled`) instead of simulated
        monolithically.
        """
        config = self.config
        if config.sampling is not None:
            return self.run_sampled(label=label)
        self.warm_up()
        start_tick = self.engine.now
        with telemetry.span("measure", breakdown=self._phases,
                            instructions=config.sim_instructions):
            for core in self.cores:
                core.reset_measurement(config.sim_instructions)
                core.start()
            self._run_phase()
            self.memctrl.finalize()
        result = self._collect(
            label or (config.llc_writeback or "baseline"),
            start_tick=start_tick, start_events=0)
        if self._phases is not None:
            result.phase_breakdown = dict(self._phases)
        return result

    def _collect(self, label: str, start_tick: int, start_events: int,
                 core_stats=None) -> RunResult:
        """Snapshot the counters of the epoch begun at ``start_tick``.

        ``core_stats`` overrides the per-core counters (quota-driven
        sampled intervals snapshot them at the quota crossing; the live
        stats keep accumulating while slower cores finish their
        windows).
        """
        if core_stats is None:
            core_stats = [c.stats for c in self.cores]
        finish = max(s.finish_tick for s in core_stats)
        dram_total = SubChannelStats()
        for channel in self.channels:
            dram_total.merge_from(channel.aggregate_stats())
        instructions = sum(s.retired for s in core_stats)
        return RunResult(
            events=self.engine.events_fired - start_events,
            label=label,
            cores=self.config.cores,
            instructions=instructions,
            elapsed_ticks=finish - start_tick,
            ipc=[s.ipc for s in core_stats],
            llc=self.llc.stats.snapshot(),
            mshr_stall_cycles=sum(s.mshr_stall_cycles
                                  for s in core_stats),
            dram=dram_total,
            channels=[copy.copy(c.stats) for c in self.channels],
            subchannel_count=2 * len(self.channels),
            wb_stats=(copy.copy(self.llc_policy.stats)
                      if self.llc_policy else None),
            bard_accuracy=(copy.copy(self.llc_policy.accuracy)
                           if isinstance(self.llc_policy, BardPolicy)
                           else None),
            llc_demand_accesses=self.llc.stats.demand_accesses,
        )

    def run_sampled(self, label: Optional[str] = None) -> RunResult:
        """Sampled measurement: fast-forward / warm / measure intervals.

        Implements the plan in ``config.sampling`` (see
        ``docs/sampling.md``).  After the usual functional warmup, each
        measurement interval is reached by raw trace fast-forwarding
        (:meth:`~repro.cpu.core.Core.skip_trace`) followed by
        ``warm_instructions`` of functional warming
        (:meth:`~repro.cpu.core.Core.warm_up` - the same machinery the
        warmup phase uses, keeping cache/TLB/replacement/prefetcher
        state warm), then measured in full detail for
        ``interval_instructions`` per core.  Statistics reset at each
        interval start, so every interval yields an independent
        :class:`RunResult` snapshot; the aggregate result sums the
        interval counters and carries a
        :class:`~repro.sampling.stats.SamplingSummary` with per-metric
        CLT confidence intervals.
        """
        from repro.sampling import CONFIDENCE, SAMPLE_METRICS, \
            SamplingSummary, aggregate_results, collect_metric_values, \
            interval_starts, summarize, validate_plan

        config = self.config
        sampling = config.sampling
        if sampling is None:
            raise SimulationError(
                "run_sampled requires a sampling config; use run() for "
                "full measurement")
        epoch = config.sim_instructions
        period = validate_plan(sampling, epoch)
        starts = list(interval_starts(sampling, epoch))

        self.warm_up()
        run_label = label or (config.llc_writeback or "baseline")
        # The last interval's cores stop at their budget exactly like the
        # end of a full run (which keeps a 1-interval sample covering the
        # epoch bit-identical to the full run); every earlier interval
        # uses soft quotas so no core ever stops executing mid-plan.
        last_index = sampling.intervals - 1
        intervals: List[RunResult] = []
        retired = [0] * len(self.cores)
        cycles = [0.0] * len(self.cores)
        consumed = 0
        for index, start in enumerate(starts):
            gap = start - consumed
            if gap > 0:
                with telemetry.span(f"sampling.gap[{index}]",
                                    breakdown=self._phases,
                                    instructions=gap):
                    # The gap is spent, from the back: a detailed-but-
                    # unmeasured pipeline re-warm, functional cache
                    # warming before that, raw trace skipping for the
                    # rest.
                    detail = min(gap,
                                 sampling.detailed_warm_instructions)
                    warm = min(gap - detail, sampling.warm_instructions)
                    skip = gap - detail - warm
                    if warm:
                        # Functional warming rewrites tag arrays in
                        # place; a detailed fill still in flight from
                        # the previous interval would land on a
                        # rewritten set and corrupt the tag index.  Idle
                        # the cores and complete the pipeline first (the
                        # queue empties: channels stop ticking once
                        # reads drain and the write queue is below its
                        # watermark).
                        for core in self.cores:
                            core.pause()
                        self.engine.run()
                    for core in self.cores:
                        if skip:
                            core.skip_trace(skip)
                        if warm:
                            core.warm_up(warm)
                    if warm:
                        self._prime_writeback_policy()
                    if detail:
                        # Discarded detailed window: refills the ROB,
                        # MSHRs, and memory queues so the measured
                        # interval starts from steady pipeline state, as
                        # a continuous run would have it.
                        self._run_quota(detail)
                    consumed += gap
            self.reset_stats()
            start_tick = self.engine.now
            start_events = self.engine.events_fired
            start_acts, start_pres = self._bank_command_totals()
            with telemetry.span(
                    f"sampling.interval[{index}]",
                    breakdown=self._phases,
                    instructions=sampling.interval_instructions):
                if index == last_index:
                    for core in self.cores:
                        core.reset_measurement(
                            sampling.interval_instructions)
                        core.start()
                    self._run_phase()
                    core_stats = None
                else:
                    core_stats = self._run_quota(
                        sampling.interval_instructions)
            consumed += sampling.interval_instructions
            interval_cores = core_stats if core_stats is not None \
                else [c.stats for c in self.cores]
            if index == last_index:
                # Close the in-flight drain episode and roll per-bank
                # command counters up exactly once, as a full run would.
                self.memctrl.finalize()
            interval_result = self._collect(run_label, start_tick,
                                            start_events, core_stats)
            # Per-bank ACT/PRE counters accumulate for the system's whole
            # life and only roll into the sub-channel stats at finalize
            # (i.e. once, after the last interval) - attribute each
            # interval its own delta so discarded re-warm windows never
            # inflate the sample's command counts (and its power model).
            acts, pres = self._bank_command_totals()
            interval_result.dram.activates = acts - start_acts
            interval_result.dram.precharges = pres - start_pres
            intervals.append(interval_result)
            for core_id, stats in enumerate(interval_cores):
                retired[core_id] += stats.retired
                cycles[core_id] += stats.cycles

        values = collect_metric_values(intervals, SAMPLE_METRICS)
        summary = SamplingSummary(
            intervals=len(intervals),
            interval_instructions=sampling.interval_instructions,
            period_instructions=period,
            warm_instructions=sampling.warm_instructions,
            confidence=CONFIDENCE,
            starts=starts,
            metrics=summarize(values, CONFIDENCE),
        )
        result = aggregate_results(intervals, retired, cycles,
                                   run_label, summary)
        if self._phases is not None:
            result.phase_breakdown = dict(self._phases)
        return result
