"""MSHR pipeline: admission, coalescing, invariants, drain semantics.

The pipeline regime (``pipeline=True``) bounds true MSHR occupancy and
queues inadmissible accesses; these tests pin its invariants:

* occupancy never exceeds the MSHR count (seeded-random streams),
* every waiter fires exactly once, at the fill tick,
* queued misses drain FIFO,
* hit-under-miss / mshr_targets ablations behave as documented,
* a huge-MSHR pipeline cache is latency-identical to the legacy
  regime (differential oracle),
* drain() completes outstanding misses functionally and swallows the
  stale fills, so mid-miss warm-state snapshots are safe,
* a core stalled on the L1D sleeps without events, resumes on its
  stall's CPU-cycle grid, and charges exactly the skipped cycles.
"""

import dataclasses
import random

import pytest

from repro.cache.cache import Cache
from repro.cache.replacement import LRUPolicy
from repro.clock import TICKS_PER_CPU_CYCLE
from repro.cpu.core import Core
from repro.cpu.trace import STORE
from repro.sampling import SamplingConfig
from repro.sim.engine import Engine
from repro.sim.system import System
from repro.workloads.suites import trace_factory

from .conftest import tiny_config
from .test_cache import FakeLower, addr_for_set
from .test_cpu import InstantMemory, ZeroTLB


def make_pipeline_cache(engine, lower, sets=4, ways=2, mshrs=2,
                        latency=2, mshr_targets=0, hit_under_miss=True):
    size = sets * ways * 64
    return Cache("pipe", size, ways, latency, mshrs,
                 LRUPolicy(sets, ways), engine, lower,
                 mshr_targets=mshr_targets,
                 hit_under_miss=hit_under_miss,
                 pipeline=True)


@pytest.fixture
def env():
    engine = Engine()
    lower = FakeLower(engine)
    cache = make_pipeline_cache(engine, lower)
    return engine, lower, cache


class TestOccupancyInvariant:
    """len(mshr) <= mshr_count at all times, under random streams."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("mshrs", [1, 2, 4])
    def test_occupancy_bounded(self, seed, mshrs):
        engine = Engine()
        lower = FakeLower(engine, delay=97)
        cache = make_pipeline_cache(engine, lower, sets=4, ways=2,
                                    mshrs=mshrs)
        rng = random.Random(seed)
        max_occ = 0
        fired = []

        def issue_some(t, budget=[40]):
            nonlocal max_occ
            if budget[0] <= 0:
                return
            budget[0] -= 1
            addr = rng.randrange(0, 32) * 64 + rng.randrange(0, 8) * 8
            cache.access(addr, rng.random() < 0.3, 1, t,
                         lambda tt: fired.append(tt))
            max_occ = max(max_occ, len(cache.mshr))
            engine.schedule(t + rng.randrange(1, 50), issue_some,
                            engine.now + 1)

        engine.schedule(0, issue_some, 0)
        engine.run()
        assert max_occ <= mshrs
        # The occupancy histogram is the same invariant, observed at
        # every allocation: its highest bucket is the MSHR count.
        assert len(cache.stats.mshr_occupancy_hist) <= mshrs + 1
        # Everything eventually completed: no waiter lost to queueing.
        assert len(fired) == 40
        assert not cache.mshr and not cache._pending
        assert not cache.stalled

    @pytest.mark.parametrize("seed", [11, 12])
    def test_waiters_fire_exactly_once(self, seed):
        engine = Engine()
        lower = FakeLower(engine, delay=61)
        cache = make_pipeline_cache(engine, lower, mshrs=2)
        rng = random.Random(seed)
        counts = {}
        for i in range(30):
            addr = rng.randrange(0, 16) * 64
            counts[i] = 0

            def done(t, i=i):
                counts[i] += 1

            engine.schedule(rng.randrange(0, 400), cache.access, addr,
                            False, 1, 0, done)
        engine.run()
        assert all(c == 1 for c in counts.values())


class TestFillTiming:
    def test_waiters_fire_at_fill_tick(self, env):
        engine, lower, cache = env
        done = []
        cache.access(0, False, 1, 0, lambda t: done.append(t))
        cache.access(8, False, 1, 0, lambda t: done.append(t))  # merges
        engine.run()
        # Fill arrives delay ticks after the post-tag-latency send; both
        # waiters see the same fill tick.
        fill_tick = cache.hit_latency_ticks + lower.delay
        assert done == [fill_tick, fill_tick]

    def test_queued_miss_completes_after_blocking_fill(self, env):
        engine, lower, cache = env
        cache2 = make_pipeline_cache(engine, FakeLower(engine), mshrs=1)
        done = []
        cache2.access(0, False, 1, 0, lambda t: done.append(("a", t)))
        cache2.access(64 * 4, False, 1, 0,
                      lambda t: done.append(("b", t)))
        assert cache2.stalled
        engine.run()
        assert [tag for tag, _ in done] == ["a", "b"]
        assert done[1][1] > done[0][1]
        assert cache2.stats.mshr_stalls == 1
        assert cache2.stats.mshr_stall_cycles > 0
        assert not cache2.stalled


class TestFifoDrain:
    def test_queued_misses_drain_fifo(self):
        engine = Engine()
        lower = FakeLower(engine, delay=100)
        cache = make_pipeline_cache(engine, lower, mshrs=1)
        order = []
        addrs = [addr_for_set(cache, 0, tag) for tag in range(4)]
        for i, a in enumerate(addrs):
            cache.access(a, False, 1, 0,
                         lambda t, i=i: order.append(i))
        engine.run()
        assert order == [0, 1, 2, 3]
        # The lower level saw the misses in queue order too.
        assert lower.reads == addrs


class TestHitUnderMiss:
    def test_hit_proceeds_under_miss(self, env):
        engine, lower, cache = env
        cache.access(0, False, 1, 0, None)
        engine.run()  # line 0 resident
        start = engine.now
        done = []
        cache.access(64 * 4, False, 1, start, None)        # miss
        cache.access(0, False, 1, start, lambda t: done.append(t))
        assert done == []  # hit latency still applies
        engine.run()
        assert done[0] == start + cache.hit_latency_ticks

    def test_blocking_cache_queues_hits(self):
        engine = Engine()
        lower = FakeLower(engine, delay=200)
        cache = make_pipeline_cache(engine, lower, mshrs=2,
                                    hit_under_miss=False)
        cache.access(0, False, 1, 0, None)
        engine.run()  # line 0 resident
        start = engine.now
        done = []
        cache.access(64 * 4, False, 1, start, None)        # miss
        cache.access(0, False, 1, start, lambda t: done.append(t))
        assert cache.stalled          # the hit queued behind the miss
        assert cache.stats.mshr_stalls == 1
        engine.run()
        # The queued hit completed only after the blocking miss filled.
        assert done[0] >= start + lower.delay
        assert not cache.stalled


class TestTargetBound:
    def test_secondary_miss_stall_at_target_bound(self):
        engine = Engine()
        lower = FakeLower(engine, auto=False)
        cache = make_pipeline_cache(engine, lower, mshrs=4,
                                    mshr_targets=2)
        done = []
        for i in range(3):
            cache.access(8 * i, False, 1, 0,
                         lambda t, i=i: done.append(i))
        engine.run()
        # Two targets admitted (allocation + one merge); the third
        # queued as a secondary-miss stall.
        assert cache.mshr[0].targets == 2
        assert cache.stats.mshr_stalls == 1
        assert cache.stalled
        lower.respond_all()
        engine.run()
        lower.respond_all()   # the re-missed third access fills next
        engine.run()
        assert sorted(done) == [0, 1, 2]
        assert not cache.stalled


class TestPrefetchAdmission:
    def test_local_prefetch_dropped_when_full(self):
        engine = Engine()
        lower = FakeLower(engine, auto=False)
        cache = make_pipeline_cache(engine, lower, mshrs=1)
        cache.access(0, False, 1, 0, None)
        cache.access(64 * 4, False, 1, 0, None, is_prefetch=True)
        assert cache.stats.prefetch_drops == 1
        assert not cache.stalled  # drops never queue or stall
        assert len(cache._pending) == 0

    def test_upstream_prefetch_queues_instead_of_dropping(self):
        """A prefetch carrying on_done is an upper level's fill in
        flight - dropping it would wedge that MSHR entry forever (the
        mshrs=1 deadlock this regression test pins)."""
        engine = Engine()
        lower = FakeLower(engine, auto=False)
        cache = make_pipeline_cache(engine, lower, mshrs=1)
        done = []
        cache.access(0, False, 1, 0, None)
        cache.access(64 * 4, False, 1, 0, lambda t: done.append(t),
                     is_prefetch=True)
        assert cache.stats.prefetch_drops == 0
        assert len(cache._pending) == 1
        engine.run()          # the demand miss reaches the lower level
        lower.respond_all()   # its fill admits the queued prefetch
        engine.run()
        lower.respond_all()   # the prefetch's own fill
        engine.run()
        assert len(done) == 1  # the upstream fill completed


class TestDifferentialOracle:
    def test_huge_pipeline_matches_legacy_latencies(self):
        """Contention-free accesses: pipeline == legacy, access by
        access.  With headroom the admission machinery must be
        timing-invisible."""
        results = []
        for pipeline in (False, True):
            engine = Engine()
            lower = FakeLower(engine, delay=150)
            cache = Cache("d", 4 * 2 * 64, 2, 2, 1 << 20,
                          LRUPolicy(4, 2), engine, lower,
                          pipeline=pipeline)
            rng = random.Random(99)
            latencies = []
            for _ in range(25):
                addr = rng.randrange(0, 12) * 64
                start = engine.now
                cache.access(addr, rng.random() < 0.5, 1, start,
                             lambda t, s=start: latencies.append(t - s))
                engine.run()   # one access at a time: no contention
            results.append((latencies, cache.stats.hits,
                            cache.stats.misses))
        assert results[0] == results[1]


class TestDrain:
    def test_snapshot_mid_miss_does_not_raise(self, env):
        engine, lower, cache = env
        done = []
        cache.access(0, True, 1, 0, lambda t: done.append(t))
        # Miss outstanding (send not yet delivered): snapshot drains.
        state = cache.snapshot_warm_state()
        assert done  # waiter fired functionally at drain time
        assert cache.find_line(0) is not None
        assert not cache.mshr and not cache._pending
        assert state.lines  # snapshot captured the post-drain state

    def test_drain_swallows_stale_fill(self):
        engine = Engine()
        lower = FakeLower(engine, auto=False)
        cache = make_pipeline_cache(engine, lower, mshrs=2)
        cache.access(0, False, 1, 0, None)
        engine.run()            # request now FILLING at the lower level
        cache.drain(engine.now)
        assert cache.find_line(0) is not None
        assert cache._cancelled_fills == {0: 1}
        # A new miss to the same line allocated after the drain must
        # not be completed by the stale fill.
        done = []
        cache.access(64 * 4, False, 1, engine.now, None)  # evict helper
        lower.respond_all()     # delivers the STALE fill for line 0
        engine.run()
        assert cache._cancelled_fills == {}
        assert cache.stats.fills <= 2

    def test_drain_replays_queued_accesses(self):
        engine = Engine()
        lower = FakeLower(engine, auto=False)
        cache = make_pipeline_cache(engine, lower, mshrs=1)
        done = []
        cache.access(0, False, 1, 0, lambda t: done.append("a"))
        cache.access(64 * 4, True, 1, 0, lambda t: done.append("b"))
        assert cache.stalled
        cache.drain(engine.now)
        assert sorted(done) == ["a", "b"]
        assert cache.find_line(0) is not None
        found = cache.find_line(64 * 4)
        assert found is not None
        s, w = found
        assert cache.sets[s].lines[w].dirty  # queued store landed dirty
        assert not cache.stalled

    def test_drain_idempotent_when_idle(self, env):
        engine, lower, cache = env
        cache.access(0, False, 1, 0, None)
        engine.run()
        before = cache.stats.snapshot()
        cache.drain(engine.now)
        assert cache.stats.fills == before.fills
        assert cache.find_line(0) is not None


#: The tick of the first stalled cycle in :func:`stalled_core`.
STALL_BASE = TICKS_PER_CPU_CYCLE


def stalled_core(budget=40):
    """A core asleep on an L1D stall that only the lower level can end.

    Every instruction stores to one line through a one-target MSHR: the
    first store misses and the next three queue as secondary-miss stalls.
    The stores retire on the core's second tick, which finds the L1D
    stalled and the ROB empty, so only the L1D's unstall can wake it.
    Once the fill lands every store hits.  ``pulls`` holds the tick of
    every trace record the core consumed.
    """
    engine = Engine()
    lower = FakeLower(engine, auto=False)
    l1d = make_pipeline_cache(engine, lower, mshrs=1, mshr_targets=1)
    pulls = []

    def trace():
        while True:
            pulls.append(engine.now)
            yield (STORE, 0, 4)

    core = Core(0, trace(), engine, l1d, InstantMemory(engine), ZeroTLB(),
                ZeroTLB(), rob_size=16, budget=budget)
    core.start()
    # A core polling its stall would never let the queue drain.
    engine.run(max_events=100)
    return engine, lower, l1d, core, pulls


class TestCoreStallSleep:
    def test_stalled_core_sleeps_without_events(self):
        engine, lower, l1d, core, pulls = stalled_core()
        assert l1d.stalled and lower.pending
        assert core.stats.retired == 4 and pulls == [0] * 4
        # No tick is scheduled: nothing polls the stall.
        assert engine.pending == 0
        assert not core._tick_scheduled

    @pytest.mark.parametrize("unstall, resume",
                             [(99, 99), (100, 102), (101, 102)])
    def test_resumes_on_first_grid_tick_after_unstall(self, unstall,
                                                      resume):
        engine, lower, l1d, core, pulls = stalled_core()
        engine.schedule(unstall, lower.respond_all)
        engine.run()
        assert not l1d.stalled
        assert pulls[4] == resume
        assert (resume - STALL_BASE) % TICKS_PER_CPU_CYCLE == 0
        assert core.finished

    def test_stall_cycles_equal_skipped_cycles(self):
        engine, lower, l1d, core, pulls = stalled_core()
        engine.schedule(100, lower.respond_all)
        engine.run()
        # Every CPU cycle from the first stalled one up to the resume
        # tick - what a poll every cycle would have counted.
        assert core.stats.mshr_stall_cycles == \
            (pulls[4] - STALL_BASE) // TICKS_PER_CPU_CYCLE == 33

    def test_pause_drops_the_stall(self):
        engine, lower, l1d, core, pulls = stalled_core()
        core.pause()
        engine.schedule(100, lower.respond_all)
        engine.run()
        assert len(pulls) == 4      # the unstall does not wake it
        assert engine.pending == 0
        core.reset_measurement(budget=8)
        core.start()
        engine.run()
        # No stale stall leaks into the epoch after the pause.
        assert core.stats.mshr_stall_cycles == 0
        assert core.stats.retired == 8

    @pytest.mark.parametrize("boundary", ["begin_quota",
                                          "reset_measurement"])
    def test_epoch_boundary_splits_the_stall(self, boundary):
        engine, lower, l1d, core, pulls = stalled_core()
        engine.schedule(50, lambda: None)
        engine.run()
        old = core.stats
        if boundary == "begin_quota":
            core.begin_quota(4, lambda c: engine.stop())
        else:
            core.reset_measurement(budget=8)
            core.start()
        # The stall outlives the boundary: the core stays asleep.
        assert engine.pending == 0
        engine.schedule(100, lower.respond_all)
        engine.run()
        assert pulls[4] == 102
        # Cycles 3..48 stay with the old epoch, 51..99 go to the new one.
        assert old.mshr_stall_cycles == 16
        assert core.stats.mshr_stall_cycles == 17

    def test_cache_drain_wakes_the_stalled_core(self):
        engine, lower, l1d, core, pulls = stalled_core()
        engine.schedule(50, l1d.drain, 50)
        engine.run()
        assert not l1d.stalled
        assert pulls[4] == 51
        assert core.stats.mshr_stall_cycles == 16
        assert core.finished

    def test_sampled_pipeline_run_repeats_bit_identically(self):
        cfg = tiny_config(warmup_mode="functional").with_mshrs(2)
        cfg = cfg.with_sampling(SamplingConfig(
            intervals=3, interval_instructions=300,
            warm_instructions=200, detailed_warm_instructions=100))
        runs = [System(cfg, trace_factory("bc", cfg, seed=7)).run()
                for _ in range(2)]
        assert runs[0].sampling.intervals == 3
        assert runs[0].mshr_stall_cycles > 0
        assert dataclasses.asdict(runs[0]) == dataclasses.asdict(runs[1])
