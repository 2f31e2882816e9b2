"""CPU model: ROB, TLBs, trace protocol, and the core's issue/retire loop."""

import itertools
import random

import pytest

from repro.cpu.tlb import TLB, TLBHierarchy
from repro.cpu.trace import (
    LOAD,
    NONMEM,
    STORE,
    take,
    validate_record,
)
from repro.cpu.core import Core
from repro.errors import TraceError
from repro.sim.engine import Engine


class ManualMemory:
    """L1-substitute that completes loads only when the test says so."""

    def __init__(self):
        self.loads = []

    def access(self, addr, is_write, pc, now, on_done, core_id=0,
               is_prefetch=False):
        if on_done is not None:
            self.loads.append(on_done)


def _rob_core(records, rob_size=4, retire_width=4, budget=1000):
    """A core fed ``records`` and then NONMEMs, on a ManualMemory."""
    engine = Engine()
    mem = ManualMemory()
    trace = itertools.chain(records, itertools.repeat((NONMEM, 0, 4)))
    core = Core(0, trace, engine, mem, mem, ZeroTLB(), ZeroTLB(),
                rob_size=rob_size, issue_width=4,
                retire_width=retire_width, budget=budget)
    core.start()
    return engine, mem, core


class TestROB:
    """Retirement through ``Core._tick``: in order, width- and
    budget-bounded, blocked by an outstanding head."""

    def test_retire_in_order(self):
        engine, mem, core = _rob_core([(LOAD, 64, 4), (LOAD, 128, 4)])
        engine.run()
        first, second = mem.loads
        second(engine.now)  # the younger load completes first
        engine.run()
        assert core.stats.retired == 0
        first(engine.now)
        engine.step()       # the woken tick retires both loads, in order
        assert core.stats.retired == 2

    def test_retire_width_limit(self):
        engine, _, core = _rob_core([], rob_size=8, retire_width=4,
                                    budget=6)
        retired = [0]
        while engine.step():
            retired.append(core.stats.retired)
        steps = [b - a for a, b in zip(retired, retired[1:])]
        assert max(steps) == 4
        # The last tick retires only what the budget has room for.
        assert core.stats.retired == 6 and core.finished

    def test_outstanding_blocks(self):
        engine, mem, core = _rob_core([(LOAD, 64, 4)])
        engine.run()
        # Three completed NONMEMs wait behind the outstanding load.
        assert len(mem.loads) == 1
        assert core.stats.retired == 0 and core._sleeping

    def test_full(self):
        engine, mem, core = _rob_core([(LOAD, 64 * i, 4)
                                       for i in range(1, 9)], rob_size=2)
        engine.run()
        assert len(core.rob) == core.rob_size == 2
        assert len(mem.loads) == 2 and core.stats.loads == 2
        assert core.stats.sleeps == 1


class TestTLB:
    def test_miss_then_hit(self):
        tlb = TLB(4, 2)
        assert not tlb.lookup(0x1000)
        assert tlb.lookup(0x1000)

    def test_same_page_shares_entry(self):
        tlb = TLB(4, 2)
        tlb.lookup(0x1000)
        assert tlb.lookup(0x1FFF)

    def test_lru_eviction(self):
        tlb = TLB(1, 2)
        tlb.lookup(0 << 12)
        tlb.lookup(1 << 12)
        tlb.lookup(0 << 12)  # touch page 0
        tlb.lookup(2 << 12)  # evicts page 1
        assert tlb.lookup(0 << 12)
        assert not tlb.lookup(1 << 12)

    def test_hierarchy_latencies(self):
        h = TLBHierarchy(l1_sets=1, l1_ways=1, l2_sets=4, l2_ways=2,
                         l2_latency=8, walk_latency=80)
        assert h.translate(0x1000) == 88   # cold: L2 miss + walk
        assert h.translate(0x1000) == 0    # L1 hit
        h.translate(0x2000)                # evicts 0x1000 from 1-entry L1
        assert h.translate(0x1000) == 8    # L1 miss, L2 hit

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_translate_matches_repeated_lookups(self, seed):
        """The L1 lookup inlined into ``translate`` leaves both levels
        exactly as plain ``TLB.lookup`` calls would: same latencies,
        LRU clock and set contents."""
        rng = random.Random(seed)
        hierarchy = TLBHierarchy(l1_sets=4, l1_ways=2, l2_sets=8,
                                 l2_ways=3, l2_latency=8, walk_latency=80)
        l1, l2 = TLB(4, 2), TLB(8, 3)
        latencies = set()
        for _ in range(3000):
            # Mostly a small hot set of pages, sometimes a far one.
            page = rng.randrange(24) if rng.random() < 0.8 \
                else rng.randrange(1 << 20)
            addr = (page << 12) | rng.randrange(4096)
            if l1.lookup(addr):
                want = 0
            elif l2.lookup(addr):
                want = 8
            else:
                want = 88
            assert hierarchy.translate(addr) == want
            latencies.add(want)
        # Both levels hit and miss.
        assert latencies == {0, 8, 88}
        for fast, ref in ((hierarchy.l1, l1), (hierarchy.l2, l2)):
            assert fast.snapshot() == ref.snapshot()


class TestTraceHelpers:
    def test_validate_good_records(self):
        validate_record((NONMEM, 0, 4))
        validate_record((LOAD, 64, 8))
        validate_record((STORE, 128, 12))

    @pytest.mark.parametrize("rec", [
        (9, 0, 0),
        (LOAD, -1, 0),
        (LOAD, 0, 0),       # memory op with null address
        (NONMEM, 0, -4),
    ])
    def test_validate_rejects(self, rec):
        with pytest.raises(TraceError):
            validate_record(rec)

    def test_take(self):
        recs = take(iter([(NONMEM, 0, 0)] * 3), 5)
        assert len(recs) == 3


class InstantMemory:
    """L1-substitute that completes every access next cycle."""

    def __init__(self, engine):
        self.engine = engine
        self.accesses = []

    def access(self, addr, is_write, pc, now, on_done, core_id=0,
               is_prefetch=False):
        self.accesses.append((addr, is_write))
        if on_done is not None:
            self.engine.schedule(now + 3, lambda: on_done(now + 3))


class ZeroTLB:
    def translate(self, addr):
        return 0


def _trace(n_mem=0):
    def gen():
        i = 0
        while True:
            if n_mem and i % n_mem == 0:
                yield (LOAD, 64 + 64 * i, 4)
            else:
                yield (NONMEM, 0, 4)
            i += 1
    return gen()


class TestCore:
    def _make(self, trace, budget=100):
        engine = Engine()
        mem = InstantMemory(engine)
        finished = []
        core = Core(0, trace, engine, mem, mem, ZeroTLB(), ZeroTLB(),
                    rob_size=16, issue_width=4, retire_width=4,
                    budget=budget, on_finish=finished.append)
        return engine, mem, core, finished

    def test_retires_budget_and_finishes(self):
        engine, mem, core, finished = self._make(_trace(), budget=100)
        core.start()
        engine.run()
        assert finished and core.stats.retired >= 100

    def test_ipc_close_to_width_for_nonmem(self):
        engine, mem, core, finished = self._make(_trace(), budget=400)
        core.start()
        engine.run()
        assert core.stats.ipc > 2.0  # 4-wide core, 1-cycle ops

    def test_loads_counted_and_issued(self):
        engine, mem, core, finished = self._make(_trace(n_mem=4),
                                                 budget=100)
        core.start()
        engine.run()
        assert core.stats.loads > 0
        assert any(not w for _, w in mem.accesses)

    def test_sleep_and_wake_on_slow_memory(self):
        engine = Engine()

        class SlowMemory(InstantMemory):
            def access(self, addr, is_write, pc, now, on_done, core_id=0,
                       is_prefetch=False):
                self.accesses.append((addr, is_write))
                if on_done is not None:
                    self.engine.schedule(now + 3000,
                                         lambda: on_done(now + 3000))

        mem = SlowMemory(engine)
        finished = []
        core = Core(0, _trace(n_mem=2), engine, mem, mem, ZeroTLB(),
                    ZeroTLB(), rob_size=8, budget=50,
                    on_finish=finished.append)
        core.start()
        engine.run()
        assert finished
        assert core.stats.sleeps > 0

    def test_stores_do_not_block_retirement(self):
        def trace():
            while True:
                yield (STORE, 64, 4)

        engine = Engine()
        mem = InstantMemory(engine)

        # Stores get no completion callback: if they blocked retirement the
        # run would never finish.
        finished = []
        core = Core(0, trace(), engine, mem, mem, ZeroTLB(), ZeroTLB(),
                    rob_size=8, budget=50, on_finish=finished.append)
        core.start()
        engine.run()
        assert finished
        assert all(w for _, w in mem.accesses if _ >= 64)

    def test_reset_measurement(self):
        engine, mem, core, finished = self._make(_trace(), budget=50)
        core.start()
        engine.run()
        core.reset_measurement(budget=60)
        assert core.stats.retired == 0
        assert not core.finished
        core.start()
        engine.run()
        assert core.stats.retired >= 60
