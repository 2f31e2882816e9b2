"""Set-associative cache: hits, misses, MSHRs, writebacks, cleansing."""

import pytest

from repro.cache.cache import Cache
from repro.cache.mshr import FULL_WORD_MASK
from repro.cache.replacement import LRUPolicy
from repro.sim.engine import Engine


class FakeLower:
    """Scriptable lower level: records traffic, responds after a delay."""

    def __init__(self, engine, delay=300, auto=True):
        self.engine = engine
        self.delay = delay
        self.auto = auto
        self.reads = []
        self.writebacks = []
        self.pending = []

    def read(self, line_addr, now, on_done, core_id, is_prefetch, pc=0):
        self.reads.append(line_addr)
        if self.auto:
            self.engine.schedule(now + self.delay,
                                 lambda: on_done(now + self.delay))
        else:
            self.pending.append((line_addr, on_done))

    def writeback(self, line_addr, now):
        self.writebacks.append(line_addr)

    def respond_all(self):
        for la, cb in self.pending:
            cb(self.engine.now)
        self.pending.clear()


def make_cache(engine, lower, sets=4, ways=2, mshrs=4, latency=2,
               wb_policy=None):
    size = sets * ways * 64
    return Cache("test", size, ways, latency, mshrs,
                 LRUPolicy(sets, ways), engine, lower,
                 writeback_policy=wb_policy)


@pytest.fixture
def env():
    engine = Engine()
    lower = FakeLower(engine)
    cache = make_cache(engine, lower)
    return engine, lower, cache


def addr_for_set(cache, set_idx, tag):
    """Address mapping to a given set with a distinguishing tag."""
    return (tag * cache.num_sets + set_idx) * 64


class TestHitMiss:
    def test_miss_goes_to_lower(self, env):
        engine, lower, cache = env
        done = []
        cache.access(0, False, 1, 0, lambda t: done.append(t))
        engine.run()
        assert lower.reads == [0]
        assert len(done) == 1

    def test_hit_after_fill(self, env):
        engine, lower, cache = env
        cache.access(0, False, 1, 0, None)
        engine.run()
        done = []
        cache.access(0, False, 1, engine.now, lambda t: done.append(t))
        engine.run()
        assert cache.stats.hits == 1
        assert lower.reads == [0]
        assert done[0] == pytest.approx(
            engine.now, abs=cache.hit_latency_ticks + 1)

    def test_sub_line_addresses_share_line(self, env):
        engine, lower, cache = env
        cache.access(0, False, 1, 0, None)
        engine.run()
        cache.access(63, False, 1, engine.now, None)
        engine.run()
        assert cache.stats.hits == 1

    def test_hit_latency_applied(self, env):
        engine, lower, cache = env
        cache.access(0, False, 1, 0, None)
        engine.run()
        start = engine.now
        done = []
        cache.access(0, False, 1, start, lambda t: done.append(t))
        engine.run()
        assert done[0] == start + cache.hit_latency_ticks


class TestMSHR:
    def test_same_line_merges(self, env):
        engine, lower, cache = env
        done = []
        for i in range(3):
            cache.access(0, False, 1, 0, lambda t: done.append(t))
        engine.run()
        assert lower.reads == [0]
        assert cache.stats.mshr_merges == 2
        assert len(done) == 3

    def test_outstanding_bounded_by_mshrs(self):
        engine = Engine()
        lower = FakeLower(engine, auto=False)
        cache = make_cache(engine, lower, mshrs=2)
        for i in range(4):
            cache.access(i * 64 * cache.num_sets, False, 1, 0, None)
        engine.run()
        assert len(lower.pending) == 2  # 2 issued, 2 queued behind MSHRs
        lower.respond_all()
        engine.run()
        assert len(lower.pending) == 2  # next two released
        lower.respond_all()
        engine.run()
        assert cache.stats.fills == 4

    def test_write_merge_marks_dirty(self, env):
        engine, lower, cache = env
        cache.access(0, False, 1, 0, None)   # read miss outstanding
        cache.access(0, True, 1, 0, None)    # store merges
        engine.run()
        found = cache.find_line(0)
        assert found is not None
        s, w = found
        assert cache.sets[s].lines[w].dirty


class TestWriteAllocate:
    def test_store_miss_fetches_then_dirties(self, env):
        engine, lower, cache = env
        cache.access(0, True, 1, 0, None)
        engine.run()
        assert lower.reads == [0]
        s, w = cache.find_line(0)
        assert cache.sets[s].lines[w].dirty

    def test_store_hit_dirties(self, env):
        engine, lower, cache = env
        cache.access(0, False, 1, 0, None)
        engine.run()
        cache.access(0, True, 1, engine.now, None)
        engine.run()
        s, w = cache.find_line(0)
        assert cache.sets[s].lines[w].dirty


class TestEviction:
    def test_clean_eviction_silent(self, env):
        engine, lower, cache = env
        # Fill 3 lines into set 0 of a 2-way cache: one eviction.
        for tag in range(3):
            cache.access(addr_for_set(cache, 0, tag), False, 1,
                         engine.now, None)
            engine.run()
        assert cache.stats.evictions == 1
        assert lower.writebacks == []

    def test_dirty_eviction_writes_back(self, env):
        engine, lower, cache = env
        victim_addr = addr_for_set(cache, 0, 0)
        cache.access(victim_addr, True, 1, 0, None)
        engine.run()
        for tag in range(1, 3):
            cache.access(addr_for_set(cache, 0, tag), False, 1,
                         engine.now, None)
            engine.run()
        assert lower.writebacks == [victim_addr]
        assert cache.stats.dirty_evictions == 1

    def test_lru_order_respected(self, env):
        engine, lower, cache = env
        a0, a1 = (addr_for_set(cache, 0, t) for t in (0, 1))
        for a in (a0, a1):
            cache.access(a, False, 1, engine.now, None)
            engine.run()
        cache.access(a0, False, 1, engine.now, None)  # promote a0
        engine.run()
        cache.access(addr_for_set(cache, 0, 2), False, 1, engine.now, None)
        engine.run()
        assert cache.find_line(a0) is not None
        assert cache.find_line(a1) is None


class TestWritebackInstall:
    def test_miss_installs_dirty_without_fetch(self, env):
        engine, lower, cache = env
        cache.writeback(0, 0)
        assert lower.reads == []
        s, w = cache.find_line(0)
        assert cache.sets[s].lines[w].dirty

    def test_hit_just_dirties(self, env):
        engine, lower, cache = env
        cache.access(0, False, 1, 0, None)
        engine.run()
        cache.writeback(0, engine.now)
        s, w = cache.find_line(0)
        assert cache.sets[s].lines[w].dirty
        assert cache.stats.writeback_installs == 1

    def test_races_with_outstanding_fill(self):
        engine = Engine()
        lower = FakeLower(engine, auto=False)
        cache = make_cache(engine, lower)
        cache.access(0, False, 1, 0, None)   # miss outstanding
        engine.run()                         # request reaches lower level
        cache.writeback(0, 0)                # writeback arrives meanwhile
        lower.respond_all()
        engine.run()
        found = cache.find_line(0)
        assert found is not None
        s, w = found
        assert cache.sets[s].lines[w].dirty
        # Only one copy of the line exists.
        copies = sum(
            1 for cset in cache.sets for line in cset.lines
            if line.valid and line.line_addr == 0
        )
        assert copies == 1


class TestCleanse:
    def test_cleanse_writes_back_keeps_line(self, env):
        engine, lower, cache = env
        cache.access(0, True, 1, 0, None)
        engine.run()
        s, w = cache.find_line(0)
        cache.cleanse(s, w, engine.now)
        assert lower.writebacks == [0]
        line = cache.sets[s].lines[w]
        assert line.valid and not line.dirty
        assert cache.stats.cleanses == 1

    def test_cleanse_clean_line_noop(self, env):
        engine, lower, cache = env
        cache.access(0, False, 1, 0, None)
        engine.run()
        s, w = cache.find_line(0)
        cache.cleanse(s, w, engine.now)
        assert lower.writebacks == []


class ScriptedPrefetcher:
    """Asks for a fixed list of addresses on every demand access."""

    def __init__(self, targets):
        self.targets = targets

    def on_access(self, addr, pc, hit):
        return list(self.targets)


def assert_one_tag_per_line(cache):
    """The tag index and the line array agree, one way per line."""
    resident = [line.line_addr for cset in cache.sets
                for line in cset.lines if line.valid]
    assert len(resident) == len(set(resident))
    for tags, cset in zip(cache._tags, cache.sets):
        assert len(tags) == sum(line.valid for line in cset.lines)
        for addr, way in tags.items():
            assert cset.lines[way].valid
            assert cset.lines[way].line_addr == addr


class TestWarmPathMergesInFlight:
    """A warm access to a line whose detailed fill is in flight merges
    into its MSHR entry, as a detailed miss would; the fill installs it."""

    @pytest.fixture
    def in_flight(self):
        engine = Engine()
        lower = FakeLower(engine, auto=False)
        cache = make_cache(engine, lower)
        cache.access(0, False, 1, 0, None)
        engine.run()                         # request reaches lower level
        return engine, lower, cache

    def fill(self, engine, lower, cache):
        lower.respond_all()
        engine.run()
        assert not cache.mshr
        assert_one_tag_per_line(cache)
        s, w = cache.find_line(0)
        return cache.sets[s].lines[w]

    def test_warm_access(self, in_flight):
        engine, lower, cache = in_flight
        cache.warm_access(8, True, 1)
        assert cache.find_line(0) is None
        assert cache.mshr[0].is_write
        assert cache.mshr[0].word_mask == 0b11
        assert self.fill(engine, lower, cache).dirty

    def test_warm_writeback(self, in_flight):
        engine, lower, cache = in_flight
        cache.warm_writeback(0)
        assert cache.find_line(0) is None
        assert cache.mshr[0].is_write
        assert cache.mshr[0].word_mask == FULL_WORD_MASK
        assert self.fill(engine, lower, cache).dirty

    def test_warm_prefetch_filter(self, in_flight):
        engine, lower, cache = in_flight
        cache.prefetcher = ScriptedPrefetcher([0])
        cache.warm_access(64, False, 1)
        assert cache.find_line(0) is None
        assert not self.fill(engine, lower, cache).dirty


class TestCompleteUnsent:
    def test_issue_queue_completes_functionally(self):
        """Only the miss already below stays outstanding."""
        engine = Engine()
        lower = FakeLower(engine, auto=False)
        cache = make_cache(engine, lower, mshrs=1)
        done = []
        cache.access(0, False, 1, 0, lambda t: done.append(("a", t)))
        cache.access(64, True, 1, 0, lambda t: done.append(("b", t)))
        assert len(cache._issue_queue) == 1
        engine.run()
        cache.complete_unsent(engine.now)
        assert done == [("b", engine.now)]
        assert list(cache.mshr) == [0] and not cache._issue_queue
        s, w = cache.find_line(64)
        assert cache.sets[s].lines[w].dirty
        lower.respond_all()
        engine.run()
        assert lower.reads == [0]
        assert [name for name, _ in done] == ["b", "a"]
        assert_one_tag_per_line(cache)
