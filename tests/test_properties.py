"""Property-based invariants on the core data structures (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache
from repro.cache.replacement import make_replacement
from repro.core.bard import make_bard
from repro.dram.commands import LINE_SIZE, MemRequest, Op
from repro.dram.mapping import ZenMapping
from repro.dram.subchannel import SubChannel
from repro.dram.timing import ddr5_4800_x4
from repro.sim.engine import Engine

MAPPING = ZenMapping()

# One cache operation: (op_kind, address_slot, write?)
_ops = st.lists(
    st.tuples(
        st.sampled_from(["access", "writeback"]),
        st.integers(min_value=0, max_value=63),
        st.booleans(),
    ),
    max_size=120,
)


class AutoLower:
    def __init__(self, engine):
        self.engine = engine
        self.writebacks = []

    def read(self, line_addr, now, on_done, core_id, is_prefetch, pc=0):
        self.engine.schedule(now + 9, lambda: on_done(now + 9))

    def writeback(self, line_addr, now):
        self.writebacks.append(line_addr)


def _check_no_duplicate_lines(cache):
    seen = set()
    for cset in cache.sets:
        for line in cset.lines:
            if line.valid:
                assert line.line_addr not in seen, "duplicate resident line"
                seen.add(line.line_addr)
                assert cache.set_index(line.line_addr) == (
                    cache.sets.index(cset))


class TestCacheInvariants:
    @settings(max_examples=60, deadline=None)
    @given(_ops, st.sampled_from(["lru", "srrip", "ship"]))
    def test_no_duplicate_lines_any_policy(self, ops, policy):
        engine = Engine()
        lower = AutoLower(engine)
        cache = Cache("c", 4 * 4 * 64, 4, 1, 4,
                      make_replacement(policy, 4, 4), engine, lower)
        for kind, slot, is_write in ops:
            addr = slot << 19  # spread over rows/banks, few sets
            if kind == "access":
                cache.access(addr, is_write, slot * 4 + 1, engine.now, None)
            else:
                cache.writeback(addr, engine.now)
            engine.run()
        _check_no_duplicate_lines(cache)

    @settings(max_examples=40, deadline=None)
    @given(_ops)
    def test_no_duplicates_under_bard(self, ops):
        engine = Engine()
        lower = AutoLower(engine)
        policy = make_bard("bard-h", MAPPING)
        cache = Cache("llc", 4 * 4 * 64, 4, 1, 4,
                      make_replacement("lru", 4, 4), engine, lower,
                      writeback_policy=policy)
        for kind, slot, is_write in ops:
            addr = slot << 19
            if kind == "access":
                cache.access(addr, is_write, slot * 4 + 1, engine.now, None)
            else:
                cache.writeback(addr, engine.now)
            engine.run()
        _check_no_duplicate_lines(cache)
        # Every DRAM writeback must have marked the tracker at some point.
        assert policy.tracker.stats.broadcasts == len(lower.writebacks)

    @settings(max_examples=40, deadline=None)
    @given(_ops)
    def test_dirty_lines_accounted(self, ops):
        """writebacks issued + dirty resident == total distinct dirtyings."""
        engine = Engine()
        lower = AutoLower(engine)
        cache = Cache("c", 4 * 4 * 64, 4, 1, 4,
                      make_replacement("lru", 4, 4), engine, lower)
        for kind, slot, is_write in ops:
            addr = slot << 19
            if kind == "access":
                cache.access(addr, is_write, 1, engine.now, None)
            else:
                cache.writeback(addr, engine.now)
            engine.run()
        resident_dirty = sum(
            1 for cset in cache.sets for line in cset.lines
            if line.valid and line.dirty
        )
        assert cache.stats.writebacks == len(lower.writebacks)
        assert cache.stats.dirty_evictions <= cache.stats.evictions


class TestSubChannelInvariants:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2000), min_size=1,
                    max_size=80))
    def test_bursts_never_overlap(self, slots):
        """Issued data bursts are disjoint 8-cycle bus reservations."""
        sc = SubChannel(ddr5_4800_x4(), wq_capacity=96, wq_high=4, wq_low=0)
        reqs = []
        for slot in slots:
            addr = slot * LINE_SIZE * 2  # keep everything on subchannel 0
            coord = MAPPING.map(addr)
            if coord.subchannel != 0:
                continue
            r = MemRequest(addr=addr, op=Op.WRITE, coord=coord)
            if sc.wq.push(r):
                reqs.append(r)
        now = 0
        for _ in range(10_000):
            nxt = sc.tick(now)
            if nxt is None:
                break
            now = max(nxt, now + 1)
        issued = sorted(r.burst_tick for r in reqs if r.burst_tick
                        is not None)
        for a, b in zip(issued, issued[1:]):
            assert b - a >= 8, "bursts overlap on the bus"

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=4000), min_size=40,
                    max_size=80))
    def test_episode_blp_bounded_by_writes(self, slots):
        sc = SubChannel(ddr5_4800_x4())
        for slot in slots:
            addr = slot * LINE_SIZE * 2
            coord = MAPPING.map(addr)
            if coord.subchannel != 0:
                continue
            sc.wq.push(MemRequest(addr=addr, op=Op.WRITE,
                                        coord=coord))
        now = 0
        for _ in range(10_000):
            nxt = sc.tick(now)
            if nxt is None:
                break
            now = max(nxt, now + 1)
        sc.finalize(now)
        for ep in sc.stats.episodes:
            assert 1 <= ep.unique_banks <= min(ep.writes, 32)
            assert ep.duration > 0
