"""Sub-channel scheduler: write-to-write spacing, drain episodes, BLP."""

from repro.dram.commands import MemRequest, Op
from repro.dram.mapping import ZenMapping
from repro.dram.subchannel import BANKS_PER_SUBCHANNEL, SubChannel
from repro.dram.timing import ddr5_4800_x4

_M = ZenMapping()


def _addr_for(bg: int, bank: int, row: int = 0, col: int = 0,
              sc: int = 0) -> int:
    """Build an address hitting a specific sub-channel-0 bank (no PBPL)."""
    m = ZenMapping(pbpl=False)
    from repro.dram.commands import DramCoord

    return m.compose(DramCoord(0, sc, bg, bank, row, col))


def _wreq(addr, m=None):
    m = m or ZenMapping(pbpl=False)
    return MemRequest(addr=addr, op=Op.WRITE, coord=m.map(addr))


def _rreq(addr, cb=None, m=None):
    m = m or ZenMapping(pbpl=False)
    return MemRequest(addr=addr, op=Op.READ, coord=m.map(addr),
                      on_complete=cb)


def drain_sc(sc: SubChannel, limit: int = 100_000) -> int:
    """Drive ticks until the sub-channel idles; returns last cycle."""
    now = 0
    while True:
        nxt = sc.tick(now)
        if nxt is None:
            return now
        assert nxt > now or sc.idle, "scheduler must make progress"
        now = nxt
        assert now < limit, "sub-channel did not converge"


def make_sc(**kw) -> SubChannel:
    defaults = dict(rq_capacity=64, wq_capacity=48, wq_high=40, wq_low=8)
    defaults.update(kw)
    return SubChannel(ddr5_4800_x4(), **defaults)


class TestWriteSpacing:
    def _drain_two(self, addr_a, addr_b):
        sc = make_sc(wq_capacity=4, wq_high=2, wq_low=0)
        ra, rb = _wreq(addr_a), _wreq(addr_b)
        sc.wq.push(ra)
        sc.wq.push(rb)
        drain_sc(sc)
        return ra, rb, sc

    def test_different_bankgroup_writes_8_apart(self):
        ra, rb, _ = self._drain_two(_addr_for(0, 0), _addr_for(1, 0))
        assert abs(rb.burst_tick - ra.burst_tick) == 8

    def test_same_bankgroup_writes_48_apart(self):
        ra, rb, _ = self._drain_two(_addr_for(0, 0), _addr_for(0, 1))
        assert abs(rb.burst_tick - ra.burst_tick) == 48

    def test_same_bank_conflict_writes_188_apart(self):
        ra, rb, _ = self._drain_two(
            _addr_for(0, 0, row=0), _addr_for(0, 0, row=1))
        assert abs(rb.burst_tick - ra.burst_tick) == 188

    def test_same_bank_row_hit_writes_48_apart(self):
        """Row-buffer hits still pay the same-bankgroup delay (paper II-E)."""
        ra, rb, _ = self._drain_two(
            _addr_for(0, 0, row=0, col=0), _addr_for(0, 0, row=0, col=2))
        assert abs(rb.burst_tick - ra.burst_tick) == 48


class TestSchedulerPrefersLowLatency:
    def test_min_latency_write_first(self):
        """The drain scheduler picks the earliest-burst write, so a
        different-bankgroup write overtakes an older same-bank conflict."""
        sc = make_sc(wq_capacity=4, wq_high=3, wq_low=0)
        first = _wreq(_addr_for(0, 0, row=0))
        conflict = _wreq(_addr_for(0, 0, row=1))  # older, 188-cycle cost
        cheap = _wreq(_addr_for(1, 0, row=0))     # younger, 8-cycle cost
        for r in (first, conflict, cheap):
            sc.wq.push(r)
        drain_sc(sc)
        assert cheap.burst_tick < conflict.burst_tick


class TestDrainEpisodes:
    def test_waits_for_high_watermark(self):
        sc = make_sc()
        for i in range(39):
            sc.wq.push(_wreq(i * 64))
        drain_sc(sc)
        assert sc.stats.writes_issued == 0

    def test_drains_to_low_watermark(self):
        sc = make_sc()
        for i in range(40):
            sc.wq.push(_wreq(i * 64))
        drain_sc(sc)
        assert len(sc.wq) == 8
        assert sc.stats.writes_issued == 32

    def test_episode_recorded(self):
        sc = make_sc()
        for i in range(40):
            sc.wq.push(_wreq(i * 64))
        drain_sc(sc)
        sc.finalize(10_000)
        assert len(sc.stats.episodes) == 1
        ep = sc.stats.episodes[0]
        assert ep.writes == 32
        assert 1 <= ep.unique_banks <= BANKS_PER_SUBCHANNEL

    def test_blp_counts_unique_banks(self):
        sc = make_sc(wq_capacity=8, wq_high=4, wq_low=0)
        # Four writes, two per bank -> 2 unique banks.
        addrs = [_addr_for(0, 0, col=0), _addr_for(0, 0, col=2),
                 _addr_for(1, 0, col=0), _addr_for(1, 0, col=2)]
        for a in addrs:
            sc.wq.push(_wreq(a))
        drain_sc(sc)
        sc.finalize(100_000)
        assert sc.stats.episodes[0].unique_banks == 2

    def test_w2w_stats_recorded(self):
        sc = make_sc()
        for i in range(40):
            sc.wq.push(_wreq(i * 64))
        drain_sc(sc)
        assert sc.stats.w2w_delay_count == 31
        assert sc.stats.mean_w2w_ns > 0


class TestIdealWrites:
    def test_ideal_writes_every_8_cycles(self):
        """Paper's idealised system: one write per 3.3 ns regardless of
        bank mapping."""
        sc = make_sc(ideal_writes=True, wq_capacity=8, wq_high=4, wq_low=0)
        same_bank = [_addr_for(0, 0, row=r) for r in range(4)]
        reqs = [_wreq(a) for a in same_bank]
        for r in reqs:
            sc.wq.push(r)
        drain_sc(sc)
        bursts = sorted(r.burst_tick for r in reqs)
        deltas = [b - a for a, b in zip(bursts, bursts[1:])]
        assert deltas == [8, 8, 8]


class TestReadPriority:
    def test_reads_serviced_before_watermark_writes(self):
        sc = make_sc()
        done = []
        for i in range(4):
            sc.wq.push(_wreq(i * 64))
        sc.rq.push(_rreq(1 << 13, cb=lambda t: done.append(t)))
        drain_sc(sc)
        assert sc.stats.reads_issued == 1
        assert sc.stats.writes_issued == 0
        assert done

    def test_row_hit_read_first(self):
        sc = make_sc()
        m = ZenMapping(pbpl=False)
        warm = _rreq(_addr_for(0, 0, row=0, col=0), m=m)
        sc.rq.push(warm)
        drain_sc(sc)
        # Bank 0 row 0 now open; a row-hit read should overtake an older
        # conflicting read... order in queue: conflict first, hit second.
        conflict = _rreq(_addr_for(0, 0, row=5), m=m)
        hit = _rreq(_addr_for(0, 0, row=0, col=4), m=m)
        sc.rq.push(conflict)
        sc.rq.push(hit)
        drain_sc(sc)
        assert hit.burst_tick < conflict.burst_tick


class TestTurnaround:
    def test_direction_switch_accounted(self):
        sc = make_sc(wq_capacity=4, wq_high=1, wq_low=0)
        sc.rq.push(_rreq(0))
        drain_sc(sc)
        sc.wq.push(_wreq(1 << 13))
        drain_sc(sc)
        assert sc.stats.turnaround_cycles >= sc.timing.turnaround


class TestOpenPage:
    """Rows stay open until a conflicting access: the scheduler never
    precharges a bank early, even when no queued request needs its row."""

    def test_row_stays_open_with_empty_queues(self):
        sc = make_sc()
        sc.rq.push(_rreq(_addr_for(2, 1, row=7)))
        drain_sc(sc)
        bank = sc.banks[2 * 4 + 1]
        assert sc.idle
        assert bank.open_row == 7
        assert sc.stats.activates == 1
        assert sc.stats.precharges == 0

    def test_only_a_conflict_precharges(self):
        sc = make_sc()
        for row, col in ((7, 0), (7, 4), (9, 0)):
            sc.rq.push(_rreq(_addr_for(2, 1, row=row, col=col)))
            drain_sc(sc)
        bank = sc.banks[2 * 4 + 1]
        assert sc.stats.read_row_hits == 1
        assert sc.stats.read_row_conflicts == 1
        assert sc.stats.activates == 2
        assert sc.stats.precharges == 1
        assert bank.open_row == 9
