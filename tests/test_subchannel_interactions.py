"""Sub-channel interactions: read/write mixing, turnaround, refresh."""

from repro.dram.commands import DramCoord, MemRequest, Op
from repro.dram.mapping import ZenMapping
from repro.dram.subchannel import SubChannel
from repro.dram.timing import ddr5_4800_x4

_M = ZenMapping(pbpl=False)


def _addr(bg, bank=0, row=0, col=0):
    return _M.compose(DramCoord(0, 0, bg, bank, row, col))


def _req(addr, op, cb=None):
    return MemRequest(addr=addr, op=op, coord=_M.map(addr), on_complete=cb)


def run_sc(sc, limit=200_000):
    now = 0
    for _ in range(100_000):
        nxt = sc.tick(now)
        if nxt is None:
            return now
        now = max(nxt, now + 1)
        assert now < limit
    raise AssertionError("sub-channel never idled")


class TestReadWriteInterleaving:
    def test_reads_resume_after_drain(self):
        sc = SubChannel(ddr5_4800_x4())
        read_done = []
        for i in range(40):
            sc.wq.push(_req(i * 128, Op.WRITE))
        sc.rq.push(_req(_addr(7, 3, row=9), Op.READ,
                             cb=lambda t: read_done.append(t)))
        run_sc(sc)
        assert read_done, "read must complete after the write drain"
        assert sc.stats.writes_issued == 32

    def test_read_blocked_by_drain_pays_latency(self):
        """A read arriving mid-drain waits for the drain plus turnaround -
        the paper's core slowdown mechanism."""
        t = ddr5_4800_x4()
        # Isolated read latency first.
        sc0 = SubChannel(t)
        alone = []
        sc0.rq.push(_req(_addr(0), Op.READ, cb=alone.append))
        run_sc(sc0)
        # Read arriving exactly when a drain must start.
        sc1 = SubChannel(t)
        for i in range(40):
            sc1.wq.push(_req(i * 128, Op.WRITE))
        blocked = []
        sc1.rq.push(_req(_addr(0), Op.READ, cb=blocked.append))
        run_sc(sc1)
        assert blocked[0] > alone[0] + t.turnaround

    def test_writes_below_watermark_never_block_reads(self):
        sc = SubChannel(ddr5_4800_x4())
        for i in range(20):
            sc.wq.push(_req(i * 128, Op.WRITE))
        done = []
        sc.rq.push(_req(_addr(5), Op.READ, cb=done.append))
        run_sc(sc)
        assert sc.stats.writes_issued == 0
        assert done


class TestTurnaroundAccounting:
    def test_two_switches_per_episode(self):
        t = ddr5_4800_x4()
        sc = SubChannel(t)
        done = []
        sc.rq.push(_req(_addr(0), Op.READ, cb=done.append))
        run_sc(sc)
        for i in range(40):
            sc.wq.push(_req(i * 128, Op.WRITE))
        run_sc(sc)
        sc.rq.push(_req(_addr(1), Op.READ, cb=done.append))
        run_sc(sc)
        # read -> write and write -> read: two turnarounds.
        assert sc.stats.turnaround_cycles == 2 * t.turnaround


class TestWritesArrivingMidDrain:
    def test_late_writes_join_current_episode(self):
        sc = SubChannel(ddr5_4800_x4())
        for i in range(40):
            sc.wq.push(_req(i * 128, Op.WRITE))
        # Tick once to enter drain, then add more writes.
        now = sc.tick(0) or 0
        for i in range(40, 44):
            sc.wq.push(_req(i * 128, Op.WRITE))
        run_sc(sc)
        sc.finalize(1_000_000)
        assert len(sc.stats.episodes) == 1
        assert sc.stats.episodes[0].writes == 36  # 44 total, 8 left at low


class TestRefreshDuringTraffic:
    def test_refresh_and_drain_coexist(self):
        sc = SubChannel(ddr5_4800_x4(), refresh=True)
        for i in range(40):
            sc.wq.push(_req(i * 128, Op.WRITE))
        now = sc.trefi + 10  # force at least one refresh first
        for _ in range(10_000):
            nxt = sc.tick(now)
            if nxt is None:
                break
            now = max(nxt, now + 1)
        assert sc.refreshes_performed >= 1
        assert sc.stats.writes_issued == 32
