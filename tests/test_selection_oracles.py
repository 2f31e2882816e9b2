"""Seeded property tests: fast selection paths against brute-force oracles.

The hot selections take shortcuts - ``LRUPolicy.victim`` uses
``list.index(min(...))``, ``eviction_order`` sorts by a bound getter,
and the min-latency ``SubChannel._pick_write`` stops at the first write
that reaches the burst *floor*.  Each test below drives random states
from a fixed seed and checks the shortcut against the plain definition:
the first way with the smallest stamp, ways ordered by (stamp, way), and
the first queued write with the smallest ``earliest_burst``.
"""

from __future__ import annotations

import random

import pytest

from repro.cache.line import CacheLine
from repro.cache.replacement import LRUPolicy
from repro.dram.commands import DramCoord, MemRequest, Op
from repro.dram.mapping import ZenMapping
from repro.dram.subchannel import BANKGROUPS, SubChannel
from repro.dram.timing import ddr5_4800_x4

SEEDS = range(8)

_M = ZenMapping(pbpl=False)


# ----------------------------------------------------------------------
# LRU
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_lru_selection_matches_oracle(seed):
    rng = random.Random(seed)
    ways = rng.choice([1, 2, 4, 8, 16])
    policy = LRUPolicy(4, ways)
    lines = [CacheLine() for _ in range(ways)]
    touches = 0
    for _ in range(400):
        set_idx = rng.randrange(4)
        way = rng.randrange(ways)
        if rng.random() < 0.5:
            policy.on_fill(set_idx, way, pc=0)
        else:
            policy.on_hit(set_idx, way, pc=0)
        touches += 1
        # The k-th touch stamps k, as the old itertools.count(1) did.
        assert policy._stamp[set_idx][way] == touches
        probe = rng.randrange(4)
        stamps = policy._stamp[probe]
        # Untouched ways keep stamp 0, so ties occur until a set fills.
        oracle_victim = min(range(ways), key=lambda w: (stamps[w], w))
        oracle_order = sorted(range(ways), key=lambda w: (stamps[w], w))
        assert policy.victim(probe, lines) == oracle_victim
        assert policy.eviction_order(probe, lines) == oracle_order


# ----------------------------------------------------------------------
# Min-latency write pick
# ----------------------------------------------------------------------

def _random_subchannel(rng: random.Random, now: int) -> SubChannel:
    sc = SubChannel(ddr5_4800_x4(), wq_capacity=48, wq_high=40, wq_low=8,
                    ideal_writes=rng.random() < 0.25)
    # Bus state: free now or reserved ahead, either direction (a READ
    # mode bus adds the read-to-write turnaround to every write).
    sc.bus_free_cycle = now + rng.choice([0, 0, 3, 17, 60])
    sc.bus_mode = rng.choice([Op.READ, Op.WRITE])
    sc._last_wr_burst = now - rng.randrange(0, 60)
    sc._last_wr_burst_bg = [now - rng.randrange(0, 120)
                            for _ in range(BANKGROUPS)]
    for bank in sc.banks:
        state = rng.random()
        if state < 0.4:
            continue  # precharged since reset
        bank.open_row = rng.randrange(3)
        bank.act_cycle = now - rng.randrange(0, 150)
        bank.last_burst_cycle = now - rng.randrange(0, 100)
        bank.last_burst_op = rng.choice([Op.READ, Op.WRITE])
        if state > 0.9:
            bank.close_row(now - rng.randrange(0, 40))
    return sc


def _queue_writes(rng: random.Random, sc: SubChannel, now: int,
                  max_writes: int = 40) -> None:
    # Few banks, rows and columns: many writes share a bank (conflicts,
    # same-bankgroup spacing) and many tie on the same burst cycle.
    for _ in range(rng.randrange(1, max_writes + 1)):
        coord = DramCoord(0, 0, rng.randrange(BANKGROUPS), rng.randrange(4),
                          rng.randrange(3), rng.randrange(64))
        req = MemRequest(addr=_M.compose(coord), op=Op.WRITE, coord=coord)
        req.arrival_cycle = max(0, now - rng.randrange(0, 50))
        sc.wq.push(req)


@pytest.mark.parametrize("seed", SEEDS)
def test_pick_write_matches_oracle(seed):
    rng = random.Random(seed)
    tied_states = 0
    for _ in range(150):
        now = rng.randrange(1_000, 5_000)
        sc = _random_subchannel(rng, now)
        _queue_writes(rng, sc, now)
        bursts = [sc.earliest_burst(r, now) for r in sc.wq.entries]
        oracle = sc.wq.entries[bursts.index(min(bursts))]
        assert sc._pick_write(now) is oracle
        tied_states += bursts.count(min(bursts)) > 1
    # The random states really produce ties for the first-entry rule.
    assert tied_states > 0


class _OracleChecked(SubChannel):
    """A sub-channel whose every write pick is checked against the oracle."""

    picks = 0

    def _pick_write(self, now):
        got = super()._pick_write(now)
        bursts = [self.earliest_burst(r, now) for r in self.wq.entries]
        assert got is self.wq.entries[bursts.index(min(bursts))]
        self.picks += 1
        return got


@pytest.mark.parametrize("seed", SEEDS)
def test_drain_sequence_matches_oracle(seed):
    """Whole drains through ``tick``, reads interleaved (turnarounds)."""
    rng = random.Random(100 + seed)
    sc = _OracleChecked(ddr5_4800_x4(), wq_capacity=48, wq_high=12,
                        wq_low=2, ideal_writes=seed % 4 == 3)
    now = 0
    for _ in range(6):
        now += rng.randrange(0, 200)
        _queue_writes(rng, sc, now, max_writes=20)
        for _ in range(rng.randrange(0, 4)):
            coord = DramCoord(0, 0, rng.randrange(BANKGROUPS),
                              rng.randrange(4), rng.randrange(3), 0)
            read = MemRequest(addr=_M.compose(coord), op=Op.READ,
                              coord=coord)
            read.arrival_cycle = now
            sc.rq.push(read)
        nxt = sc.tick(now)
        while nxt is not None:
            now = nxt
            nxt = sc.tick(now)
    assert sc.picks > 20
