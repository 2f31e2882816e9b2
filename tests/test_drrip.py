"""DRRIP: set dueling between SRRIP and BRRIP insertion."""

from repro.cache.line import CacheLine
from repro.cache.replacement import DRRIPPolicy, make_replacement
from repro.cache.replacement.drrip import _DUEL_PERIOD, _PSEL_MAX
from repro.cache.replacement.srrip import RRPV_INSERT, RRPV_MAX


def _lines(n):
    return [CacheLine(valid=True, line_addr=i * 64) for i in range(n)]


class TestLeaderSets:
    def test_leader_assignment(self):
        p = DRRIPPolicy(64, 4)
        assert p._set_kind(0) == "srrip"
        assert p._set_kind(1) == "brrip"
        assert p._set_kind(2) == "follower"
        assert p._set_kind(_DUEL_PERIOD) == "srrip"

    def test_srrip_leader_inserts_long(self):
        p = DRRIPPolicy(64, 4)
        p.on_fill(0, 0, 0)
        assert p.rrpv[0][0] == RRPV_INSERT

    def test_brrip_leader_mostly_inserts_distant(self):
        p = DRRIPPolicy(64, 4)
        values = []
        for i in range(40):
            p.on_fill(1, i % 4, 0)
            values.append(p.rrpv[1][i % 4])
        assert values.count(RRPV_MAX) > values.count(RRPV_INSERT)


class TestPSEL:
    def test_misses_in_srrip_leader_push_up(self):
        p = DRRIPPolicy(64, 4)
        start = p.psel
        p.record_miss(0)
        assert p.psel == start + 1

    def test_misses_in_brrip_leader_push_down(self):
        p = DRRIPPolicy(64, 4)
        start = p.psel
        p.record_miss(1)
        assert p.psel == start - 1

    def test_followers_follow_winner(self):
        p = DRRIPPolicy(64, 4)
        p.psel = _PSEL_MAX  # SRRIP leaders missing a lot -> use BRRIP
        assert p._use_brrip(2)
        p.psel = 0
        assert not p._use_brrip(2)

    def test_psel_saturates(self):
        p = DRRIPPolicy(64, 4)
        p.psel = _PSEL_MAX
        p.record_miss(0)
        assert p.psel == _PSEL_MAX
        p.psel = 0
        p.record_miss(1)
        assert p.psel == 0


class TestVictimAndOrder:
    def test_victim_max_rrpv(self):
        p = DRRIPPolicy(64, 4)
        for w in range(4):
            p.on_fill(5, w, 0)
        p.on_hit(5, 2, 0)
        victim = p.victim(5, _lines(4))
        assert victim != 2

    def test_eviction_order_descending(self):
        p = DRRIPPolicy(64, 4)
        p.rrpv[5] = [0, 3, 2, 3]
        assert p.eviction_order(5, _lines(4)) == [1, 3, 2, 0]

    def test_factory(self):
        assert isinstance(make_replacement("drrip", 64, 4), DRRIPPolicy)


class TestIntegrationWithBard:
    def test_bard_runs_with_drrip(self):
        from tests.conftest import tiny_config
        from repro.experiment import Session

        cfg = tiny_config(llc_writeback="bard-h").with_replacement("drrip")
        r = Session(cache=False).run_one(cfg, "copy")
        assert r.instructions > 0
        assert r.wb_stats.victim_selections > 0
