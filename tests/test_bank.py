"""Bank state machine: row-buffer interactions and earliest-burst timing."""

import pytest

from repro.dram.bank import AccessKind, Bank
from repro.dram.commands import Op
from repro.dram.timing import ddr5_4800_x4


@pytest.fixture
def bank():
    return Bank(ddr5_4800_x4())


class TestClassify:
    def test_initially_closed(self, bank):
        assert bank.classify(5) is AccessKind.ROW_CLOSED

    def test_hit_after_commit(self, bank):
        bank.commit(5, Op.READ, 100)
        assert bank.classify(5) is AccessKind.ROW_HIT

    def test_conflict_on_other_row(self, bank):
        bank.commit(5, Op.READ, 100)
        assert bank.classify(6) is AccessKind.ROW_CONFLICT


class TestEarliestBurst:
    def test_closed_bank_pays_act_plus_cas_read(self, bank):
        t = bank.timing
        assert bank.earliest_burst(1, Op.READ, 0) == t.trcd + t.cl

    def test_closed_bank_pays_act_plus_cas_write(self, bank):
        t = bank.timing
        assert bank.earliest_burst(1, Op.WRITE, 0) == t.trcd + t.cwl

    def test_row_hit_write_ready_from_arrival(self, bank):
        t = bank.timing
        bank.commit(1, Op.WRITE, 1000)
        # Row open, tRCD long since satisfied: only CAS latency from ready.
        burst = bank.earliest_burst(1, Op.WRITE, 2000)
        assert burst == 2000 + t.cwl

    def test_write_conflict_is_188_after_prior_write(self, bank):
        """Paper Fig. 5: same-bank row-conflict w2w is 188 cycles."""
        bank.commit(1, Op.WRITE, 1000)
        burst = bank.earliest_burst(2, Op.WRITE, 0)
        assert burst == 1000 + bank.timing.write_conflict_delay == 1188

    def test_read_conflict_recovery(self, bank):
        bank.commit(1, Op.READ, 1000)
        burst = bank.earliest_burst(2, Op.READ, 0)
        assert burst == 1000 + bank.timing.read_conflict_delay

    def test_conflict_respects_tras(self, bank):
        """A row opened recently cannot be precharged before tRAS."""
        t = bank.timing
        bank.commit(1, Op.READ, t.trcd + t.cl)  # ACT at cycle 0
        act = bank.act_cycle
        burst = bank.earliest_burst(2, Op.READ, 0)
        assert burst >= act + t.tras + t.trp + t.trcd + t.cl

    def test_conflict_respects_ready(self, bank):
        bank.commit(1, Op.WRITE, 10)
        late_ready = 100_000
        burst = bank.earliest_burst(2, Op.WRITE, late_ready)
        t = bank.timing
        assert burst == late_ready + t.trp + t.trcd + t.cwl


class TestCommit:
    def test_commit_returns_kind_and_counts(self, bank):
        assert bank.commit(1, Op.READ, 100) is AccessKind.ROW_CLOSED
        assert bank.commit(1, Op.READ, 130) is AccessKind.ROW_HIT
        assert bank.commit(2, Op.WRITE, 500) is AccessKind.ROW_CONFLICT
        s = bank.stats
        assert s.reads == 2 and s.writes == 1

    def test_conflict_counts_pre_and_act(self, bank):
        """The sub-channel counts an ACT for each non-hit kind and a PRE
        for each conflict, so these two commits cost 2 ACT + 1 PRE; the
        conflict re-opens the bank at its own ACT."""
        t = bank.timing
        assert bank.commit(1, Op.READ, 100) is AccessKind.ROW_CLOSED
        assert bank.commit(2, Op.READ, 400) is AccessKind.ROW_CONFLICT
        assert bank.open_row == 2
        assert bank.act_cycle == 400 - t.trcd - t.cl

    def test_commit_tracks_open_row(self, bank):
        bank.commit(7, Op.WRITE, 100)
        assert bank.open_row == 7
        assert bank.last_burst_op is Op.WRITE
        assert bank.last_burst_cycle == 100


class TestCloseRow:
    def test_close_makes_bank_closed(self, bank):
        bank.commit(3, Op.READ, 100)
        bank.close_row(200)
        assert bank.classify(3) is AccessKind.ROW_CLOSED

    def test_close_sets_pre_done(self, bank):
        bank.commit(3, Op.READ, 100)
        bank.close_row(200)
        assert bank.pre_done_cycle == 200 + bank.timing.trp

    def test_close_after_write_respects_twr(self, bank):
        t = bank.timing
        bank.commit(3, Op.WRITE, 100)
        bank.close_row(100)
        assert bank.pre_done_cycle == 100 + t.cwl + t.twr + t.trp

    def test_close_idempotent_when_closed(self, bank):
        """Closing a precharged bank issues no PRE: tRP does not restart."""
        bank.close_row(50)
        assert bank.pre_done_cycle == 0
        assert bank.open_row is None

    def test_reopen_after_close_cheaper_than_conflict(self, bank):
        """Adaptive close converts conflicts into plain activations."""
        t = bank.timing
        bank.commit(3, Op.WRITE, 100)
        conflict_burst = bank.earliest_burst(4, Op.WRITE, 10_000)
        bank.close_row(100)
        closed_burst = bank.earliest_burst(4, Op.WRITE, 10_000)
        assert closed_burst == 10_000 + t.trcd + t.cwl
        assert closed_burst < conflict_burst + 10_000
