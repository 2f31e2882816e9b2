"""Per-bank DRAM state machine.

The model tracks each bank's open row and computes, for a candidate request,
the earliest cycle at which its *data burst* could start.  This
"earliest-burst composition" is exactly the level at which the paper reasons
about write latency (Figs. 4-5):

* an open-row access needs only the CAS latency,
* a closed bank needs ACT -> tRCD -> CAS,
* a row-buffer conflict needs the full recovery chain, which for
  back-to-back writes is ``tRCD + tCWL + tWR + tRP`` = 188 cycles
  burst-to-burst (the paper's "24x" case).

Rows stay open until a conflicting access (open-page policy); only an
all-bank refresh closes rows otherwise.

Cross-bank constraints (same-bankgroup tCCD_L, the shared data bus, and bus
turnaround) are enforced by :class:`repro.dram.subchannel.SubChannel`; this
module only owns same-bank state.

``earliest_burst`` runs once per queued request per scheduling decision -
it is the single hottest function in the DRAM model - so every per-command
cycle count it needs (CAS, ACT->burst, PRE->burst, conflict recovery) is
precomputed into a flat timing table at construction instead of being
re-derived from :class:`~repro.dram.timing.DDR5Timing` attributes on every
call.

All times in this module are DRAM command-clock cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.dram.commands import Op
from repro.dram.timing import DDR5Timing


class AccessKind(enum.Enum):
    """How a request interacts with the bank's row buffer."""

    ROW_HIT = "hit"
    ROW_CLOSED = "closed"
    ROW_CONFLICT = "conflict"


# Bound once: an Enum class-attribute lookup costs several times a
# global's, and ``earliest_burst`` / ``commit`` run per scheduling step.
_WRITE = Op.WRITE
_ROW_HIT = AccessKind.ROW_HIT
_ROW_CLOSED = AccessKind.ROW_CLOSED
_ROW_CONFLICT = AccessKind.ROW_CONFLICT


@dataclass(slots=True)
class BankStats:
    """Bursts to one bank in the current measurement epoch.

    ``System.reset_stats`` replaces these at every epoch boundary, so
    after a run they cover the last measured window (see
    :mod:`repro.analysis.banks`).  ACT/PRE are counted per epoch by the
    sub-channel, in :class:`~repro.dram.stats.SubChannelStats`.
    """

    reads: int = 0
    writes: int = 0


class Bank:
    """State of one DRAM bank.

    Attributes
    ----------
    open_row:
        Currently open row, or None if the bank is precharged.
    act_cycle:
        Cycle the current row's ACT command was issued (valid when a row is
        open).
    pre_done_cycle:
        Earliest cycle a new ACT may be issued (tRP after the last PRE).
    last_burst_cycle:
        Start cycle of the most recent data burst to this bank.
    last_burst_op:
        Direction of that burst.
    """

    __slots__ = (
        "timing", "open_row", "act_cycle", "pre_done_cycle",
        "last_burst_cycle", "last_burst_op", "stats",
        # Precomputed per-command timing table (DRAM cycles):
        "_trcd", "_tras", "_trp",
        "_cas_rd", "_cas_wr",               # command -> first data beat
        "_act_burst_rd", "_act_burst_wr",   # ACT -> burst (tRCD + CAS)
        "_pre_burst_rd", "_pre_burst_wr",   # PRE -> burst (tRP + tRCD + CAS)
        "_recovery_rd", "_recovery_wr",     # prev-burst -> conflict burst
        "_wr_to_pre", "_rd_to_pre",         # last burst -> earliest PRE
    )

    def __init__(self, timing: DDR5Timing) -> None:
        self.timing = timing
        self.open_row: Optional[int] = None
        self.act_cycle: int = -(10**9)
        self.pre_done_cycle: int = 0
        self.last_burst_cycle: int = -(10**9)
        self.last_burst_op: Optional[Op] = None
        self.stats = BankStats()

        t = timing
        self._trcd = t.trcd
        self._tras = t.tras
        self._trp = t.trp
        self._cas_rd = t.cl
        self._cas_wr = t.cwl
        self._act_burst_rd = t.trcd + t.cl
        self._act_burst_wr = t.trcd + t.cwl
        self._pre_burst_rd = t.trp + t.trcd + t.cl
        self._pre_burst_wr = t.trp + t.trcd + t.cwl
        # Burst-to-burst conflict delay by the *previous* burst's direction
        # (paper Fig. 5: tRCD + tCWL + tWR + tRP after a write).
        self._recovery_wr = t.write_conflict_delay
        self._recovery_rd = t.read_conflict_delay
        # Last burst -> earliest PRE (write recovery / read burst drain).
        self._wr_to_pre = t.cwl + t.twr
        self._rd_to_pre = t.burst

    def classify(self, row: int) -> AccessKind:
        """How would a request for ``row`` interact with the row buffer?

        This is the canonical row-state predicate (:meth:`commit` uses
        it); ``earliest_burst`` and the sub-channel's FR-FCFS scan inline
        the ``open_row`` comparisons instead - they run per queued
        request per scheduling decision.
        """
        if self.open_row is None:
            return _ROW_CLOSED
        if self.open_row == row:
            return _ROW_HIT
        return _ROW_CONFLICT

    def earliest_burst(self, row: int, op: Op, ready: int) -> int:
        """Earliest cycle the data burst for (row, op) could start.

        ``ready`` is the earliest cycle the controller could have begun
        issuing commands for this request (its arrival at the queue): a
        pipelined controller plans PRE/ACT/CAS ahead of the data slot, so
        preparation overlaps other banks' bursts.  Only same-bank
        constraints are applied here; the sub-channel layers bus and
        bankgroup constraints on top.
        """
        open_row = self.open_row
        is_write = op is _WRITE
        if open_row == row:
            # Row hit: RD/WR may issue once tRCD has elapsed since ACT.
            cmd_ready = self.act_cycle + self._trcd
            if ready > cmd_ready:
                cmd_ready = ready
            return cmd_ready + (self._cas_wr if is_write else self._cas_rd)
        if open_row is None:
            act = self.pre_done_cycle
            if ready > act:
                act = ready
            return act + (self._act_burst_wr if is_write
                          else self._act_burst_rd)
        # Row conflict: PRE -> tRP -> ACT -> tRCD -> CAS, respecting write
        # recovery from the previous burst and tRAS for the open row.
        pre_burst = self._pre_burst_wr if is_write else self._pre_burst_rd
        recovery = self.last_burst_cycle - pre_burst + (
            self._recovery_wr if self.last_burst_op is _WRITE
            else self._recovery_rd
        )
        pre = self.act_cycle + self._tras
        if ready > pre:
            pre = ready
        if recovery > pre:
            pre = recovery
        return pre + pre_burst

    def commit(self, row: int, op: Op, burst_cycle: int) -> AccessKind:
        """Record that a burst for (row, op) starts at ``burst_cycle``.

        Returns the row-buffer interaction kind: the sub-channel counts
        an ACT for every kind but ``ROW_HIT`` and a PRE for a
        ``ROW_CONFLICT``.
        """
        kind = self.classify(row)
        if kind is not _ROW_HIT:
            self.act_cycle = burst_cycle - (
                self._act_burst_wr if op is _WRITE else self._act_burst_rd)
            self.open_row = row
        self.last_burst_cycle = burst_cycle
        self.last_burst_op = op
        if op is _WRITE:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        return kind

    def close_row(self, now: int) -> None:
        """Precharge the bank (all-bank refresh closes every row).

        Scheduled accesses never call this: under the open-page policy a
        row stays open until a conflicting access, whose PRE is part of
        its :meth:`earliest_burst` chain.  The PRE is issued as soon as
        legal: after tRAS from the ACT and, for writes, after write
        recovery from the last burst.
        """
        if self.open_row is None:
            return
        pre = self.act_cycle + self._tras
        if now > pre:
            pre = now
        drain = self.last_burst_cycle + (
            self._wr_to_pre if self.last_burst_op is _WRITE
            else self._rd_to_pre
        )
        if drain > pre:
            pre = drain
        self.open_row = None
        self.pre_done_cycle = pre + self._trp
