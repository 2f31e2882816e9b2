"""Memory-request and DRAM-coordinate primitives.

A :class:`MemRequest` is the unit of traffic between the LLC / memory
controller and the DRAM model.  A :class:`DramCoord` pinpoints the physical
location a request maps to, as produced by :mod:`repro.dram.mapping`.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, NamedTuple, Optional

#: Bytes per cache line / DRAM burst, fixed by the paper's configuration.
LINE_SIZE = 64

#: log2(LINE_SIZE) - number of block-offset bits in a physical address.
LINE_BITS = 6


class Op(enum.Enum):
    """Direction of a memory request at the DRAM interface."""

    READ = "read"
    WRITE = "write"


#: ``Op.WRITE`` bound once (an Enum class-attribute lookup costs several
#: times a global's; the constructor below runs per memory request).
_WRITE = Op.WRITE


class DramCoord(NamedTuple):
    """Physical DRAM coordinates of one cache-line-sized access.

    The paper's baseline channel has 2 sub-channels, each with 8 bankgroups
    of 4 banks (32 banks per sub-channel, 64 per channel).
    """

    channel: int
    subchannel: int
    bankgroup: int
    bank: int
    row: int
    column: int

    @property
    def bank_id(self) -> int:
        """Flat bank index within the channel (0..63 for the baseline).

        This is the 6-bit identifier the BLP-Tracker is indexed by
        (paper section IV-A).
        """
        return (self.subchannel * 8 + self.bankgroup) * 4 + self.bank

    @property
    def subchannel_bank_id(self) -> int:
        """Flat bank index within the sub-channel (0..31)."""
        return self.bankgroup * 4 + self.bank


_request_ids = itertools.count()


class MemRequest:
    """One cache-line request presented to the DRAM channel.

    ``on_complete`` is invoked with the completion tick when the data burst
    for the request finishes (reads) or when the write has been issued to the
    bank (writes).

    The scheduler examines every queued request's coordinates on each
    decision, so the fields it reads per comparison (``is_write``,
    ``bankgroup``, ``sc_bank``, ``row``) are flattened out of ``op`` /
    ``coord`` once at construction; the class is slotted and its
    constructor written out, since one runs per memory request.
    Requests compare by identity: every instance carries a unique
    ``req_id``, so field-wise equality could only ever match the same
    object - and queue removal does a ``list.remove`` per issued request,
    which would otherwise compare fields against every earlier entry.
    """

    __slots__ = (
        "addr", "op", "coord", "arrival_tick", "core_id", "is_prefetch",
        "on_complete", "req_id",
        # Filled in by the channel front-end: DRAM cycle the request
        # became visible to the scheduler (commands may be planned from
        # this point).
        "arrival_cycle",
        # Filled in by the scheduler when the request is issued.
        "issue_tick", "burst_tick",
        # Hot-loop copies of op/coord fields.
        "is_write", "bankgroup", "sc_bank", "row",
    )

    def __init__(self, addr: int, op: Op, coord: DramCoord,
                 arrival_tick: int = 0, core_id: int = -1,
                 is_prefetch: bool = False,
                 on_complete: Optional[Callable[[int], None]] = None
                 ) -> None:
        self.addr = addr
        self.op = op
        self.coord = coord
        self.arrival_tick = arrival_tick
        self.core_id = core_id
        self.is_prefetch = is_prefetch
        self.on_complete = on_complete
        self.req_id = next(_request_ids)
        self.arrival_cycle = 0
        self.issue_tick: Optional[int] = None
        self.burst_tick: Optional[int] = None
        self.is_write = op is _WRITE
        self.bankgroup = bankgroup = coord.bankgroup
        self.sc_bank = bankgroup * 4 + coord.bank
        self.row = coord.row

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemRequest(id={self.req_id}, {self.op.value}, "
            f"addr={self.addr:#x}, bank={self.coord.bank_id}, "
            f"row={self.coord.row})"
        )
