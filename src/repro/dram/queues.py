"""Read and write request queues for the memory controller.

The write queue (WRQ) implements the paper's watermark policy: the
sub-channel switches the bus to write mode when occupancy reaches the *high*
watermark (40 of 48 entries in the baseline) and drains writes until
occupancy falls to the *low* watermark (8), servicing roughly 32 writes per
drain episode.

Writes to an address already present in the WRQ coalesce (the newer write
simply overwrites the buffered data; in a timing-only model this is a no-op
merge).  Reads that hit a queued write are forwarded by the controller
without touching DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.dram.commands import MemRequest
from repro.errors import ConfigError


@dataclass(slots=True)
class ReadQueue:
    """Bounded FIFO of outstanding read requests."""

    capacity: int
    entries: List[MemRequest] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigError("read queue capacity must be >= 1")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    def push(self, req: MemRequest) -> bool:
        """Enqueue ``req``; returns False (rejected) when full."""
        entries = self.entries
        if len(entries) >= self.capacity:
            return False
        entries.append(req)
        return True

    def remove(self, req: MemRequest) -> None:
        self.entries.remove(req)

    def __iter__(self) -> Iterable[MemRequest]:
        return iter(self.entries)


@dataclass(slots=True)
class WriteQueue:
    """Bounded write queue with high/low drain watermarks.

    Coalesces same-address writes and supports address lookup for read
    forwarding.
    """

    capacity: int
    high_watermark: int
    low_watermark: int
    entries: List[MemRequest] = field(default_factory=list)
    #: Line address -> its queued write (coalescing and forwarding).
    by_addr: Dict[int, MemRequest] = field(default_factory=dict)
    coalesced: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigError("write queue capacity must be >= 1")
        if not 0 <= self.low_watermark < self.high_watermark <= self.capacity:
            raise ConfigError(
                "watermarks must satisfy 0 <= low < high <= capacity "
                f"(got low={self.low_watermark}, high={self.high_watermark}, "
                f"capacity={self.capacity})"
            )

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    @property
    def at_high_watermark(self) -> bool:
        return len(self.entries) >= self.high_watermark

    @property
    def at_or_below_low_watermark(self) -> bool:
        return len(self.entries) <= self.low_watermark

    def push(self, req: MemRequest) -> bool:
        """Enqueue ``req``; coalesces same-address writes.

        Returns False when the queue is full and the write does not coalesce.
        """
        line_addr = req.addr
        by_addr = self.by_addr
        if line_addr in by_addr:
            self.coalesced += 1
            return True
        entries = self.entries
        if len(entries) >= self.capacity:
            return False
        entries.append(req)
        by_addr[line_addr] = req
        return True

    def remove(self, req: MemRequest) -> None:
        self.entries.remove(req)
        del self.by_addr[req.addr]

    def pending_for_bank(self, bank_id: int) -> int:
        """Number of queued writes mapping to the given sub-channel bank.

        Used by the BLP-Tracker *accuracy* probe (paper section VII-I),
        which cross-checks the tracker against ground truth; BARD itself
        never consults the WRQ.
        """
        return sum(1 for r in self.entries if r.sc_bank == bank_id)

    def __iter__(self) -> Iterable[MemRequest]:
        return iter(self.entries)

    def oldest(self) -> Optional[MemRequest]:
        return self.entries[0] if self.entries else None
