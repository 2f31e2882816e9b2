"""Memory controller: the bridge between the LLC and the DRAM channels.

Translates line addresses to DRAM coordinates with the configured mapping
and submits :class:`~repro.dram.commands.MemRequest` objects to the right
channel.  Also exposes the ground-truth pending-write probe used by the
BLP-Tracker accuracy analysis (paper section VII-I).
"""

from __future__ import annotations

from typing import List

from repro.dram.channel import Channel
from repro.dram.commands import MemRequest, Op
from repro.dram.mapping import ZenMapping

# Enum members bound once: a class-attribute lookup on an Enum costs
# several times a global's, and one of these runs per memory request.
_READ = Op.READ
_WRITE = Op.WRITE


class MemoryController:
    """Routes LLC traffic into the DDR5 channels."""

    def __init__(self, mapping: ZenMapping, channels: List[Channel]) -> None:
        if len(channels) != mapping.channels:
            raise ValueError(
                f"mapping expects {mapping.channels} channels, "
                f"got {len(channels)}"
            )
        self.mapping = mapping
        self.channels = channels

    def read(self, line_addr: int, now: int, on_done, core_id: int,
             is_prefetch: bool, pc: int = 0) -> None:
        coord = self.mapping.map(line_addr)
        self.channels[coord.channel].submit(MemRequest(
            line_addr, _READ, coord, now, core_id, is_prefetch, on_done))

    def writeback(self, line_addr: int, now: int) -> None:
        coord = self.mapping.map(line_addr)
        self.channels[coord.channel].submit(
            MemRequest(line_addr, _WRITE, coord, now))

    def pending_writes_for_line(self, line_addr: int) -> int:
        """Ground truth for the BLP-Tracker accuracy probe."""
        coord = self.mapping.map(line_addr)
        return self.channels[coord.channel].pending_writes_for_bank(
            coord.bank_id
        )

    def finalize(self) -> None:
        for channel in self.channels:
            channel.finalize()
