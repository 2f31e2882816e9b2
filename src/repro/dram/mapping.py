"""DRAM address mappings: AMD Zen layout plus PBPL swizzling.

The paper (Fig. 6) uses the AMD Zen mapping, which distributes a 4 KB page
across 32 banks so that only two lines of a page are co-resident in the same
bank.  Reading upward from the 64-byte line offset the physical-address bits
are::

    bit 6        : sub-channel select        (sc)
    bit 7        : column bit 0              (co)
    bits 8-10    : bankgroup select          (bg, 8 bankgroups)
    bits 11-12   : bank select               (ba, 4 banks/bankgroup)
    bits 13-18   : column bits 1-6           (co)
    bits 19+     : row address

On top of Zen the paper layers Permutation-Based Page Interleaving (PBPL,
Zhang et al., MICRO 2000): the bank and bankgroup select bits are XORed with
low row-address bits so that lines mapping to the same LLC set spread across
different DRAM banks, reducing bank conflicts.

For multi-channel systems (the paper's 16-core configuration uses two
channels) channel-select bits are taken immediately above the line offset and
the Zen layout shifts up accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.dram.commands import LINE_BITS, DramCoord
from repro.errors import MappingError

_SC_BITS = 1
_CO0_BITS = 1
_BG_BITS = 3
_BA_BITS = 2
_CO1_BITS = 6


#: ``tuple.__new__``: builds a :class:`DramCoord` exactly as its
#: generated ``__new__`` does, without that extra Python frame (``map``
#: runs once per memory request).
_tuple_new = tuple.__new__


def _bits(value: int, lo: int, width: int) -> int:
    """Extract ``width`` bits of ``value`` starting at bit ``lo``."""
    return (value >> lo) & ((1 << width) - 1)


@dataclass(frozen=True)
class ZenMapping:
    """AMD Zen address mapping with optional PBPL bank swizzling.

    Parameters
    ----------
    channels:
        Number of independent DDR5 channels (must be a power of two).
    pbpl:
        When True (the paper's baseline), XOR the bank/bankgroup select bits
        with the low row bits (permutation-based page interleaving).
    row_bits:
        Number of row-address bits retained (caps DRAM capacity; addresses
        beyond that wrap, which is harmless for simulation purposes).
    """

    channels: int = 1
    pbpl: bool = True
    row_bits: int = 17

    def __post_init__(self) -> None:
        if self.channels < 1 or self.channels & (self.channels - 1):
            raise MappingError("channel count must be a power of two")
        if self.row_bits < 6:
            raise MappingError("row_bits must be at least 6")
        # map() runs once per memory request, so the field layout is
        # flattened into cached shift/mask pairs here (object.__setattr__
        # because the dataclass is frozen; these are derived caches, not
        # part of the mapping's identity).
        ch_bits = self.channels.bit_length() - 1
        bit = LINE_BITS
        object.__setattr__(self, "_ch_mask", (1 << ch_bits) - 1)
        bit += ch_bits
        object.__setattr__(self, "_sc_shift", bit)
        object.__setattr__(self, "_sc_mask", (1 << _SC_BITS) - 1)
        bit += _SC_BITS
        object.__setattr__(self, "_co0_shift", bit)
        object.__setattr__(self, "_co0_mask", (1 << _CO0_BITS) - 1)
        bit += _CO0_BITS
        object.__setattr__(self, "_bg_shift", bit)
        object.__setattr__(self, "_bg_mask", (1 << _BG_BITS) - 1)
        bit += _BG_BITS
        object.__setattr__(self, "_ba_shift", bit)
        object.__setattr__(self, "_ba_mask", (1 << _BA_BITS) - 1)
        bit += _BA_BITS
        object.__setattr__(self, "_co1_shift", bit)
        object.__setattr__(self, "_co1_mask", (1 << _CO1_BITS) - 1)
        bit += _CO1_BITS
        object.__setattr__(self, "_row_shift", bit)
        object.__setattr__(self, "_row_mask", (1 << self.row_bits) - 1)

    @property
    def channel_bits(self) -> int:
        return self.channels.bit_length() - 1

    @property
    def banks_per_subchannel(self) -> int:
        return (1 << _BG_BITS) * (1 << _BA_BITS)

    @property
    def banks_per_channel(self) -> int:
        return self.banks_per_subchannel * (1 << _SC_BITS)

    def map(self, addr: int) -> DramCoord:
        """Translate a physical byte address to DRAM coordinates."""
        if addr < 0:
            raise MappingError(f"negative address {addr:#x}")
        channel = (addr >> LINE_BITS) & self._ch_mask
        sc = (addr >> self._sc_shift) & self._sc_mask
        co0 = (addr >> self._co0_shift) & self._co0_mask
        bg = (addr >> self._bg_shift) & self._bg_mask
        ba = (addr >> self._ba_shift) & self._ba_mask
        co1 = (addr >> self._co1_shift) & self._co1_mask
        row = (addr >> self._row_shift) & self._row_mask
        if self.pbpl:
            ba ^= row & self._ba_mask
            bg ^= (row >> _BA_BITS) & self._bg_mask
        return _tuple_new(DramCoord, (channel, sc, bg, ba, row,
                                      (co1 << _CO0_BITS) | co0))

    def compose(self, coord: DramCoord) -> int:
        """Inverse of :meth:`map`: rebuild the physical byte address.

        Used by tests to establish that the mapping is a bijection, and by
        workload tooling that wants to *construct* addresses hitting a
        specific bank/row.
        """
        bg = coord.bankgroup
        ba = coord.bank
        if self.pbpl:
            ba ^= _bits(coord.row, 0, _BA_BITS)
            bg ^= _bits(coord.row, _BA_BITS, _BG_BITS)
        co0 = coord.column & 1
        co1 = coord.column >> _CO0_BITS
        addr = 0
        bit = LINE_BITS
        addr |= (coord.channel & ((1 << self.channel_bits) - 1)) << bit
        bit += self.channel_bits
        addr |= (coord.subchannel & 1) << bit
        bit += _SC_BITS
        addr |= (co0 & 1) << bit
        bit += _CO0_BITS
        addr |= (bg & ((1 << _BG_BITS) - 1)) << bit
        bit += _BG_BITS
        addr |= (ba & ((1 << _BA_BITS) - 1)) << bit
        bit += _BA_BITS
        addr |= (co1 & ((1 << _CO1_BITS) - 1)) << bit
        bit += _CO1_BITS
        addr |= (coord.row & ((1 << self.row_bits) - 1)) << bit
        return addr

    def channel_bank(self, addr: int) -> Tuple[int, int]:
        """``(channel, bank_id)`` of ``addr``: :meth:`map` without the rest.

        BARD indexes the BLP-Tracker by these two fields for every line
        it considers, so they are computed without building a
        :class:`DramCoord`.
        """
        if addr < 0:
            raise MappingError(f"negative address {addr:#x}")
        sc = (addr >> self._sc_shift) & self._sc_mask
        bg = (addr >> self._bg_shift) & self._bg_mask
        ba = (addr >> self._ba_shift) & self._ba_mask
        if self.pbpl:
            row = (addr >> self._row_shift) & self._row_mask
            ba ^= row & self._ba_mask
            bg ^= (row >> _BA_BITS) & self._bg_mask
        return ((addr >> LINE_BITS) & self._ch_mask,
                (((sc << _BG_BITS) | bg) << _BA_BITS) | ba)

    def bank_id(self, addr: int) -> int:
        """Flat per-channel bank index (0..63) for BLP-Tracker lookups."""
        return self.channel_bank(addr)[1]
