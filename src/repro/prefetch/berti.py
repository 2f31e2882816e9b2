"""Berti-like local-delta prefetcher for the L1D (paper Table II).

Berti (Navarro-Torres et al., MICRO 2022) learns, per load PC, the *local
delta* between successive accesses of that PC and issues prefetches for the
best-confirmed delta.  This implementation keeps a per-PC table of the last
address, candidate delta, and a confidence counter; a delta confirmed twice
starts prefetching ``degree`` steps ahead.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.dram.commands import LINE_SIZE
from repro.prefetch.base import Prefetcher

#: PC-indexed table capacity (entries evicted FIFO beyond this).
_TABLE_SIZE = 256

#: Confidence needed before prefetching.
_CONFIDENT = 2


class BertiPrefetcher(Prefetcher):
    """Per-PC local-delta prefetcher."""

    name = "berti"

    def __init__(self, degree: int = 2) -> None:
        super().__init__()
        self.degree = degree
        # pc -> (last_addr, delta, confidence)
        self._table: Dict[int, Tuple[int, int, int]] = {}

    def predict(self, addr: int, pc: int, hit: bool) -> List[int]:
        table = self._table
        entry = table.get(pc)
        if entry is None:
            if len(table) >= _TABLE_SIZE:
                del table[next(iter(table))]
            table[pc] = (addr, 0, 0)
            return []
        last_addr, delta, conf = entry
        new_delta = addr - last_addr
        if new_delta == 0:
            return []
        if new_delta != delta:
            delta, conf = new_delta, 1
        elif conf < 4:
            conf += 1
        table[pc] = (addr, delta, conf)
        if conf < _CONFIDENT:
            return []
        # ``delta`` is the (nonzero) new delta.  Issue ``degree`` steps
        # ahead, one target per line.
        targets: List[int] = []
        seen = set()
        for k in range(1, self.degree + 1):
            target = addr + delta * k
            if target > 0:
                line = target // LINE_SIZE
                if line not in seen:
                    seen.add(line)
                    targets.append(target)
        return targets
