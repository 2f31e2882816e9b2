"""True LRU replacement (the paper's baseline policy, Table II)."""

from __future__ import annotations

from typing import List, Sequence

from repro.cache.line import CacheLine
from repro.cache.replacement.base import ReplacementPolicy


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used with a precise recency order per set.

    Implemented with a monotonically increasing timestamp per (set, way);
    the smallest timestamp is the LRU way.
    """

    name = "lru"

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self._clock = 0
        self._stamp = [[0] * ways for _ in range(num_sets)]

    def on_fill(self, set_idx: int, way: int, pc: int,
                is_prefetch: bool = False) -> None:
        self._clock += 1
        self._stamp[set_idx][way] = self._clock

    def on_hit(self, set_idx: int, way: int, pc: int) -> None:
        self._clock += 1
        self._stamp[set_idx][way] = self._clock

    def victim(self, set_idx: int, lines: Sequence[CacheLine]) -> int:
        # list.index returns the first (lowest) way holding the minimum.
        stamps = self._stamp[set_idx]
        return stamps.index(min(stamps))

    def eviction_order(self, set_idx: int,
                       lines: Sequence[CacheLine]) -> List[int]:
        return sorted(range(self.ways), key=self._stamp[set_idx].__getitem__)
