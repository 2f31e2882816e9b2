"""TLB hierarchy (latency model).

The paper's configuration (Table II) has small L1 I/D TLBs backed by a
1024-set, 12-way L2 TLB.  We model the TLBs as set-associative LRU arrays
whose misses add *latency* to the triggering access; page-walk memory
traffic itself is not injected (documented substitution - the walk's cache
footprint is second-order for the write-path experiments this repository
targets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: 4 KB pages.
PAGE_BITS = 12

#: One TLB's snapshot: per-set {page: recency stamp} plus the clock.
TLBState = Tuple[List[Dict[int, int]], int]

#: A hierarchy's snapshot: (L1 state, L2 state).
HierarchyState = Tuple[TLBState, TLBState]


@dataclass
class TLBStats:
    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class TLB:
    """Set-associative LRU TLB; ``lookup`` returns the added latency."""

    def __init__(self, num_sets: int, ways: int, hit_latency: int = 0,
                 name: str = "tlb") -> None:
        self.name = name
        self.num_sets = num_sets
        self.ways = ways
        self.hit_latency = hit_latency
        self.stats = TLBStats()
        # Per-set mapping of page number -> recency stamp.
        self._sets: List[Dict[int, int]] = [dict() for _ in range(num_sets)]
        self._clock = 0

    def lookup(self, addr: int) -> bool:
        """Translate; returns True on hit.  Inserts the page on miss."""
        page = addr >> PAGE_BITS
        s = self._sets[page % self.num_sets]
        self.stats.accesses += 1
        self._clock += 1
        if page in s:
            s[page] = self._clock
            return True
        self._insert(s, page)
        return False

    def _insert(self, s: Dict[int, int], page: int) -> None:
        """The miss half of a lookup (access and clock already counted)."""
        self.stats.misses += 1
        if len(s) >= self.ways:
            lru_page = min(s, key=s.get)
            del s[lru_page]
        s[page] = self._clock

    def snapshot(self) -> TLBState:
        """Copy of the translation state (stats excluded)."""
        return ([dict(s) for s in self._sets], self._clock)

    def restore(self, state: TLBState) -> None:
        """Overwrite the translation state with a snapshot's (copied)."""
        sets, clock = state
        self._sets = [dict(s) for s in sets]
        self._clock = clock


class TLBHierarchy:
    """L1 TLB backed by a shared L2 TLB; returns total added cycles."""

    def __init__(
        self,
        l1_sets: int = 16,
        l1_ways: int = 4,
        l2_sets: int = 1024,
        l2_ways: int = 12,
        l2_latency: int = 8,
        walk_latency: int = 80,
        name: str = "dtlb",
    ) -> None:
        self.l1 = TLB(l1_sets, l1_ways, name=f"{name}-l1")
        self.l2 = TLB(l2_sets, l2_ways, name=f"{name}-l2")
        self.l2_latency = l2_latency
        self.walk_latency = walk_latency

    def translate(self, addr: int) -> int:
        """Added latency (CPU cycles) for translating ``addr``."""
        # The L1 lookup, inlined: most translations end at an L1 hit.
        l1 = self.l1
        page = addr >> PAGE_BITS
        s = l1._sets[page % l1.num_sets]
        l1.stats.accesses += 1
        clock = l1._clock = l1._clock + 1
        if page in s:
            s[page] = clock
            return 0
        l1._insert(s, page)
        if self.l2.lookup(addr):
            return self.l2_latency
        return self.l2_latency + self.walk_latency

    def snapshot(self) -> HierarchyState:
        """Copy of both levels' translation state."""
        return (self.l1.snapshot(), self.l2.snapshot())

    def restore(self, state: HierarchyState) -> None:
        """Overwrite both levels' translation state with a snapshot's."""
        l1_state, l2_state = state
        self.l1.restore(l1_state)
        self.l2.restore(l2_state)
