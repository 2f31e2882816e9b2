"""Replacement-policy interface.

BARD needs more from a replacement policy than "pick a victim": it scans the
set *from least- to most-attractive line* looking for a low-cost dirty line
(paper sections IV-B and VII-E).  Policies therefore also expose
:meth:`eviction_order`, the per-set way ordering from most-evictable to
least-evictable (LRU -> MRU for true LRU; descending RRPV for RRIP-family
policies, ties broken by way index).
"""

from __future__ import annotations

import abc
from typing import Callable, List, Optional, Sequence

from repro.cache.line import CacheLine


class ReplacementPolicy(abc.ABC):
    """Per-cache replacement state and decisions.

    Snapshot contract: the warm-state checkpoint layer
    (:mod:`repro.sim.warmstate`) captures a policy with ``pickle`` and
    restores it by unpickling, so implementations must keep *all*
    mutable state in picklable attributes (plain containers and ints;
    not iterators such as ``itertools.count``, whose pickling is
    deprecated) and must not hold references to the engine, the cache,
    or other simulation components.  Every shipped policy (LRU, SRRIP,
    SHiP, DRRIP) satisfies this.
    """

    name: str = "base"

    #: Eviction feedback hook ``(set_idx, way, line)``, called as the
    #: line at (set, way) is evicted.  None for policies that learn
    #: nothing from evictions - all but SHiP - and the cache then skips
    #: the call.
    on_eviction: Optional[Callable[[int, int, CacheLine], None]] = None

    def __init__(self, num_sets: int, ways: int) -> None:
        self.num_sets = num_sets
        self.ways = ways

    @abc.abstractmethod
    def on_fill(self, set_idx: int, way: int, pc: int,
                is_prefetch: bool = False) -> None:
        """A new line was installed into (set, way)."""

    @abc.abstractmethod
    def on_hit(self, set_idx: int, way: int, pc: int) -> None:
        """The line at (set, way) was re-referenced."""

    @abc.abstractmethod
    def victim(self, set_idx: int, lines: Sequence[CacheLine]) -> int:
        """Way the policy would evict from ``set_idx``."""

    @abc.abstractmethod
    def eviction_order(self, set_idx: int,
                       lines: Sequence[CacheLine]) -> List[int]:
        """Ways ordered most-evictable first (LRU -> MRU or max -> min RRPV)."""
