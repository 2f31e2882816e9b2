"""Prefetcher interface.

A prefetcher observes demand accesses to its cache and returns a (possibly
empty) list of byte addresses to prefetch into the same cache.  The cache
filters already-resident and already-outstanding lines before issuing.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List


@dataclass
class PrefetcherStats:
    observed: int = 0
    issued: int = 0


class Prefetcher(abc.ABC):
    """Base class for cache prefetchers.

    Snapshot contract: warm-state checkpoints pickle prefetchers, so
    keep all mutable state in picklable attributes and hold no
    references to the engine or the owning cache (the cache calls
    :meth:`on_access` and issues the returned targets itself).
    """

    name = "base"

    def __init__(self) -> None:
        self.stats = PrefetcherStats()

    @abc.abstractmethod
    def predict(self, addr: int, pc: int, hit: bool) -> List[int]:
        """Prefetch candidates for one demand access."""

    def on_access(self, addr: int, pc: int, hit: bool) -> List[int]:
        """Hook invoked by the cache; wraps :meth:`predict` with stats."""
        stats = self.stats
        stats.observed += 1
        targets = self.predict(addr, pc, hit)
        if targets:
            stats.issued += len(targets)
        return targets
