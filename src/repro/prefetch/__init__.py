"""Prefetchers: Berti-like (L1D) and SPP-like (L2), per paper Table II."""

from typing import Optional

from repro.errors import ConfigError
from repro.prefetch.base import Prefetcher, PrefetcherStats
from repro.prefetch.berti import BertiPrefetcher
from repro.prefetch.spp import SPPPrefetcher


def make_prefetcher(name: Optional[str]) -> Optional[Prefetcher]:
    """Construct a prefetcher by name: None/'none', 'berti', 'spp'."""
    if name is None or name.lower() == "none":
        return None
    lname = name.lower()
    if lname == "berti":
        return BertiPrefetcher()
    if lname == "spp":
        return SPPPrefetcher()
    raise ConfigError(f"unknown prefetcher {name!r}")


__all__ = [
    "BertiPrefetcher",
    "Prefetcher",
    "PrefetcherStats",
    "SPPPrefetcher",
    "make_prefetcher",
]
