"""System configuration and presets."""

from repro.config.presets import (
    PRESETS,
    paper_8core,
    paper_16core,
    small_8core,
    small_16core,
)
from repro.config.system import CacheConfig, DramConfig, SystemConfig

__all__ = [
    "CacheConfig",
    "DramConfig",
    "PRESETS",
    "SystemConfig",
    "paper_8core",
    "paper_16core",
    "small_8core",
    "small_16core",
]
