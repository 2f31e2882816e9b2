"""Simulation infrastructure: engine, system builder, results."""

from repro.sim.engine import Engine
from repro.sim.memctrl import MemoryController
from repro.sim.results import RunResult
from repro.sim.system import System

__all__ = [
    "Engine",
    "MemoryController",
    "RunResult",
    "System",
]
