"""Trace-driven CPU model: cores, ROB, TLBs, and the trace protocol."""

from repro.cpu.core import Core, CoreStats, RobEntry
from repro.cpu.tlb import TLB, TLBHierarchy, TLBStats
from repro.cpu.trace import (
    LOAD,
    NONMEM,
    STORE,
    TraceRecord,
    take,
    validate_record,
)

__all__ = [
    "Core",
    "CoreStats",
    "LOAD",
    "NONMEM",
    "RobEntry",
    "STORE",
    "TLB",
    "TLBHierarchy",
    "TLBStats",
    "TraceRecord",
    "take",
    "validate_record",
]
