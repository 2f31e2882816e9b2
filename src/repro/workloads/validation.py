"""Workload-generator calibration probes.

The synthetic generators stand in for the paper's proprietary traces, so
it matters that their first-order statistics are in the intended bands.
:func:`profile_trace` measures a generator's instruction mix and footprint
without running the simulator; :func:`profile_suite` sweeps every named
workload.  Used by the calibration tests and handy when tuning suite
parameters in :mod:`repro.workloads.suites`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator

from repro.cpu.trace import LOAD, NONMEM, STORE, TraceRecord
from repro.dram.commands import LINE_SIZE
from repro.dram.mapping import ZenMapping


@dataclass(frozen=True)
class TraceProfile:
    """First-order statistics of a trace prefix."""

    records: int
    mem_fraction: float
    store_fraction: float
    unique_lines: int
    unique_banks: int
    footprint_bytes: int


def profile_trace(trace: Iterator[TraceRecord], count: int = 20_000,
                  mapping: ZenMapping | None = None) -> TraceProfile:
    """Measure the first ``count`` records of ``trace``."""
    mapping = mapping or ZenMapping()
    mem = 0
    stores = 0
    lines = set()
    banks = set()
    lo = None
    hi = None
    n = 0
    for _ in range(count):
        try:
            kind, addr, _pc = next(trace)
        except StopIteration:
            break
        n += 1
        if kind == NONMEM:
            continue
        mem += 1
        if kind == STORE:
            stores += 1
        line = addr // LINE_SIZE
        lines.add(line)
        banks.add(mapping.map(addr).bank_id)
        lo = addr if lo is None else min(lo, addr)
        hi = addr if hi is None else max(hi, addr)
    return TraceProfile(
        records=n,
        mem_fraction=mem / n if n else 0.0,
        store_fraction=stores / mem if mem else 0.0,
        unique_lines=len(lines),
        unique_banks=len(banks),
        footprint_bytes=(hi - lo + LINE_SIZE) if lo is not None else 0,
    )


def profile_suite(config, count: int = 20_000,
                  seed: int = 7) -> Dict[str, TraceProfile]:
    """Profile every single (non-mix) named workload."""
    from repro.workloads.suites import WORKLOADS, trace_factory

    out: Dict[str, TraceProfile] = {}
    for name in WORKLOADS:
        factory = trace_factory(name, config, seed=seed)
        out[name] = profile_trace(factory(0), count=count)
    return out
