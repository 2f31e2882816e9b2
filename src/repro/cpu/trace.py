"""Instruction-trace protocol.

A trace is an iterator of ``(kind, addr, pc)`` tuples:

* ``kind`` - :data:`NONMEM` (0), :data:`LOAD` (1) or :data:`STORE` (2),
* ``addr`` - byte address for memory instructions (0 for non-memory),
* ``pc``   - program counter of the instruction (drives SHiP signatures,
  the Berti-like prefetcher, and instruction-fetch modelling).

Workload generators (:mod:`repro.workloads`) produce *infinite* traces; the
core retires instructions until its budget is reached.  This module also
provides two small helpers, :func:`take` to materialise a prefix of a trace
and :func:`validate_record` to check a record's shape; the tests use them
to check generator output.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.errors import TraceError

#: Instruction kinds.
NONMEM = 0
LOAD = 1
STORE = 2

TraceRecord = Tuple[int, int, int]


def validate_record(rec: TraceRecord) -> TraceRecord:
    """Check one record's shape; raises :class:`TraceError` if malformed."""
    if len(rec) != 3:
        raise TraceError(f"trace record must have 3 fields, got {rec!r}")
    kind, addr, pc = rec
    if kind not in (NONMEM, LOAD, STORE):
        raise TraceError(f"bad instruction kind {kind!r}")
    if addr < 0 or pc < 0:
        raise TraceError(f"negative address/pc in record {rec!r}")
    if kind != NONMEM and addr == 0:
        raise TraceError("memory instruction with null address")
    return rec


def take(trace: Iterator[TraceRecord], n: int) -> List[TraceRecord]:
    """Materialise the next ``n`` records (testing/inspection helper)."""
    out: List[TraceRecord] = []
    for _ in range(n):
        try:
            out.append(next(trace))
        except StopIteration:
            break
    return out
