"""Named workloads, suites, and mixes (paper Tables III and IV).

Each paper workload maps to a parameterised synthetic generator whose
working set scales with the simulated LLC, preserving the cache pressure
(and hence the LLC writeback behaviour) that drives BARD.  The paper's
measured characteristics (Table IV) are attached to every workload; the
Table IV rows of the claims ledger (:mod:`repro.analysis.claims`) read
them from here.

Per-core physical address spaces are disjoint (1 GB apart), matching the
ratemode/mix methodology where workloads do not share data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence

from repro.config.system import SystemConfig
from repro.cpu.trace import TraceRecord
from repro.errors import ConfigError
from repro.workloads.synthetic import (
    blend_trace,
    graph_trace,
    server_trace,
    stream_trace,
)

#: Byte distance between per-core address spaces (within row-bit range).
CORE_STRIDE = 1 << 30

#: Per-core bank-phase offset.  Ratemode runs identical generators on every
#: core; without this, all cores' streams hit the same bank sequence in
#: lockstep (the core stride only changes row bits) and write BLP collapses
#: for regular kernels.  An odd number of cache lines rotates each core's
#: stream to a different bank phase, as independent processes' allocations
#: would in a real system.
CORE_PHASE = 67 * 64


def _core_base(core_id: int) -> int:
    return core_id * CORE_STRIDE + core_id * CORE_PHASE

Builder = Callable[[int, int, int], Iterator[TraceRecord]]


@dataclass(frozen=True)
class PaperRef:
    """Paper Table IV characteristics for one workload.

    The measured side uses these definitions (``RunResult.mpki`` and
    ``RunResult.wpki``), per thousand instructions retired by all cores:
    ``mpki`` counts LLC demand misses (read and write misses; prefetch
    misses excluded), ``wpki`` counts LLC writebacks to DRAM (dirty
    evictions plus cleanses).  The paper's own definitions are not in
    the text this repository has, so the match is unverified.
    """

    mpki: float
    wpki: float
    wblp: float
    write_pct: float


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload: generator + paper reference."""

    name: str
    suite: str
    builder: Builder
    paper: PaperRef


def _spec_blend(ws_mult: float, stream_fraction: float,
                store_fraction: float, hot_fraction: float = 0.5,
                nonmem: int = 2) -> Builder:
    def build(seed: int, base: int, llc: int) -> Iterator[TraceRecord]:
        return blend_trace(
            seed, base, ws_bytes=int(ws_mult * llc),
            stream_fraction=stream_fraction,
            store_fraction=store_fraction,
            hot_fraction=hot_fraction,
            nonmem_per_mem=nonmem,
        )
    return build


def _spec_graph(ws_mult: float, store_prob: float,
                edges: int = 4, nonmem: int = 2) -> Builder:
    def build(seed: int, base: int, llc: int) -> Iterator[TraceRecord]:
        return graph_trace(
            seed, base, vertex_bytes=int(ws_mult * llc),
            store_prob=store_prob, edges_per_vertex=edges,
            nonmem_per_edge=nonmem,
        )
    return build


def _spec_stream(loads: int, stores: int, nonmem: int) -> Builder:
    def build(seed: int, base: int, llc: int) -> Iterator[TraceRecord]:
        return stream_trace(
            seed, base, array_bytes=8 * llc, loads_per_iter=loads,
            stores_per_iter=stores, nonmem_per_iter=nonmem,
        )
    return build


def _spec_server(heap_mult: float, store_fraction: float,
                 zipf_s: float = 0.9, nonmem: int = 3) -> Builder:
    def build(seed: int, base: int, llc: int) -> Iterator[TraceRecord]:
        return server_trace(
            seed, base, heap_bytes=int(heap_mult * llc),
            store_fraction=store_fraction, zipf_s=zipf_s,
            nonmem_per_mem=nonmem,
        )
    return build


def _w(name: str, suite: str, builder: Builder, mpki: float, wpki: float,
       wblp: float, wpct: float) -> WorkloadSpec:
    return WorkloadSpec(name, suite, builder,
                        PaperRef(mpki, wpki, wblp, wpct))


#: All single workloads, in the paper's figure order.
WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in [
        # SPEC2017 (blend generator).
        _w("cam4", "spec", _spec_blend(3, 0.45, 0.40), 9.2, 4.1, 21.6, 43.9),
        _w("roms", "spec", _spec_blend(4, 0.70, 0.20), 13.2, 2.7, 11.4, 26.3),
        _w("omnetpp", "spec", _spec_blend(5, 0.25, 0.40, hot_fraction=0.6),
           13.7, 5.5, 17.9, 22.7),
        _w("bwaves", "spec", _spec_blend(6, 0.65, 0.30), 20.8, 6.1, 23.4,
           39.3),
        _w("wrf", "spec", _spec_blend(8, 0.60, 0.30), 25.4, 7.3, 22.7, 33.1),
        _w("fotonik3d", "spec", _spec_blend(10, 0.70, 0.30), 30.6, 9.7,
           23.9, 36.9),
        _w("lbm", "spec", _spec_blend(16, 0.80, 0.45, nonmem=1), 48.5, 25.5,
           24.6, 51.8),
        # LIGRA (graph generator).
        _w("triangle", "ligra", _spec_graph(4, 0.45), 15.9, 8.1, 22.8, 49.6),
        _w("pagerankdelta", "ligra", _spec_graph(6, 0.30), 25.3, 8.1, 23.2,
           31.6),
        _w("mis", "ligra", _spec_graph(6, 0.40), 26.1, 10.4, 22.8, 42.3),
        _w("bellmanford", "ligra", _spec_graph(10, 0.08), 45.2, 3.3, 21.9,
           10.1),
        _w("cf", "ligra", _spec_graph(10, 0.40), 48.3, 16.2, 23.1, 57.3),
        _w("bc", "ligra", _spec_graph(12, 0.40), 57.2, 20.7, 22.9, 50.6),
        _w("radii", "ligra", _spec_graph(12, 0.28), 60.7, 16.0, 23.1, 29.3),
        _w("pagerank", "ligra", _spec_graph(16, 0.18), 70.0, 10.9, 21.4,
           27.4),
        # STREAM (exact kernels).
        _w("scale", "stream", _spec_stream(1, 1, 3), 123.8, 21.0, 21.2,
           40.9),
        _w("copy", "stream", _spec_stream(1, 1, 2), 128.2, 26.4, 21.1,
           41.0),
        _w("triad", "stream", _spec_stream(2, 1, 4), 110.8, 18.5, 20.1,
           32.3),
        _w("add", "stream", _spec_stream(2, 1, 3), 129.3, 21.7, 20.1, 32.3),
        # Google server traces (Zipf generator).
        _w("whiskey", "google", _spec_server(6, 0.30), 19.2, 5.1, 22.7,
           30.8),
        _w("charlie", "google", _spec_server(5, 0.30), 16.1, 5.3, 22.0,
           32.4),
        _w("merced", "google", _spec_server(6, 0.32), 20.0, 5.7, 22.2,
           31.3),
        _w("delta", "google", _spec_server(8, 0.28), 27.3, 5.1, 22.6, 25.4),
    ]
}

#: Heterogeneous mixes (paper Table III).
MIXES: Dict[str, List[str]] = {
    "mix0": ["cam4", "omnetpp", "lbm", "cf",
             "mis", "whiskey", "merced", "delta"],
    "mix1": ["roms", "bwaves", "triangle", "pagerankdelta",
             "bc", "whiskey", "charlie", "delta"],
    "mix2": ["roms", "fotonik3d", "wrf", "triangle",
             "bc", "bellmanford", "pagerank", "radii"],
    "mix3": ["omnetpp", "bwaves", "cf", "pagerankdelta",
             "mis", "bellmanford", "pagerank", "radii"],
    "mix4": ["cam4", "fotonik3d", "wrf", "lbm",
             "bc", "radii", "charlie", "merced"],
    "mix5": ["roms", "bwaves", "fotonik3d", "wrf",
             "lbm", "triangle", "pagerankdelta", "delta"],
}

#: Paper-order list of every workload used in the figures.
ALL_WORKLOADS: List[str] = list(WORKLOADS) + list(MIXES)

#: A small representative subset (one per suite + one mix) for quick runs.
QUICK_WORKLOADS: List[str] = [
    "lbm", "bwaves", "cf", "bc", "copy", "triad", "whiskey", "mix0",
]


def workload_names(scale: str = "quick") -> Sequence[str]:
    """Workload list for a benchmark scale ('quick' or 'full')."""
    return ALL_WORKLOADS if scale == "full" else QUICK_WORKLOADS


def trace_factory(
    workload: str, config: SystemConfig, seed: int = 7
) -> Callable[[int], Iterator[TraceRecord]]:
    """Per-core trace factory for a named workload or mix.

    Single workloads run in *ratemode* (one copy per core, disjoint address
    spaces); mixes assign Table III constituents round-robin across cores.
    """
    llc = config.llc.size_bytes

    if workload in MIXES:
        parts = MIXES[workload]

        def factory(core_id: int) -> Iterator[TraceRecord]:
            spec = WORKLOADS[parts[core_id % len(parts)]]
            return spec.builder(seed * 1000 + core_id,
                                _core_base(core_id), llc)

        return factory

    if workload not in WORKLOADS:
        raise ConfigError(
            f"unknown workload {workload!r}; choose from "
            f"{ALL_WORKLOADS}"
        )
    spec = WORKLOADS[workload]

    def factory(core_id: int) -> Iterator[TraceRecord]:
        return spec.builder(seed * 1000 + core_id,
                            _core_base(core_id), llc)

    return factory
