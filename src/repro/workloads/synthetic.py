"""Synthetic trace generators.

The paper evaluates write-intensive (WPKI > 2.5) workloads from SPEC2017,
LIGRA, STREAM and Google server traces.  Those traces are proprietary /
multi-gigabyte, so this module builds deterministic generators that
reproduce each suite's *access-pattern class*:

* :func:`stream_trace` - the exact STREAM kernel access patterns (copy /
  scale / add / triad): long unit-stride streams with a fixed load:store
  ratio.  Near-perfect spatial locality, very high WPKI.
* :func:`graph_trace` - LIGRA-style frontier kernels: a sequential edge
  stream plus random vertex-array reads and probabilistic vertex updates.
  High MPKI, tunable WPKI.
* :func:`blend_trace` - SPEC-like blends: a mix of strided streams and
  random accesses over a working set with a hot subset (temporal reuse).
* :func:`server_trace` - Google-server-like: Zipf-distributed object
  accesses over many small objects, a larger instruction footprint, and a
  steady store stream (logging/state updates).

Every generator is an infinite iterator of ``(kind, addr, pc)`` records
(:mod:`repro.cpu.trace`).  Working-set sizes are expressed as multiples of
the simulated LLC so cache pressure is preserved across scale profiles.
All randomness is seeded - identical seeds give identical traces.

Program counters cycle 4 bytes at a time over a code footprint of
``max(64, code_bytes)`` bytes above the generator's code base; each
generator keeps its position as a local ``pc_off`` (one record, one
step).
"""

from __future__ import annotations

import bisect
import random
from typing import Iterator, List

from repro.cpu.trace import LOAD, NONMEM, STORE, TraceRecord

#: Element size used by the kernels (doubles / 8-byte vertex records).
_ELEM = 8

#: Virtual code-region base; data regions start above it.
_CODE_BASE = 0x10000
_DATA_BASE = 0x1000000


def _align(addr: int) -> int:
    return addr & ~7


def stream_trace(
    seed: int,
    base: int,
    array_bytes: int,
    loads_per_iter: int = 1,
    stores_per_iter: int = 1,
    nonmem_per_iter: int = 2,
    code_bytes: int = 512,
) -> Iterator[TraceRecord]:
    """STREAM-kernel access pattern.

    copy: loads=1 stores=1; scale: loads=1 stores=1 nonmem=3;
    add/triad: loads=2 stores=1.
    """
    del seed  # fully deterministic access pattern
    arrays = loads_per_iter + stores_per_iter
    bases = [base + _DATA_BASE + i * (array_bytes + 4096)
             for i in range(arrays)]
    elements = array_bytes // _ELEM
    pc_base = base + _CODE_BASE
    pc_limit = max(64, code_bytes)
    pc_off = 0
    i = 0
    while True:
        for a in range(loads_per_iter):
            yield (LOAD, bases[a] + (i % elements) * _ELEM, pc_base + pc_off)
            pc_off = (pc_off + 4) % pc_limit
        for _ in range(nonmem_per_iter):
            yield (NONMEM, 0, pc_base + pc_off)
            pc_off = (pc_off + 4) % pc_limit
        for s in range(stores_per_iter):
            yield (STORE,
                   bases[loads_per_iter + s] + (i % elements) * _ELEM,
                   pc_base + pc_off)
            pc_off = (pc_off + 4) % pc_limit
        i += 1


def graph_trace(
    seed: int,
    base: int,
    vertex_bytes: int,
    store_prob: float = 0.35,
    edges_per_vertex: int = 4,
    nonmem_per_edge: int = 2,
    hot_prob: float = 0.6,
    hot_fraction: float = 1 / 16,
    code_bytes: int = 2048,
) -> Iterator[TraceRecord]:
    """LIGRA-like frontier kernel (push-style updates).

    Real graphs have skewed degree distributions, so a ``hot_prob`` fraction
    of vertex touches land in a hot subset (``hot_fraction`` of the vertex
    array) - this produces the cache reuse that keeps LIGRA's MPKI below
    "every access misses" levels.
    """
    rng = random.Random(seed)
    vertices = max(1024, vertex_bytes // _ELEM)
    hot_vertices = max(64, int(vertices * hot_fraction))
    vertex_base = base + _DATA_BASE
    edge_base = vertex_base + vertex_bytes + 4096
    edge_stream_bytes = 4 * vertex_bytes
    pc_base = base + _CODE_BASE
    pc_limit = max(64, code_bytes)
    pc_off = 0
    edge_pos = 0
    while True:
        # Sequential scan of the compressed edge array.
        yield (LOAD, edge_base + edge_pos, pc_base + pc_off)
        pc_off = (pc_off + 4) % pc_limit
        edge_pos = (edge_pos + _ELEM * edges_per_vertex) % edge_stream_bytes
        for _ in range(edges_per_vertex):
            if rng.random() < hot_prob:
                target = rng.randrange(hot_vertices)
            else:
                target = rng.randrange(vertices)
            addr = vertex_base + target * _ELEM
            yield (LOAD, addr, pc_base + pc_off)
            pc_off = (pc_off + 4) % pc_limit
            for _ in range(nonmem_per_edge):
                yield (NONMEM, 0, pc_base + pc_off)
                pc_off = (pc_off + 4) % pc_limit
            if rng.random() < store_prob:
                yield (STORE, addr, pc_base + pc_off)
                pc_off = (pc_off + 4) % pc_limit


def blend_trace(
    seed: int,
    base: int,
    ws_bytes: int,
    stream_fraction: float = 0.5,
    store_fraction: float = 0.3,
    hot_fraction: float = 0.5,
    hot_bytes: int = 1 << 14,
    nonmem_per_mem: int = 2,
    code_bytes: int = 4096,
) -> Iterator[TraceRecord]:
    """SPEC-like blend of streaming and random working-set traffic."""
    rng = random.Random(seed)
    data_base = base + _DATA_BASE
    pc_base = base + _CODE_BASE
    pc_limit = max(64, code_bytes)
    pc_off = 0
    stream_pos = 0
    while True:
        for _ in range(nonmem_per_mem):
            yield (NONMEM, 0, pc_base + pc_off)
            pc_off = (pc_off + 4) % pc_limit
        if rng.random() < stream_fraction:
            addr = data_base + stream_pos
            stream_pos = (stream_pos + _ELEM) % ws_bytes
        elif rng.random() < hot_fraction:
            addr = data_base + _align(rng.randrange(hot_bytes))
        else:
            addr = data_base + _align(rng.randrange(ws_bytes))
        kind = STORE if rng.random() < store_fraction else LOAD
        yield (kind, addr, pc_base + pc_off)
        pc_off = (pc_off + 4) % pc_limit


def server_trace(
    seed: int,
    base: int,
    heap_bytes: int,
    object_bytes: int = 256,
    zipf_s: float = 0.9,
    store_fraction: float = 0.3,
    nonmem_per_mem: int = 3,
    code_bytes: int = 32768,
) -> Iterator[TraceRecord]:
    """Google-server-like Zipf traffic over many small objects."""
    rng = random.Random(seed)
    objects = max(256, heap_bytes // object_bytes)
    ranks = min(objects, 4096)
    weights: List[float] = [1.0 / (r + 1) ** zipf_s for r in range(ranks)]
    total = sum(weights)
    cdf: List[float] = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    # Hot ranks are scattered over the heap, not clustered.
    placement = list(range(objects))
    rng.shuffle(placement)
    heap_base = base + _DATA_BASE
    pc_base = base + _CODE_BASE
    pc_limit = max(64, code_bytes)
    pc_off = 0
    while True:
        for _ in range(nonmem_per_mem):
            yield (NONMEM, 0, pc_base + pc_off)
            pc_off = (pc_off + 4) % pc_limit
        rank = bisect.bisect_left(cdf, rng.random())
        if rank >= ranks:
            rank = ranks - 1
        if ranks < objects and rng.random() < 0.15:
            obj = rng.randrange(objects)  # cold-tail access
        else:
            obj = placement[rank]
        offset = _align(rng.randrange(object_bytes))
        addr = heap_base + obj * object_bytes + offset
        kind = STORE if rng.random() < store_fraction else LOAD
        yield (kind, addr, pc_base + pc_off)
        pc_off = (pc_off + 4) % pc_limit
        # Touch a second field of the same object half the time.
        if rng.random() < 0.5:
            offset2 = _align(rng.randrange(object_bytes))
            yield (LOAD, heap_base + obj * object_bytes + offset2,
                   pc_base + pc_off)
            pc_off = (pc_off + 4) % pc_limit
