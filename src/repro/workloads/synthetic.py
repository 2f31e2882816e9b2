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

The random generators draw bounded integers with CPython's own
``randrange(n)`` rejection loop (``Random._randbelow_with_getrandbits``:
``k = n.bit_length()``, redraw ``getrandbits(k)`` until it is below
``n``), written out with ``k`` hoisted out of the record loop.  That
consumes the Mersenne Twister exactly as ``rng.randrange(n)`` does, so
the streams are the ones ``randrange`` gives, at a fraction of the calls
(``tests/test_workloads.py::TestTraceStreamsPinned`` pins them).
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
    rand = rng.random
    getrandbits = rng.getrandbits
    vertices = max(1024, vertex_bytes // _ELEM)
    hot_vertices = max(64, int(vertices * hot_fraction))
    vertices_k = vertices.bit_length()
    hot_k = hot_vertices.bit_length()
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
            # rng.randrange(hot_vertices) / rng.randrange(vertices).
            if rand() < hot_prob:
                target = getrandbits(hot_k)
                while target >= hot_vertices:
                    target = getrandbits(hot_k)
            else:
                target = getrandbits(vertices_k)
                while target >= vertices:
                    target = getrandbits(vertices_k)
            addr = vertex_base + target * _ELEM
            yield (LOAD, addr, pc_base + pc_off)
            pc_off = (pc_off + 4) % pc_limit
            for _ in range(nonmem_per_edge):
                yield (NONMEM, 0, pc_base + pc_off)
                pc_off = (pc_off + 4) % pc_limit
            if rand() < store_prob:
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
    rand = rng.random
    getrandbits = rng.getrandbits
    hot_k = hot_bytes.bit_length()
    ws_k = ws_bytes.bit_length()
    data_base = base + _DATA_BASE
    pc_base = base + _CODE_BASE
    pc_limit = max(64, code_bytes)
    pc_off = 0
    stream_pos = 0
    while True:
        for _ in range(nonmem_per_mem):
            yield (NONMEM, 0, pc_base + pc_off)
            pc_off = (pc_off + 4) % pc_limit
        if rand() < stream_fraction:
            addr = data_base + stream_pos
            stream_pos = (stream_pos + _ELEM) % ws_bytes
        elif rand() < hot_fraction:
            # rng.randrange(hot_bytes), 8-byte aligned.
            offset = getrandbits(hot_k)
            while offset >= hot_bytes:
                offset = getrandbits(hot_k)
            addr = data_base + (offset & ~7)
        else:
            # rng.randrange(ws_bytes), 8-byte aligned.
            offset = getrandbits(ws_k)
            while offset >= ws_bytes:
                offset = getrandbits(ws_k)
            addr = data_base + (offset & ~7)
        kind = STORE if rand() < store_fraction else LOAD
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
    rand = rng.random
    getrandbits = rng.getrandbits
    bisect_left = bisect.bisect_left
    objects_k = objects.bit_length()
    object_k = object_bytes.bit_length()
    heap_base = base + _DATA_BASE
    pc_base = base + _CODE_BASE
    pc_limit = max(64, code_bytes)
    pc_off = 0
    while True:
        for _ in range(nonmem_per_mem):
            yield (NONMEM, 0, pc_base + pc_off)
            pc_off = (pc_off + 4) % pc_limit
        rank = bisect_left(cdf, rand())
        if rank >= ranks:
            rank = ranks - 1
        if ranks < objects and rand() < 0.15:
            # Cold-tail access: rng.randrange(objects).
            obj = getrandbits(objects_k)
            while obj >= objects:
                obj = getrandbits(objects_k)
        else:
            obj = placement[rank]
        # rng.randrange(object_bytes), 8-byte aligned.
        offset = getrandbits(object_k)
        while offset >= object_bytes:
            offset = getrandbits(object_k)
        obj_base = heap_base + obj * object_bytes
        kind = STORE if rand() < store_fraction else LOAD
        yield (kind, obj_base + (offset & ~7), pc_base + pc_off)
        pc_off = (pc_off + 4) % pc_limit
        # Touch a second field of the same object half the time.
        if rand() < 0.5:
            offset = getrandbits(object_k)
            while offset >= object_bytes:
                offset = getrandbits(object_k)
            yield (LOAD, obj_base + (offset & ~7), pc_base + pc_off)
            pc_off = (pc_off + 4) % pc_limit
