"""Warm-state checkpoints for functional warmup.

A :class:`WarmState` captures everything a *functional* warmup produces:
per-cache tag arrays with dirty bits, replacement-policy metadata,
prefetcher tables, per-core TLB contents, fetch-line cursors, and how
far each core's trace was consumed.  Restoring it into a freshly built
:class:`~repro.sim.system.System` is equivalent to re-running the same
functional warmup - which is what lets a :class:`~repro.experiment.Session`
execute the warmup for an N-policy comparison grid once and fork the
snapshot into every policy/writeback variant.

The warm state is deliberately *policy-independent*: the functional warm
path never consults the LLC writeback policy (victim choice uses the
replacement policy alone, and no writebacks are "issued" toward memory),
so a snapshot taken under one ``llc_writeback`` setting restores exactly
into a system using another.  :func:`warm_config_signature` hashes the
configuration fields the warm state *does* depend on - core count, cache
geometries/replacement/prefetchers, and the warmup budget - and guards
every restore.

Detailed warmup cannot be snapshotted: its warm state includes in-flight
MSHRs, queued DRAM commands, and pending engine events.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config.system import SystemConfig
    from repro.cpu.tlb import HierarchyState

#: One valid cache line: (line_addr, dirty, signature, reused, prefetched).
LineState = Tuple[int, bool, int, bool, bool]


def warm_config_signature(config: "SystemConfig") -> str:
    """Stable hash of the config fields a functional warm state depends on.

    Two configs with equal signatures produce identical warm state from
    the same (workload, seed), so their runs can share one checkpoint.
    DRAM parameters, ROB/issue/retire widths, ``sim_instructions`` and
    the LLC writeback policy are deliberately excluded - none of them
    influence the functional warm path.  So are the per-level MSHR
    timing knobs (``mshrs``, ``mshr_pipeline``): the functional warm
    path has no MSHRs at all, which lets every point of an ``mshr``
    sweep share one checkpoint.
    """
    payload = {
        "cores": config.cores,
        "warmup_instructions": config.warmup_instructions,
        "warmup_mode": config.warmup_mode,
        "l1i": _warm_cache_fields(config.l1i),
        "l1d": _warm_cache_fields(config.l1d),
        "l2": _warm_cache_fields(config.l2),
        "llc": _warm_cache_fields(config.llc),
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _warm_cache_fields(cache_config) -> dict:
    """One level's config minus the fields the warm path ignores."""
    fields = dataclasses.asdict(cache_config)
    for timing_only in ("mshrs", "mshr_pipeline"):
        fields.pop(timing_only, None)
    return fields


@dataclass
class CacheWarmState:
    """One cache's warm state: tag array + policy/prefetcher metadata."""

    #: Per set, per way: the line's state, or None for an invalid way.
    lines: List[List[Optional[LineState]]]
    #: Pickled ``(replacement policy, prefetcher or None)`` pair:
    #: recency stamps / RRPVs and delta tables / signatures.  Each
    #: restore unpickles its own copy.
    policies: bytes


@dataclass
class CoreWarmState:
    """One core's warm state: TLB contents and trace position."""

    dtlb: "HierarchyState"
    itlb: "HierarchyState"
    #: Last instruction-fetch line (suppresses redundant L1I accesses).
    last_fetch_line: int
    #: Trace records the warmup consumed; restore fast-forwards a fresh
    #: trace iterator by this many records (generation is deterministic
    #: and cheap next to detailed simulation).
    consumed: int


@dataclass
class WarmState:
    """A complete post-warmup snapshot of a :class:`System`."""

    #: :func:`warm_config_signature` of the config that produced this.
    signature: str
    #: Caches in System order: [llc, *l2s, *l1ds, *l1is].
    caches: List[CacheWarmState]
    cores: List[CoreWarmState]
