"""Miss Status Holding Register (MSHR) bookkeeping.

Each outstanding miss owns one :class:`MSHREntry`; subsequent accesses to
the same line merge into it at word granularity (CAM-matched coalescing).
Every entry walks a small FSM:

``ALLOCATED``
    The miss owns an MSHR but has not yet been issued toward the lower
    level (it may be queued behind the issue-bandwidth bound).
``ISSUED``
    :meth:`~repro.cache.cache.Cache._issue` ran; the request is
    traversing this level's tag pipeline.
``FILLING``
    The request is at the lower level; the fill is in flight.
``DRAINING``
    The fill arrived (or a :meth:`~repro.cache.cache.Cache.drain`
    completed the miss functionally); waiters are being notified and the
    entry is retiring.

Two bounding regimes exist.  The legacy regime (the default
configuration, bit-identical to the seed model) treats the configured
MSHR count as an *issue-bandwidth* bound: entries are unbounded, but at
most ``mshrs`` misses may be outstanding at the next level and excess
misses queue inside the cache.  The opt-in pipeline regime
(``CacheConfig.mshr_pipeline``) treats it as a true MSHR-file bound:
occupancy never exceeds ``mshrs``, secondary misses are bounded per
entry by ``mshr_targets``, and inadmissible accesses stall the pipeline
(see :meth:`~repro.cache.cache.Cache._admit`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

#: Completion callback: receives the engine tick the data arrived.
DoneCallback = Callable[[int], None]

#: MSHR entry FSM states (see module docstring).
ALLOCATED = 0
ISSUED = 1
FILLING = 2
DRAINING = 3

#: Coalescing granularity: 8-byte words, so a 64-byte line has 8 words.
WORD_BYTES = 8
WORDS_PER_LINE = 8
#: All words of a line covered (whole-line data, e.g. a writeback merge).
FULL_WORD_MASK = (1 << WORDS_PER_LINE) - 1


def word_index(addr: int) -> int:
    """Which 8-byte word of its line ``addr`` touches."""
    return (addr >> 3) & (WORDS_PER_LINE - 1)


@dataclass(slots=True)
class MSHREntry:
    """State for one outstanding line fill."""

    line_addr: int
    is_write: bool
    pc: int
    core_id: int
    is_prefetch: bool
    allocated_tick: int
    issued: bool = False
    waiters: List[DoneCallback] = field(default_factory=list)
    #: FSM state (ALLOCATED/ISSUED/FILLING/DRAINING).
    state: int = ALLOCATED
    #: Bitmask of the 8-byte words requests to this entry have touched.
    word_mask: int = 0
    #: Requests folded into this entry, the initial one included.
    targets: int = 1
    #: Set by :meth:`~repro.cache.cache.Cache.drain`: the miss was
    #: completed functionally and any in-flight send/fill is stale.
    drained: bool = False

    def merge(self, is_write: bool, is_prefetch: bool,
              on_done: DoneCallback | None, word: int = 0) -> None:
        """Fold another access to the same line into this entry.

        The merge is monotonic: write-ness and demand-ness only ever
        upgrade (a merged read never clears ``is_write``; a merged
        prefetch never re-marks a demand miss as prefetch).
        """
        self.is_write = self.is_write or is_write
        if not is_prefetch:
            # A demand access upgrades a prefetch-initiated miss.
            self.is_prefetch = False
        self.word_mask |= 1 << word
        self.targets += 1
        if on_done is not None:
            self.waiters.append(on_done)
