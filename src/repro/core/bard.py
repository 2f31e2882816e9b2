"""BARD: Bank-Aware Replacement Decisions (paper sections IV and V).

Three variants, all driven by the :class:`~repro.core.blp_tracker.BLPTracker`:

* **BARD-E (eviction-based, IV-B)** - only acts when the baseline victim is
  *dirty* and maps to a bank the tracker marks as having a pending write.
  It then scans the set from most- to least-evictable (LRU -> MRU, or
  descending RRPV under RRIP policies) for a dirty line whose bank has *no*
  pending write and evicts that line instead.  Falls back to the default
  victim if no such line exists.

* **BARD-C (cleansing-based, IV-C)** - only acts when the baseline victim is
  *clean*.  It scans the set in the same order for a dirty line mapping to a
  bank without a pending write and *cleanses* it (writeback without
  eviction).  The victim choice itself is never changed.

* **BARD-H (hybrid, V)** - BARD-E when the victim is dirty, BARD-C when it
  is clean.  This is the configuration the paper simply calls "BARD".

Every writeback the LLC issues (eviction or cleanse) marks the destination
bank in the tracker via :meth:`BardPolicy.on_writeback`.

The optional *accuracy probe* (paper section VII-I) cross-checks each BARD
decision against the memory controller's actual write queues; it is pure
instrumentation and never influences decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cache.writeback.base import WritebackPolicy
from repro.core.blp_tracker import BLPTracker
from repro.dram.mapping import ZenMapping


@dataclass
class BardAccuracy:
    """Decision-accuracy counters (paper section VII-I)."""

    checked: int = 0
    incorrect: int = 0

    @property
    def error_rate(self) -> float:
        return self.incorrect / self.checked if self.checked else 0.0


class BardPolicy(WritebackPolicy):
    """BARD writeback policy for the LLC.

    Parameters
    ----------
    mapping:
        The DRAM address mapping, used to compute a line's bank id - the
        same computation the hardware's address-mapping function performs
        before indexing the BLP-Tracker (paper Fig. 7a).
    tracker:
        The shared BLP-Tracker instance.
    use_eviction:
        Enable the BARD-E behaviour (dirty victims).
    use_cleansing:
        Enable the BARD-C behaviour (clean victims).
    memctrl:
        Optional memory-controller handle for the accuracy probe.
    """

    def __init__(
        self,
        mapping: ZenMapping,
        tracker: Optional[BLPTracker] = None,
        use_eviction: bool = True,
        use_cleansing: bool = True,
        memctrl=None,
    ) -> None:
        super().__init__()
        self.mapping = mapping
        self.tracker = tracker if tracker is not None else BLPTracker(
            channels=mapping.channels
        )
        self.use_eviction = use_eviction
        self.use_cleansing = use_cleansing
        self.memctrl = memctrl
        self.accuracy = BardAccuracy()
        if use_eviction and use_cleansing:
            self.name = "bard-h"
        elif use_eviction:
            self.name = "bard-e"
        elif use_cleansing:
            self.name = "bard-c"
        else:
            self.name = "bard-off"

    # ------------------------------------------------------------------
    # Tracker plumbing
    # ------------------------------------------------------------------

    def on_writeback(self, line_addr: int) -> None:
        self.tracker.mark_writeback(*self.mapping.channel_bank(line_addr))

    # ------------------------------------------------------------------
    # Victim selection (BARD-E) and cleansing (BARD-C)
    # ------------------------------------------------------------------

    def choose_victim(self, set_idx: int, default_way: int, now: int) -> int:
        self.stats.victim_selections += 1
        cache = self.cache
        lines = cache.sets[set_idx].lines
        victim = lines[default_way]

        if victim.valid and victim.dirty:
            if not self.use_eviction:
                return default_way
            if not self.tracker.is_pending(
                    *self.mapping.channel_bank(victim.line_addr)):
                # The bank has no pending write: the default eviction
                # already improves BLP.
                return default_way
            way = self._scan_for_low_cost_dirty(set_idx, default_way)
            if way is None:
                return default_way
            self.stats.overrides += 1
            self._probe_accuracy(lines[way].line_addr)
            return way

        if self.use_cleansing:
            way = self._scan_for_low_cost_dirty(set_idx, None)
            if way is not None:
                self.stats.cleanses += 1
                self._probe_accuracy(lines[way].line_addr)
                cache.cleanse(set_idx, way, now)
        return default_way

    def _scan_for_low_cost_dirty(self, set_idx: int,
                                 skip_way: Optional[int]) -> Optional[int]:
        """First dirty line (most-evictable first) whose bank is write-free.

        Most scans find no such line, so the candidates are collected in
        way order first and the set is put in eviction order only when
        there are two or more to choose among.
        """
        cache = self.cache
        lines = cache.sets[set_idx].lines
        channel_bank = self.mapping.channel_bank
        is_pending = self.tracker.is_pending
        candidates = [
            way for way, line in enumerate(lines)
            if line.dirty and line.valid and way != skip_way
            and not is_pending(*channel_bank(line.line_addr))
        ]
        if len(candidates) < 2:
            return candidates[0] if candidates else None
        for way in cache.repl.eviction_order(set_idx, lines):
            if way in candidates:
                return way
        return None  # pragma: no cover - eviction_order lists every way

    # ------------------------------------------------------------------
    # Accuracy probe (instrumentation only)
    # ------------------------------------------------------------------

    def _probe_accuracy(self, line_addr: int) -> None:
        if self.memctrl is None:
            return
        self.accuracy.checked += 1
        if self.memctrl.pending_writes_for_line(line_addr) > 0:
            # BARD believed this bank was write-free, but the WRQ disagrees.
            self.accuracy.incorrect += 1


def make_bard(variant: str, mapping: ZenMapping,
              tracker: Optional[BLPTracker] = None,
              memctrl=None) -> BardPolicy:
    """Construct a BARD variant by name: 'bard-e', 'bard-c' or 'bard-h'."""
    variant = variant.lower()
    flags = {
        "bard-e": (True, False),
        "bard-c": (False, True),
        "bard-h": (True, True),
        "bard": (True, True),
    }
    if variant not in flags:
        raise ValueError(f"unknown BARD variant {variant!r}")
    use_e, use_c = flags[variant]
    return BardPolicy(mapping, tracker=tracker, use_eviction=use_e,
                      use_cleansing=use_c, memctrl=memctrl)
