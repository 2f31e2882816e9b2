"""SPP-like signature-path prefetcher for the L2 (paper Table II).

SPP (Kim et al., MICRO 2016) compresses the recent delta history within a
page into a signature and looks the signature up in a pattern table that
predicts the next block delta, chaining lookahead predictions while
confidence stays high.  This implementation keeps the signature/pattern
mechanism with a compact table and a two-step lookahead.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.dram.commands import LINE_SIZE
from repro.prefetch.base import Prefetcher

_PAGE_BITS = 12
_SIG_BITS = 12
_SIG_MASK = (1 << _SIG_BITS) - 1
_TABLE_SIZE = 1024
_LOOKAHEAD = 2
_MIN_CONF = 2
#: Cache blocks per page.
_BLOCKS = 1 << (_PAGE_BITS - 6)


def _update_signature(sig: int, delta: int) -> int:
    return ((sig << 3) ^ (delta & 0x3F)) & _SIG_MASK


class SPPPrefetcher(Prefetcher):
    """Signature-path prefetcher with bounded lookahead."""

    name = "spp"

    def __init__(self, degree: int = 2) -> None:
        super().__init__()
        self.degree = degree
        # page -> (signature, last_block)
        self._pages: Dict[int, Tuple[int, int]] = {}
        # signature -> {delta: confidence}
        self._patterns: Dict[int, Dict[int, int]] = {}

    def _best_delta(self, sig: int) -> Tuple[int, int]:
        deltas = self._patterns.get(sig)
        if not deltas:
            return 0, 0
        delta = max(deltas, key=deltas.__getitem__)
        return delta, deltas[delta]

    def predict(self, addr: int, pc: int, hit: bool) -> List[int]:
        page = addr >> _PAGE_BITS
        block = (addr >> 6) & (_BLOCKS - 1)
        state = self._pages.get(page)
        targets: List[int] = []
        if state is not None:
            sig, last_block = state
            delta = block - last_block
            if delta != 0:
                bucket = self._patterns.setdefault(sig, {})
                bucket[delta] = min(bucket.get(delta, 0) + 1, 7)
                if len(self._patterns) > _TABLE_SIZE:
                    self._patterns.pop(next(iter(self._patterns)))
                sig = _update_signature(sig, delta)
                # Chain lookahead predictions from the updated signature.
                cur_block = block
                cur_sig = sig
                for _ in range(_LOOKAHEAD):
                    pred, conf = self._best_delta(cur_sig)
                    if conf < _MIN_CONF or pred == 0:
                        break
                    cur_block += pred
                    if not 0 <= cur_block < _BLOCKS:
                        break
                    targets.append(
                        (page << _PAGE_BITS) | (cur_block << 6)
                    )
                    cur_sig = _update_signature(cur_sig, pred)
            self._pages[page] = (sig, block)
        else:
            if len(self._pages) >= _TABLE_SIZE:
                self._pages.pop(next(iter(self._pages)))
            self._pages[page] = (0, block)
        if not targets:
            return targets
        # Deduplicate same-line targets.
        seen = set()
        unique: List[int] = []
        for t in targets[: self.degree]:
            line = t // LINE_SIZE
            if line not in seen:
                seen.add(line)
                unique.append(t)
        return unique
