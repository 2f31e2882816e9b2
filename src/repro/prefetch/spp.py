"""SPP-like signature-path prefetcher for the L2 (paper Table II).

SPP (Kim et al., MICRO 2016) compresses the recent delta history within a
page into a signature and looks the signature up in a pattern table that
predicts the next block delta, chaining lookahead predictions while
confidence stays high.  This implementation keeps the signature/pattern
mechanism with a compact table and a two-step lookahead.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.prefetch.base import Prefetcher

_PAGE_BITS = 12
_SIG_BITS = 12
_SIG_MASK = (1 << _SIG_BITS) - 1
_TABLE_SIZE = 1024
_LOOKAHEAD = 2
_MIN_CONF = 2
#: Cache blocks per page.
_BLOCKS = 1 << (_PAGE_BITS - 6)


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

    def predict(self, addr: int, pc: int, hit: bool) -> List[int]:
        page = addr >> _PAGE_BITS
        block = (addr >> 6) & (_BLOCKS - 1)
        pages = self._pages
        state = pages.get(page)
        if state is None:
            if len(pages) >= _TABLE_SIZE:
                del pages[next(iter(pages))]
            pages[page] = (0, block)
            return []
        targets: List[int] = []
        sig, last_block = state
        delta = block - last_block
        if delta != 0:
            patterns = self._patterns
            bucket = patterns.get(sig)
            if bucket is None:
                bucket = patterns[sig] = {}
            conf = bucket.get(delta, 0) + 1
            bucket[delta] = conf if conf < 7 else 7
            if len(patterns) > _TABLE_SIZE:
                del patterns[next(iter(patterns))]
            # The signature update: 3-bit shift, low 6 delta bits.
            sig = ((sig << 3) ^ (delta & 0x3F)) & _SIG_MASK
            # Chain lookahead predictions from the updated signature:
            # each step follows the pattern's most confident delta (the
            # first one on a tie).  No more than ``degree`` are kept, one
            # per line (targets are line-aligned).
            steps = self.degree
            if steps > _LOOKAHEAD:
                steps = _LOOKAHEAD
            cur_block = block
            cur_sig = sig
            for _ in range(steps):
                deltas = patterns.get(cur_sig)
                if not deltas:
                    break
                pred = max(deltas, key=deltas.__getitem__)
                if deltas[pred] < _MIN_CONF or pred == 0:
                    break
                cur_block += pred
                if not 0 <= cur_block < _BLOCKS:
                    break
                target = (page << _PAGE_BITS) | (cur_block << 6)
                if target not in targets:
                    targets.append(target)
                cur_sig = ((cur_sig << 3) ^ (pred & 0x3F)) & _SIG_MASK
        pages[page] = (sig, block)
        return targets
