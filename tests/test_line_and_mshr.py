"""Cache line/set containers and MSHR entry merging."""

import random

from repro.cache.line import CacheLine, CacheSet
from repro.cache.mshr import ALLOCATED, FULL_WORD_MASK, MSHREntry, \
    WORDS_PER_LINE, word_index


class TestCacheLine:
    def test_reset_clears_everything(self):
        line = CacheLine(valid=True, dirty=True, line_addr=0x40,
                         signature=7, reused=True, prefetched=True)
        line.reset()
        assert not line.valid and not line.dirty
        assert line.line_addr == 0 and line.signature == 0
        assert not line.reused and not line.prefetched


class TestCacheSet:
    def test_find_by_address(self):
        cset = CacheSet(4)
        cset.lines[2].valid = True
        cset.lines[2].line_addr = 0x1000
        assert cset.find(0x1000) == 2
        assert cset.find(0x2000) is None

    def test_invalid_lines_not_found(self):
        cset = CacheSet(2)
        cset.lines[0].line_addr = 0x1000  # valid=False
        assert cset.find(0x1000) is None

    def test_find_invalid(self):
        cset = CacheSet(2)
        assert cset.find_invalid() == 0
        cset.lines[0].valid = True
        assert cset.find_invalid() == 1
        cset.lines[1].valid = True
        assert cset.find_invalid() is None

    def test_ways_allocated(self):
        assert len(CacheSet(16).lines) == 16


class TestMSHREntry:
    def _entry(self, **kw):
        defaults = dict(line_addr=0x40, is_write=False, pc=4, core_id=0,
                        is_prefetch=False, allocated_tick=0)
        defaults.update(kw)
        return MSHREntry(**defaults)

    def test_merge_write_upgrades(self):
        e = self._entry()
        e.merge(is_write=True, is_prefetch=False, on_done=None)
        assert e.is_write

    def test_merge_demand_clears_prefetch(self):
        e = self._entry(is_prefetch=True)
        e.merge(is_write=False, is_prefetch=False, on_done=None)
        assert not e.is_prefetch

    def test_merge_prefetch_does_not_set_prefetch(self):
        e = self._entry(is_prefetch=False)
        e.merge(is_write=False, is_prefetch=True, on_done=None)
        assert not e.is_prefetch

    def test_waiters_accumulate(self):
        e = self._entry()
        e.merge(False, False, lambda t: None)
        e.merge(False, False, lambda t: None)
        assert len(e.waiters) == 2

    def test_none_waiter_skipped(self):
        e = self._entry()
        e.merge(False, False, None)
        assert e.waiters == []

    def test_word_coalescing(self):
        e = self._entry(word_mask=1 << 0)
        e.merge(False, False, None, word=3)
        e.merge(False, False, None, word=3)  # duplicate word
        e.merge(True, False, None, word=7)
        assert e.word_mask == (1 << 0) | (1 << 3) | (1 << 7)

    def test_full_word_mask_covers_line(self):
        e = self._entry(word_mask=0)
        for w in range(WORDS_PER_LINE):
            e.merge(False, False, None, word=w)
        assert e.word_mask == FULL_WORD_MASK

    def test_word_index_mapping(self):
        assert word_index(0x40) == 0
        assert word_index(0x48) == 1
        assert word_index(0x7F) == 7
        # Line-relative: same offset in any line maps to the same word.
        assert word_index(0x1000 + 24) == word_index(24) == 3

    def test_fresh_entry_state(self):
        e = self._entry()
        assert e.state == ALLOCATED
        assert not e.issued and not e.drained


class TestMergeMonotonicity:
    """Random merge streams: write-ness/demand-ness never downgrade
    and the word mask only grows."""

    def _random_merges(self, seed, start_prefetch):
        rng = random.Random(seed)
        e = MSHREntry(line_addr=0x40, is_write=False, pc=1, core_id=0,
                      is_prefetch=start_prefetch, allocated_tick=0,
                      word_mask=1 << rng.randrange(WORDS_PER_LINE))
        trace = []
        for _ in range(60):
            before = (e.is_write, e.is_prefetch, e.word_mask)
            e.merge(rng.random() < 0.4, rng.random() < 0.5,
                    (lambda t: None) if rng.random() < 0.5 else None,
                    word=rng.randrange(WORDS_PER_LINE))
            trace.append((before, (e.is_write, e.is_prefetch,
                                   e.word_mask)))
        return trace

    def test_monotone_under_random_streams(self):
        for seed in range(6):
            for start_prefetch in (False, True):
                trace = self._random_merges(seed, start_prefetch)
                for (w0, p0, m0), (w1, p1, m1) in trace:
                    assert w1 >= w0          # write-ness never downgrades
                    assert p1 <= p0          # demand-ness never downgrades
                    assert m1 & m0 == m0     # word mask only grows
