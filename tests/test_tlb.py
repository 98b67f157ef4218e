"""Tests for the TLB model."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.tlb import Tlb
from repro.config import TlbConfig


def make_tlb(entries=4) -> Tlb:
    return Tlb(TlbConfig(entries=entries))


class TestTlb:
    def test_first_access_misses_then_hits(self):
        tlb = make_tlb()
        assert tlb.access(10) is False
        assert tlb.access(10) is True

    def test_capacity_bound(self):
        tlb = make_tlb(entries=4)
        for page in range(6):
            tlb.access(page)
        assert len(tlb.lru_entries()) == 4

    def test_lru_eviction_order(self):
        tlb = make_tlb(entries=2)
        tlb.access(1)
        tlb.access(2)
        tlb.access(1)  # 1 becomes MRU
        tlb.access(3)  # evicts 2
        assert tlb.lru_entries() == [1, 3]

    def test_invalidate_all(self):
        tlb = make_tlb()
        tlb.access(1)
        tlb.access(2)
        assert tlb.invalidate_all() == 2
        assert tlb.lru_entries() == []
        assert tlb.stats.flushes == 1

    def test_miss_rate(self):
        tlb = make_tlb()
        tlb.access(1)
        tlb.access(1)
        tlb.access(2)
        assert abs(tlb.stats.miss_rate - 2 / 3) < 1e-12

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_invariant(self, pages):
        tlb = make_tlb(entries=8)
        for page in pages:
            tlb.access(page)
        assert len(tlb.lru_entries()) == min(8, len(set(pages)))

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_small_working_set_always_fits(self, pages):
        """Working sets within capacity never re-miss after first touch."""
        tlb = make_tlb(entries=8)
        seen = set()
        for page in pages:
            hit = tlb.access(page)
            assert hit == (page in seen)
            seen.add(page)
