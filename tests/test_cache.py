"""Unit and property tests for the set-associative cache model."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cache import SetAssocCache
from repro.arch.native import NativeCache, NativeTlb, native_available
from repro.arch.tlb import Tlb
from repro.config import CacheConfig, TlbConfig
from repro.errors import ConfigError


#: Parity checks against the compiled backend need its kernels built.
native = pytest.mark.skipif(
    not native_available(), reason="compiled kernels unavailable"
)


def make_cache(size=1024, assoc=2, line=64) -> SetAssocCache:
    return SetAssocCache(CacheConfig(size, assoc, line), "t")


class TestBasics:
    def test_first_access_misses(self):
        cache = make_cache()
        assert cache.access(0, False) is False

    def test_second_access_hits(self):
        cache = make_cache()
        cache.access(0, False)
        assert cache.access(0, False) is True

    def test_distinct_sets_do_not_conflict(self):
        cache = make_cache(size=1024, assoc=2)  # 8 sets
        cache.access(0, False)
        cache.access(1, False)
        assert cache.access(0, False)
        assert cache.access(1, False)

    def test_eviction_on_associativity_overflow(self):
        cache = make_cache(size=1024, assoc=2)  # 8 sets
        n_sets = cache.n_sets
        cache.access(0, False)
        cache.access(n_sets, False)
        cache.access(2 * n_sets, False)  # evicts line 0 (LRU)
        assert not cache.contains(0)
        assert cache.contains(n_sets)
        assert cache.contains(2 * n_sets)

    def test_lru_updated_by_hit(self):
        cache = make_cache(size=1024, assoc=2)
        n_sets = cache.n_sets
        cache.access(0, False)
        cache.access(n_sets, False)
        cache.access(0, False)  # 0 becomes MRU
        cache.access(2 * n_sets, False)  # evicts n_sets, not 0
        assert cache.contains(0)
        assert not cache.contains(n_sets)

    def test_writeback_counted_only_for_dirty_victims(self):
        cache = make_cache(size=1024, assoc=1)
        n_sets = cache.n_sets
        cache.access(0, True)  # dirty
        cache.access(n_sets, False)  # evicts dirty line
        assert cache.stats.writebacks == 1
        cache.access(2 * n_sets, False)  # evicts clean line
        assert cache.stats.writebacks == 1

    def test_miss_rate(self):
        cache = make_cache()
        cache.access(0, False)
        cache.access(0, False)
        assert cache.stats.miss_rate == pytest.approx(0.5)

    def test_touch_many_counts_misses(self):
        cache = make_cache()
        misses = cache.touch_many([0, 0, 64, 0], [0, 0, 0, 0])
        # line ids are already line-granular here: 0, 0, 64, 0
        assert misses == 2


class TestMaintenance:
    def test_invalidate_all_reports_valid_and_dirty(self):
        cache = make_cache()
        cache.access(0, True)
        cache.access(1, False)
        valid, dirty = cache.invalidate_all()
        assert (valid, dirty) == (2, 1)
        assert cache.valid_lines == 0

    def test_invalidate_counts_writebacks(self):
        cache = make_cache()
        cache.access(3, True)
        before = cache.stats.writebacks
        cache.invalidate_all()
        assert cache.stats.writebacks == before + 1

    def test_clean_all_keeps_lines_resident(self):
        cache = make_cache()
        cache.access(5, True)
        drained = cache.clean_all()
        assert drained == 1
        assert cache.contains(5)
        assert cache.dirty_lines == 0

    def test_clean_all_idempotent(self):
        cache = make_cache()
        cache.access(5, True)
        cache.clean_all()
        assert cache.clean_all() == 0

    def test_evict_line_specific(self):
        cache = make_cache()
        cache.access(7, True)
        assert cache.evict_line(7) is True
        assert not cache.contains(7)
        assert cache.evict_line(7) is False

    def test_resident_lines_lists_contents(self):
        cache = make_cache()
        for line in (1, 2, 3):
            cache.access(line, False)
        assert sorted(cache.resident_lines()) == [1, 2, 3]

    def test_dirty_lines_counter(self):
        cache = make_cache()
        cache.access(0, True)
        cache.access(1, False)
        cache.access(2, True)
        assert cache.dirty_lines == 2


class TestConfigValidation:
    def test_rejects_non_divisible_geometry(self):
        with pytest.raises(ConfigError):
            CacheConfig(1000, 3, 64)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigError):
            CacheConfig(3 * 64 * 2, 2, 64)  # 3 sets

    def test_geometry_properties(self):
        cfg = CacheConfig(32 * 1024, 8, 64)
        assert cfg.n_sets == 64
        assert cfg.n_lines == 512


class TestProperties:
    @given(
        lines=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, lines):
        cache = make_cache(size=512, assoc=2)  # 4 sets, 8 lines total
        for line in lines:
            cache.access(line, False)
        assert cache.valid_lines <= 8
        for s in cache._sets:
            assert len(s) <= 2

    @given(
        lines=st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200),
        writes=st.lists(st.booleans(), min_size=200, max_size=200),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_lru_model(self, lines, writes):
        """The cache must agree with a straightforward LRU reference."""
        cache = make_cache(size=512, assoc=2)
        n_sets = cache.n_sets
        reference = {s: [] for s in range(n_sets)}
        for line, w in zip(lines, writes):
            ref_set = reference[line & (n_sets - 1)]
            expect_hit = line in ref_set
            if expect_hit:
                ref_set.remove(line)
            elif len(ref_set) >= 2:
                ref_set.pop()
            ref_set.insert(0, line)
            assert cache.access(line, w) == expect_hit

    @given(st.lists(st.integers(min_value=0, max_value=1023), min_size=1, max_size=400))
    @settings(max_examples=40, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, lines):
        cache = make_cache()
        for line in lines:
            cache.access(line, False)
        assert cache.stats.hits + cache.stats.misses == len(lines)

    @given(st.lists(st.integers(min_value=0, max_value=127), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_repeat_pass_all_hits_when_fits(self, lines):
        """Any footprint within capacity/assoc bounds fully hits on replay."""
        unique = sorted(set(lines))
        cache = make_cache(size=64 * 128 * 4, assoc=128)  # fully assoc, 4 sets
        for line in unique:
            cache.access(line, False)
        assert all(cache.access(line, False) for line in unique)


class TestFillSet:
    """Prime+Probe priming must produce distinct, set-aligned lines
    (regression for the precedence-reliant shift/double-mask version)."""

    @pytest.mark.parametrize("size,assoc", [(1024, 2), (4096, 4), (16384, 8)])
    def test_primed_lines_distinct_and_aligned(self, size, assoc):
        cache = make_cache(size=size, assoc=assoc)
        for set_index in (0, 1, cache.n_sets - 1):
            primed = cache.fill_set(set_index, tag_base=7)
            assert len(set(primed)) == cache.assoc
            assert all(line & (cache.n_sets - 1) == set_index for line in primed)
            assert all(cache.contains(line) for line in primed)

    def test_fill_set_occupies_all_ways(self):
        cache = make_cache(size=1024, assoc=2)
        primed = cache.fill_set(3, tag_base=0)
        assert len(cache._sets[3]) == cache.assoc
        # A conflicting access now evicts the LRU primed line.
        intruder = (1000 << (cache.n_sets - 1).bit_length()) | 3
        cache.access(intruder, False)
        assert not cache.contains(primed[0])
        assert cache.contains(primed[1])

    @native
    def test_primed_lines_agree_across_implementations(self):
        cfg = CacheConfig(4096, 4, 64)
        a = SetAssocCache(cfg, "a")
        b = NativeCache(cfg, "b")
        assert a.fill_set(5, 11) == b.fill_set(5, 11)
        assert a.stats == b.stats
        for s in range(a.n_sets):
            assert a._sets[s] == b.set_entries(s)


@native
class TestNativeCacheParity:
    """The compiled cache must mirror the reference model."""

    def test_scalar_access_parity(self):
        cfg = CacheConfig(1024, 2, 64)
        ref = SetAssocCache(cfg, "ref")
        nat = NativeCache(cfg, "nat")
        rnd = random.Random(7)
        for _ in range(2000):
            line = rnd.randrange(64)
            w = rnd.random() < 0.3
            assert ref.access(line, w) == nat.access(line, w)
        assert ref.stats == nat.stats
        assert ref.valid_lines == nat.valid_lines
        assert ref.dirty_lines == nat.dirty_lines
        for s in range(ref.n_sets):
            assert ref._sets[s] == nat.set_entries(s)

    def test_maintenance_op_parity(self):
        cfg = CacheConfig(1024, 2, 64)
        ref = SetAssocCache(cfg, "ref")
        nat = NativeCache(cfg, "nat")
        for line in range(20):
            ref.access(line, line % 2 == 0)
            nat.access(line, line % 2 == 0)
        assert ref.clean_all() == nat.clean_all()
        assert ref.clean_all() == nat.clean_all() == 0
        ref.access(12, True)
        nat.access(12, True)
        assert ref.evict_line(12) == nat.evict_line(12) is True
        assert ref.evict_line(4) == nat.evict_line(4)
        assert ref.evict_line(4) == nat.evict_line(4) is False
        assert sorted(ref.resident_lines()) == sorted(nat.resident_lines())
        assert ref.evict_line_range(8, 8) == nat.evict_line_range(8, 8)
        assert ref.stats == nat.stats
        assert (ref.valid_lines, ref.dirty_lines) == (
            nat.valid_lines, nat.dirty_lines
        )
        assert ref.invalidate_all() == nat.invalidate_all()
        assert ref.resident_lines() == nat.resident_lines() == []
        assert ref.stats == nat.stats


@native
class TestNativeTlbParity:
    """The compiled TLB must mirror the reference LRU TLB."""

    def test_access_and_maintenance_parity(self):
        cfg = TlbConfig(entries=8)
        ref = Tlb(cfg, "ref")
        nat = NativeTlb(cfg, "nat")
        rnd = random.Random(11)
        for step in range(600):
            page = rnd.randrange(20)
            assert ref.access(page) == nat.access(page)
            if step % 97 == 0:
                victim = rnd.randrange(20)
                assert ref.invalidate_page(victim) == nat.invalidate_page(victim)
            assert ref.lru_entries() == nat.lru_entries()
        assert ref.stats == nat.stats
        assert ref.occupancy == nat.occupancy
        assert ref.invalidate_all() == nat.invalidate_all()
        assert ref.lru_entries() == nat.lru_entries() == []
        assert ref.stats == nat.stats


@native
class TestCachedAddressParity:
    """Single-event ``access`` reuses ctypes addresses cached at construction.

    Interleaving it with the batch kernels and the maintenance
    operations must leave the buffers it points at valid: every step is
    checked against the reference model.
    """

    def test_cache_access_interleaved_with_batches(self):
        from repro.arch.native import multi_slice_flags_wb

        cfg = CacheConfig(1024, 2, 64)
        ref = SetAssocCache(cfg, "ref")
        nat = NativeCache(cfg, "nat")
        rnd = random.Random(23)

        def batch():
            lines = [rnd.randrange(64) for _ in range(rnd.randrange(1, 40))]
            writes = [int(rnd.random() < 0.4) for _ in lines]
            hits = [ref.access(line, w) for line, w in zip(lines, writes)]
            return np.asarray(lines, dtype=np.int64), np.asarray(writes, dtype=np.int8), hits

        for step in range(300):
            line = rnd.randrange(64)
            w = rnd.random() < 0.3
            assert ref.access(line, w) == nat.access(line, w)
            op = step % 6
            if op == 0:
                lines, writes, hits = batch()
                misses = nat.kernel_filter_misses(lines, writes).tolist()
                assert misses == [k for k, h in enumerate(hits) if not h]
            elif op == 2:
                lines, writes, hits = batch()
                flags, _ = multi_slice_flags_wb([nat], [0, len(lines)], lines, writes)
                assert flags.astype(bool).tolist() == hits
            elif op == 3:
                assert ref.invalidate_all() == nat.invalidate_all()
            elif op == 4:
                assert ref.clean_all() == nat.clean_all()
            elif op == 5:
                s = rnd.randrange(ref.n_sets)
                assert ref.fill_set(s, step) == nat.fill_set(s, step)
            assert ref.stats == nat.stats
            assert (ref.valid_lines, ref.dirty_lines) == (nat.valid_lines, nat.dirty_lines)
        for s in range(ref.n_sets):
            assert ref._sets[s] == nat.set_entries(s)

    def test_tlb_access_interleaved_with_batches(self):
        cfg = TlbConfig(entries=8)
        ref = Tlb(cfg, "ref")
        nat = NativeTlb(cfg, "nat")
        rnd = random.Random(29)
        for step in range(400):
            page = rnd.randrange(20)
            assert ref.access(page) == nat.access(page)
            op = step % 5
            pages = [rnd.randrange(20) for _ in range(rnd.randrange(1, 12))]
            if op == 0:
                misses = sum(not ref.access(p) for p in pages)
                assert nat.access_batch(np.asarray(pages, dtype=np.int64)) == misses
            elif op == 2:
                assert ref.invalidate_all() == nat.invalidate_all()
            elif op == 3:
                assert ref.invalidate_page(pages[0]) == nat.invalidate_page(pages[0])
            assert ref.lru_entries() == nat.lru_entries()
            assert ref.stats == nat.stats


@native
class TestReplayEventsParity:
    """``replay_events`` on one segment and one core vs single-event access.

    One core's TLB and L1 and one L2 slice, replayed by the fused
    kernel and by the reference ``Tlb``/``SetAssocCache`` event by
    event: hit/miss, LRU victims, dirty flags and writebacks must
    agree, and so must the per-segment counters and cycles.  The slice
    starts absent, so the kernel's stop-and-resume path runs too.
    """

    WALK, L2_LAT, DRAM = 50.0, 11.0, 108.0

    def test_one_segment_matches_reference(self):
        from repro.arch.native import replay_events

        l1_cfg, l2_cfg = CacheConfig(512, 2, 64), CacheConfig(2048, 4, 64)
        tlb_cfg = TlbConfig(entries=4)
        rnd = random.Random(31)
        lines = [rnd.randrange(96) for _ in range(1500)]
        writes = [int(rnd.random() < 0.35) for _ in lines]
        pages = [line >> 3 for line in lines]

        ref_tlb = Tlb(tlb_cfg, "t")
        ref_l1, ref_l2 = SetAssocCache(l1_cfg, "l1"), SetAssocCache(l2_cfg, "l2")
        want = dict(tlb=0, l1=0, l2_hits=0, l2_misses=0, mem=0.0)
        cur = None
        for line, w, page in zip(lines, writes, pages):
            if page != cur:
                cur = page
                if not ref_tlb.access(page):
                    want["tlb"] += 1
                    want["mem"] += self.WALK
            if ref_l1.access(line, w):
                continue
            want["l1"] += 1
            if ref_l2.access(line, w):
                want["l2_hits"] += 1
                want["mem"] += self.L2_LAT
            else:
                want["l2_misses"] += 1
                want["mem"] += self.L2_LAT + self.DRAM

        tlb, l1 = NativeTlb(tlb_cfg, "t"), NativeCache(l1_cfg, "l1")
        l2 = []
        cache_tab = np.zeros(4 * 2, dtype=np.int64)
        cache_tab[0:4] = l1._state_ptrs

        def make_l2(tile):
            assert tile == 0 and not l2
            l2.append(NativeCache(l2_cfg, "l2"))
            cache_tab[4:8] = l2[0]._state_ptrs

        geom = np.asarray(
            [l1_cfg.n_sets - 1, 2, l2_cfg.n_sets - 1, 4, tlb_cfg.entries, 1, 1],
            dtype=np.int64,
        )
        lat = np.asarray([4.0, self.L2_LAT, self.DRAM, self.WALK])
        zero = np.zeros(1)
        seg_out, mem_out, mc_out, cache_out = replay_events(
            np.asarray([0, len(lines)], dtype=np.int64),
            np.zeros(2, dtype=np.int64),
            (np.asarray(pages), np.asarray(writes), np.asarray(lines),
             np.zeros(len(lines)), np.zeros(len(lines))),
            (cache_tab, np.asarray(tlb._ptrs, dtype=np.int64), geom, lat),
            np.asarray([zero.ctypes.data, zero.ctypes.data, -1], dtype=np.int64),
            [],
            make_l2,
        )
        l1._fold(*cache_out[0].tolist())
        l2[0]._fold(*cache_out[1].tolist())
        tlb.stats.hits += int(cache_out[2, 0])
        tlb.stats.misses += int(cache_out[2, 1])

        assert seg_out[0].tolist() == [
            want["tlb"], want["l1"], ref_l1.stats.writebacks,
            want["l2_hits"], want["l2_misses"], ref_l2.stats.writebacks,
        ]
        assert ref_l1.stats.writebacks > 0 and ref_l2.stats.evictions > 0
        assert mem_out.tolist() == [want["mem"]]
        assert mc_out.tolist() == [[want["l2_misses"]]]
        for ref, nat in ((ref_l1, l1), (ref_l2, l2[0])):
            assert ref.stats == nat.stats
            assert (ref.valid_lines, ref.dirty_lines) == (nat.valid_lines, nat.dirty_lines)
            for s in range(ref.n_sets):
                assert ref._sets[s] == nat.set_entries(s)
        assert ref_tlb.stats == tlb.stats
        assert ref_tlb.lru_entries() == tlb.lru_entries()
