"""Unit and property tests for the set-associative cache model."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cache import SetAssocCache
from repro.arch.native import (
    NativeCache,
    NativeTlb,
    StateArena,
    multi_slice_flags_wb,
    native_available,
    replay_events,
)
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
        assert cache.evict_line_range(7, 1) == 1
        assert not cache.contains(7)
        assert cache.evict_line_range(7, 1) == 0

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
        for s in range(cache.n_sets):
            assert len(cache.set_entries(s)) <= 2

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


#: (L1, L2, TLB entries) geometries of the one-tile parity harness:
#: direct-mapped, 2-way and 8-way caches; 1- and 8-entry TLBs.
TILE_GEOMETRIES = {
    "1way-tlb1": (CacheConfig(512, 1, 64), CacheConfig(1024, 1, 64), 1),
    "2way-tlb8": (CacheConfig(1024, 2, 64), CacheConfig(4096, 4, 64), 8),
    "8way-tlb8": (CacheConfig(2048, 8, 64), CacheConfig(8192, 8, 64), 8),
}

#: Lines per page in the harness's event streams.
PAGE_LINES = 8


class RefTile:
    """The scalar oracle's rule for one core: TLB, L1, then the L2 slice."""

    def __init__(self, l1_cfg, l2_cfg, tlb_entries):
        self.l1 = SetAssocCache(l1_cfg, "l1")
        self.l2 = SetAssocCache(l2_cfg, "l2")
        self.tlb = Tlb(TlbConfig(entries=tlb_entries), "tlb")

    def step(self, line, write):
        """One event; returns (TLB hit, L1 hit)."""
        tlb_hit = self.tlb.access(line // PAGE_LINES)
        l1_hit = self.l1.access(line, write)
        if not l1_hit:
            self.l2.access(line, write)
        return tlb_hit, l1_hit


class ArenaTile:
    """The same core as a one-tile state arena stepped by ``replay_events``.

    L1 in slot 0, L2 in slot 1, TLB in slot 2.  Every step replays one
    one-event segment, so the segment's TLB lookup is never skipped.
    """

    def __init__(self, l1_cfg, l2_cfg, tlb_entries):
        self.arena = StateArena([
            l1_cfg.n_sets * l1_cfg.associativity,
            l2_cfg.n_sets * l2_cfg.associativity,
            tlb_entries,
        ])
        geom = np.asarray([
            l1_cfg.n_sets - 1, l1_cfg.associativity,
            l2_cfg.n_sets - 1, l2_cfg.associativity, tlb_entries, 1, 1,
        ], dtype=np.int64)
        self.tables = (self.arena, geom, np.asarray([4.0, 11.0, 108.0, 50.0]))
        self._zero = np.zeros(1)
        self.group_tab = np.asarray(
            [self._zero.ctypes.data, self._zero.ctypes.data, -1], dtype=np.int64
        )
        self.l1 = NativeCache(l1_cfg, "l1", self.arena, 0)
        self.l2 = NativeCache(l2_cfg, "l2", self.arena, 1)
        self.tlb = NativeTlb(TlbConfig(entries=tlb_entries), "tlb", self.arena, 2)

    def step(self, line, write):
        seg_out, _, _ = replay_events(
            np.asarray([0, 1], dtype=np.int64),
            np.zeros(2, dtype=np.int64),
            (np.asarray([line // PAGE_LINES]), np.asarray([int(write)]),
             np.asarray([line]), np.zeros(1), np.zeros(1)),
            self.tables, self.group_tab, [],
        )
        return seg_out[0][0] == 0, seg_out[0][1] == 0


def assert_same_tile(ref, tile):
    for a, b in ((ref.l1, tile.l1), (ref.l2, tile.l2)):
        assert a.stats == b.stats, a.name
        assert (a.valid_lines, a.dirty_lines) == (b.valid_lines, b.dirty_lines), a.name
        for s in range(a.n_sets):
            assert a.set_entries(s) == b.set_entries(s), (a.name, s)
    assert ref.tlb.stats == tile.tlb.stats
    assert ref.tlb.lru_entries() == tile.tlb.lru_entries()


@pytest.fixture(params=list(TILE_GEOMETRIES), ids=list(TILE_GEOMETRIES))
def tiles(request):
    """A reference tile and an arena tile of one geometry."""
    geometry = TILE_GEOMETRIES[request.param]
    return RefTile(*geometry), ArenaTile(*geometry)


def line_span(ref):
    """Lines the random streams draw from: twice the L2's capacity."""
    return 2 * ref.l2.n_sets * ref.l2.assoc


@native
class TestNativeCacheParity:
    """The arena cache views, stepped by the kernel, mirror the reference."""

    def test_scalar_access_parity(self, tiles):
        ref, tile = tiles
        rnd = random.Random(7)
        span = line_span(ref)
        for _ in range(600):
            line = rnd.randrange(span)
            w = rnd.random() < 0.3
            assert ref.step(line, w) == tile.step(line, w)
            assert_same_tile(ref, tile)
        assert ref.l2.stats.evictions > 0

    def test_maintenance_op_parity(self, tiles):
        ref, tile = tiles
        for line in range(20):
            assert ref.step(line, line % 2 == 0) == tile.step(line, line % 2 == 0)
        assert ref.l1.clean_all() == tile.l1.clean_all()
        assert ref.l1.clean_all() == tile.l1.clean_all() == 0
        ref.step(12, True)
        tile.step(12, True)
        for a, b in ((ref.l1, tile.l1), (ref.l2, tile.l2)):
            assert a.contains(12) and b.contains(12)
            assert a.evict_line_range(12, 1) == b.evict_line_range(12, 1) == 1
            assert not b.contains(12)
            assert a.evict_line_range(4, 1) == b.evict_line_range(4, 1)
            assert a.evict_line_range(4, 1) == b.evict_line_range(4, 1) == 0
            assert a.evict_line_range(8, 8) == b.evict_line_range(8, 8)
        assert_same_tile(ref, tile)
        for a, b in ((ref.l1, tile.l1), (ref.l2, tile.l2)):
            assert a.invalidate_all() == b.invalidate_all()
            assert all(b.set_entries(s) == [] for s in range(b.n_sets))
        assert_same_tile(ref, tile)


@native
class TestNativeTlbParity:
    """The arena TLB view, stepped by the kernel, mirrors the reference LRU TLB."""

    def test_access_and_maintenance_parity(self, tiles):
        ref, tile = tiles
        rnd = random.Random(11)
        for step in range(600):
            line = rnd.randrange(20) * PAGE_LINES + rnd.randrange(PAGE_LINES)
            assert ref.step(line, False) == tile.step(line, False)
            if step % 97 == 0:
                assert ref.tlb.invalidate_all() == tile.tlb.invalidate_all()
            assert ref.tlb.lru_entries() == tile.tlb.lru_entries()
        assert_same_tile(ref, tile)
        assert ref.tlb.invalidate_all() == tile.tlb.invalidate_all()
        assert ref.tlb.lru_entries() == tile.tlb.lru_entries() == []
        assert ref.tlb.stats == tile.tlb.stats


@native
class TestCachedAddressParity:
    """The kernels reuse the arena addresses ``cache_tab`` caches once.

    Interleaving one-event ``replay_events`` steps with the multi-slice
    kernel and the maintenance operations must leave the buffers they
    point at valid: every step is checked against the reference model.
    """

    def test_cache_access_interleaved_with_batches(self, tiles):
        ref, tile = tiles
        rnd = random.Random(23)
        span = line_span(ref)

        def batch():
            lines = [rnd.randrange(span) for _ in range(rnd.randrange(1, 40))]
            writes = [int(rnd.random() < 0.4) for _ in lines]
            hits = [ref.l1.access(line, w) for line, w in zip(lines, writes)]
            return np.asarray(lines, dtype=np.int64), np.asarray(writes, dtype=np.int8), hits

        for step in range(300):
            line = rnd.randrange(span)
            w = rnd.random() < 0.3
            assert ref.step(line, w) == tile.step(line, w)
            op = step % 5
            if op == 1:
                lines, writes, hits = batch()
                flags = multi_slice_flags_wb([tile.l1], [0, len(lines)], lines, writes)
                assert flags.astype(bool).tolist() == hits
            elif op == 2:
                assert ref.l1.invalidate_all() == tile.l1.invalidate_all()
            elif op == 3:
                assert ref.l2.clean_all() == tile.l2.clean_all()
            elif op == 4:
                base = rnd.randrange(span)
                assert ref.l2.contains(base) == tile.l2.contains(base)
                assert ref.l2.evict_line_range(base, PAGE_LINES) == (
                    tile.l2.evict_line_range(base, PAGE_LINES)
                )
                assert not tile.l2.contains(base)
            assert_same_tile(ref, tile)

    def test_tlb_access_interleaved_with_maintenance(self, tiles):
        ref, tile = tiles
        rnd = random.Random(29)
        for step in range(400):
            line = rnd.randrange(20) * PAGE_LINES + rnd.randrange(PAGE_LINES)
            assert ref.step(line, False) == tile.step(line, False)
            op = step % 4
            if op == 2:
                assert ref.tlb.invalidate_all() == tile.tlb.invalidate_all()
            elif op == 3:
                # A private purge: the core's L1 goes with its TLB.
                assert ref.l1.invalidate_all() == tile.l1.invalidate_all()
            assert ref.tlb.lru_entries() == tile.tlb.lru_entries()
            assert ref.tlb.stats == tile.tlb.stats
        assert_same_tile(ref, tile)


@native
class TestReplayEventsParity:
    """``replay_events`` on one segment and one core vs single-event access.

    One core's TLB and L1 and one L2 slice, the three slots of a
    one-tile state arena, replayed by the fused kernel and by the
    reference ``Tlb``/``SetAssocCache`` event by event: hit/miss, LRU
    victims, dirty flags and writebacks must agree, and so must the
    per-segment counters and cycles.  The kernel keeps the stats rows
    itself, so the views read the reference stats with no folding.
    """

    WALK, L2_LAT, DRAM = 50.0, 11.0, 108.0

    def test_one_segment_matches_reference(self):
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

        arena = StateArena([
            l1_cfg.n_sets * l1_cfg.associativity,
            l2_cfg.n_sets * l2_cfg.associativity,
            tlb_cfg.entries,
        ])
        geom = np.asarray(
            [l1_cfg.n_sets - 1, 2, l2_cfg.n_sets - 1, 4, tlb_cfg.entries, 1, 1],
            dtype=np.int64,
        )
        lat = np.asarray([4.0, self.L2_LAT, self.DRAM, self.WALK])
        zero = np.zeros(1)
        seg_out, mem_out, mc_out = replay_events(
            np.asarray([0, len(lines)], dtype=np.int64),
            np.zeros(2, dtype=np.int64),
            (np.asarray(pages), np.asarray(writes), np.asarray(lines),
             np.zeros(len(lines)), np.zeros(len(lines))),
            (arena, geom, lat),
            np.asarray([zero.ctypes.data, zero.ctypes.data, -1], dtype=np.int64),
            [],
        )
        l1 = NativeCache(l1_cfg, "l1", arena, 0)
        l2 = NativeCache(l2_cfg, "l2", arena, 1)
        tlb = NativeTlb(tlb_cfg, "t", arena, 2)

        assert seg_out[0].tolist() == [
            want["tlb"], want["l1"], ref_l1.stats.writebacks,
            want["l2_hits"], want["l2_misses"], ref_l2.stats.writebacks,
        ]
        assert ref_l1.stats.writebacks > 0 and ref_l2.stats.evictions > 0
        assert mem_out.tolist() == [want["mem"]]
        assert mc_out.tolist() == [[want["l2_misses"]]]
        for ref, nat in ((ref_l1, l1), (ref_l2, l2)):
            assert ref.stats == nat.stats
            assert (ref.valid_lines, ref.dirty_lines) == (nat.valid_lines, nat.dirty_lines)
            for s in range(ref.n_sets):
                assert ref.set_entries(s) == nat.set_entries(s)
        assert ref_tlb.stats == tlb.stats
        assert ref_tlb.lru_entries() == tlb.lru_entries()
