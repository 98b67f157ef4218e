"""Tests for the composed memory hierarchy and trace replayer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.address import VirtualMemory
from repro.arch.batch_replay import BatchReplayer, Segment
from repro.arch.hierarchy import MemoryHierarchy, ProcessContext
from repro.arch.native import native_available
from repro.config import SystemConfig
from repro.errors import CacheIsolationViolation, MemoryIsolationViolation


def make_env(config=None, slices=None, regions=None, homing="local", **kwargs):
    config = config or SystemConfig.evaluation()
    hier = MemoryHierarchy(config)
    vm = VirtualMemory("p", hier.address_space, regions or [0, 1])
    ctx = ProcessContext(
        "p", "secure", vm,
        cores=list(range(8)),
        slices=slices or list(range(8)),
        controllers=[0, 1],
        homing=homing,
        **kwargs,
    )
    return hier, ctx


def seq_trace(n, stride=64, base=0):
    return base + np.arange(n, dtype=np.int64) * stride


class TestCounters:
    def test_hits_plus_misses_equals_accesses(self):
        hier, ctx = make_env()
        trace = seq_trace(500, stride=8)
        res = hier.run_trace(ctx, trace)
        assert res.l1_hits + res.l1_misses == res.accesses == 500

    def test_l2_accessed_only_on_l1_misses(self):
        hier, ctx = make_env()
        res = hier.run_trace(ctx, seq_trace(400))
        assert res.l2_accesses == res.l1_misses

    def test_warm_rerun_hits(self):
        hier, ctx = make_env()
        trace = seq_trace(100)
        hier.run_trace(ctx, trace)
        res = hier.run_trace(ctx, trace)
        assert res.l1_misses == 0
        assert res.mem_cycles == 0

    def test_empty_trace(self):
        hier, ctx = make_env()
        res = hier.run_trace(ctx, np.empty(0, dtype=np.int64))
        assert res.accesses == 0

    def test_run_compression_equivalent_to_naive(self):
        """Compressed replay must produce identical counters to a
        line-by-line replay (same-line runs are guaranteed hits)."""
        rng = np.random.default_rng(5)
        addrs = rng.integers(0, 64 * 1024, size=2000, dtype=np.int64)
        # Build runs: repeat each address 1-3 times consecutively.
        reps = rng.integers(1, 4, size=2000)
        runs = np.repeat(addrs, reps)
        writes = (np.arange(len(runs)) % 3 == 0).astype(np.int8)

        hier1, ctx1 = make_env()
        res_fast = hier1.run_trace(ctx1, runs, writes)

        # Naive: replay one access at a time (defeats compression).
        hier2, ctx2 = make_env()
        l1_misses = l2_misses = 0
        for i in range(len(runs)):
            r = hier2.run_trace(ctx2, runs[i : i + 1], writes[i : i + 1])
            l1_misses += r.l1_misses
            l2_misses += r.l2_misses
        assert res_fast.l1_misses == l1_misses
        assert res_fast.l2_misses == l2_misses

    def test_writes_mark_dirty_lines(self):
        hier, ctx = make_env()
        trace = seq_trace(32)
        hier.run_trace(ctx, trace, np.ones(32, dtype=np.int8))
        l1 = hier.l1_for(ctx.rep_core)
        assert l1.dirty_lines == 32

    def test_tlb_misses_on_new_pages(self):
        hier, ctx = make_env()
        res = hier.run_trace(ctx, seq_trace(16, stride=4096))
        assert res.tlb_misses == 16


class TestHoming:
    def test_local_homing_round_robins_over_slices(self):
        hier, ctx = make_env(slices=[2, 5])
        hier.run_trace(ctx, seq_trace(4, stride=4096))
        frames = list(ctx.vm.page_table.values())
        homes = sorted(int(hier.home_table[f]) for f in frames)
        assert set(homes) == {2, 5}

    def test_hash_homing_spreads(self):
        hier, ctx = make_env(slices=list(range(8)), homing="hash")
        hier.run_trace(ctx, seq_trace(64, stride=4096))
        frames = list(ctx.vm.page_table.values())
        homes = {int(hier.home_table[f]) for f in frames}
        assert len(homes) > 4

    def test_rehome_moves_and_evicts(self):
        hier, ctx = make_env(slices=[0])
        trace = seq_trace(64)
        hier.run_trace(ctx, trace)
        frames = list(ctx.vm.page_table.values())
        assert all(int(hier.home_table[f]) == 0 for f in frames)
        ctx.slices = [3]
        ctx._rr_next = 0
        evicted = hier.rehome_frames(frames, ctx)
        assert evicted > 0
        assert all(int(hier.home_table[f]) == 3 for f in frames)

    def test_home_table_lists_homed_frames(self):
        hier, ctx = make_env(slices=[4])
        hier.run_trace(ctx, seq_trace(4, stride=4096))
        assert np.count_nonzero(hier.home_table == 4) == 4
        assert not (hier.home_table == 5).any()


class TestHomeTable:
    """The home table uses the narrowest signed dtype for the slice ids."""

    def test_int8_up_to_128_tiles(self):
        assert MemoryHierarchy(SystemConfig.evaluation()).home_table.dtype == np.int8

    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_int16_above_128_tiles(self, engine):
        config = SystemConfig.small(12, 12).with_engine(engine)
        hier, ctx = make_env(config, slices=[143], regions=[0])
        assert hier.home_table.dtype == np.int16
        res = hier.run_trace(ctx, seq_trace(8, stride=4096))
        frames = list(ctx.vm.page_table.values())
        assert [int(hier.home_table[f]) for f in frames] == [143] * 8
        assert hier.l2_slice(143).stats.misses == res.l2_misses == 8

    @pytest.mark.skipif(not native_available(), reason="needs the compiled kernels")
    def test_batched_homes_gathered_as_int32(self):
        hier, ctx = make_env(SystemConfig.evaluation().with_engine("vector"))
        replayer = BatchReplayer(hier, [Segment(ctx, seq_trace(16, stride=1024))])
        assert replayer.ev_homes.dtype == np.int32
        assert hier.home_table.dtype == np.int8


class TestIsolation:
    def test_secure_cannot_touch_foreign_region(self):
        hier, ctx = make_env(regions=[0])
        hier.dram.assign_owner([0], "insecure")
        with pytest.raises(MemoryIsolationViolation):
            hier.run_trace(ctx, seq_trace(8))

    def test_shared_frames_exempt(self):
        hier, ctx = make_env(regions=[0])
        hier.dram.assign_owner([0], "insecure")
        # Pre-map and mark shared (the IPC buffer path).
        frames = ctx.vm.ensure_mapped(np.asarray([0], dtype=np.int64))
        hier.ensure_homed(frames, ctx)
        hier.shared_frames.update(int(f) for f in frames)
        res = hier.run_trace(ctx, seq_trace(8))
        assert res.accesses == 8

    def test_foreign_slice_home_trips_check(self):
        hier, ctx = make_env(slices=[0])
        hier.run_trace(ctx, seq_trace(8))
        frame = next(iter(ctx.vm.page_table.values()))
        hier.home_table[frame] = 7  # planted foreign home
        ctx.slices = [0]
        with pytest.raises(CacheIsolationViolation):
            hier.run_trace(ctx, seq_trace(8))

    def test_enforce_false_skips_checks(self):
        hier, ctx = make_env(regions=[0], enforce=False)
        hier.dram.assign_owner([0], "insecure")
        assert hier.run_trace(ctx, seq_trace(8)).accesses == 8


class TestPurgeSupport:
    def test_purge_private_invalidate_and_report(self):
        hier, ctx = make_env()
        hier.run_trace(ctx, seq_trace(64), np.ones(64, dtype=np.int8))
        report = hier.purge_private([ctx.rep_core])
        assert report["max_valid"] == 64
        assert report["max_dirty"] == 64
        assert hier.l1_for(ctx.rep_core).valid_lines == 0

    def test_post_purge_rerun_misses_again(self):
        hier, ctx = make_env()
        trace = seq_trace(64)
        hier.run_trace(ctx, trace)
        hier.purge_private([ctx.rep_core])
        res = hier.run_trace(ctx, trace)
        assert res.l1_misses == 64
        assert res.l2_misses == 0  # still warm in L2

    def test_clean_l2_counts_dirty(self):
        hier, ctx = make_env(slices=[0])
        hier.run_trace(ctx, seq_trace(64), np.ones(64, dtype=np.int8))
        hier.purge_private([ctx.rep_core])  # dirty propagates conceptually
        assert hier.clean_l2([0]) > 0
        assert hier.clean_l2([0]) == 0


class TestPerformanceModelling:
    def test_replication_reduces_memory_cycles(self):
        """Replica hits cost one hop once a line replicates locally.

        The working set exceeds the L1 but fits the hash-homed L2, so
        every pass after the first L1-misses into warm L2 slices: pass 2
        installs replicas (full home-slice round trips), pass 3 hits
        them at local latency.  Without replication pass 3 keeps paying
        the full distance.
        """
        config = SystemConfig.evaluation()
        results = {}
        for repl in (False, True):
            hier = MemoryHierarchy(config)
            vm = VirtualMemory("p", hier.address_space, [0, 1])
            ctx = ProcessContext(
                "p", "secure", vm, cores=[0], slices=list(range(64)),
                controllers=[0, 1], homing="hash", replication=repl,
            )
            trace = seq_trace(2000, stride=64)
            hier.run_trace(ctx, trace)  # install (L2 cold misses)
            hier.run_trace(ctx, trace)  # L2 re-hits populate replicas
            results[repl] = hier.run_trace(ctx, trace).mem_cycles
        assert results[True] < results[False]

    def test_purge_clears_replica_tracking(self):
        """Purging a process's cores must forget its replicas: the
        purged copies are gone, so the next round of L2 hits pays the
        full home-slice distance again (regression for the stale
        ``_replicated`` set)."""
        config = SystemConfig.evaluation()
        hier = MemoryHierarchy(config)
        vm = VirtualMemory("p", hier.address_space, [0, 1])
        ctx = ProcessContext(
            "p", "secure", vm, cores=[0], slices=list(range(64)),
            controllers=[0, 1], homing="hash", replication=True,
        )
        trace = seq_trace(600, stride=64)
        hier.run_trace(ctx, trace)  # install
        hier.purge_private([0])
        hier.run_trace(ctx, trace)  # L2 hits -> replicas recorded
        assert ctx._replicated
        replica_cost = hier.run_trace(ctx, trace).mem_cycles
        hier.purge_private([0])
        assert ctx._replicated == set()
        post_purge = hier.run_trace(ctx, trace).mem_cycles
        # After the purge the same accesses pay full-distance L2 trips.
        assert post_purge > replica_cost

    def test_rehome_filters_replica_tracking(self):
        """Re-homing a page evicts its lines everywhere, including any
        replicas; only the moved page's lines are forgotten."""
        config = SystemConfig.evaluation()
        hier = MemoryHierarchy(config)
        vm = VirtualMemory("p", hier.address_space, [0, 1])
        ctx = ProcessContext(
            "p", "secure", vm, cores=[0], slices=list(range(8)),
            controllers=[0, 1], homing="hash", replication=True,
        )
        trace = seq_trace(512, stride=64)  # 8 pages, exceeds the L1
        hier.run_trace(ctx, trace)
        hier.run_trace(ctx, trace)  # replicate out of warm L2
        assert ctx._replicated
        frames = sorted(ctx.vm.page_table.values())
        victim, survivor = frames[0], frames[1]
        lpp = hier.config.page_bytes // hier.config.line_bytes
        victim_lines = set(range(victim * lpp, (victim + 1) * lpp))
        survivor_lines = set(range(survivor * lpp, (survivor + 1) * lpp))
        assert ctx._replicated & victim_lines
        kept_before = ctx._replicated & survivor_lines
        ctx.slices = [5]
        ctx._rr_next = 0
        hier.rehome_frames([victim], ctx)
        assert not (ctx._replicated & victim_lines)
        assert ctx._replicated & survivor_lines == kept_before

    def test_numa_mc_reduces_dram_leg(self):
        config = SystemConfig.evaluation()
        results = {}
        for numa in (False, True):
            hier = MemoryHierarchy(config)
            vm = VirtualMemory("p", hier.address_space, list(range(8)))
            ctx = ProcessContext(
                "p", "secure", vm, cores=[0], slices=list(range(64)),
                controllers=list(range(4)), homing="hash", numa_mc=numa,
            )
            trace = seq_trace(4000, stride=64)
            results[numa] = hier.run_trace(ctx, trace).mem_cycles
        assert results[True] < results[False]

    def test_cluster_average_distance_used(self):
        """A compact cluster sees lower L2 latency than a spread one."""
        config = SystemConfig.evaluation()
        costs = {}
        for cores, slices in ((list(range(4)), [0, 1, 2, 3]), (list(range(64)), [0, 1, 2, 3])):
            hier = MemoryHierarchy(config)
            vm = VirtualMemory("p", hier.address_space, [0])
            ctx = ProcessContext(
                "p", "secure", vm, cores=cores, slices=slices, controllers=[0],
            )
            trace = seq_trace(1000, stride=64)
            costs[len(cores)] = hier.run_trace(ctx, trace).mem_cycles
        assert costs[4] < costs[64]

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_counters_never_negative(self, seed):
        hier, ctx = make_env()
        rng = np.random.default_rng(seed)
        trace = rng.integers(0, 1 << 22, size=300, dtype=np.int64)
        res = hier.run_trace(ctx, trace)
        assert res.l1_misses >= 0 and res.l2_misses >= 0
        assert res.mem_cycles >= 0
        assert res.l2_misses <= res.l2_accesses
