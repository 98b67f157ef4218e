"""Tests for kernel, enclaves, purge, guard, isolation and reconfig."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.address import VirtualMemory
from repro.arch.hierarchy import MemoryHierarchy, ProcessContext
from repro.arch.mesh import MeshTopology
from repro.config import SystemConfig
from repro.errors import (
    AttestationError,
    ConfigError,
    MemoryIsolationViolation,
    ReproError,
    SpeculativeAccessBlocked,
)
from repro.secure.enclave import EnclaveManager, EnclaveState
from repro.secure.isolation import (
    SpatialClusterPolicy,
    StaticPartitionPolicy,
    UnifiedPolicy,
)
from repro.secure.kernel import SecureKernel
from repro.secure.purge import PurgeModel
from repro.secure.reconfig import ReconfigEngine
from repro.secure.spectre_guard import SpectreGuard


class TestSecureKernel:
    def test_enroll_and_admit(self):
        kernel = SecureKernel()
        kernel.enroll("app", b"code-v1")
        report = kernel.admit("app", b"code-v1")
        assert kernel.verify_report(report)
        assert kernel.admissions == 1

    def test_unknown_process_rejected(self):
        kernel = SecureKernel()
        with pytest.raises(AttestationError):
            kernel.admit("ghost", b"code")

    def test_tampered_image_rejected(self):
        kernel = SecureKernel()
        kernel.enroll("app", b"code-v1")
        with pytest.raises(AttestationError):
            kernel.admit("app", b"code-v1-TAMPERED")
        assert kernel.rejections == 1

    def test_bad_signature_rejected(self):
        kernel = SecureKernel()
        kernel.enroll("app", b"code")
        with pytest.raises(AttestationError):
            kernel.admit("app", b"code", signature=b"\x00" * 32)

    def test_good_signature_accepted(self):
        kernel = SecureKernel()
        report = kernel.enroll("app", b"code")
        assert kernel.admit("app", b"code", signature=report.signature)

    def test_reports_from_other_device_fail(self):
        kernel_a = SecureKernel(b"device-a")
        kernel_b = SecureKernel(b"device-b")
        report = kernel_a.enroll("app", b"code")
        assert not kernel_b.verify_report(report)

    def test_measurement_is_deterministic(self):
        assert SecureKernel.measure(b"x") == SecureKernel.measure(b"x")
        assert SecureKernel.measure(b"x") != SecureKernel.measure(b"y")


class TestEnclaveManager:
    def test_entry_exit_costs(self):
        mgr = EnclaveManager(SystemConfig.evaluation())
        mgr.create("e")
        cost = mgr.enter("e")
        assert cost == 5000  # 5 us at 1 GHz
        assert mgr.exit("e") == 5000
        assert mgr.get("e").crossings == 2

    def test_double_entry_rejected(self):
        mgr = EnclaveManager(SystemConfig.evaluation())
        mgr.create("e")
        mgr.enter("e")
        with pytest.raises(ReproError):
            mgr.enter("e")

    def test_exit_without_entry_rejected(self):
        mgr = EnclaveManager(SystemConfig.evaluation())
        mgr.create("e")
        with pytest.raises(ReproError):
            mgr.exit("e")

    def test_duplicate_create_rejected(self):
        mgr = EnclaveManager(SystemConfig.evaluation())
        mgr.create("e")
        with pytest.raises(ReproError):
            mgr.create("e")


class TestPurgeModel:
    def _warm_hier(self, writes_fraction=1.0):
        config = SystemConfig.evaluation()
        hier = MemoryHierarchy(config)
        vm = VirtualMemory("p", hier.address_space, [0])
        ctx = ProcessContext("p", "secure", vm, cores=[0], slices=[0], controllers=[0])
        n = 256
        addrs = np.arange(n, dtype=np.int64) * 64
        writes = (np.random.default_rng(0).random(n) < writes_fraction).astype(np.int8)
        hier.run_trace(ctx, addrs, writes)
        return config, hier, ctx

    def test_purge_cost_has_fixed_floor(self):
        config, hier, ctx = self._warm_hier(writes_fraction=0.0)
        model = PurgeModel(config)
        report = model.purge(hier, [0], [0], [0])
        assert report.total_cycles >= model.estimate_fixed_cost()

    def test_dirty_footprint_scales_cost(self):
        config, hier, ctx = self._warm_hier(writes_fraction=1.0)
        model = PurgeModel(config)
        small = model.purge(hier, [0], [0], [0], dirty_scale=1.0).total_cycles
        # Re-dirty and purge with a larger scale.
        addrs = np.arange(256, dtype=np.int64) * 64
        hier.run_trace(ctx, addrs, np.ones(256, dtype=np.int8))
        big = model.purge(hier, [0], [0], [0], dirty_scale=50.0).total_cycles
        assert big > small

    def test_purge_leaves_caches_cold_and_clean(self):
        config, hier, ctx = self._warm_hier()
        PurgeModel(config).purge(hier, [0], [0], [0])
        assert hier.l1_for(0).valid_lines == 0
        assert hier.l2_slice(0).dirty_lines == 0

    def test_counters(self):
        config, hier, ctx = self._warm_hier()
        model = PurgeModel(config)
        model.purge(hier, [0], [0], [0])
        model.purge(hier, [0], [0], [0])
        assert model.purge_count == 2
        assert model.total_cycles > 0


class TestSpectreGuard:
    def _guard(self):
        config = SystemConfig.evaluation()
        hier = MemoryHierarchy(config)
        hier.dram.assign_owner([0], "secure")
        hier.dram.assign_owner([1], "insecure")
        hier.dram.assign_owner([2], "shared")
        return SpectreGuard(hier.dram, hier.address_space.frames_per_region), hier

    def test_own_domain_allowed(self):
        guard, hier = self._guard()
        fpr = hier.address_space.frames_per_region
        assert guard.check("insecure", fpr * 1, speculative=True)

    def test_shared_region_allowed(self):
        guard, hier = self._guard()
        fpr = hier.address_space.frames_per_region
        assert guard.check("insecure", fpr * 2, speculative=True)

    def test_speculative_cross_domain_discarded(self):
        guard, hier = self._guard()
        with pytest.raises(SpeculativeAccessBlocked):
            guard.check("insecure", 0, speculative=True)
        assert guard.stats.discarded == 1

    def test_committed_cross_domain_faults(self):
        guard, hier = self._guard()
        with pytest.raises(MemoryIsolationViolation):
            guard.check("insecure", 0, speculative=False)
        assert guard.stats.faulted == 1

    def test_filter_frames_drops_blocked(self):
        guard, hier = self._guard()
        fpr = hier.address_space.frames_per_region
        kept = guard.filter_frames("insecure", [0, fpr, fpr * 2])
        assert kept == [fpr, fpr * 2]


class TestIsolationPolicies:
    def test_unified_shares_everything(self, eval_config):
        hier = MemoryHierarchy(eval_config)
        plan = UnifiedPolicy().plan(eval_config, hier.mesh, hier.dram)
        assert plan.secure_cores == plan.insecure_cores
        assert plan.homing == "hash"
        assert plan.time_shared

    def test_static_partition_halves_slices_and_regions(self, eval_config):
        hier = MemoryHierarchy(eval_config)
        plan = StaticPartitionPolicy().plan(eval_config, hier.mesh, hier.dram)
        assert len(plan.secure_slices) == len(plan.insecure_slices) == 32
        assert not set(plan.secure_slices) & set(plan.insecure_slices)
        assert not set(plan.secure_regions) & set(plan.insecure_regions)
        assert hier.dram.owner_of(plan.shared_region) == "shared"

    def test_spatial_clusters_disjoint(self, eval_config):
        hier = MemoryHierarchy(eval_config)
        plan = SpatialClusterPolicy(20).plan(eval_config, hier.mesh, hier.dram)
        assert not set(plan.secure_cores) & set(plan.insecure_cores)
        assert not set(plan.secure_mcs) & set(plan.insecure_mcs)
        assert not set(plan.secure_regions) & set(plan.insecure_regions)
        assert not plan.time_shared
        assert plan.secure_network is not None

    def test_small_secure_cluster_gets_one_mc(self, eval_config):
        hier = MemoryHierarchy(eval_config)
        plan = SpatialClusterPolicy(2).plan(eval_config, hier.mesh, hier.dram)
        assert plan.secure_mcs == [0]

    def test_large_secure_cluster_gets_both_top_mcs(self, eval_config):
        hier = MemoryHierarchy(eval_config)
        plan = SpatialClusterPolicy(32).plan(eval_config, hier.mesh, hier.dram)
        assert plan.secure_mcs == [0, 1]

    def test_invalid_split_rejected(self, eval_config):
        hier = MemoryHierarchy(eval_config)
        with pytest.raises(ConfigError):
            SpatialClusterPolicy(0).plan(eval_config, hier.mesh, hier.dram)
        with pytest.raises(ConfigError):
            SpatialClusterPolicy(64).plan(eval_config, hier.mesh, hier.dram)

    def test_valid_splits_cover_full_range(self, eval_config):
        mesh = MeshTopology(8, 8, 4)
        splits = SpatialClusterPolicy.valid_splits(eval_config, mesh)
        assert splits == list(range(1, 64))

    def test_mc_counts(self, eval_config):
        mesh = MeshTopology(8, 8, 4)
        assert SpatialClusterPolicy.mc_counts(mesh, 64, 2) == (1, 2)
        assert SpatialClusterPolicy.mc_counts(mesh, 64, 32) == (2, 2)
        assert SpatialClusterPolicy.mc_counts(mesh, 64, 60) == (2, 1)


class TestReconfig:
    def _setup(self):
        config = SystemConfig.evaluation()
        hier = MemoryHierarchy(config)
        plan = SpatialClusterPolicy(32).plan(config, hier.mesh, hier.dram)
        vm = VirtualMemory("sec", hier.address_space, plan.secure_regions)
        ctx = ProcessContext(
            "sec", "secure", vm, cores=list(plan.secure_cores),
            slices=list(plan.secure_slices), controllers=list(plan.secure_mcs),
        )
        # Touch 40 pages homed round-robin over slices 0..31.
        addrs = np.arange(40, dtype=np.int64) * config.page_bytes
        hier.run_trace(ctx, addrs)
        return config, hier, ctx

    def test_shrinking_cluster_rehomes_pages(self):
        config, hier, ctx = self._setup()
        new_plan = SpatialClusterPolicy(8).plan(config, hier.mesh, hier.dram)
        ctx.cores = list(new_plan.secure_cores)
        ctx.slices = list(new_plan.secure_slices)
        ctx.controllers = list(new_plan.secure_mcs)
        ctx.vm.set_regions(new_plan.secure_regions)
        engine = ReconfigEngine(config)
        report = engine.reconfigure(hier, [ctx], range(8, 32))
        assert report.pages_rehomed > 0
        frames = list(ctx.vm.page_table.values())
        assert all(int(hier.home_table[f]) in set(ctx.slices) for f in frames)

    def test_once_per_invocation_bound(self):
        config, hier, ctx = self._setup()
        engine = ReconfigEngine(config, max_events=1)
        engine.reconfigure(hier, [ctx], [])
        with pytest.raises(ReproError):
            engine.reconfigure(hier, [ctx], [])

    def test_cost_scales_with_page_scale(self):
        config, hier, ctx = self._setup()
        new_plan = SpatialClusterPolicy(8).plan(config, hier.mesh, hier.dram)
        ctx.cores = list(new_plan.secure_cores)
        ctx.slices = list(new_plan.secure_slices)
        ctx.vm.set_regions(new_plan.secure_regions)
        r1 = ReconfigEngine(config).reconfigure(hier, [ctx], [9], page_scale=1.0)
        # Rebuild an identical scenario with a bigger scale.
        config2, hier2, ctx2 = self._setup()
        new_plan2 = SpatialClusterPolicy(8).plan(config2, hier2.mesh, hier2.dram)
        ctx2.cores = list(new_plan2.secure_cores)
        ctx2.slices = list(new_plan2.secure_slices)
        ctx2.vm.set_regions(new_plan2.secure_regions)
        r2 = ReconfigEngine(config2).reconfigure(hier2, [ctx2], [9], page_scale=10.0)
        assert r2.rehome_cycles > r1.rehome_cycles

    def test_stall_cost_always_charged(self):
        config, hier, ctx = self._setup()
        report = ReconfigEngine(config).reconfigure(hier, [ctx], [])
        assert report.stall_cycles == 50_000

    def test_reconfigure_invalidates_lost_replicas(self):
        """A replicating context that *loses* its cores in the event
        must not keep stale one-hop replica entries: its replica
        copies lived in slices the event handed to the other domain,
        but the contexts passed to the engine already carry their new
        bindings, so the core purge never intersects them (regression
        for ``reconfigure`` skipping replica invalidation)."""
        config = SystemConfig.evaluation()
        hier = MemoryHierarchy(config)
        vm = VirtualMemory("p", hier.address_space, [0, 1])
        ctx = ProcessContext(
            "p", "secure", vm, cores=[0], slices=list(range(8)),
            controllers=[0, 1], homing="hash", replication=True,
        )
        trace = np.arange(600, dtype=np.int64) * 64
        hier.run_trace(ctx, trace)  # install (L2 cold misses)
        hier.run_trace(ctx, trace)  # L2 re-hits record replicas
        assert ctx._replicated
        # New bindings are already in place: the context lost core 0
        # (its slices are untouched, so nothing is re-homed and only
        # the replica bookkeeping is at stake).
        ctx.cores = [4]
        ctx.rep_core = 4
        report = ReconfigEngine(config).reconfigure(hier, [ctx], [0])
        assert report.cores_reallocated == 1
        assert ctx._replicated == set()
