"""Analytic completion-time model used by the cluster-size search.

The secure kernel cannot run full simulations to pick a core binding; it
uses this closed-form model instead, fed by a short calibration of each
process (§III-B4's "heuristic for cluster reconfiguration").  For a
process allocated ``n_cores`` whose cluster carries ``n_slices`` L2
slices and ``n_mcs`` controllers, the per-interaction time is

    T = (instr_cycles + l2_hit_cycles + misses(n_slices) * dram_penalty)
        * best_factor(n_cores)  +  MC queueing

``misses(n_slices)`` comes from a measured capacity curve: the process's
calibration trace replayed against scratch hierarchies with different
slice counts, log-interpolated in between.  The same expressions drive
the machine timing model, so the predictor optimizes the quantity the
simulator will actually report.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.arch.address import VirtualMemory
from repro.arch.hierarchy import (
    MemoryHierarchy,
    ProcessContext,
    TraceResult,
    resolve_engine,
)
from repro.arch.native import NativeCache, multi_slice_flags_wb
from repro.config import SystemConfig
from repro.model.speedup import ScalabilityProfile
from repro.sim.trace import Trace


#: Scratch L2 pools for :func:`calibrate_l2_curve_batched`, keyed by
#: L2 geometry; bounded LRU (pools hold full slice states, so config
#: sweeps must not accumulate one pool per geometry forever).
#: :func:`clear_probe_pools` drops them all — wired into
#: ``runner.clear_result_cache`` alongside the result-store layers.
_PROBE_POOL_GEOMETRIES = 4
_PROBE_L2_POOLS: "OrderedDict" = OrderedDict()


def clear_probe_pools() -> None:
    """Drop every pooled calibration scratch cache (tests, sweeps)."""
    # Explicit invalidation of a per-process scratch pool (see below).
    _PROBE_L2_POOLS.clear()  # repro: allow[mp.global-write]


def calibrate_l2_curve(
    config: SystemConfig,
    warm_trace: Trace,
    measure_trace: Trace,
    slice_counts: Sequence[int],
):
    """Probe steady-state L2 behaviour at several slice allocations.

    Each probe warms a scratch hierarchy (restricted to ``k`` slices)
    with one window of interactions and measures a *different* window.
    Measuring fresh interactions is essential: replaying the identical
    trace would make single-pass workloads (triangle counting, streaming
    servers) look fully cache-reusable and mislead the predictor into
    hoarding slices for them.  Returns ``{k: TraceResult}``.

    Under the scalar engine each probe replays through its own scratch
    hierarchy (the reference oracle, :func:`calibrate_l2_curve_oracle`).
    Under the vector engine (as resolved by
    :func:`~repro.arch.hierarchy.resolve_engine`) the whole curve is
    planned once: the translation, TLB and private-L1 behaviour of the
    probe traces is independent of the slice count, so one shared pass
    computes the L1 miss stream and every probe point replays only its
    own L2 state (:func:`calibrate_l2_curve_batched`).  Both paths are
    bit-identical per probe — enforced by
    ``tests/test_replay_equivalence.py``.
    """
    if resolve_engine(config) == "vector":
        return calibrate_l2_curve_batched(
            config, warm_trace, measure_trace, slice_counts
        )
    return calibrate_l2_curve_oracle(config, warm_trace, measure_trace, slice_counts)


def calibrate_l2_curve_oracle(
    config: SystemConfig,
    warm_trace: Trace,
    measure_trace: Trace,
    slice_counts: Sequence[int],
):
    """Reference implementation: one fresh scratch replay per probe."""
    results = {}
    for k in slice_counts:
        hier = MemoryHierarchy(config)
        vm = VirtualMemory("probe", hier.address_space, list(range(config.mem.n_regions)))
        ctx = ProcessContext(
            "probe",
            "insecure",
            vm,
            cores=[0],
            slices=list(range(k)),
            controllers=list(range(config.mem.n_controllers)),
            homing="local",
            enforce=False,
        )
        hier.run_trace(ctx, warm_trace.addrs, warm_trace.writes)
        results[k] = hier.run_trace(ctx, measure_trace.addrs, measure_trace.writes)
    return results


def calibrate_l2_curve_batched(
    config: SystemConfig,
    warm_trace: Trace,
    measure_trace: Trace,
    slice_counts: Sequence[int],
):
    """Plan the probe curve once; replay only the L2 per probe point.

    Exactly reproduces, probe for probe, what
    :func:`calibrate_l2_curve_oracle` computes: a probe's fresh
    hierarchy and page table see the same call sequence — warm window
    then measure window — so frame allocation, run-length compression,
    TLB behaviour and the private-L1 miss stream are *identical across
    probes* (they never depend on the L2 slice count).  Only the
    home assignment (round-robin over ``k`` slices, in first-touch
    order) and the per-slice L2 replay differ, so those are the only
    parts executed per probe.  Requires the vector replay engine.
    """
    hier = MemoryHierarchy(config)
    if hier.engine != "vector":
        raise ValueError("batched calibration requires the vector replay engine")
    cfg = config
    vm = VirtualMemory("probe", hier.address_space, list(range(cfg.mem.n_regions)))
    tlb = hier.tlb_for(0)
    l1 = hier.l1_for(0)

    # Shared pass: per window (warm, then measure) — run-length
    # compression, translation and the L1/TLB replay, mirroring one
    # ``run_trace`` call each.
    segs = []
    for trace in (warm_trace, measure_trace):
        addrs = trace.addrs
        n = len(addrs)
        seg = {"n": n}
        segs.append(seg)
        if n == 0:
            # run_trace returns an empty result without touching
            # translation or cache state; mirror that.
            continue
        writes = trace.writes
        if writes is None:
            writes = np.zeros(n, dtype=np.int8)
        else:
            writes = writes.astype(np.int8, copy=False)
        vlines = addrs >> hier._line_shift
        change = np.empty(n, dtype=bool)
        change[0] = True
        np.not_equal(vlines[1:], vlines[:-1], out=change[1:])
        idx = np.flatnonzero(change)
        ev_vlines = vlines[idx]
        ev_writes = np.maximum.reduceat(writes, idx)
        ev_vpages = ev_vlines >> hier._lp_shift
        uniq_pages, inverse = np.unique(ev_vpages, return_inverse=True)
        frames_uniq = vm.ensure_mapped(uniq_pages)
        ev_frames = frames_uniq[inverse]
        ev_plines = ev_frames * hier._lines_per_page + (ev_vlines & hier._lp_mask)

        pchange = np.empty(len(ev_vpages), dtype=bool)
        pchange[0] = True
        np.not_equal(ev_vpages[1:], ev_vpages[:-1], out=pchange[1:])
        seg["tlb_misses"] = int(tlb.access_batch(ev_vpages[pchange]))

        snap = l1.stats.snapshot()
        miss_pos = np.asarray(
            l1.kernel_filter_misses(ev_plines, ev_writes), dtype=np.intp
        )
        seg["events"] = len(ev_plines)
        seg["compressed"] = n - len(ev_plines)
        seg["l1_misses"] = len(miss_pos)
        seg["l1_writebacks"] = l1.stats.delta(snap).writebacks
        seg["frames_uniq"] = frames_uniq
        seg["miss_lines"] = ev_plines[miss_pos]
        seg["miss_writes"] = ev_writes[miss_pos]
        seg["miss_frames"] = ev_frames[miss_pos]
        seg["miss_mcs"] = hier._mc_of_region[
            seg["miss_frames"] // hier._frames_per_region
        ]

    # Home-assignment order: ensure_homed assigns round-robin in each
    # window's sorted-unique-page order, new frames only — identical
    # for every probe up to the slice count it wraps over.
    seen: set = set()
    alloc_order: List[int] = []
    for seg in segs:
        for f in seg.get("frames_uniq", np.empty(0, dtype=np.int64)).tolist():
            if f not in seen:
                seen.add(f)
                alloc_order.append(f)
    # Frame -> allocation rank via a sorted-side lookup (the frame
    # space is huge; a dense table would cost more than the probes).
    alloc_arr = np.asarray(alloc_order, dtype=np.int64)
    sort_idx = np.argsort(alloc_arr)
    sorted_frames = alloc_arr[sort_idx]
    for seg in segs:
        if "miss_frames" in seg:
            pos = np.searchsorted(sorted_frames, seg["miss_frames"])
            seg["miss_rank"] = sort_idx[pos]

    hop2 = 2 * (cfg.noc.hop_latency + cfg.noc.router_latency)
    l2_lat = cfg.l2_slice.hit_latency
    dram_lat = cfg.mem.dram_latency + cfg.mem.mc_service_latency
    walk = cfg.tlb.miss_walk_latency
    d_core = np.asarray(hier._avg_core_distances((0,)))
    mc_dist = hier.mesh.mc_distances

    results = {}
    # Probes reuse one pool of scratch L2 slices, flush-invalidated
    # between probe points: a flushed cache replays bit-identically to
    # a fresh one (empty ways fill before any eviction, and only the
    # relative order of the LRU stamps matters), and per-probe counters
    # come from per-window deltas, so the pool never leaks state or
    # counts across probes while saving one cache construction per
    # slice per probe point.  The pool is shared across curves of the
    # same L2 geometry (module-level, keyed below) — every curve starts
    # by invalidating whatever the previous one left.  Each window
    # issues one multi-slice kernel call over its home-sorted miss
    # stream.
    pool_key = (
        cfg.l2_slice.size_bytes,
        cfg.l2_slice.associativity,
        cfg.l2_slice.line_bytes,
    )
    # Per-process scratch pool: caches are reset before every probe, so
    # any process (parent or pool worker) computes identical curves
    # whether its pool is warm or cold.
    if pool_key in _PROBE_L2_POOLS:
        _PROBE_L2_POOLS.move_to_end(pool_key)  # repro: allow[mp.global-write]
    l2_caches = _PROBE_L2_POOLS.setdefault(pool_key, {})
    while len(_PROBE_L2_POOLS) > _PROBE_POOL_GEOMETRIES:
        _PROBE_L2_POOLS.popitem(last=False)
    for k in slice_counts:
        for cache in l2_caches.values():
            if cache.valid_lines:
                cache.invalidate_all()
        l2_wb_measure = 0
        hitmask = None
        homes_m = mcs_m = None
        for si, seg in enumerate(segs):
            if "miss_lines" not in seg or not len(seg["miss_lines"]):
                continue
            homes = (seg["miss_rank"] % k).astype(np.int32)
            lines = seg["miss_lines"]
            writes = seg["miss_writes"]
            n_miss = len(lines)
            horder = np.argsort(homes, kind="stable")
            hs = homes[horder]
            bnd = np.empty(n_miss, dtype=bool)
            bnd[0] = True
            np.not_equal(hs[1:], hs[:-1], out=bnd[1:])
            bounds = np.flatnonzero(bnd).tolist()
            bounds.append(n_miss)
            caches = []
            for a in bounds[:-1]:
                home = int(hs[a])
                cache = l2_caches.get(home)
                if cache is None:
                    cache = l2_caches[home] = NativeCache(
                        cfg.l2_slice, f"L2[{home}]"
                    )
                caches.append(cache)
            hit_sorted, stats4 = multi_slice_flags_wb(
                caches, bounds, lines[horder], writes[horder]
            )
            if si == 1:
                # Per-part writebacks of the measure window sum to
                # exactly what run_trace's per-slice stats deltas would
                # report.
                l2_wb_measure = int(stats4[1::4].sum())
                l2_hit = np.empty(n_miss, dtype=np.int8)
                l2_hit[horder] = hit_sorted
                hitmask = l2_hit.astype(bool)
                homes_m = homes
                mcs_m = seg["miss_mcs"]

        meas = segs[1]
        result = TraceResult()
        result.accesses = meas["n"]
        if meas["n"] == 0:
            results[k] = result
            continue
        result.l1_misses = meas["l1_misses"]
        result.l1_hits = meas["compressed"] + meas["events"] - meas["l1_misses"]
        result.tlb_misses = meas["tlb_misses"]
        result.l1_writebacks = meas["l1_writebacks"]
        mem_cycles = float(walk * meas["tlb_misses"])
        mc_requests: Dict[int, int] = {}
        if hitmask is not None:
            base_cost = hop2 * d_core[homes_m] + l2_lat
            result.l2_hits = int(hitmask.sum())
            result.l2_misses = len(hitmask) - result.l2_hits
            mem_cycles += base_cost[hitmask].sum()
            if result.l2_misses:
                missmask = ~hitmask
                mm_mcs = mcs_m[missmask]
                miss_cost = (
                    base_cost[missmask]
                    + hop2 * mc_dist[homes_m[missmask], mm_mcs]
                    + dram_lat
                )
                mem_cycles += miss_cost.sum()
                mc_vals, mc_counts = np.unique(mm_mcs, return_counts=True)
                mc_requests = {
                    int(mc): int(cnt) for mc, cnt in zip(mc_vals, mc_counts)
                }
        result.mem_cycles = int(mem_cycles)
        result.mc_requests = mc_requests
        result.l2_writebacks = l2_wb_measure
        results[k] = result
    return results


def calibration_from_probes(
    config: SystemConfig,
    name: str,
    trace: Trace,
    probes,
    scalability: ScalabilityProfile,
    interactions: int,
    appetite_bytes: int = 0,
    capacity_beta: float = 0.0,
) -> "ProcessCalibration":
    """Build a :class:`ProcessCalibration` from slice-capacity probes.

    ``probes`` is the output of :func:`calibrate_l2_curve`; ``trace``
    covers ``interactions`` interactions, so counters are normalized to
    per-interaction values.
    """
    k_max = max(probes)
    res = probes[k_max]
    avg_hops = (config.mesh_rows + config.mesh_cols) // 2
    hop = config.noc.hop_latency + config.noc.router_latency
    dram_penalty = config.mem.dram_latency + config.mem.mc_service_latency + 2 * avg_hops * hop
    denom = max(1, interactions)
    l2_hit_cycles = max(0.0, res.mem_cycles - res.l2_misses * dram_penalty) / denom
    return ProcessCalibration(
        name=name,
        instr_cycles=trace.instructions * config.core.base_cpi / denom,
        l1_misses=res.l1_misses / denom,
        l2_hit_cycles=l2_hit_cycles,
        dram_penalty=dram_penalty,
        l2_curve={k: r.l2_misses / denom for k, r in probes.items()},
        scalability=scalability,
        slice_bytes=config.l2_slice.size_bytes,
        probe_footprint_bytes=trace.footprint_bytes(config.line_bytes),
        appetite_bytes=appetite_bytes,
        capacity_beta=capacity_beta,
    )


@dataclass
class ProcessCalibration:
    """Per-interaction characteristics of one process."""

    name: str
    instr_cycles: float
    l1_misses: float
    l2_hit_cycles: float
    dram_penalty: float
    l2_curve: Dict[int, float]
    scalability: ScalabilityProfile
    slice_bytes: int = 64 * 1024
    probe_footprint_bytes: int = 0
    appetite_bytes: int = 0
    capacity_beta: float = 0.0

    def _interpolate_curve(self, n_slices: int) -> float:
        pts = sorted(self.l2_curve.items())
        if not pts:
            return 0.0
        if n_slices <= pts[0][0]:
            return pts[0][1]
        if n_slices >= pts[-1][0]:
            return pts[-1][1]
        for (k0, m0), (k1, m1) in zip(pts, pts[1:]):
            if k0 <= n_slices <= k1:
                if k0 == k1:
                    return m0
                w = (math.log(n_slices) - math.log(k0)) / (math.log(k1) - math.log(k0))
                return m0 + w * (m1 - m0)
        return pts[-1][1]

    def l2_misses_at(self, n_slices: int) -> float:
        """Measured curve, extended by the declared cache appetite.

        Below the calibration footprint the measured probe curve is
        interpolated (log-linear in slice count).  Beyond it, the short
        calibration cannot observe steady-state residency, so misses
        decay linearly in capacity toward ``(1 - beta)`` of the
        saturated level as the allocation approaches the process's
        declared appetite.
        """
        measured = self._interpolate_curve(n_slices)
        cap = n_slices * self.slice_bytes
        sat = max(self.probe_footprint_bytes, self.slice_bytes)
        appetite = max(self.appetite_bytes, sat)
        if cap <= sat or appetite <= sat or self.capacity_beta <= 0.0:
            return measured
        frac = min(1.0, (cap - sat) / (appetite - sat))
        return measured * (1.0 - self.capacity_beta * frac)


class PerfModel:
    """Closed-form per-interaction time estimates."""

    def __init__(self, config: SystemConfig):
        self.config = config

    def process_time(
        self,
        calib: ProcessCalibration,
        n_cores: int,
        n_slices: int,
        n_mcs: int,
    ) -> float:
        """Estimated per-interaction cycles for one process."""
        if n_cores < 1 or n_slices < 1 or n_mcs < 1:
            return math.inf
        misses = calib.l2_misses_at(n_slices)
        base = calib.instr_cycles + calib.l2_hit_cycles + misses * calib.dram_penalty
        _, factor = calib.scalability.best_factor(n_cores)
        t = base * factor
        # MC queueing (M/D/1): misses spread over t across n_mcs controllers.
        service = self.config.mem.mc_service_latency
        if t > 0 and misses > 0:
            u = min(0.95, misses * service / (t * n_mcs))
            wait = service * u / (2.0 * (1.0 - u))
            t += wait * misses / max(1, n_mcs)
        return t

    def app_completion(
        self,
        secure: ProcessCalibration,
        insecure: ProcessCalibration,
        n_secure_cores: int,
        n_secure_slices: int,
        n_secure_mcs: int,
        n_insecure_cores: int,
        n_insecure_slices: int,
        n_insecure_mcs: int,
    ) -> float:
        """Per-interaction ping-pong latency for the interactive pair."""
        t_sec = self.process_time(secure, n_secure_cores, n_secure_slices, n_secure_mcs)
        t_ins = self.process_time(insecure, n_insecure_cores, n_insecure_slices, n_insecure_mcs)
        return t_sec + t_ins
