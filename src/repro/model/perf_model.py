"""Analytic completion-time model used by the cluster-size search.

The secure kernel cannot run full simulations to pick a core binding; it
uses this closed-form model instead, fed by a short calibration of each
process (§III-B4's "heuristic for cluster reconfiguration").  For a
process allocated ``n_cores`` whose cluster carries ``n_slices`` L2
slices and ``n_mcs`` controllers, the per-interaction time is

    T = (instr_cycles + l2_hit_cycles + misses(n_slices) * dram_penalty)
        * best_factor(n_cores)  +  MC queueing

``misses(n_slices)`` comes from a measured capacity curve: the process's
calibration trace replayed against a scratch hierarchy restricted to
different slice counts, log-interpolated in between.  The replay is the
machines' own (the fused kernel on the vector engine, the scalar oracle
otherwise), so the predictor optimizes the quantity the simulator will
actually report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.arch.address import VirtualMemory
from repro.arch.hierarchy import (
    MemoryHierarchy,
    ProcessContext,
    TraceResult,
    resolve_engine,
)
from repro.config import SystemConfig
from repro.model.speedup import ScalabilityProfile
from repro.sim.trace import Trace


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
    hoarding slices for them.  Returns ``{k: TraceResult}``; every ``k``
    must lie in ``[1, config.n_cores]``.

    Under the scalar engine each probe replays through its own scratch
    hierarchy (the reference oracle, :func:`calibrate_l2_curve_oracle`).
    Under the vector engine (as resolved by
    :func:`~repro.arch.hierarchy.resolve_engine`) every probe shares one
    scratch hierarchy.  Each window is compressed and translated once,
    because the page table never depends on the slice count.  Per probe
    the caches and TLB are invalidated, the windows' frames re-homed
    over ``k`` slices in the oracle's order, and both windows replayed
    as two segments of one fused-kernel call
    (:meth:`~repro.arch.hierarchy.MemoryHierarchy.replay_segments`).
    Both paths are bit-identical per probe — enforced by
    ``tests/test_replay_equivalence.py``.
    """
    for k in slice_counts:
        if not 1 <= k <= config.n_cores:
            raise ValueError(
                f"probe slice count {k} outside [1, {config.n_cores}]"
            )
    if resolve_engine(config) != "vector":
        return calibrate_l2_curve_oracle(
            config, warm_trace, measure_trace, slice_counts
        )

    hier = MemoryHierarchy(config)
    vm = VirtualMemory("probe", hier.address_space, list(range(config.mem.n_regions)))

    def probe_ctx(k: int) -> ProcessContext:
        return ProcessContext(
            "probe",
            "insecure",
            vm,
            cores=[0],
            slices=list(range(k)),
            controllers=list(range(config.mem.n_controllers)),
            homing="local",
            enforce=False,
        )

    # Compression and translation, once per window in the oracle's
    # call order; the homes they assign are replaced per probe.
    ctx = probe_ctx(1)
    events, compressed, window_frames = [], [], []
    for trace in (warm_trace, measure_trace):
        if len(trace):
            *ev, hits = hier._events_array(ctx, trace.addrs, trace.writes)
            window_frames.append(vm.ensure_mapped(np.unique(ev[0])))
        else:
            ev, hits = [np.empty(0, dtype=np.int64)] * 5, 0
        events.append(ev)
        compressed.append(hits)
    vpages, writes, plines, _, mcs = (np.concatenate(col) for col in zip(*events))
    ev_frames = plines >> hier._lp_shift
    seg_ev = np.asarray([0, len(events[0][0]), len(plines)], dtype=np.int64)
    seg_info = np.zeros(4, dtype=np.int64)  # both windows: core 0, group 0
    group_tab = np.asarray(hier.group_row(ctx, -1), dtype=np.int64)
    l1, tlb = hier.l1_for(0), hier.tlb_for(0)

    results = {}
    for k in slice_counts:
        # A flushed cache or TLB replays bit-identically to a fresh one:
        # empty ways fill before any eviction, and only the relative
        # order of the LRU stamps matters.
        for part in (l1, tlb, *hier._l2.values()):
            part.invalidate_all()
        hier.home_table[ev_frames] = -1
        ctx = probe_ctx(k)
        for frames in window_frames:
            hier.ensure_homed(frames, ctx)
        warm, measure = TraceResult(), TraceResult()
        hier.replay_segments(
            seg_ev, seg_info,
            (vpages, writes, plines, hier.home_table[ev_frames], mcs),
            group_tab, [], [warm, measure], compressed,
        )
        measure.accesses = len(measure_trace)
        results[k] = measure
    return results


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
