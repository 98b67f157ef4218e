"""Interaction-batched trace replay over a schedule of segments.

The per-call replay path (:meth:`MemoryHierarchy.run_trace`) pays fixed
Python overhead per invocation: argument conversion, run-length
compression, ``np.unique`` translation, homing and entitlement checks.
Figure runs issue six such calls per interaction (two workload traces
and four IPC transfers), so for the short interactive traces the paper
evaluates, per-call overhead dominates end-to-end wall time.

:class:`BatchReplayer` removes that overhead by planning a whole run at
once.  A *schedule* is an ordered list of :class:`Segment`\\ s — each one
the exact address stream a per-call replay would have been handed, with
the context it would have run under.  The plan phase performs, once and
vectorized over the entire schedule:

* run-length compression (reset at segment starts, so the event list is
  exactly the concatenation of the per-call event lists);
* page translation, reproducing the per-call allocation order — for
  every virtual page the allocation priority is ``(segment of first
  touch, page number)``, which is precisely the order the per-call
  loop's sorted-unique translation would have allocated frames in, even
  when several page tables share DRAM region pools;
* L2 homing (round-robin cursors advanced in the same first-touch
  order) and entitlement checks.

Execution happens in *epochs* — contiguous segment ranges with no
intervening purge/flush.  Within an epoch the private L1 and TLB of
each representative core service one batch kernel call, and one
multi-slice kernel call services every L2 slice's part of the merged
(cross-context, trace-ordered, home-sorted) miss stream, using kernel
variants that report per-event writeback and miss flags so every
counter can be attributed back to its segment.
Purge events (MI6's per-crossing flushes) act as epoch barriers: the
machine replays up to the barrier, applies the purge against the live
cache state, and continues.  Epochs are chosen maximal — exactly one
per purge crossing — since splitting never changes per-segment
results; everything an epoch would otherwise rebuild (latency
constants, distance tables, replica groupings) is hoisted into the
plan.

The result is bit-identical to calling :meth:`run_trace` once per
segment in schedule order: identical :class:`TraceResult` counters
(all cycle terms are dyadic rationals, so summation order cannot change
``mem_cycles``), identical cache/TLB contents and stats, and identical
replica bookkeeping.  ``tests/test_replay_equivalence.py`` enforces
this both at the ``run_trace_batched`` level and over full machine
runs.

Contexts are grouped by replay-relevant key (page table, representative
core, core/slice sets, homing policy, replication set, NUMA flag), so
the fresh per-transfer view objects the IPC buffer creates all land in
one group.  Segments sharing a group share one round-robin homing
cursor; this matches the per-call path whenever the group's frames are
already homed (always true for the pre-homed IPC buffer).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.hierarchy import MemoryHierarchy, ProcessContext, TraceResult
from repro.arch.native import multi_slice_flags_wb


@dataclass
class Segment:
    """One per-call replay unit: a context and its address stream."""

    ctx: ProcessContext
    addrs: np.ndarray
    writes: Optional[np.ndarray] = None


def _group_key(ctx: ProcessContext) -> Tuple:
    """Replay-relevant identity of a context (see module docstring)."""
    return (
        id(ctx.vm),
        ctx.rep_core,
        tuple(ctx.cores),
        tuple(ctx.slices),
        ctx.homing,
        ctx.enforce,
        ctx.domain,
        ctx.replication,
        id(ctx._replicated) if ctx._replicated is not None else None,
        ctx.numa_mc,
    )


class BatchReplayer:
    """Plans a segment schedule once, then replays it epoch by epoch."""

    def __init__(self, hier: MemoryHierarchy, segments: Sequence[Segment]):
        if hier.engine != "vector":
            raise ValueError("BatchReplayer requires the vector replay engine")
        self.hier = hier
        self.segments = list(segments)
        self._plan()

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _plan(self) -> None:
        """Plan the whole schedule once (see the class docstring).

        Computes, vectorized over all segments: run-length-compressed
        events, allocation-order-exact translation, homing/entitlement
        per context group, per-event distance legs, and the per-epoch
        fixed state (latency constants, group distance tables, replica
        groupings, per-core event positions) that
        :meth:`run_epoch` would otherwise rebuild on every call.
        """
        hier = self.hier
        segs = self.segments
        n_seg = len(segs)
        self.n_seg = n_seg

        lens = np.fromiter((len(s.addrs) for s in segs), dtype=np.int64, count=n_seg)
        self.seg_lens = lens
        acc_off = np.zeros(n_seg + 1, dtype=np.int64)
        np.cumsum(lens, out=acc_off[1:])
        total = int(acc_off[-1])

        # Context groups (order of first appearance).
        group_index: Dict[Tuple, int] = {}
        self.group_ctx: List[ProcessContext] = []
        seg_group = np.empty(n_seg, dtype=np.int64)
        for k, seg in enumerate(segs):
            key = _group_key(seg.ctx)
            gi = group_index.get(key)
            if gi is None:
                gi = len(self.group_ctx)
                group_index[key] = gi
                self.group_ctx.append(seg.ctx)
                if seg.ctx.replication:
                    hier._replica_refs[id(seg.ctx)] = weakref.ref(seg.ctx)
            seg_group[k] = gi
        self.seg_group = seg_group
        self._seg_core_list = [s.ctx.rep_core for s in segs]
        self.seg_core = np.asarray(self._seg_core_list, dtype=np.int64)

        # Per-epoch fixed state, hoisted: latency constants, per-group
        # cluster-average distance tables, the NUMA nearest-controller
        # table and the replica-set grouping are identical for every
        # epoch of the schedule, so they are computed once here instead
        # of on every run_epoch call (MI6 runs two epochs per
        # interaction — the per-epoch setup is its main fixed cost).
        cfg = hier.config
        self._hop2 = 2 * (cfg.noc.hop_latency + cfg.noc.router_latency)
        self._l2_lat = cfg.l2_slice.hit_latency
        self._dram_lat = cfg.mem.dram_latency + cfg.mem.mc_service_latency
        self._walk = cfg.tlb.miss_walk_latency
        self._n_mc = cfg.mem.n_controllers
        self._group_dcore = [
            np.asarray(hier._avg_core_distances(tuple(ctx.cores)))
            for ctx in self.group_ctx
        ]
        self._mc_min = (
            hier.mesh.mc_distances.min(axis=1)
            if any(ctx.numa_mc for ctx in self.group_ctx)
            else None
        )
        rep_sets: Dict[int, Tuple[set, List[int]]] = {}
        for gi, ctx in enumerate(self.group_ctx):
            if ctx.replication and ctx._replicated is not None:
                entry = rep_sets.setdefault(
                    id(ctx._replicated), (ctx._replicated, [])
                )
                entry[1].append(gi)
        self._rep_sets = [
            (replicated, np.asarray(gis, dtype=np.int64))
            for replicated, gis in rep_sets.values()
        ]

        if total == 0:
            self.ev_seg = np.empty(0, dtype=np.int64)
            self.seg_ev_start = np.zeros(n_seg + 1, dtype=np.int64)
            self.compressed = np.zeros(n_seg, dtype=np.int64)
            return

        all_addrs = np.concatenate([np.ascontiguousarray(s.addrs, dtype=np.int64)
                                    for s in segs if len(s.addrs)])
        all_writes = np.concatenate([
            s.writes.astype(np.int8, copy=False)
            if s.writes is not None else np.zeros(len(s.addrs), dtype=np.int8)
            for s in segs if len(s.addrs)
        ])
        vlines = all_addrs >> hier._line_shift

        # Run-length compression, reset at segment starts so the global
        # event list is the exact concatenation of the per-call lists.
        change = np.empty(total, dtype=bool)
        change[0] = True
        np.not_equal(vlines[1:], vlines[:-1], out=change[1:])
        starts = acc_off[:-1][lens > 0]
        change[starts] = True
        ev_idx = np.flatnonzero(change)
        n_ev = len(ev_idx)

        ev_seg = np.searchsorted(acc_off, ev_idx, side="right") - 1
        self.ev_seg = ev_seg
        self.seg_ev_start = np.searchsorted(ev_seg, np.arange(n_seg + 1))
        ev_per_seg = self.seg_ev_start[1:] - self.seg_ev_start[:-1]
        self.compressed = lens - ev_per_seg

        ev_vlines = vlines[ev_idx]
        self.ev_writes = np.maximum.reduceat(all_writes, ev_idx)
        ev_vpages = ev_vlines >> hier._lp_shift
        self.ev_vpages = ev_vpages

        # Page-change events (reset at segment starts, like per-call).
        pchange = np.empty(n_ev, dtype=bool)
        pchange[0] = True
        np.not_equal(ev_vpages[1:], ev_vpages[:-1], out=pchange[1:])
        seg_first = self.seg_ev_start[:-1][ev_per_seg > 0]
        pchange[seg_first] = True
        self.pchange = pchange

        # Translation: reproduce the per-call allocation order globally.
        vm_index: Dict[int, int] = {}
        vms = []
        seg_vm = np.empty(n_seg, dtype=np.int64)
        for k, seg in enumerate(segs):
            vmid = id(seg.ctx.vm)
            vi = vm_index.get(vmid)
            if vi is None:
                vi = len(vms)
                vm_index[vmid] = vi
                vms.append(seg.ctx.vm)
            seg_vm[k] = vi
        ev_vm = seg_vm[ev_seg]

        alloc_pages = []
        alloc_first_seg = []
        alloc_vm = []
        per_vm = []  # (vm_idx, evpos, uniq_pages, first_pos, inverse)
        for vi, vm in enumerate(vms):
            evpos = np.flatnonzero(ev_vm == vi)
            if not len(evpos):
                continue
            pages = ev_vpages[evpos]
            uniq, first_pos, inverse = np.unique(
                pages, return_index=True, return_inverse=True
            )
            per_vm.append((vi, evpos, uniq, first_pos, inverse))
            alloc_pages.append(uniq)
            alloc_first_seg.append(ev_seg[evpos[first_pos]])
            alloc_vm.append(np.full(len(uniq), vi, dtype=np.int64))
        ev_frames = np.empty(n_ev, dtype=np.int64)
        if alloc_pages:
            ap = np.concatenate(alloc_pages)
            af = np.concatenate(alloc_first_seg)
            av = np.concatenate(alloc_vm)
            order = np.lexsort((ap, af))
            ap, af, av = ap[order], af[order], av[order]
            # One ensure_mapped call per first-touch segment: the frame
            # allocator round-robins regions *within* one call, so the
            # per-call path's batching (each call allocates exactly its
            # own new pages, sorted) must be reproduced call for call.
            run_start = 0
            for j in range(1, len(ap) + 1):
                if j == len(ap) or af[j] != af[run_start]:
                    vms[int(av[run_start])].ensure_mapped(ap[run_start:j])
                    run_start = j
            for vi, evpos, uniq, first_pos, inverse in per_vm:
                pt = vms[vi].page_table
                frames_uniq = np.fromiter(
                    (pt[int(p)] for p in uniq), dtype=np.int64, count=len(uniq)
                )
                ev_frames[evpos] = frames_uniq[inverse]
        self.ev_frames = ev_frames

        # Homing and entitlement per context group, in first-touch order.
        # A VM used by exactly one group has identical event/unique-page
        # sets for both passes, so the translation pass's np.unique is
        # reused instead of recomputed (the two process contexts — the
        # largest event streams — always qualify).
        ev_grp = seg_group[ev_seg]
        self.ev_grp = ev_grp
        vm_group_count: Dict[int, int] = {}
        for ctx in self.group_ctx:
            vi = vm_index[id(ctx.vm)]
            vm_group_count[vi] = vm_group_count.get(vi, 0) + 1
        vm_uniques = {vi: (evpos, uniq, first_pos)
                      for vi, evpos, uniq, first_pos, _ in per_vm}
        for gi, ctx in enumerate(self.group_ctx):
            vi = vm_index[id(ctx.vm)]
            if vm_group_count[vi] == 1:
                if vi not in vm_uniques:
                    continue
                evpos, uniq, first_pos = vm_uniques[vi]
            else:
                evpos = np.flatnonzero(ev_grp == gi)
                if not len(evpos):
                    continue
                pages = ev_vpages[evpos]
                uniq, first_pos = np.unique(pages, return_index=True)
            first_seg_g = ev_seg[evpos[first_pos]]
            order = np.lexsort((uniq, first_seg_g))
            frames_first = ev_frames[evpos[first_pos]][order]
            hier.ensure_homed(frames_first, ctx)
            if ctx.enforce:
                hier._check_entitlement(frames_first, ctx)

        self.ev_plines = ev_frames * hier._lines_per_page + (
            ev_vlines & hier._lp_mask
        )
        self.ev_homes = hier.home_table[ev_frames]
        self.ev_mcs = hier._mc_of_region[ev_frames // hier._frames_per_region]

        # Per-event distance legs, resolved once for the whole schedule
        # (they depend only on the event's context group, home slice and
        # controller — all fixed at plan time), so run_epoch never loops
        # over groups: the L2 request leg uses the group's
        # cluster-average core distance, the DRAM leg the NUMA-nearest
        # or home-bound controller distance.
        self.ev_dcore = np.empty(n_ev, dtype=np.float64)
        self.ev_dmc = np.empty(n_ev, dtype=np.float64)
        for gi, ctx in enumerate(self.group_ctx):
            gm = ev_grp == gi
            if not gm.any():
                continue
            self.ev_dcore[gm] = self._group_dcore[gi][self.ev_homes[gm]]
            if ctx.numa_mc:
                self.ev_dmc[gm] = self._mc_min[self.ev_homes[gm]]
            else:
                self.ev_dmc[gm] = hier.mesh.mc_distances[
                    self.ev_homes[gm], self.ev_mcs[gm]
                ]

        # Global per-core event positions: each epoch's share of a
        # core's events is a contiguous range of this list (events are
        # position-sorted), found with two searchsorted calls instead
        # of a boolean scan per epoch.
        ev_core_all = self.seg_core[ev_seg]
        self._core_ev_pos = {
            core: np.flatnonzero(ev_core_all == core)
            for core in dict.fromkeys(self._seg_core_list)
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _l2_multi(self, hs, bounds, lines_sorted, writes_sorted):
        """Replay a home-sorted miss stream through all slices at once.

        ``hs`` is the sorted home per event and ``bounds`` the part
        offsets (one slice per part, plus the end sentinel).  Thin
        wrapper over :func:`repro.arch.native.multi_slice_flags_wb` —
        the shared compiled dispatch — returning (hit flags, writeback
        positions) in sorted-stream coordinates.
        """
        caches = [self.hier.l2_slice(int(hs[a])) for a in bounds[:-1]]
        flags, wb_pos, _ = multi_slice_flags_wb(
            caches, bounds, lines_sorted, writes_sorted
        )
        return flags, wb_pos

    def run_epoch(self, seg_a: int, seg_b: int) -> List[TraceResult]:
        """Replay segments ``[seg_a, seg_b)``; returns one result each.

        Epochs must be invoked in order and cover the schedule exactly
        once; purges/flushes may only happen between epochs.
        """
        hier = self.hier
        n_out = seg_b - seg_a
        results = [TraceResult() for _ in range(n_out)]
        for k in range(n_out):
            results[k].accesses = int(self.seg_lens[seg_a + k])

        e0 = int(self.seg_ev_start[seg_a])
        e1 = int(self.seg_ev_start[seg_b])
        if e0 == e1:
            return results

        ev_seg = self.ev_seg[e0:e1]
        ev_rel = ev_seg - seg_a  # 0-based segment ids within the epoch
        ev_plines = self.ev_plines[e0:e1]
        ev_writes = self.ev_writes[e0:e1]
        ev_homes = self.ev_homes[e0:e1]
        ev_mcs = self.ev_mcs[e0:e1]
        ev_vpages = self.ev_vpages[e0:e1]
        pchange = self.pchange[e0:e1]
        ev_grp = self.ev_grp[e0:e1]
        ev_dcore = self.ev_dcore[e0:e1]
        ev_dmc = self.ev_dmc[e0:e1]

        hop2 = self._hop2
        l2_lat = self._l2_lat
        dram_lat = self._dram_lat
        walk = self._walk

        def bucket(rel_idx, weights=None):
            """Per-epoch-segment totals of the given event subset."""
            if weights is None:
                return np.bincount(rel_idx, minlength=n_out).astype(np.int64)
            return np.bincount(rel_idx, weights=weights, minlength=n_out)

        tlb_miss_seg = np.zeros(n_out, dtype=np.int64)
        l1_miss_seg = np.zeros(n_out, dtype=np.int64)
        l1_wb_seg = np.zeros(n_out, dtype=np.int64)

        # Private L1s and TLBs: one kernel call per representative core;
        # the core's slice of the epoch is a contiguous range of its
        # precomputed global event-position list.
        miss_chunks = []
        for core in dict.fromkeys(self._seg_core_list[seg_a:seg_b]):
            pos = self._core_ev_pos[core]
            pa = int(np.searchsorted(pos, e0))
            pb = int(np.searchsorted(pos, e1))
            if pa == pb:
                continue
            idx_core = pos[pa:pb] - e0

            tlb = hier.tlb_for(core)
            pidx = idx_core[pchange[idx_core]]
            if len(pidx):
                flags = np.asarray(
                    tlb.access_batch_flags(ev_vpages[pidx]), dtype=np.int8
                )
                tlb_miss_seg += bucket(ev_rel[pidx[flags != 0]])

            l1 = hier.l1_for(core)
            lines_c = ev_plines[idx_core]
            writes_c = ev_writes[idx_core]
            miss_rel, wb_rel = l1.kernel_filter_misses_wb(lines_c, writes_c)
            miss_rel = np.asarray(miss_rel, dtype=np.intp)
            wb_rel = np.asarray(wb_rel, dtype=np.intp)
            l1_miss_seg += bucket(ev_rel[idx_core[miss_rel]])
            if len(wb_rel):
                l1_wb_seg += bucket(ev_rel[idx_core[wb_rel]])
            miss_chunks.append(idx_core[miss_rel])

        l2_hit_seg = np.zeros(n_out, dtype=np.int64)
        l2_miss_seg = np.zeros(n_out, dtype=np.int64)
        l2_wb_seg = np.zeros(n_out, dtype=np.int64)
        mem_seg = walk * tlb_miss_seg.astype(np.float64)
        mc_req_seg: Dict[int, Dict[int, int]] = {}

        if len(miss_chunks) == 1:
            miss_idx = miss_chunks[0]  # already ascending
        elif miss_chunks:
            miss_idx = np.sort(np.concatenate(miss_chunks))
        else:
            miss_idx = np.empty(0, dtype=np.intp)

        if len(miss_idx):
            lines_m = ev_plines[miss_idx]
            homes_m = ev_homes[miss_idx]
            writes_m = ev_writes[miss_idx]
            rel_m = ev_rel[miss_idx]
            grp_m = ev_grp[miss_idx]
            n_miss = len(miss_idx)

            # Each L2 slice replays the merged miss stream in trace order.
            horder = np.argsort(homes_m, kind="stable")
            hs = homes_m[horder]
            segb = np.empty(n_miss, dtype=bool)
            segb[0] = True
            np.not_equal(hs[1:], hs[:-1], out=segb[1:])
            bounds = np.flatnonzero(segb).tolist()
            bounds.append(n_miss)
            # One multi-slice kernel call replays every slice's part of
            # the sorted stream — per-slice FFI dispatch would be the
            # dominant per-epoch fixed cost on short (MI6-style) epochs.
            hit_sorted, wb_sorted = self._l2_multi(
                hs, bounds, lines_m[horder], writes_m[horder]
            )
            if len(wb_sorted):
                l2_wb_seg += np.bincount(
                    rel_m[horder[wb_sorted]], minlength=n_out
                ).astype(np.int64)
            l2_hit = np.empty(n_miss, dtype=np.int8)
            l2_hit[horder] = hit_sorted
            hitmask = l2_hit.astype(bool)
            l2_hit_seg += np.bincount(rel_m[hitmask], minlength=n_out).astype(np.int64)
            l2_miss_seg += np.bincount(rel_m[~hitmask], minlength=n_out).astype(np.int64)

            # Request-leg distances were resolved per event at plan time.
            base_cost = hop2 * ev_dcore[miss_idx] + l2_lat

            hit_cost = base_cost[hitmask]
            # Replica accounting: groups sharing one replica set are
            # processed together over the merged hit stream in global
            # order, so first-touch bookkeeping matches the per-call
            # sequence exactly (grouping precomputed at plan time).
            if self._rep_sets and int(hitmask.sum()):
                hit_grp = grp_m[hitmask]
                hit_lines = lines_m[hitmask]
                for replicated, gis in self._rep_sets:
                    smask = np.isin(hit_grp, gis)
                    n_sel = int(smask.sum())
                    if not n_sel:
                        continue
                    sel_lines = hit_lines[smask]
                    uniq, first, inv = np.unique(
                        sel_lines, return_index=True, return_inverse=True
                    )
                    already = np.fromiter(
                        (int(line) in replicated for line in uniq),
                        dtype=bool,
                        count=len(uniq),
                    )
                    first_occ = np.zeros(n_sel, dtype=bool)
                    first_occ[first] = True
                    pay_full = first_occ & ~already[inv]
                    sub = hit_cost[smask]
                    hit_cost[smask] = np.where(
                        pay_full, sub, float(hop2 + l2_lat)
                    )
                    replicated.update(int(line) for line in uniq[~already])
            mem_seg += np.bincount(rel_m[hitmask], weights=hit_cost, minlength=n_out)

            if int((~hitmask).sum()):
                missmask = ~hitmask
                mm_mcs = ev_mcs[miss_idx][missmask]
                dmc = ev_dmc[miss_idx][missmask]
                miss_cost = base_cost[missmask] + hop2 * dmc + dram_lat
                mem_seg += np.bincount(
                    rel_m[missmask], weights=miss_cost, minlength=n_out
                )

                n_mc = self._n_mc
                mckey = rel_m[missmask] * np.int64(n_mc) + mm_mcs
                kvals, kcounts = np.unique(mckey, return_counts=True)
                for kv, cnt in zip(kvals.tolist(), kcounts.tolist()):
                    mc_req_seg.setdefault(kv // n_mc, {})[kv % n_mc] = cnt

        ev_per_seg = (
            self.seg_ev_start[seg_a + 1 : seg_b + 1]
            - self.seg_ev_start[seg_a:seg_b]
        )
        for k in range(n_out):
            r = results[k]
            r.l1_misses = int(l1_miss_seg[k])
            r.l1_hits = int(
                ev_per_seg[k] - l1_miss_seg[k] + self.compressed[seg_a + k]
            )
            r.l2_hits = int(l2_hit_seg[k])
            r.l2_misses = int(l2_miss_seg[k])
            r.tlb_misses = int(tlb_miss_seg[k])
            r.l1_writebacks = int(l1_wb_seg[k])
            r.l2_writebacks = int(l2_wb_seg[k])
            r.mem_cycles = int(mem_seg[k])
            reqs = mc_req_seg.get(k)
            if reqs:
                r.mc_requests = dict(sorted(reqs.items()))
                for mc, n in r.mc_requests.items():
                    hier.controllers[mc].record_traffic(n, 0)
        return results
