"""Interaction-batched trace replay over a schedule of segments.

The per-call replay path (:meth:`MemoryHierarchy.run_trace`) pays fixed
Python overhead per invocation: argument conversion, run-length
compression, translation, homing and entitlement checks.  Figure runs
issue six such calls per interaction (two workload traces and four IPC
transfers), so for the short interactive traces the paper evaluates,
per-call overhead dominates end-to-end wall time.

:class:`BatchReplayer` removes that overhead by planning a whole run at
once.  A *schedule* is an ordered list of :class:`Segment`\\ s — each one
the exact address stream a per-call replay would have been handed, with
the context it would have run under.  The plan phase performs, once
over the entire schedule:

* run-length compression (reset at segment starts, so the event list is
  exactly the concatenation of the per-call event lists);
* page translation, reproducing the per-call allocation order — for
  every virtual page the allocation priority is ``(segment of first
  touch, page number)``, which is precisely the order the per-call
  loop's sorted-unique translation would have allocated frames in, even
  when several page tables share DRAM region pools.  One O(n)
  :func:`~repro.arch.native.first_touch` pass finds the first touches;
  only the unique pages are sorted;
* L2 homing (round-robin cursors advanced in the same first-touch
  order) and entitlement checks.

Execution happens in *epochs* — contiguous segment ranges with no
intervening purge/flush.  Each epoch is one call of the fused
:func:`~repro.arch.native.replay_events` kernel, which walks the
events in trace order with the scalar oracle's per-event rule and
returns per-segment counters; no Python runs per event or per batch.
Purge events (MI6's per-crossing flushes) act as epoch barriers: the
machine replays up to the barrier, applies the purge against the live
cache state, and continues.

The result is bit-identical to calling :meth:`run_trace` once per
segment in schedule order: identical :class:`TraceResult` counters,
identical cache/TLB contents and stats, and identical replica
bookkeeping.  ``tests/test_replay_equivalence.py`` enforces this both
at the ``run_trace_batched`` level and over full machine runs.

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
from repro.arch.native import first_touch


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
        """Plan the whole schedule once (see the module docstring).

        Groups the contexts, then computes over all segments at once:
        run-length-compressed events, allocation-order-exact
        translation, homing and entitlement, and the kernel's group
        table — everything :meth:`run_epoch` would otherwise redo.
        """
        hier = self.hier
        segs = self.segments
        n_seg = len(segs)

        lens = np.fromiter((len(s.addrs) for s in segs), dtype=np.int64, count=n_seg)
        self.seg_lens = lens
        acc_off = np.zeros(n_seg + 1, dtype=np.int64)
        np.cumsum(lens, out=acc_off[1:])
        total = int(acc_off[-1])

        # Context groups (order of first appearance).
        group_index: Dict[Tuple, int] = {}
        self.group_ctx: List[ProcessContext] = []
        seg_group: List[int] = []
        for seg in segs:
            key = _group_key(seg.ctx)
            gi = group_index.get(key)
            if gi is None:
                gi = len(self.group_ctx)
                group_index[key] = gi
                self.group_ctx.append(seg.ctx)
                if seg.ctx.replication:
                    hier._replica_refs[id(seg.ctx)] = weakref.ref(seg.ctx)
            seg_group.append(gi)
        self._seg_core = [s.ctx.rep_core for s in segs]
        self.seg_info = np.asarray([self._seg_core, seg_group], dtype=np.int64).T.ravel()

        # Groups sharing one replica set share one kernel table, so the
        # first-touch order stays global across them.
        rep_sets = {
            id(ctx._replicated): ctx._replicated
            for ctx in self.group_ctx if ctx.replication and ctx._replicated is not None
        }
        slot = {key: r for r, key in enumerate(rep_sets)}
        self._rep_sets = list(rep_sets.values())
        self.group_tab = np.asarray([
            v for ctx in self.group_ctx
            for v in hier.group_row(ctx, slot.get(id(ctx._replicated), -1)
                                    if ctx.replication else -1)
        ], dtype=np.int64)

        if total == 0:
            self.seg_ev_start = np.zeros(n_seg + 1, dtype=np.int64)
            self.compressed = [0] * n_seg
            self._ev_counts = [0] * n_seg
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
        change[acc_off[:-1][lens > 0]] = True
        ev_idx = np.flatnonzero(change)
        ev_before = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(change, out=ev_before[1:])
        self.seg_ev_start = ev_before[acc_off]
        ev_per_seg = np.diff(self.seg_ev_start)
        self._ev_counts = ev_per_seg.tolist()
        self.compressed = (lens - ev_per_seg).tolist()

        ev_vlines = vlines[ev_idx]
        self.ev_writes = np.maximum.reduceat(all_writes, ev_idx)
        self.ev_vpages = ev_vpages = ev_vlines >> hier._lp_shift

        # First touches, in event order: per (group, page), then per
        # (VM, page) over those.  Only the unique pages are ever sorted.
        seg_group_arr = np.asarray(seg_group, dtype=np.int64)
        g_inv, g_first = first_touch(np.repeat(seg_group_arr, ev_per_seg), ev_vpages)
        g_page = ev_vpages[g_first]
        g_seg = np.searchsorted(self.seg_ev_start, g_first, side="right") - 1
        g_grp = seg_group_arr[g_seg]
        vm_index: Dict[int, int] = {}
        group_vm = np.asarray(
            [vm_index.setdefault(id(ctx.vm), len(vm_index)) for ctx in self.group_ctx],
            dtype=np.int64,
        )
        v_inv, v_first = first_touch(group_vm[g_grp], g_page)
        v_page = g_page[v_first]
        v_seg = g_seg[v_first]

        # Translation, reproducing the per-call allocation order: pages
        # in (first-touch segment, page) order, one ensure_mapped call
        # per first-touch segment — the frame allocator round-robins
        # regions *within* one call, so the per-call batching (each
        # call allocates exactly its own new pages, sorted) must be
        # reproduced call for call.
        v_frame = np.empty(len(v_page), dtype=np.int64)
        order = np.lexsort((v_page, v_seg))
        for a, b in _runs(v_seg[order]):
            idx = order[a:b]
            v_frame[idx] = segs[int(v_seg[idx[0]])].ctx.vm.ensure_mapped(v_page[idx])
        g_frame = v_frame[v_inv]

        # Homing and entitlement per context group, in group order and,
        # within a group, in (first-touch segment, page) order.
        order = np.lexsort((g_page, g_seg, g_grp))
        for a, b in _runs(g_grp[order]):
            ctx = self.group_ctx[int(g_grp[order[a]])]
            frames = g_frame[order[a:b]].tolist()
            hier.ensure_homed(frames, ctx)
            if ctx.enforce:
                hier._check_entitlement(frames, ctx)

        ev_frames = g_frame[g_inv]
        self.ev_plines = ev_frames * hier._lines_per_page + (ev_vlines & hier._lp_mask)
        self.ev_homes = hier.home_table[g_frame][g_inv]
        self.ev_mcs = hier._mc_of_region[g_frame // hier._frames_per_region][g_inv]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_epoch(self, seg_a: int, seg_b: int) -> List[TraceResult]:
        """Replay segments ``[seg_a, seg_b)``; returns one result each.

        Epochs must be invoked in order and cover the schedule exactly
        once; purges/flushes may only happen between epochs.
        """
        hier = self.hier
        results = [TraceResult(accesses=n) for n in self.seg_lens[seg_a:seg_b].tolist()]
        if self.seg_ev_start[seg_a] == self.seg_ev_start[seg_b]:
            return results

        # Private L1s and TLBs exist for exactly the cores with events.
        for core, n_ev in zip(self._seg_core[seg_a:seg_b], self._ev_counts[seg_a:seg_b]):
            if n_ev:
                hier.l1_for(core)
                hier.tlb_for(core)
        hier.replay_segments(
            self.seg_ev_start[seg_a : seg_b + 1],
            self.seg_info[2 * seg_a : 2 * seg_b],
            (self.ev_vpages, self.ev_writes, self.ev_plines, self.ev_homes, self.ev_mcs),
            self.group_tab,
            self._rep_sets,
            results,
            self.compressed[seg_a:seg_b],
        )
        for r in results:
            for mc, n in r.mc_requests.items():
                hier.controllers[mc].record_traffic(n, 0)
        return results


def _runs(keys: np.ndarray) -> List[Tuple[int, int]]:
    """``(start, end)`` of each run of equal values in non-empty ``keys``."""
    starts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    bounds = [0] + starts.tolist() + [len(keys)]
    return list(zip(bounds[:-1], bounds[1:]))
