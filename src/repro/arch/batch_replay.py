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
  exactly the concatenation of the per-call event lists).  Segments cut
  from a :class:`~repro.sim.bundle.TraceBundle` reuse the events the
  bundle cached the first time any plan asked (:func:`compress_runs`
  over all its segments); only the others — IPC transfers,
  :meth:`~repro.arch.hierarchy.MemoryHierarchy.run_trace_batched`
  input — are compressed per plan;
* page translation, reproducing the per-call allocation order — for
  every virtual page the allocation priority is ``(segment of first
  touch, page number)``, which is precisely the order the per-call
  loop's sorted-unique translation would have allocated frames in, even
  when several page tables share DRAM region pools.  One O(n)
  :func:`~repro.arch.native.first_touch` pass finds the first touches;
  only the unique pages are sorted, and only the segments that
  allocate call the allocator (mapped pages are a page-table lookup);
* L2 homing (round-robin cursors advanced in the same first-touch
  order) and entitlement checks.

Execution happens in *epochs* — contiguous segment ranges with no
intervening purge/flush.  Each epoch is one call of the fused
:func:`~repro.arch.native.replay_events` kernel, which walks the
events in trace order with the scalar oracle's per-event rule over the
hierarchy's state arena, updates the caches' stats in place and
returns per-segment counters; no Python runs per event or per batch.
Purge events (MI6's per-crossing flushes) act as epoch barriers: the
machine replays up to the barrier, applies the purge against the live
cache state, and continues.

The result is bit-identical to calling :meth:`run_trace` once per
segment in schedule order: identical :class:`TraceResult` counters,
identical cache/TLB contents and stats, and identical replica
bookkeeping.  ``tests/test_replay_equivalence.py`` enforces this both
at the ``run_trace_batched`` level and over full machine runs.

:func:`schedule_runner` runs a schedule epoch by epoch on either
engine: through a :class:`BatchReplayer` on the vector engine, one
``run_trace`` per segment on the scalar oracle.

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
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.hierarchy import MemoryHierarchy, ProcessContext, TraceResult
from repro.arch.native import first_touch

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.bundle import TraceBundle


@dataclass
class Segment:
    """One per-call replay unit: a context and its address stream.

    A segment cut from a :class:`~repro.sim.bundle.TraceBundle` names
    it and its segment ``index``; the planner then takes the bundle's
    cached compressed events instead of compressing ``addrs`` again.
    """

    ctx: ProcessContext
    addrs: np.ndarray
    writes: Optional[np.ndarray] = None
    bundle: Optional["TraceBundle"] = None
    index: int = 0


def compress_runs(
    vlines: np.ndarray, writes: Optional[np.ndarray], offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run-length compression of concatenated segments.

    Segment ``k`` is ``vlines[offsets[k]:offsets[k+1]]`` (line ids) with
    its int8 store flags in ``writes`` (None: all reads).  Each run of equal
    line ids within a segment becomes one event — runs never span a
    segment start — whose write flag is the maximum over the run.
    Returns ``(ev_vlines, ev_writes, ev_offsets)``, segment ``k``'s
    events being ``[ev_offsets[k], ev_offsets[k+1])``.
    """
    total = len(vlines)
    change = np.empty(total, dtype=bool)
    if total:
        change[0] = True
        np.not_equal(vlines[1:], vlines[:-1], out=change[1:])
        starts = offsets[:-1]
        change[starts[starts < total]] = True
    ev_idx = np.flatnonzero(change)
    if writes is None:
        ev_writes = np.zeros(len(ev_idx), dtype=np.int8)
    else:
        ev_writes = np.maximum.reduceat(writes, ev_idx)
    return vlines[ev_idx], ev_writes, np.searchsorted(ev_idx, offsets)


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
        total = int(lens.sum())

        # Context groups (order of first appearance).
        group_index: Dict[Tuple, int] = {}
        ctx_group: Dict[int, int] = {}
        self.group_ctx: List[ProcessContext] = []
        seg_group: List[int] = []
        for seg in segs:
            gi = ctx_group.get(id(seg.ctx))
            if gi is not None:
                seg_group.append(gi)
                continue
            key = _group_key(seg.ctx)
            gi = group_index.get(key)
            if gi is None:
                gi = len(self.group_ctx)
                group_index[key] = gi
                self.group_ctx.append(seg.ctx)
                if seg.ctx.replication:
                    hier._replica_refs[id(seg.ctx)] = weakref.ref(seg.ctx)
            ctx_group[id(seg.ctx)] = gi
            seg_group.append(gi)
        seg_core = [s.ctx.rep_core for s in segs]
        self.seg_info = np.asarray([seg_core, seg_group], dtype=np.int64).T.ravel()

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
            return

        ev_vlines, self.ev_writes, self.seg_ev_start = self._events(lens)
        ev_per_seg = np.diff(self.seg_ev_start)
        self.compressed = (lens - ev_per_seg).tolist()
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

        # Translation.  Mapped pages resolve by page-table lookup.  The
        # rest are allocated reproducing the per-call order: pages in
        # (first-touch segment, page) order, one ensure_mapped call per
        # first-touch segment that allocates — the frame allocator
        # round-robins regions *within* one call, so the per-call
        # batching (each call allocates exactly its own new pages,
        # sorted) must be reproduced call for call.  A call with
        # nothing to allocate changes nothing, so it is skipped.
        tables = [ctx.vm.page_table for ctx in self.group_ctx]
        v_table = [tables[g] for g in g_grp[v_first].tolist()]
        v_frame = np.asarray(
            [t.get(p, -1) for t, p in zip(v_table, v_page.tolist())], dtype=np.int64
        )
        missing = np.flatnonzero(v_frame < 0)
        if len(missing):
            order = missing[np.lexsort((v_page[missing], v_seg[missing]))]
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

    def _events(self, lens: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The schedule's compressed events: ``(vlines, writes, seg_ev_start)``.

        Segments cut from a bundle take the bundle's cached events;
        the rest (IPC transfers, ``run_trace_batched`` input) are
        compressed here, together, by the same :func:`compress_runs`.
        Either way the event list is the concatenation of the per-call
        lists.
        """
        segs = self.segments
        fresh = [k for k, s in enumerate(segs) if s.bundle is None]
        pieces = [None] * len(segs)
        if fresh:
            f_lens = lens[fresh]
            f_off = np.zeros(len(fresh) + 1, dtype=np.int64)
            np.cumsum(f_lens, out=f_off[1:])
            addrs = np.concatenate(
                [np.ascontiguousarray(segs[k].addrs, dtype=np.int64) for k in fresh]
            )
            writes = None
            if any(segs[k].writes is not None for k in fresh):
                writes = np.concatenate([
                    np.zeros(n, dtype=np.int8) if segs[k].writes is None
                    else segs[k].writes.astype(np.int8, copy=False)
                    for k, n in zip(fresh, f_lens.tolist())
                ])
            f_vlines, f_writes, f_ev = compress_runs(
                addrs >> self.hier._line_shift, writes, f_off
            )
            if len(fresh) == len(segs):
                return f_vlines, f_writes, f_ev
            f_ev = f_ev.tolist()
            for j, k in enumerate(fresh):
                a, b = f_ev[j], f_ev[j + 1]
                pieces[k] = (f_vlines[a:b], f_writes[a:b])
        line_bytes = self.hier.config.line_bytes
        for k, s in enumerate(segs):
            if s.bundle is not None:
                vlines, writes, ev_off = s.bundle.events(line_bytes)
                a, b = ev_off[s.index], ev_off[s.index + 1]
                pieces[k] = (vlines[a:b], writes[a:b])
        seg_ev = np.zeros(len(segs) + 1, dtype=np.int64)
        np.cumsum([len(v) for v, _ in pieces], out=seg_ev[1:])
        return (
            np.concatenate([v for v, _ in pieces]),
            np.concatenate([w for _, w in pieces]),
            seg_ev,
        )

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


def schedule_runner(
    hier: MemoryHierarchy, segments: Sequence[Segment]
) -> Callable[[int, int], List[TraceResult]]:
    """``run_epoch(seg_a, seg_b)`` over ``segments`` on either engine.

    The vector engine plans the schedule once (:class:`BatchReplayer`);
    the scalar oracle replays each segment with its own
    :meth:`~repro.arch.hierarchy.MemoryHierarchy.run_trace` call, the
    per-call reference every schedule must match.  Either way epochs
    run in order, and state may be read or purged between them.
    """
    if hier.engine == "vector":
        return BatchReplayer(hier, segments).run_epoch
    segments = list(segments)

    def run_epoch(seg_a: int, seg_b: int) -> List[TraceResult]:
        return [hier.run_trace(s.ctx, s.addrs, s.writes) for s in segments[seg_a:seg_b]]

    return run_epoch


def _runs(keys: np.ndarray) -> List[Tuple[int, int]]:
    """``(start, end)`` of each run of equal values in non-empty ``keys``."""
    starts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    bounds = [0] + starts.tolist() + [len(keys)]
    return list(zip(bounds[:-1], bounds[1:]))
