"""Composed memory hierarchy and the trace replayer.

This is the simulator's hot path.  A process's memory behaviour is
replayed as a stream of virtual addresses through:

    representative core -> private L1 + TLB -> (mesh) -> home L2 slice
                        -> (mesh) -> memory controller -> DRAM region

*Representative-core model.*  A process's threads are data-parallel; the
trace describes the whole interaction's accesses and is replayed through
one core's private L1/TLB.  Locality, purge-induced thrashing and shared
L2 capacity effects are captured microarchitecturally; division of work
across the process's cores is applied analytically by the machine's
timing model (serial fraction + synchronization overhead).  This keeps
replay tractable in pure Python while preserving the effects the paper's
evaluation turns on.

*Homing.*  Every physical frame has a home L2 slice.  ``hash`` homing
spreads frames over all slices (Tilera's default hash-for-homing);
``local`` homing assigns each page round-robin over the owning process's
slice set (``tmc_alloc_set_home``), which is how MI6 and IRONHIDE keep
each process's data inside its own slices.  Re-homing (dynamic hardware
isolation) evicts resident lines and rewrites the home table.

*Run compression.*  Consecutive accesses to the same line are guaranteed
L1 hits; the replayer therefore simulates only line-change events and
credits the rest as hits, which cuts Python-loop work several-fold
without changing any counter.

*Replay engines.*  ``SystemConfig.replay_engine`` requests one of two
implementations of the event replay; :func:`resolve_engine` decides,
once per hierarchy, which one actually runs:

``scalar``
    The reference oracle: one Python-level ``SetAssocCache.access`` call
    per event, exactly as a hardware walk would order them.

``vector``
    The compiled engine.  Every trace, per call or batched, is planned
    by :class:`repro.arch.batch_replay.BatchReplayer` (run-length
    compression, translation and homing in NumPy) and replays through
    the fused :func:`repro.arch.native.replay_events` kernel — the
    oracle's per-event rule, compiled, over the hierarchy's
    :class:`repro.arch.native.StateArena`, which holds every cache and
    TLB from construction on — in one call per trace or batched epoch.
    Without a C toolchain a ``vector`` configuration runs the scalar
    oracle instead.

Each engine has its own front end: the oracle's is
:meth:`MemoryHierarchy._oracle_events`, the vector engine's is
``BatchReplayer._plan``.  They share only the model's rules —
allocation (:meth:`~repro.arch.address.VirtualMemory.ensure_mapped`),
homing (:meth:`MemoryHierarchy.ensure_homed`) and entitlement — so a
compression or translation bug on either side shows up as an engine
mismatch.  The kernel's call layout (segment table, group table) lives
in :mod:`repro.arch.batch_replay` alone.

Both engines produce bit-identical :class:`TraceResult` counters, cache
contents and stats; the equivalence suite in
``tests/test_replay_equivalence.py`` enforces this.  To keep the cycle
arithmetic independent of summation order, cluster-average hop
distances are quantized to 1/64 of a hop, which makes every latency
term a dyadic rational that float64 accumulates exactly.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.arch.address import AddressSpace, VirtualMemory
from repro.arch.cache import SetAssocCache
from repro.arch.dram import DramSystem
from repro.arch.memory_controller import MemoryController
from repro.arch.mesh import MeshTopology
from repro.arch.native import (
    HITS,
    MISSES,
    NativeCache,
    NativeTlb,
    StateArena,
    native_available,
)
from repro.arch.tlb import Tlb
from repro.config import SystemConfig
from repro.errors import CacheIsolationViolation, ConfigError

AnyCache = Union[SetAssocCache, NativeCache]


def resolve_engine(config: SystemConfig) -> str:
    """The replay engine a hierarchy built from ``config`` runs.

    ``vector`` needs the compiled kernels; without them a ``vector``
    configuration runs the scalar oracle, which is bit-identical by
    contract, only slower.  Every engine dispatch reads this value
    (via :attr:`MemoryHierarchy.engine`), never
    ``config.replay_engine`` directly.
    """
    if config.replay_engine == "vector" and native_available():
        return "vector"
    return "scalar"


@dataclass
class ProcessContext:
    """A process's hardware entitlement: cores, slices, controllers.

    ``rep_core`` selects whose private L1/TLB the replay goes through.
    On the temporally shared machines both processes are entitled to all
    cores but their threads live on different ones most of the time, so
    each gets its own representative; MI6's purge then wipes both.
    """

    name: str
    domain: str
    vm: VirtualMemory
    cores: List[int]
    slices: List[int]
    controllers: List[int]
    homing: str = "local"
    enforce: bool = True
    rep_core: int = -1
    # Tilera's default configuration replicates remotely-homed lines
    # into the requester's local slice; re-accesses then hit locally.
    # MI6 and IRONHIDE disable replication so that each slice is only
    # ever accessed by its owning process (§IV-A2).
    replication: bool = False
    # Machines whose DRAM regions interleave across all controllers can
    # place pages NUMA-aware, so a slice's off-chip traffic leaves via
    # its nearest controller.  IRONHIDE's clusters are instead bound to
    # their dedicated controllers (which its compact clusters sit near).
    numa_mc: bool = False
    _rr_next: int = 0
    _replicated: Optional[set] = None

    def __post_init__(self) -> None:
        if self.rep_core < 0:
            self.rep_core = self.cores[0]
        if self.replication and self._replicated is None:
            self._replicated = set()

    def next_local_slice(self) -> int:
        s = self.slices[self._rr_next % len(self.slices)]
        self._rr_next += 1
        return s


@dataclass
class TraceResult:
    """Counters and representative-core cycles from one trace replay."""

    accesses: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    tlb_misses: int = 0
    l1_writebacks: int = 0
    l2_writebacks: int = 0
    mem_cycles: int = 0
    mc_requests: Dict[int, int] = field(default_factory=dict)

    @property
    def l1_miss_rate(self) -> float:
        return self.l1_misses / self.accesses if self.accesses else 0.0

    @property
    def l2_accesses(self) -> int:
        return self.l2_hits + self.l2_misses

    @property
    def l2_miss_rate(self) -> float:
        total = self.l2_accesses
        return self.l2_misses / total if total else 0.0

    def as_payload(self) -> Dict:
        """JSON-ready dict (all ints; ``mc_requests`` keys as strings).

        Used to persist calibration probe results in the experiment
        :class:`~repro.experiments.store.ResultStore`;
        :meth:`from_payload` round-trips bit-exactly.
        """
        return {
            "accesses": self.accesses,
            "l1_hits": self.l1_hits,
            "l1_misses": self.l1_misses,
            "l2_hits": self.l2_hits,
            "l2_misses": self.l2_misses,
            "tlb_misses": self.tlb_misses,
            "l1_writebacks": self.l1_writebacks,
            "l2_writebacks": self.l2_writebacks,
            "mem_cycles": self.mem_cycles,
            "mc_requests": {str(mc): n for mc, n in self.mc_requests.items()},
        }

    @staticmethod
    def from_payload(data: Dict) -> "TraceResult":
        """Rebuild a result from :meth:`as_payload` output."""
        fields_ = dict(data)
        fields_["mc_requests"] = {
            int(mc): n for mc, n in data["mc_requests"].items()
        }
        return TraceResult(**fields_)

    def merge(self, other: "TraceResult") -> None:
        self.accesses += other.accesses
        self.l1_hits += other.l1_hits
        self.l1_misses += other.l1_misses
        self.l2_hits += other.l2_hits
        self.l2_misses += other.l2_misses
        self.tlb_misses += other.tlb_misses
        self.l1_writebacks += other.l1_writebacks
        self.l2_writebacks += other.l2_writebacks
        self.mem_cycles += other.mem_cycles
        for mc, n in other.mc_requests.items():
            self.mc_requests[mc] = self.mc_requests.get(mc, 0) + n


class MemoryHierarchy:
    """All caches, TLBs, homing state and controllers of one machine."""

    def __init__(self, config: SystemConfig, mesh: Optional[MeshTopology] = None):
        self.config = config
        self.engine = resolve_engine(config)
        vector = self.engine == "vector"
        self._cache_cls = NativeCache if vector else SetAssocCache
        self._tlb_cls = NativeTlb if vector else Tlb
        self.mesh = mesh or MeshTopology(
            config.mesh_rows, config.mesh_cols, config.mem.n_controllers
        )
        self.address_space = AddressSpace(config)
        self.dram = DramSystem(config)
        self.controllers = [
            MemoryController(i, config.mem) for i in range(config.mem.n_controllers)
        ]
        self._l1: Dict[int, AnyCache] = {}
        self._tlb: Dict[int, Union[Tlb, NativeTlb]] = {}
        self._l2: Dict[int, AnyCache] = {}
        self.shared_frames: set = set()
        # Home slice per frame (-1: not homed yet), in the narrowest
        # signed dtype that holds every slice id; the replay paths cast
        # the gathered homes to int32 once per plan or trace.
        home_dtype = np.int8 if self.mesh.n_cores <= 128 else np.int16
        self.home_table = np.full(self.address_space.total_frames, -1, dtype=home_dtype)
        self._lines_per_page = config.page_bytes // config.line_bytes
        self._line_shift = (config.line_bytes - 1).bit_length()
        self._page_shift = (config.page_bytes - 1).bit_length()
        self._lp_shift = self._page_shift - self._line_shift
        self._lp_mask = self._lines_per_page - 1
        frames_per_region = self.address_space.frames_per_region
        self._mc_of_region = np.array(
            [self.dram.controller_of(r) for r in range(config.mem.n_regions)],
            dtype=np.int32,
        )
        self._frames_per_region = frames_per_region
        # Slice-to-controller hop counts for the per-event loop, as
        # lists: per controller, and with NUMA-aware placement (every
        # request leaves via the slice's nearest controller).
        mc_dist = self.mesh.mc_distances
        self._d_mc = mc_dist.tolist()
        self._d_mc_numa = [
            [v] * config.mem.n_controllers for v in mc_dist.min(axis=1).tolist()
        ]
        self._avg_dist_cache: Dict[tuple, list] = {}
        self._arena: Optional[StateArena] = None
        if vector:
            self._init_kernel_tables()
        # Contexts with L2 replication enabled, tracked (weakly, by
        # identity — ProcessContext is an eq-dataclass and unhashable)
        # so purges and page moves can invalidate replica bookkeeping.
        self._replica_refs: Dict[int, "weakref.ref[ProcessContext]"] = {}

    def _init_kernel_tables(self) -> None:
        """The state arena and fixed inputs of :func:`~repro.arch.native.replay_events`.

        One :class:`~repro.arch.native.StateArena` holds every L1 (slot
        ``core``), L2 slice (slot ``n_tiles + tile``) and TLB (slot
        ``2 * n_tiles + core``), so no call creates or resumes
        anything.  Controller distances are flattened per (tile,
        controller); the NUMA table repeats each slice's nearest
        controller.
        """
        cfg = self.config
        n_tiles = self.mesh.n_cores
        n_mc = cfg.mem.n_controllers
        self._arena = StateArena(
            [cfg.l1.n_sets * cfg.l1.associativity] * n_tiles
            + [cfg.l2_slice.n_sets * cfg.l2_slice.associativity] * n_tiles
            + [cfg.tlb.entries] * n_tiles
        )
        # Slots whose Python view does not exist yet.
        self._unviewed = np.ones(3 * n_tiles, dtype=bool)
        geom = np.asarray([
            cfg.l1.n_sets - 1, cfg.l1.associativity,
            cfg.l2_slice.n_sets - 1, cfg.l2_slice.associativity,
            cfg.tlb.entries, n_tiles, n_mc,
        ], dtype=np.int64)
        lat = np.asarray([
            2 * (cfg.noc.hop_latency + cfg.noc.router_latency),
            cfg.l2_slice.hit_latency,
            cfg.mem.dram_latency + cfg.mem.mc_service_latency,
            cfg.tlb.miss_walk_latency,
        ], dtype=np.float64)
        self._kernel_tables = (self._arena, geom, lat)
        mc_dist = self.mesh.mc_distances.astype(np.float64)
        self._d_mc_tabs = (
            np.ascontiguousarray(mc_dist).ravel(),
            np.repeat(mc_dist.min(axis=1), n_mc),
        )
        self._avg_dist_arrays: Dict[tuple, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Component accessors (lazy)
    # ------------------------------------------------------------------
    # A component appears in ``_l1``/``_tlb``/``_l2`` on its first
    # Python request or, on the vector engine, right after the first
    # kernel call that touched it (:meth:`_view_touched`): the same
    # moments the scalar oracle creates it.  So the maps list exactly
    # the components that were ever used, and the purge paths, which
    # flush only the components in them, count the same flushes on both
    # engines.  On the vector engine a component is a view of its slot
    # in the hierarchy's state arena, which holds every component's
    # state from construction on.
    def l1_for(self, core: int) -> AnyCache:
        cache = self._l1.get(core)
        if cache is None:
            cache = self._l1[core] = self._component(
                self._cache_cls, self.config.l1, f"L1[{core}]", core
            )
        return cache

    def tlb_for(self, core: int) -> Union[Tlb, NativeTlb]:
        tlb = self._tlb.get(core)
        if tlb is None:
            tlb = self._tlb[core] = self._component(
                self._tlb_cls, self.config.tlb, f"TLB[{core}]",
                2 * self.mesh.n_cores + core,
            )
        return tlb

    def l2_slice(self, tile: int) -> AnyCache:
        cache = self._l2.get(tile)
        if cache is None:
            cache = self._l2[tile] = self._component(
                self._cache_cls, self.config.l2_slice, f"L2[{tile}]",
                self.mesh.n_cores + tile,
            )
        return cache

    def _component(self, cls, config, name: str, slot: int):
        if self._arena is None:
            return cls(config, name)
        self._unviewed[slot] = False
        return cls(config, name, self._arena, slot)

    def _view_touched(self) -> None:
        """Create the views of the arena slots a kernel call touched."""
        stats = self._arena.stats
        touched = self._unviewed & ((stats[:, HITS] | stats[:, MISSES]) != 0)
        if touched.any():
            accessors = (self.l1_for, self.l2_slice, self.tlb_for)
            for slot in np.flatnonzero(touched).tolist():
                kind, index = divmod(slot, self.mesh.n_cores)
                accessors[kind](index)

    # ------------------------------------------------------------------
    # Homing
    # ------------------------------------------------------------------
    def ensure_homed(self, frames: Sequence[int], ctx: ProcessContext) -> None:
        """Assign home slices to frames that do not have one yet."""
        table = self.home_table
        if ctx.homing == "hash":
            slices = ctx.slices
            n = len(slices)
            for frame in frames:
                f = int(frame)
                if table[f] < 0:
                    table[f] = slices[f % n]
        elif ctx.homing == "local":
            for frame in frames:
                f = int(frame)
                if table[f] < 0:
                    table[f] = ctx.next_local_slice()
        else:
            raise ConfigError(f"unknown homing policy {ctx.homing!r}")

    def rehome_frames(self, frames: Sequence[int], ctx: ProcessContext) -> int:
        """Re-home frames into ``ctx``'s slices; returns lines evicted.

        Models ``tmc_alloc_unmap`` + ``tmc_alloc_set_home`` +
        ``tmc_alloc_remap``: resident lines of each page are flushed from
        the old home slice, then the page is re-assigned.  Replicas of
        the flushed lines are dropped from every replicating context —
        the moved page's lines are no longer resident anywhere, so a
        later re-access must pay the full home-slice round trip again.
        """
        evicted = 0
        moved: List[int] = []
        for frame in frames:
            f = int(frame)
            old = int(self.home_table[f])
            new = ctx.next_local_slice()
            if old == new:
                continue
            evicted += self._evict_frame_lines(old, f)
            self.home_table[f] = new
            moved.append(f)
        self._drop_replicas(moved)
        return evicted

    def drop_frame_lines(self, frame: int) -> int:
        """Evict one frame's lines and unassign its home (page migration).

        Used when a page moves across the DRAM-region boundary during
        cluster reconfiguration; also invalidates any replicas of the
        dropped lines.  Returns the number of lines evicted.
        """
        f = int(frame)
        home = int(self.home_table[f])
        self.home_table[f] = -1
        evicted = self._evict_frame_lines(home, f)
        self._drop_replicas([f])
        return evicted

    def _evict_frame_lines(self, home: int, frame: int) -> int:
        """Evict one frame's resident lines from its home slice.

        One ``evict_line_range`` call per frame, with the same stats
        on both engines.
        """
        if home < 0 or home not in self._l2:
            return 0
        cache = self._l2[home]
        base = frame * self._lines_per_page
        return cache.evict_line_range(base, self._lines_per_page)

    def _replicating_contexts(self) -> List[ProcessContext]:
        """Live registered contexts with replica state (prunes dead refs)."""
        live: List[ProcessContext] = []
        dead: List[int] = []
        for key, ref in self._replica_refs.items():
            ctx = ref()
            if ctx is None:
                dead.append(key)
            elif ctx._replicated:
                live.append(ctx)
        for key in dead:
            del self._replica_refs[key]
        return live

    def _drop_replicas(self, frames: Sequence[int]) -> None:
        """Forget replicas of all lines belonging to the given frames."""
        if not frames:
            return
        ctxs = self._replicating_contexts()
        if not ctxs:
            return
        frameset = {int(f) for f in frames}
        shift = self._lp_shift
        for ctx in ctxs:
            replicated = ctx._replicated
            # Set comprehension: the stale subset is consumed order-
            # insensitively, so set iteration order cannot leak into
            # replay results.
            stale = {line for line in replicated if (line >> shift) in frameset}
            replicated.difference_update(stale)

    def invalidate_replicas(self) -> int:
        """Forget every context's replica bookkeeping (reconfiguration).

        Cluster reconfiguration hands whole L2 slices to the other
        domain; the contexts passed to the engine already carry their
        *new* bindings, so a core-intersection purge cannot see which
        context's replica copies lived in the transferred slices — a
        context that just *lost* cores would keep stale one-hop entries
        for lines it can no longer reach.  Dropping all replica state
        is the conservative (and latency-only) invalidation the real
        purge performs.  Returns the number of entries dropped.
        """
        dropped = 0
        for ctx in self._replicating_contexts():
            dropped += len(ctx._replicated)
            ctx._replicated.clear()
        return dropped

    # ------------------------------------------------------------------
    # Trace replay
    # ------------------------------------------------------------------
    def run_trace(
        self,
        ctx: ProcessContext,
        addrs: np.ndarray,
        writes: Optional[np.ndarray] = None,
    ) -> TraceResult:
        """Replay a virtual-address trace for ``ctx``; returns counters.

        ``addrs`` is a 1-D int64 array of byte addresses; ``writes`` an
        optional boolean/int array of the same length (default: reads).
        The replay implementation is the resolved :attr:`engine`; both
        engines return identical counters.

        Each engine has its own front end.  The vector engine replays
        the trace as a one-segment
        :class:`~repro.arch.batch_replay.BatchReplayer` schedule; the
        scalar oracle compresses, translates and homes it in
        :meth:`_oracle_events`, then runs its per-event loop.  Callers
        with many tiny traces (the attack harness touches one line at a
        time) replay them as one schedule instead, through
        :meth:`run_trace_batched` or
        :func:`~repro.arch.batch_replay.schedule_runner`, because the
        fixed cost per call outweighs the work of a few events.
        """
        if len(addrs) == 0:
            return TraceResult()
        if self.engine == "vector":
            from repro.arch.batch_replay import BatchReplayer, Segment

            return BatchReplayer(self, [Segment(ctx, addrs, writes)]).run_epoch(0, 1)[0]

        if ctx.replication:
            self._replica_refs[id(ctx)] = weakref.ref(ctx)
        result = TraceResult(accesses=len(addrs))
        *events, compressed_hits = self._oracle_events(ctx, addrs, writes)
        self._replay_scalar(
            ctx, result, *(e.tolist() for e in events), compressed_hits
        )
        for mc, reqs in result.mc_requests.items():
            self.controllers[mc].record_traffic(reqs, 0)
        return result

    def run_trace_batched(
        self,
        ctx: Union[ProcessContext, Sequence[ProcessContext]],
        addrs: np.ndarray,
        writes: Optional[np.ndarray] = None,
        bounds: Optional[Sequence[int]] = None,
    ) -> List[TraceResult]:
        """Replay one concatenated trace with per-segment boundaries.

        ``bounds`` is a non-decreasing sequence of offsets into
        ``addrs`` (including 0 and ``len(addrs)``); each adjacent pair
        delimits one segment.  ``ctx`` is the context every segment
        runs under, or a sequence of one context per segment.  Returns
        one :class:`TraceResult` per segment, bit-identical to calling
        :meth:`run_trace` once per segment in order — but with
        translation, homing, compression and kernel dispatch amortized
        over the whole batch.  On the scalar engine this falls back to
        the per-segment loop (the reference oracle).
        """
        from repro.arch.batch_replay import Segment, schedule_runner

        if bounds is None:
            bounds = [0, len(addrs)]
        bounds = [int(b) for b in bounds]
        n_seg = len(bounds) - 1
        ctxs = [ctx] * n_seg if isinstance(ctx, ProcessContext) else list(ctx)
        if len(ctxs) != n_seg:
            raise ValueError(f"{len(ctxs)} contexts for {n_seg} segments")
        segments = [
            Segment(c, addrs[a:b], None if writes is None else writes[a:b])
            for c, a, b in zip(ctxs, bounds[:-1], bounds[1:])
        ]
        return schedule_runner(self, segments)(0, n_seg)

    # ------------------------------------------------------------------
    # Scalar engine (reference oracle)
    # ------------------------------------------------------------------
    def _oracle_events(
        self,
        ctx: ProcessContext,
        addrs: np.ndarray,
        writes: Optional[np.ndarray],
    ) -> tuple:
        """The oracle's front end: run-length compression, translation, homing.

        Returns ``(vpages, writes, plines, homes, mcs)`` per line-change
        event, as arrays, followed by the count of accesses folded into
        runs (guaranteed L1 hits).
        """
        n = len(addrs)
        vlines = addrs >> self._line_shift
        if writes is None:
            writes = np.zeros(n, dtype=np.int8)
        else:
            writes = writes.astype(np.int8, copy=False)

        # Run-length compression: only line-change events are simulated.
        change = np.empty(n, dtype=bool)
        change[0] = True
        np.not_equal(vlines[1:], vlines[:-1], out=change[1:])
        idx = np.flatnonzero(change)
        ev_vlines = vlines[idx]
        ev_writes = np.maximum.reduceat(writes, idx)
        compressed_hits = n - len(idx)  # guaranteed L1 hits inside runs

        # Translation (per unique page) and homing.
        ev_vpages = ev_vlines >> self._lp_shift
        uniq_pages, inverse = np.unique(ev_vpages, return_inverse=True)
        frames_uniq = ctx.vm.ensure_mapped(uniq_pages)
        self.ensure_homed(frames_uniq, ctx)
        if ctx.enforce:
            self._check_entitlement(frames_uniq, ctx)
        ev_frames = frames_uniq[inverse]
        ev_plines = ev_frames * self._lines_per_page + (ev_vlines & self._lp_mask)
        ev_homes = self.home_table[ev_frames].astype(np.int32)
        ev_mcs = self._mc_of_region[ev_frames // self._frames_per_region]
        return ev_vpages, ev_writes, ev_plines, ev_homes, ev_mcs, compressed_hits

    def _replay_scalar(
        self,
        ctx: ProcessContext,
        result: TraceResult,
        pages_l: List[int],
        writes_l: List[int],
        plines_l: List[int],
        homes_l: List[int],
        mcs_l: List[int],
        compressed_hits: int,
    ) -> None:
        # Events arrive as Python lists: the per-event loop runs ~2x
        # faster over them than over NumPy arrays.
        cfg = self.config
        n_events = len(plines_l)

        rep = ctx.rep_core
        l1 = self.l1_for(rep)
        tlb = self.tlb_for(rep)
        l1_access = l1.access
        tlb_access = tlb.access
        l2_caches = self._l2
        l2_cfg = cfg.l2_slice
        get_l2 = self.l2_slice

        hop_cost = cfg.noc.hop_latency + cfg.noc.router_latency
        l2_lat = l2_cfg.hit_latency
        dram_lat = cfg.mem.dram_latency + cfg.mem.mc_service_latency
        walk = cfg.tlb.miss_walk_latency
        # Threads run on every core of the cluster; the request leg to a
        # home slice uses the cluster-average distance, not the (biased)
        # representative core's own position.
        d_core = self._avg_core_distances(tuple(ctx.cores))
        d_mc = self._d_mc_numa if ctx.numa_mc else self._d_mc

        l1_snap = l1.stats.snapshot()
        l1_hits = compressed_hits
        l1_misses = 0
        l2_hits = 0
        l2_misses = 0
        tlb_misses = 0
        mem_cycles = 0
        mc_requests: Dict[int, int] = {}
        l2_snaps = {}

        replicated = ctx._replicated if ctx.replication else None

        cur_page = -1
        for i in range(n_events):
            page = pages_l[i]
            if page != cur_page:
                cur_page = page
                if not tlb_access(page):
                    tlb_misses += 1
                    mem_cycles += walk
            line = plines_l[i]
            if l1_access(line, writes_l[i]):
                l1_hits += 1
                continue
            l1_misses += 1
            home = homes_l[i]
            l2 = l2_caches.get(home)
            if l2 is None:
                l2 = get_l2(home)
            if home not in l2_snaps:
                l2_snaps[home] = l2.stats.snapshot()
            if l2.access(line, writes_l[i]):
                l2_hits += 1
                if replicated is not None:
                    if line in replicated:
                        # Replica hit in the local slice: one hop.
                        mem_cycles += 2 * hop_cost + l2_lat
                    else:
                        replicated.add(line)
                        mem_cycles += 2 * hop_cost * d_core[home] + l2_lat
                else:
                    mem_cycles += 2 * hop_cost * d_core[home] + l2_lat
            else:
                l2_misses += 1
                mc = mcs_l[i]
                mem_cycles += 2 * hop_cost * d_core[home] + l2_lat
                mem_cycles += 2 * hop_cost * d_mc[home][mc] + dram_lat
                mc_requests[mc] = mc_requests.get(mc, 0) + 1

        result.l1_hits = l1_hits
        result.l1_misses = l1_misses
        result.l2_hits = l2_hits
        result.l2_misses = l2_misses
        result.tlb_misses = tlb_misses
        result.mem_cycles = int(mem_cycles)
        result.mc_requests = mc_requests
        result.l1_writebacks = l1.stats.delta(l1_snap).writebacks
        result.l2_writebacks = sum(
            self._l2[t].stats.delta(snap).writebacks for t, snap in l2_snaps.items()
        )

    def _avg_core_distances(self, cores: tuple) -> list:
        """Per-slice hop count averaged over the given cores (cached).

        Averages are quantized to 1/64 of a hop so that every latency
        term is a dyadic rational: float64 then accumulates them exactly,
        which keeps both replay engines bit-identical regardless of the
        order their sums are folded in.
        """
        cached = self._avg_dist_cache.get(cores)
        if cached is None:
            table = self.mesh.core_distances
            avg = table[list(cores)].mean(axis=0)
            cached = (np.round(avg * 64.0) / 64.0).tolist()
            self._avg_dist_cache[cores] = cached
        return cached

    def _check_entitlement(self, frames: Sequence[int], ctx: ProcessContext) -> None:
        """Strong-isolation checks on newly touched frames (each region once)."""
        fpr = self._frames_per_region
        shared = self.shared_frames
        passed = set()
        for frame in frames:
            f = int(frame)
            if f in shared:
                # The IPC buffer: legal from both domains (paper §III-A3).
                continue
            if f // fpr not in passed:
                self.dram.check_access(f // fpr, ctx.domain)
                passed.add(f // fpr)
            home = int(self.home_table[f])
            if home >= 0 and home not in ctx.slices:
                raise CacheIsolationViolation(
                    f"{ctx.name} touched a line homed in slice {home}, "
                    f"outside its slice set"
                )

    # ------------------------------------------------------------------
    # Purge support
    # ------------------------------------------------------------------
    def purge_private(self, cores: Sequence[int]) -> Dict[str, int]:
        """Flush-and-invalidate the private L1s and TLBs of ``cores``.

        Returns counters the purge cost model consumes: the maximum
        per-core valid/dirty line counts (cores purge in parallel) and
        the total dirty lines that must propagate to the L2 slices.

        Purging a process's cores also wipes its replica bookkeeping:
        the locally-replicated copies lived alongside the purged state,
        so charging later re-accesses the one-hop replica latency would
        credit residency that no longer exists.
        """
        max_valid = 0
        max_dirty = 0
        total_dirty = 0
        tlb_entries = 0
        for core in cores:
            if core in self._l1:
                valid, dirty = self._l1[core].invalidate_all()
                max_valid = max(max_valid, valid)
                max_dirty = max(max_dirty, dirty)
                total_dirty += dirty
            if core in self._tlb:
                tlb_entries += self._tlb[core].invalidate_all()
        purged = set(cores)
        for ctx in self._replicating_contexts():
            if not purged.isdisjoint(ctx.cores):
                ctx._replicated.clear()
        return {
            "max_valid": max_valid,
            "max_dirty": max_dirty,
            "total_dirty": total_dirty,
            "tlb_entries": tlb_entries,
        }

    def clean_l2(self, slices: Sequence[int]) -> int:
        """Write back dirty data in the given slices; returns line count.

        Slices that are absent or hold no modified data are skipped via
        the caches' O(1) dirty-occupancy counters — the purge models
        call this on every crossing, so the common all-clean case costs
        one counter read per slice instead of a cache scan.
        """
        l2 = self._l2
        total = 0
        for s in slices:
            cache = l2.get(s)
            if cache is not None and cache.dirty_lines:
                total += cache.clean_all()
        return total
