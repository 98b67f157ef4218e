"""Shared machinery for the four evaluated machine models.

Every machine runs an interactive application the same way the paper's
prototype does: a warm-up phase, then a measured sequence of ping-pong
interactions — the insecure producer computes and posts a message to the
shared IPC buffer, the secure consumer picks it up, computes, and posts
its reply.  Machines differ only in their :meth:`Machine._setup` (how
hardware is divided, what one-time costs apply), in the entry/exit
hooks (what each secure-boundary crossing costs), and in their
:class:`~repro.machines.policy.PurgePolicy` (whether, when and what
microarchitectural state gets flushed at interaction boundaries).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch.address import VirtualMemory
from repro.arch.hierarchy import MemoryHierarchy, ProcessContext, TraceResult
from repro.config import SystemConfig
from repro.machines.policy import NEVER, PurgePolicy
from repro.secure.enclave import EnclaveManager
from repro.secure.ipc import SharedIpcBuffer
from repro.secure.kernel import SecureKernel
from repro.secure.purge import PurgeModel
from repro.secure.spectre_guard import SpectreGuard
from repro.sim.bundle import TraceBundle, interaction_bundle
from repro.sim.stats import Breakdown, ProcessStats, RunResult
from repro.sim.trace import Trace
from repro.units import cycles_from_us
from repro.workloads.base import AppSpec, WorkloadProcess


@dataclass
class CrossingCost:
    """Cycles charged at one secure-boundary crossing."""

    crossing: float = 0.0
    purge: float = 0.0


@dataclass
class Setup:
    """Everything a machine prepares before the measured run."""

    ctx_secure: ProcessContext
    ctx_insecure: ProcessContext
    ipc: SharedIpcBuffer
    breakdown: Breakdown
    secure_cores: int
    insecure_cores: int
    predictor_evals: int = 0


class Machine(abc.ABC):
    """One evaluated architecture."""

    name: str = "abstract"
    strong_isolation: bool = False
    #: When and what this machine flushes at interaction boundaries.
    #: Stateful policies (MI6's per-crossing purge, the temporal fence
    #: machines) are barriers for the batched replay pipeline: the
    #: replay splits into per-boundary epochs so each flush sees — and
    #: wipes — the live cache state.  Instances may override the class
    #: default (e.g. a non-default fence interval).
    purge_policy: PurgePolicy = NEVER

    def __init__(self, config: Optional[SystemConfig] = None, post_setup_warmup: int = 2):
        self.config = config or SystemConfig.tile_gx72()
        self.hier = MemoryHierarchy(self.config)
        self.mesh = self.hier.mesh
        self.kernel = SecureKernel()
        self.enclaves = EnclaveManager(self.config)
        self.purge_model = PurgeModel(self.config)
        self.guard = SpectreGuard(self.hier.dram, self.hier.address_space.frames_per_region)
        self.post_setup_warmup = post_setup_warmup

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _setup(
        self, app: AppSpec, sec: WorkloadProcess, ins: WorkloadProcess, rng
    ) -> Setup:
        """Divide the hardware and charge one-time costs."""

    def _secure_entry(self, app: AppSpec, st: Setup) -> CrossingCost:
        return CrossingCost()

    def _secure_exit(self, app: AppSpec, st: Setup) -> CrossingCost:
        return CrossingCost()

    def _flush_targets(self, st: Setup) -> Tuple[List[int], List[int], List[int]]:
        """``(cores, l2_slices, controllers)`` a policy flush acts on.

        By default the two representative cores plus the secure side's
        L2 slices and controllers; machines with bespoke partition plans
        (MI6) override this to match their flush domain.
        """
        return (
            [st.ctx_secure.rep_core, st.ctx_insecure.rep_core],
            list(st.ctx_secure.slices),
            list(st.ctx_secure.controllers),
        )

    def _policy_flush(self, app: AppSpec, st: Setup) -> float:
        """Execute one policy-scheduled flush; returns its cycle cost."""
        pol = self.purge_policy
        cores, slices, mcs = self._flush_targets(st)
        report = self.purge_model.flush(
            self.hier,
            cores,
            slices,
            mcs,
            dirty_scale=app.footprint_scale,
            flush_private=pol.flush_private,
            flush_l2_dirty=pol.flush_l2_dirty,
            drain_controllers=pol.drain_controllers,
            software_sequence=pol.software_sequence,
        )
        return float(report.total_cycles)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(
        self, app: AppSpec, n_interactions: Optional[int] = None, seed: int = 0
    ) -> RunResult:
        """Run the interactive application; returns the measured result.

        Interaction traces are materialized once per run as cached
        :class:`~repro.sim.bundle.TraceBundle`\\ s.  Under the scalar
        replay engine (the reference oracle) the interactions replay
        one at a time; under the vector engine — as resolved by the
        hierarchy, so a host without compiled kernels takes the scalar
        loop — the whole run replays through the interaction-batched
        pipeline.  Both paths consume identical bundle bytes and return
        bit-identical results; ``--engine scalar`` runs the loop.
        """
        n = n_interactions if n_interactions is not None else app.n_interactions
        rng = np.random.default_rng(seed)
        sec_proc, ins_proc = app.processes()
        self._run_seed = seed
        st = self._setup(app, sec_proc, ins_proc, rng)
        bd = st.breakdown
        sec_stats = ProcessStats(sec_proc.name, cores=st.secure_cores)
        ins_stats = ProcessStats(ins_proc.name, cores=st.insecure_cores)
        start = -self.post_setup_warmup
        count = n - start
        b_sec = interaction_bundle(app, "secure", sec_proc, seed, start, count)
        b_ins = interaction_bundle(app, "insecure", ins_proc, seed, start, count)
        if self.hier.engine == "vector":
            self._run_batched(
                app, st, sec_proc, ins_proc, b_sec, b_ins, start, n,
                bd, sec_stats, ins_stats,
            )
        else:
            self._run_loop(
                app, st, sec_proc, ins_proc, b_sec, b_ins, start, n,
                bd, sec_stats, ins_stats,
            )
        # One-time costs (attestation, the single reconfiguration event)
        # amortize over the application's full-scale run; the measured
        # window covers n of real_interactions of it.
        amortization = min(1.0, n / app.real_interactions)
        bd.attestation *= amortization
        bd.reconfig *= amortization
        return RunResult(
            machine=self.name,
            app=app.name,
            interactions=n,
            breakdown=bd,
            secure=sec_stats,
            insecure=ins_stats,
            secure_cores=st.secure_cores,
            insecure_cores=st.insecure_cores,
            predictor_evals=st.predictor_evals,
        )

    def _warmup_bundles(
        self,
        app: AppSpec,
        sec_proc: WorkloadProcess,
        ins_proc: WorkloadProcess,
        start: int,
        count: int,
    ) -> Tuple[TraceBundle, TraceBundle]:
        """Bundles for an extra (setup-time) warm-up index range."""
        seed = getattr(self, "_run_seed", 0)
        return (
            interaction_bundle(app, "secure", sec_proc, seed, start, count),
            interaction_bundle(app, "insecure", ins_proc, seed, start, count),
        )

    def _interaction(
        self,
        app: AppSpec,
        st: Setup,
        sec_proc: WorkloadProcess,
        ins_proc: WorkloadProcess,
        tr_sec: Trace,
        tr_ins: Trace,
        counted: bool,
        bd: Breakdown,
        sec_stats: ProcessStats,
        ins_stats: ProcessStats,
        index: int = 0,
    ) -> None:
        ts = app.time_scale
        pol = self.purge_policy

        # Periodic fence (interval schedules): flush before the
        # producer touches the caches.
        fence = 0.0
        if pol.flushes(index, "begin"):
            fence = self._policy_flush(app, st)

        # Insecure producer computes and posts the input message.
        res_ins = self.hier.run_trace(st.ctx_insecure, tr_ins.addrs, tr_ins.writes)
        t_ins = self._process_time(res_ins, tr_ins, ins_proc, len(st.ctx_insecure.cores))
        ipc_cycles = st.ipc.send(st.ctx_insecure, app.ipc_bytes)

        entry = self._secure_entry(app, st)
        if pol.flushes(index, "entry"):
            entry.purge += self._policy_flush(app, st)

        # Secure consumer picks the message up, computes, posts the reply.
        ipc_cycles += st.ipc.recv(st.ctx_secure, app.ipc_bytes)
        res_sec = self.hier.run_trace(st.ctx_secure, tr_sec.addrs, tr_sec.writes)
        t_sec = self._process_time(res_sec, tr_sec, sec_proc, len(st.ctx_secure.cores))
        ipc_cycles += st.ipc.send(st.ctx_secure, app.ipc_reply_bytes)

        exit_ = self._secure_exit(app, st)
        if pol.flushes(index, "exit"):
            exit_.purge += self._policy_flush(app, st)

        ipc_cycles += st.ipc.recv(st.ctx_insecure, app.ipc_reply_bytes)

        if counted:
            bd.compute += (t_ins + t_sec) * ts
            bd.ipc += ipc_cycles
            bd.crossing += entry.crossing + exit_.crossing
            bd.purge += fence + entry.purge + exit_.purge
            self._accumulate(ins_stats, res_ins, t_ins * ts)
            self._accumulate(sec_stats, res_sec, t_sec * ts)

    def _run_loop(
        self,
        app: AppSpec,
        st: Setup,
        sec_proc: WorkloadProcess,
        ins_proc: WorkloadProcess,
        b_sec: TraceBundle,
        b_ins: TraceBundle,
        start: int,
        n: int,
        bd: Breakdown,
        sec_stats: ProcessStats,
        ins_stats: ProcessStats,
    ) -> None:
        """Replay the interactions one at a time (the scalar oracle's
        path); takes the same arguments as :meth:`_run_batched`."""
        for k, i in enumerate(range(start, n)):
            self._interaction(
                app, st, sec_proc, ins_proc,
                b_sec.segment(k), b_ins.segment(k),
                i >= 0, bd, sec_stats, ins_stats,
                index=k,
            )

    def _run_batched(
        self,
        app: AppSpec,
        st: Setup,
        sec_proc: WorkloadProcess,
        ins_proc: WorkloadProcess,
        b_sec: TraceBundle,
        b_ins: TraceBundle,
        start: int,
        n: int,
        bd: Breakdown,
        sec_stats: ProcessStats,
        ins_stats: ProcessStats,
    ) -> None:
        """Replay every interaction through the batched pipeline.

        Builds one schedule covering the whole measured run — each
        interaction contributes six segments (producer trace, IPC send,
        IPC recv, consumer trace, IPC reply send, IPC reply recv) — and
        replays it through :class:`~repro.arch.batch_replay.
        BatchReplayer`.  Machines with a stateful purge policy (MI6's
        per-crossing purge, the temporal fence machines) replay
        per-boundary epochs with the flushes in between, exactly where
        the per-interaction loop fires them; for the others one epoch
        covers the entire run and the (state-neutral) crossing hooks
        are charged in the accounting pass.
        """
        from repro.arch.batch_replay import BatchReplayer, Segment

        ipc = st.ipc
        count = n - start
        segments: List[Segment] = []
        ops = []
        for k in range(count):
            tr_ins = b_ins.segment(k)
            tr_sec = b_sec.segment(k)
            send_ins = ipc.plan_send(st.ctx_insecure, app.ipc_bytes)
            recv_sec = ipc.plan_recv(st.ctx_secure, app.ipc_bytes)
            send_sec = ipc.plan_send(st.ctx_secure, app.ipc_reply_bytes)
            recv_ins = ipc.plan_recv(st.ctx_insecure, app.ipc_reply_bytes)
            segments.extend(
                [
                    Segment(st.ctx_insecure, tr_ins.addrs, tr_ins.writes),
                    Segment(send_ins.ctx, send_ins.addrs, send_ins.writes),
                    Segment(recv_sec.ctx, recv_sec.addrs, recv_sec.writes),
                    Segment(st.ctx_secure, tr_sec.addrs, tr_sec.writes),
                    Segment(send_sec.ctx, send_sec.addrs, send_sec.writes),
                    Segment(recv_ins.ctx, recv_ins.addrs, recv_ins.writes),
                ]
            )
            ops.append((tr_ins, tr_sec, send_ins, recv_sec, send_sec, recv_ins))

        replayer = BatchReplayer(self.hier, segments)
        pol = self.purge_policy
        entries: Optional[List[CrossingCost]] = None
        exits: Optional[List[CrossingCost]] = None
        fences: Optional[List[float]] = None
        if pol.stateful:
            # Stateful flushes: replay pauses at each flushing boundary
            # so the flush acts on (and wipes) the live microarchitec-
            # tural state.  Each epoch covers exactly the segments
            # between two flush barriers — for MI6's every-crossing
            # schedule interaction k's trailing reply-recv segment
            # merges with interaction k+1's producer trace and IPC send
            # (one planned epoch per crossing: 2 per interaction, not
            # 3), for a fence interval of N whole interactions merge
            # into one epoch — bit-identical either way because epoch
            # splits never change per-segment results.
            results: List[TraceResult] = []
            entries = []
            exits = []
            fences = []
            cursor = 0

            def advance(to: int) -> None:
                nonlocal cursor
                if to > cursor:
                    results.extend(replayer.run_epoch(cursor, to))
                    cursor = to

            for k in range(count):
                base = 6 * k
                fence = 0.0
                if pol.flushes(k, "begin"):
                    advance(base)
                    fence = self._policy_flush(app, st)
                fences.append(fence)
                if pol.flushes(k, "entry"):
                    advance(base + 2)
                entry = self._secure_entry(app, st)
                if pol.flushes(k, "entry"):
                    entry.purge += self._policy_flush(app, st)
                entries.append(entry)
                if pol.flushes(k, "exit"):
                    advance(base + 5)
                exit_ = self._secure_exit(app, st)
                if pol.flushes(k, "exit"):
                    exit_.purge += self._policy_flush(app, st)
                exits.append(exit_)
            advance(len(segments))
        else:
            results = replayer.run_epoch(0, len(segments))

        ts = app.time_scale
        n_ins = len(st.ctx_insecure.cores)
        n_sec = len(st.ctx_secure.cores)
        for k, i in enumerate(range(start, n)):
            tr_ins, tr_sec, send_ins, recv_sec, send_sec, recv_ins = ops[k]
            base = 6 * k
            res_ins = results[base]
            res_sec = results[base + 3]
            t_ins = self._process_time(res_ins, tr_ins, ins_proc, n_ins)
            ipc_cycles = ipc.finish(send_ins, results[base + 1].mem_cycles)
            entry = entries[k] if entries is not None else self._secure_entry(app, st)
            ipc_cycles += ipc.finish(recv_sec, results[base + 2].mem_cycles)
            t_sec = self._process_time(res_sec, tr_sec, sec_proc, n_sec)
            ipc_cycles += ipc.finish(send_sec, results[base + 4].mem_cycles)
            exit_ = exits[k] if exits is not None else self._secure_exit(app, st)
            ipc_cycles += ipc.finish(recv_ins, results[base + 5].mem_cycles)
            if i >= 0:
                fence = fences[k] if fences is not None else 0.0
                bd.compute += (t_ins + t_sec) * ts
                bd.ipc += ipc_cycles
                bd.crossing += entry.crossing + exit_.crossing
                bd.purge += fence + entry.purge + exit_.purge
                self._accumulate(ins_stats, res_ins, t_ins * ts)
                self._accumulate(sec_stats, res_sec, t_sec * ts)

    def _process_time(
        self,
        res: TraceResult,
        trace: Trace,
        proc: WorkloadProcess,
        n_alloc: int,
    ) -> float:
        """Per-interaction cycles for one process (representative-core
        time, parallel scaling, MC queueing)."""
        cpi = self.config.core.base_cpi
        t_rep = trace.instructions * cpi + res.mem_cycles
        n_used, factor = proc.profile.scalability.best_factor(max(1, n_alloc))
        t = t_rep * factor
        service = self.config.mem.mc_service_latency
        if t > 0:
            extra = 0.0
            for mc, reqs in res.mc_requests.items():
                if reqs:
                    extra += self.hier.controllers[mc].queue_delay(reqs, t) * reqs
            t += extra / max(1, n_used)
        return t

    @staticmethod
    def _accumulate(stats: ProcessStats, res: TraceResult, cycles: float) -> None:
        stats.accesses += res.accesses
        stats.l1_misses += res.l1_misses
        stats.l2_accesses += res.l2_accesses
        stats.l2_misses += res.l2_misses
        stats.tlb_misses += res.tlb_misses
        stats.compute_cycles += cycles

    # ------------------------------------------------------------------
    # Shared setup helpers
    # ------------------------------------------------------------------
    def _make_context(
        self,
        name: str,
        domain: str,
        cores,
        slices,
        controllers,
        regions,
        homing: str,
        rep_core: int = -1,
        replication: bool = False,
        numa_mc: bool = False,
    ) -> ProcessContext:
        vm = VirtualMemory(name, self.hier.address_space, list(regions))
        return ProcessContext(
            name=name,
            domain=domain,
            vm=vm,
            cores=list(cores),
            slices=list(slices),
            controllers=list(controllers),
            homing=homing,
            rep_core=rep_core,
            replication=replication,
            numa_mc=numa_mc,
        )

    def _attest(self, sec_proc: WorkloadProcess, bd: Breakdown) -> None:
        """Enroll + admit the secure process (one-time cost)."""
        image = sec_proc.profile.code_image or sec_proc.name.encode()
        self.kernel.enroll(sec_proc.name, image)
        self.kernel.admit(sec_proc.name, image)
        bd.attestation += cycles_from_us(self.config.costs.attestation_us)
