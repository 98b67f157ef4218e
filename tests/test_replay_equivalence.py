"""Scalar-vs-vector replay engine equivalence suite.

The vector engine (the compiled kernels) must produce **bit-identical**
results to the scalar reference oracle — every
:class:`TraceResult` counter including ``mem_cycles``, every cache's
stats and resident lines (with LRU order and dirty flags), the TLB
contents, and the replica-tracking sets — across random traces and the
adversarial patterns that exercised historical bugs: write-heavy
streams, purge-interleaved replay, page re-homing mid-stream, replicated
hash-homed sharing and NUMA controller binding.

Without a C toolchain a ``vector`` configuration runs the scalar oracle
itself; :class:`TestNoCompilerPath` pins that resolution, and the
``backend`` fixture replays every engine-pair test on that path too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.address import VirtualMemory
from repro.arch.hierarchy import MemoryHierarchy, ProcessContext
from repro.arch.native import native_available
from repro.config import SystemConfig
from repro.errors import CacheIsolationViolation, MemoryIsolationViolation
from repro.experiments.runner import ExperimentSettings, run_one
from repro.machines import MACHINES, build_machine
from repro.workloads import get_app

#: Registry-derived machine axis (same list the shared ``machine_name``
#: fixture in conftest.py parametrizes over) for direct parametrization.
ALL_MACHINES = tuple(MACHINES)

pytestmark = pytest.mark.equivalence

BACKENDS = ["no_native"] + (["native"] if native_available() else [])


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    """Run each test with and without the compiled kernels.

    ``no_native`` makes :func:`~repro.arch.native.native_available`
    report False, as on a host without a C toolchain, so the ``vector``
    side resolves to the scalar oracle.  Memoized runs are keyed by
    config, not by the resolved engine, so that case starts and finishes
    with a cold result cache.
    """
    if request.param == "native":
        yield request.param
        return
    from repro.experiments.runner import clear_result_cache

    monkeypatch.setattr("repro.arch.hierarchy.native_available", lambda: False)
    clear_result_cache()
    try:
        yield request.param
    finally:
        clear_result_cache()


def set_entries(cache, set_index):
    """[tag, dirty] pairs MRU-first, whichever implementation."""
    if hasattr(cache, "set_entries"):
        return cache.set_entries(set_index)
    return cache._sets[set_index]


def tlb_entries(tlb):
    if hasattr(tlb, "lru_entries"):
        return tlb.lru_entries()
    return [int(p) for p in tlb._entries]


class EnginePair:
    """Two hierarchies fed identical inputs: by default scalar and vector."""

    def __init__(
        self, config=None, regions=(0, 1), engines=("scalar", "vector"), **ctx_kwargs
    ):
        config = config or SystemConfig.evaluation()
        ctx_kwargs.setdefault("cores", list(range(6)))
        ctx_kwargs.setdefault("slices", list(range(8)))
        ctx_kwargs.setdefault("controllers", [0, 1])
        self.sides = []
        for engine in engines:
            hier = MemoryHierarchy(config.with_engine(engine))
            vm = VirtualMemory("p", hier.address_space, list(regions))
            ctx = ProcessContext("p", "secure", vm, **ctx_kwargs)
            self.sides.append((hier, ctx))

    def run(self, addrs, writes=None):
        (hs, cs), (hv, cv) = self.sides
        rs = hs.run_trace(cs, addrs, writes)
        rv = hv.run_trace(cv, addrs, writes)
        assert rs == rv
        return rs

    def purge(self, cores=None):
        (hs, cs), (hv, cv) = self.sides
        cores = cores if cores is not None else [cs.rep_core]
        assert hs.purge_private(cores) == hv.purge_private(cores)
        assert hs.clean_l2(cs.slices) == hv.clean_l2(cv.slices)

    def assert_same_state(self):
        (hs, cs), (hv, cv) = self.sides
        l1s, l1v = hs.l1_for(cs.rep_core), hv.l1_for(cv.rep_core)
        assert l1s.stats == l1v.stats
        for s in range(l1s.n_sets):
            assert set_entries(l1s, s) == set_entries(l1v, s)
        assert set(hs._l2) == set(hv._l2)
        for tile in hs._l2:
            a, b = hs._l2[tile], hv._l2[tile]
            assert a.stats == b.stats
            for s in range(a.n_sets):
                assert set_entries(a, s) == set_entries(b, s)
        assert tlb_entries(hs.tlb_for(cs.rep_core)) == tlb_entries(
            hv.tlb_for(cv.rep_core)
        )
        assert (cs._replicated or set()) == (cv._replicated or set())


def random_trace(rng, n, span=1 << 19, run_prob=0.5, write_frac=0.4):
    addrs = rng.integers(0, span, size=n, dtype=np.int64)
    reps = 1 + (rng.random(n) < run_prob).astype(np.int64)
    addrs = np.repeat(addrs, reps)[:n]
    writes = (rng.random(n) < write_frac).astype(np.int8)
    return addrs, writes


class TestTraceEquivalence:
    def test_random_traces(self, backend, rng):
        pair = EnginePair()
        for _ in range(5):
            addrs, writes = random_trace(rng, int(rng.integers(1, 4000)))
            pair.run(addrs, writes)
            pair.assert_same_state()

    def test_write_heavy(self, backend, rng):
        pair = EnginePair()
        for _ in range(3):
            addrs, writes = random_trace(rng, 3000, write_frac=0.95)
            pair.run(addrs, writes)
        pair.assert_same_state()

    def test_purge_interleaved(self, backend, rng):
        pair = EnginePair()
        for i in range(6):
            addrs, writes = random_trace(rng, 1500)
            pair.run(addrs, writes)
            if i % 2:
                pair.purge()
                pair.assert_same_state()
        pair.assert_same_state()

    def test_rehoming_interleaved(self, backend, rng):
        pair = EnginePair()
        for i in range(4):
            addrs, writes = random_trace(rng, 1500, span=1 << 17)
            pair.run(addrs, writes)
            (hs, cs), (hv, cv) = pair.sides
            frames = sorted(cs.vm.page_table.values())[: 2 + i]
            for ctx in (cs, cv):
                ctx.slices = list(reversed(ctx.slices))
                ctx._rr_next = 0
            assert hs.rehome_frames(frames, cs) == hv.rehome_frames(frames, cv)
            pair.assert_same_state()

    def test_replication_hash_homed(self, backend, rng):
        pair = EnginePair(
            homing="hash", replication=True, slices=list(range(16)),
        )
        for _ in range(4):
            addrs, writes = random_trace(rng, 2500, span=1 << 17)
            res = pair.run(addrs, writes)
            pair.assert_same_state()
        assert res.accesses == 2500

    def test_numa_mc(self, backend, rng):
        pair = EnginePair(numa_mc=True, homing="hash", slices=list(range(16)))
        for _ in range(3):
            addrs, writes = random_trace(rng, 2000)
            pair.run(addrs, writes)
        pair.assert_same_state()

    def test_empty_and_single(self, backend):
        pair = EnginePair()
        res = pair.run(np.empty(0, dtype=np.int64))
        assert res.accesses == 0
        pair.run(np.asarray([4096], dtype=np.int64))
        pair.assert_same_state()

    def test_sticky_streams(self, backend):
        """Interleaved same-line streams revisiting one L1 set."""
        a = np.asarray([0, 4096, 64, 0, 4096, 0, 4096, 128], dtype=np.int64)
        addrs = np.tile(a, 300) + 64 * np.repeat(
            np.arange(300, dtype=np.int64) % 7, len(a)
        )
        writes = (np.arange(len(addrs)) % 3 == 0).astype(np.int8)
        pair = EnginePair()
        pair.run(addrs, writes)
        pair.assert_same_state()

    def test_app_interaction_traces(self, backend, rng):
        pair = EnginePair(slices=list(range(16)), regions=(0, 1, 2, 3))
        for app_name in ("<AES, QUERY>", "<MEMCACHED, OS>"):
            app = get_app(app_name)
            sec, ins = app.processes()
            for proc in (sec, ins):
                for i in range(2):
                    tr = proc.interaction_trace(rng, i)
                    pair.run(tr.addrs, tr.writes)
        pair.assert_same_state()


class TestFuzzEquivalence:
    """Seeded randomized fuzzing beyond the hand-picked workloads.

    Each (machine config, seed) pair derives every trace parameter —
    length, address span, run-length bias, write fraction — and the
    context shape (slice count, homing policy, replication) from its
    own seeded generator, so the suite sweeps a reproducible cloud of
    contexts the targeted tests above never visit.
    """

    CONFIGS = {
        "small": SystemConfig.small,
        "evaluation": SystemConfig.evaluation,
    }

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_fuzzed_random_traces(self, backend, config_name, seed):
        rng = np.random.default_rng(7_000 + seed)
        config = self.CONFIGS[config_name]()
        homing = "hash" if seed % 2 else "local"
        pair = EnginePair(
            config=config,
            homing=homing,
            replication=(homing == "hash"),
            slices=list(range((4, 8, 16)[seed % 3])),
        )
        for _ in range(3):
            n = int(rng.integers(200, 2500))
            addrs, writes = random_trace(
                rng,
                n,
                span=1 << int(rng.integers(14, 20)),
                run_prob=float(rng.random()),
                write_frac=float(rng.random()),
            )
            res = pair.run(addrs, writes)
            assert res.accesses == n
            pair.assert_same_state()
        if seed % 3 == 0:
            pair.purge()
            pair.assert_same_state()


class TestBatchedReplayEquivalence:
    """``run_trace_batched`` vs the per-call loop (same engine)."""

    def test_random_segments_match_per_call(self, backend, rng):
        for trial in range(3):
            n = int(rng.integers(1000, 6000))
            addrs, writes = random_trace(rng, n, span=1 << 18)
            cuts = np.sort(rng.integers(0, n, size=int(rng.integers(2, 9))))
            bounds = [0] + cuts.tolist() + [n]
            pair = EnginePair()
            (hs, cs), (hv, cv) = pair.sides
            per = [
                hs.run_trace(cs, addrs[a:b], writes[a:b])
                for a, b in zip(bounds[:-1], bounds[1:])
            ]
            bat = hv.run_trace_batched(cv, addrs, writes, bounds)
            assert per == bat
            pair.assert_same_state()

    def test_empty_segments_and_scalar_fallback(self, backend, rng):
        addrs, writes = random_trace(rng, 500)
        bounds = [0, 0, 120, 120, 500]
        pair = EnginePair()
        (hs, cs), (hv, cv) = pair.sides
        # The scalar engine's run_trace_batched is the per-call loop.
        per = hs.run_trace_batched(cs, addrs, writes, bounds)
        bat = hv.run_trace_batched(cv, addrs, writes, bounds)
        assert per == bat
        assert [r.accesses for r in bat] == [0, 120, 0, 380]
        pair.assert_same_state()

    def test_per_segment_contexts(self, backend, rng):
        """A context per segment, as the attack harnesses schedule their
        attacker and victim touches: two page tables, cores and slice
        sets interleaved segment by segment."""
        pair = EnginePair()
        others = []
        for hier, ctx in pair.sides:
            vm = VirtualMemory("q", hier.address_space, [2, 3])
            others.append(ProcessContext(
                "q", "insecure", vm, cores=[8, 9], slices=[8, 9, 10], controllers=[2, 3]
            ))
        (hs, cs), (hv, cv) = pair.sides
        addrs, writes = random_trace(rng, 2000, span=1 << 17)
        bounds = [0, 1, 2, 300, 301, 900, 1500, 1501, 2000]
        picks = rng.integers(0, 2, size=len(bounds) - 1).tolist()
        ctxs_s = [(cs, others[0])[p] for p in picks]
        ctxs_v = [(cv, others[1])[p] for p in picks]
        per = [
            hs.run_trace(c, addrs[a:b], writes[a:b])
            for c, a, b in zip(ctxs_s, bounds[:-1], bounds[1:])
        ]
        assert hv.run_trace_batched(ctxs_v, addrs, writes, bounds) == per
        pair.assert_same_state()
        assert others[0].vm.page_table == others[1].vm.page_table
        assert np.array_equal(hs.home_table, hv.home_table)
        with pytest.raises(ValueError):
            hv.run_trace_batched(ctxs_v[:-1], addrs, writes, bounds)

    def test_replicated_segments(self, backend, rng):
        pair = EnginePair(homing="hash", replication=True, slices=list(range(16)))
        (hs, cs), (hv, cv) = pair.sides
        for _ in range(2):
            addrs, writes = random_trace(rng, 3000, span=1 << 16)
            bounds = [0, 900, 1800, 3000]
            per = [
                hs.run_trace(cs, addrs[a:b], writes[a:b])
                for a, b in zip(bounds[:-1], bounds[1:])
            ]
            bat = hv.run_trace_batched(cv, addrs, writes, bounds)
            assert per == bat
            pair.assert_same_state()


def threshold_trace(rng, n, config):
    """``n`` accesses built to stress a front end's edge cases.

    The walk repeats lines (runs), sets write flags inside runs (not
    only on a run's first access, so the max-reduction matters) and
    steps across page boundaries in both directions, from a base a few
    lines short of one, so pages are first touched out of order.
    """
    line, page = config.line_bytes, config.page_bytes
    lpp = page // line
    cur = int(rng.integers(8, 64)) * lpp - 2
    lines = []
    for _ in range(n):
        lines.append(cur)
        step = rng.choice([0, 0, 1, -1, lpp, 3 * lpp + 5, -2 * lpp - 3])
        cur = max(0, cur + int(step))
    offsets = rng.integers(0, line, size=n)
    addrs = np.asarray(lines, dtype=np.int64) * line + offsets
    writes = (rng.random(n) < 0.3).astype(np.int8)
    return addrs, writes


def assert_conserved(res):
    assert res.accesses == res.l1_hits + res.l1_misses
    assert res.l1_misses == res.l2_hits + res.l2_misses
    assert sum(res.mc_requests.values()) == res.l2_misses


#: Tiny-trace lengths: one access, and around 16 accesses, where the
#: vector engine once switched between a list front end and NumPy.
TINY_TRACE = 16
THRESHOLD_LENGTHS = (1, TINY_TRACE - 1, TINY_TRACE, TINY_TRACE + 1, 2 * TINY_TRACE)

#: Context shapes the threshold tests cover.
THRESHOLD_CONTEXTS = {
    "local": dict(),
    "hash_replicated": dict(homing="hash", replication=True, slices=list(range(16))),
    "numa_mc": dict(homing="hash", numa_mc=True, slices=list(range(16))),
}


class TestSmallTraceThreshold:
    """Tiny per-call traces on the vector engine against the scalar oracle.

    Every vector ``run_trace`` call, one access or thousands, takes the
    NumPy front end and one ``replay_events`` kernel call.  Tiny traces
    stress its edge cases (single events, runs, page steps both ways);
    they must match the oracle on a shared, evolving state.
    """

    @pytest.mark.parametrize("shape", sorted(THRESHOLD_CONTEXTS))
    def test_lengths_around_threshold(self, backend, rng, shape):
        pair = EnginePair(**THRESHOLD_CONTEXTS[shape])
        config = pair.sides[0][0].config
        for _ in range(3):
            for n in THRESHOLD_LENGTHS:
                addrs, writes = threshold_trace(rng, n, config)
                res = pair.run(addrs, writes)
                assert res.accesses == n
                assert_conserved(res)
                pair.assert_same_state()
            pair.purge()
            pair.assert_same_state()

    def test_dispatch_boundary(self, rng):
        if not native_available():
            pytest.skip("compiled kernels unavailable")
        pair = EnginePair()
        hv, cv = pair.sides[1]
        assert hv.engine == "vector"
        taken = []

        def spy(name, method):
            def wrapped(*args):
                taken.append(name)
                return method(*args)
            return wrapped

        hv._events_array = spy("numpy", hv._events_array)
        hv._replay_scalar = spy("loop", hv._replay_scalar)
        hv._replay_vector = spy("kernel", hv._replay_vector)
        for n in THRESHOLD_LENGTHS:
            taken.clear()
            pair.run(*threshold_trace(rng, n, hv.config))
            assert taken == ["numpy", "kernel"], n
        pair.assert_same_state()

    @pytest.mark.parametrize("shape", sorted(THRESHOLD_CONTEXTS))
    def test_tiny_calls_match_batched_planner(self, backend, rng, shape):
        """Per-call tiny traces vs ``run_trace_batched`` over the same segments.

        ``BatchReplayer`` plans the whole schedule at once, so this
        compares the per-call front end against a second one on
        identical vector hierarchies.
        """
        pair = EnginePair(engines=("vector", "vector"), **THRESHOLD_CONTEXTS[shape])
        (h1, c1), (h2, c2) = pair.sides
        config = h1.config
        for _ in range(3):
            lengths = rng.integers(1, TINY_TRACE + 1, size=12).tolist()
            traces = [threshold_trace(rng, n, config) for n in lengths]
            per = [h1.run_trace(c1, a, w) for a, w in traces]
            bounds = np.cumsum([0] + lengths).tolist()
            addrs = np.concatenate([a for a, _ in traces])
            writes = np.concatenate([w for _, w in traces])
            assert h2.run_trace_batched(c2, addrs, writes, bounds) == per
            for res in per:
                assert_conserved(res)
        pair.assert_same_state()

    @pytest.mark.parametrize("violation", ["memory", "cache"])
    def test_tiny_violation_matches_oracle(self, backend, violation):
        pair = EnginePair(regions=(0, 1), slices=[0, 1])
        page = pair.sides[0][0].config.page_bytes
        # Three pages, first touched in descending order, allocated
        # (in ascending page order) round-robin over regions 0 and 1.
        addrs = np.asarray([2 * page + 64, page, 0], dtype=np.int64)
        errors = []
        for hier, ctx in pair.sides:
            if violation == "memory":
                hier.dram.assign_owner([1], "insecure")
            else:
                hier.run_trace(ctx, addrs[-1:])
                frame = ctx.vm.page_table[0]
                hier.home_table[frame] = 7  # planted foreign home
            with pytest.raises((MemoryIsolationViolation, CacheIsolationViolation)) as exc:
                hier.run_trace(ctx, addrs, np.ones(3, dtype=np.int8))
            errors.append((type(exc.value), str(exc.value)))
        assert errors[0] == errors[1]
        (hs, cs), (hv, cv) = pair.sides
        assert cs.vm.page_table == cv.vm.page_table
        assert np.array_equal(hs.home_table, hv.home_table)


class TestFusedKernelPaths:
    """The fused kernel over the state arena, and its lazy views.

    One ``BatchReplayer`` schedule against the per-call scalar oracle.
    The schedule starts on a fresh hierarchy, so every L2 slice is
    first touched by the kernel inside an epoch and gets its Python
    view only afterwards; one core only has empty segments; two
    context groups share one replica set; and a ``purge_private`` sits
    between the two epochs.
    """

    def _contexts(self, hier):
        shared = VirtualMemory("p", hier.address_space, [0, 1])
        replicated = set()
        common = dict(
            cores=[0, 1, 2], slices=list(range(16)), controllers=[0, 1],
            homing="hash", replication=True, _replicated=replicated,
        )
        return [
            ProcessContext("a", "secure", shared, rep_core=0, **common),
            ProcessContext("b", "secure", shared, rep_core=1, **common),
            ProcessContext(
                "idle", "secure", VirtualMemory("q", hier.address_space, [2]),
                cores=[5], slices=[5], controllers=[2],
            ),
            ProcessContext(
                "c", "secure", VirtualMemory("r", hier.address_space, [3]),
                cores=[8, 9], slices=[20, 21, 22], controllers=[3],
            ),
        ]

    def test_arena_and_lazy_views_match_oracle(self, rng):
        if not native_available():
            pytest.skip("compiled kernels unavailable")
        from repro.arch.batch_replay import BatchReplayer, Segment

        config = SystemConfig.evaluation()
        hs = MemoryHierarchy(config.with_engine("scalar"))
        hv = MemoryHierarchy(config.with_engine("vector"))
        cs, cv = self._contexts(hs), self._contexts(hv)
        plan = []
        for who in (0, 0, 1, 2, 3, 3, 0, 1, 2, 1, 3, 0):
            n = 0 if who == 2 else int(rng.integers(50, 600))
            addrs, writes = random_trace(rng, n, span=1 << 16)
            if n and plan and len(plan[-1][1]):
                # Continue on the previous segment's line: the per-call
                # TLB page and run compression restart at each segment.
                addrs[0] = plan[-1][1][-1]
            plan.append((who, addrs, writes))
        cut = 6

        replayer = BatchReplayer(
            hv, [Segment(cv[who], a, w) for who, a, w in plan]
        )
        per, bat, created = [], [], []
        for a, b in ((0, cut), (cut, len(plan))):
            per += [hs.run_trace(cs[who], addrs, w) for who, addrs, w in plan[a:b]]
            before = set(hv._l2)
            bat += replayer.run_epoch(a, b)
            created += set(hv._l2) - before
            if a == 0:
                assert hs.purge_private([0, 1, 2]) == hv.purge_private([0, 1, 2])
        assert per == bat
        assert len(created) >= 3

        assert set(hs._l1) == set(hv._l1) == {0, 1, 8}
        assert set(hs._tlb) == set(hv._tlb) == {0, 1, 8}
        assert set(hs._l2) == set(hv._l2)
        for ref, got in [(hs._l1, hv._l1), (hs._l2, hv._l2)]:
            for key in ref:
                assert ref[key].stats == got[key].stats, key
                for s in range(ref[key].n_sets):
                    assert set_entries(ref[key], s) == set_entries(got[key], s)
        for core in hs._tlb:
            assert hs._tlb[core].stats == hv._tlb[core].stats
            assert tlb_entries(hs._tlb[core]) == tlb_entries(hv._tlb[core])
        assert cs[0]._replicated == cv[0]._replicated
        assert cv[0]._replicated and cv[0]._replicated is cv[1]._replicated


class TestExactAccumulation:
    """Cycle sums are exact in any order, so the kernel may fold per event.

    Every latency term is a multiple of 1/64 cycle: the cluster-average
    distances are quantized to 1/64 hop and the controller distances
    are whole hops.  A float64 sum of such terms is exact while it
    stays below 2^53 / 64, whatever the summation order.
    """

    def test_fig6_mix_terms_and_sums_are_dyadic(self, monkeypatch):
        if not native_available():
            pytest.skip("compiled kernels unavailable")
        import repro.arch.hierarchy as hierarchy
        from repro.experiments.fig6 import run_fig6
        from repro.experiments.golden import quick_settings
        from repro.experiments.runner import clear_result_cache

        tables, sums = [], []
        avg = MemoryHierarchy._avg_core_distances
        replay = hierarchy.replay_events

        def avg_spy(self, cores):
            tables.append((self.mesh.mc_distances, avg(self, cores)))
            return tables[-1][1]

        def replay_spy(*args, **kwargs):
            out = replay(*args, **kwargs)
            sums.append(out[1].copy())
            return out

        monkeypatch.setattr(MemoryHierarchy, "_avg_core_distances", avg_spy)
        monkeypatch.setattr(hierarchy, "replay_events", replay_spy)
        clear_result_cache()
        try:
            run_fig6(quick_settings("vector"), verbose=False)
        finally:
            clear_result_cache()
        assert tables and sums
        for mc_distances, d_core in tables:
            assert np.all(np.asarray(d_core) * 64 % 1 == 0)
            assert np.all(mc_distances * 64 % 1 == 0)
        mem = np.concatenate(sums)
        assert np.all(mem * 64 % 1 == 0)
        assert mem.max() < 2.0 ** 53 / 64


class TestCalibrationEquivalence:
    """Shared-hierarchy probe curves vs the per-probe scalar oracle.

    The IRONHIDE calibration (``calibrate_l2_curve``) replays every
    probe point of a curve through one reset scratch hierarchy and the
    fused kernel under the vector engine; every probe point's
    :class:`TraceResult` must stay bit-identical to the per-probe
    scratch-hierarchy oracle, empty windows included.
    """

    APPS = ("<AES, QUERY>", "<MEMCACHED, OS>", "<TC, GRAPH>")
    COUNTS = [1, 2, 3, 5, 8, 16, 24, 48, 62]

    def _windows(self, app_name, empty=None):
        """Each process's (warm, measure) windows; ``empty`` names one
        window to replace with an empty trace."""
        from repro.machines.ironhide import _CALIBRATION_SEED
        from repro.sim.trace import Trace

        app = get_app(app_name)
        for proc in app.processes():
            crng = np.random.default_rng(_CALIBRATION_SEED)
            windows = {
                "warm": proc.calibration_trace(crng, 2, start=0),
                "measure": proc.calibration_trace(crng, 2, start=2),
            }
            if empty is not None:
                windows[empty] = Trace(np.empty(0, dtype=np.int64))
            yield proc, windows["warm"], windows["measure"]

    @pytest.mark.parametrize(
        "app_name, empty",
        [pytest.param(app, None, id=app) for app in APPS]
        + [
            pytest.param("<AES, QUERY>", "warm", id="<AES, QUERY>-empty warm"),
            pytest.param("<AES, QUERY>", "measure", id="<AES, QUERY>-empty measure"),
        ],
    )
    def test_batched_curve_matches_scalar_oracle(self, backend, app_name, empty):
        from repro.model.perf_model import (
            calibrate_l2_curve,
            calibrate_l2_curve_oracle,
        )

        for proc, warm, measure in self._windows(app_name, empty):
            oracle = calibrate_l2_curve(
                SystemConfig.evaluation().with_engine("scalar"),
                warm, measure, self.COUNTS,
            )
            batched = calibrate_l2_curve(
                SystemConfig.evaluation().with_engine("vector"),
                warm, measure, self.COUNTS,
            )
            assert list(batched) == list(oracle)
            for k in self.COUNTS:
                assert batched[k] == oracle[k], (proc.name, k)
            # Same engine, planner off: the vector per-probe loop.
            per_probe = calibrate_l2_curve_oracle(
                SystemConfig.evaluation().with_engine("vector"),
                warm, measure, self.COUNTS,
            )
            assert batched == per_probe, proc.name

    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_probe_count_outside_mesh_raises(self, backend, engine, monkeypatch):
        """Slice counts must name existing slices, checked before any replay."""
        from repro.model import perf_model

        def no_replay(*args, **kwargs):
            raise AssertionError("replayed before validating the slice counts")

        monkeypatch.setattr(perf_model, "MemoryHierarchy", no_replay)
        config = SystemConfig.evaluation().with_engine(engine)
        proc, warm, measure = next(self._windows("<MEMCACHED, OS>"))
        for k in (0, config.n_cores + 1):
            with pytest.raises(ValueError, match="probe slice count"):
                perf_model.calibrate_l2_curve(config, warm, measure, [1, k])

    def test_probe_curve_store_round_trip(self, tmp_path):
        """Probe curves survive the result store bit-exactly."""
        from repro.experiments.store import ResultStore
        from repro.model.perf_model import calibrate_l2_curve

        proc, warm, measure = next(self._windows("<AES, QUERY>"))
        counts = [1, 4, 16]
        probes = calibrate_l2_curve(
            SystemConfig.evaluation().with_engine("vector"), warm, measure, counts
        )
        store = ResultStore(tmp_path)
        key = ("probe-curve-test", proc.name)
        store.put(key, {str(k): r.as_payload() for k, r in probes.items()})
        store.clear_memory()
        loaded = store.get(key)
        from repro.arch.hierarchy import TraceResult

        rebuilt = {int(k): TraceResult.from_payload(v) for k, v in loaded.items()}
        assert rebuilt == probes


class TestPurgePathOccupancy:
    """Incremental valid/dirty occupancy vs a ground-truth recount.

    The purge models (``purge_private`` / ``clean_l2``) read occupancy
    off O(1) counters maintained by every kernel; these gates recount
    the actual cache state after adversarial replay/purge/evict
    sequences and on both engines.
    """

    @staticmethod
    def _recount(cache):
        valid = 0
        dirty = 0
        for s in range(cache.n_sets):
            entries = set_entries(cache, s)
            valid += len(entries)
            dirty += sum(1 for _, d in entries if d)
        return valid, dirty

    def _assert_counters(self, hier, ctx):
        for cache in [hier.l1_for(ctx.rep_core)] + [
            hier._l2[t] for t in hier._l2
        ]:
            assert (cache.valid_lines, cache.dirty_lines) == self._recount(
                cache
            ), cache.name

    def test_counters_track_replay_and_purge(self, backend, rng):
        pair = EnginePair()
        for i in range(5):
            addrs, writes = random_trace(rng, 2500, write_frac=0.6)
            pair.run(addrs, writes)
            for hier, ctx in pair.sides:
                self._assert_counters(hier, ctx)
            if i % 2:
                pair.purge()
                for hier, ctx in pair.sides:
                    self._assert_counters(hier, ctx)
                    assert hier.l1_for(ctx.rep_core).valid_lines == 0
                    assert hier.l2_dirty_lines(ctx.slices) == 0

    def test_counters_track_rehoming(self, backend, rng):
        pair = EnginePair()
        for i in range(3):
            addrs, writes = random_trace(rng, 1500, span=1 << 16)
            pair.run(addrs, writes)
            (hs, cs), (hv, cv) = pair.sides
            frames = sorted(cs.vm.page_table.values())[: 3 + i]
            for ctx in (cs, cv):
                ctx.slices = list(reversed(ctx.slices))
                ctx._rr_next = 0
            assert hs.rehome_frames(frames, cs) == hv.rehome_frames(frames, cv)
            for hier, ctx in pair.sides:
                self._assert_counters(hier, ctx)

    def test_clean_all_is_idempotent_and_cheap(self, backend, rng):
        pair = EnginePair()
        addrs, writes = random_trace(rng, 2000, write_frac=0.9)
        pair.run(addrs, writes)
        (hs, cs), (hv, cv) = pair.sides
        first = hs.clean_l2(cs.slices)
        assert first == hv.clean_l2(cv.slices)
        assert first > 0
        # Second clean: all counters are zero, nothing to write back.
        assert hs.clean_l2(cs.slices) == hv.clean_l2(cv.slices) == 0
        for hier, ctx in pair.sides:
            self._assert_counters(hier, ctx)

    def test_arena_slots_set_and_disjoint(self):
        """A vector hierarchy's state arena: every slot set, none shared."""
        if not native_available():
            pytest.skip("compiled kernels unavailable")
        config = SystemConfig.evaluation()
        hier = MemoryHierarchy(config.with_engine("vector"))
        arena = hier._arena
        n_tiles = hier.mesh.n_cores
        ways = (
            [config.l1.n_sets * config.l1.associativity] * n_tiles
            + [config.l2_slice.n_sets * config.l2_slice.associativity] * n_tiles
            + [config.tlb.entries] * n_tiles
        )
        tab = arena.cache_tab.reshape(-1, 4)
        assert len(tab) == len(ways) == 3 * n_tiles
        assert (tab != 0).all()
        # {tags, dirty, age, clock}: item sizes and extents per slot.
        for col, (size, extents) in enumerate(
            [(8, ways), (1, ways), (8, ways), (8, [1] * len(ways))]
        ):
            spans = sorted(
                (start, start + size * n) for start, n in zip(tab[:, col].tolist(), extents)
            )
            assert all(end <= nxt for (_, end), (nxt, _) in zip(spans, spans[1:])), col
        buffers = (arena.tags, arena.dirty, arena.age, arena.clock)
        for col, buf in enumerate(buffers):
            lo = buf.ctypes.data
            assert lo <= tab[:, col].min() and tab[:, col].max() < lo + buf.nbytes
        assert (arena.tags == -1).all() and not arena.stats.any()

    def test_batched_mi6_arena_matches_recount(self):
        """After a batched MI6 run (purges between epochs), touched slots
        keep exact occupancy and untouched ones read empty."""
        if not native_available():
            pytest.skip("compiled kernels unavailable")
        from repro.arch.native import FLUSHES, HITS, MISSES

        config = SystemConfig.evaluation().with_engine("vector")
        machine = build_machine("mi6", config)
        machine.run(get_app("<MEMCACHED, OS>"), n_interactions=3, seed=0)
        hier = machine.hier
        assert hier.engine == "vector"
        arena = hier._arena
        n_tiles = hier.mesh.n_cores
        views = {**hier._l1, **{n_tiles + t: c for t, c in hier._l2.items()}}
        views.update({2 * n_tiles + c: t for c, t in hier._tlb.items()})
        assert hier._l2 and hier._l1 and hier._tlb
        for slot in range(3 * n_tiles):
            row = arena.stats[slot]
            view = views.get(slot)
            if view is None:
                a, b = arena.offsets[slot], arena.offsets[slot + 1]
                assert (arena.tags[a:b] == -1).all() and not arena.dirty[a:b].any()
                assert not row.any(), slot
                continue
            assert row[HITS] + row[MISSES] > 0 or row[FLUSHES] > 0, view.name
            if slot >= 2 * n_tiles:
                assert view.occupancy <= view.config.entries
                continue
            valid, dirty = self._recount(view)
            assert (view.valid_lines, view.dirty_lines) == (valid, dirty), view.name
            assert dirty <= valid <= view.n_sets * view.assoc

    def test_purge_report_matches_recount(self, backend, rng):
        """PurgeModel dirty-drain accounting equals a state recount."""
        from repro.secure.purge import PurgeModel

        pair = EnginePair()
        addrs, writes = random_trace(rng, 3000, write_frac=0.7)
        pair.run(addrs, writes)
        reports = []
        for hier, ctx in pair.sides:
            expected_dirty = sum(
                self._recount(hier._l2[t])[1] for t in hier._l2
            )
            model = PurgeModel(hier.config)
            report = model.purge(
                hier, cores=[ctx.rep_core], l2_slices=ctx.slices,
                controllers=ctx.controllers,
            )
            assert report.dirty_lines_drained == expected_dirty
            reports.append(report)
        assert reports[0] == reports[1]


class TestMachineEquivalence:
    def test_full_machine_runs_identical(self, backend, machine_name):
        """End-to-end machine runs (purges, IPC, reconfiguration and
        timing model included) must not depend on the engine.

        Parametrized over the whole ``MACHINES`` registry via the
        shared ``machine_name`` fixture — this is the equivalence gate
        the registry-coverage meta-test in ``test_machines.py`` keys
        on.
        """
        results = {}
        for engine in ("scalar", "vector"):
            settings = ExperimentSettings(
                config=SystemConfig.evaluation().with_engine(engine),
                n_user=3,
                n_os=6,
            )
            results[engine] = run_one(get_app("<AES, QUERY>"), machine_name, settings)
        assert results["scalar"] == results["vector"]

    @pytest.mark.parametrize("pop_seed", (0, 7))
    def test_population_mix_runs_identical(self, backend, machine_name, pop_seed):
        """Served-population tuples must not depend on the engine either.

        Samples the head of a skewed population and replays each user's
        (app, trace_scale, interactions) tuple through the real
        ``run`` unit executor on both engines — so the scaled
        traces and per-user session lengths figpop serves ride the same
        equivalence guarantee as the fixed mixes.  Parametrized over
        the whole ``MACHINES`` registry via the shared ``machine_name``
        fixture — the second gate the registry-coverage meta-test in
        ``test_machines.py`` keys on.
        """
        from repro.experiments.sweep import execute_unit, run_unit
        from repro.workloads.population import PopulationSpec, sample_population

        users = sample_population(pop_seed, 2, PopulationSpec(skew=1.4))
        for user in users:
            unit = run_unit(
                user.app, machine_name, user.trace_scale,
                min(user.interactions, 4),
            )
            results = {}
            for engine in ("scalar", "vector"):
                settings = ExperimentSettings(
                    config=SystemConfig.evaluation().with_engine(engine),
                )
                results[engine] = execute_unit(unit, settings)
            assert results["scalar"] == results["vector"], user

    @pytest.mark.parametrize("machine", ALL_MACHINES)
    def test_fig6_mix_batched_identical(self, machine, calibration_cache):
        """Scalar per-interaction loop vs batched vector pipeline over
        the full Fig. 6 application mix, for every machine.

        This is the acceptance gate for the interaction-batched replay
        path: whole `Machine.run` results — breakdowns, per-process
        cache stats, predictor decisions — must be bit-identical.
        """
        from repro.workloads import APPS

        for app in APPS:
            results = {}
            for engine in ("scalar", "vector"):
                settings = ExperimentSettings(
                    config=SystemConfig.evaluation().with_engine(engine),
                    n_user=2,
                    n_os=4,
                    calibration_cache=calibration_cache,
                )
                results[engine] = run_one(app, machine, settings)
            assert results["scalar"] == results["vector"], app.name

    def test_batched_vs_forced_loop_same_engine(self, monkeypatch):
        """The batched pipeline against the per-interaction loop on the
        *same* (vector) engine: the loop is forced by routing
        ``_run_batched`` to ``_run_loop``."""
        from repro.machines.base import Machine

        settings = ExperimentSettings(
            config=SystemConfig.evaluation().with_engine("vector"),
            n_user=3,
            n_os=6,
        )
        app = get_app("<MEMCACHED, OS>")
        batched = run_one(app, "mi6", settings)

        loop = []
        run_loop = Machine._run_loop

        def forced(self, *args):
            loop.append(self.hier.engine)
            return run_loop(self, *args)

        monkeypatch.setattr(Machine, "_run_batched", forced)
        assert run_one(app, "mi6", settings) == batched
        expected = "vector" if native_available() else "scalar"
        assert loop == [expected]


class TestAttackEquivalence:
    """Attack scenario payloads are engine-invariant.

    The harnesses replay their probe traces through the same hierarchy
    the figures use, so their stored (and golden-pinned) payloads must
    be bit-identical between the scalar oracle and the vector engine —
    a warm figattack cache can then never mask an
    engine divergence (the engine rides in the store key's config
    hash).
    """

    @pytest.mark.parametrize(
        "kind",
        ["prime_probe", "covert", "noc_probe", "spectre", "purge_timing", "noc_covert"],
    )
    def test_attack_payload_engine_invariant(self, kind, backend):
        from repro.attacks.environment import ISOLATION_MODELS
        from repro.attacks.scenarios import run_attack_scenario

        base = SystemConfig.evaluation()
        for model in ISOLATION_MODELS:
            scalar = run_attack_scenario(
                kind, model, base.with_engine("scalar"), 1.0, seed=0
            )
            vector = run_attack_scenario(
                kind, model, base.with_engine("vector"), 1.0, seed=0
            )
            assert scalar == vector, (kind, model, backend)


class TestMachineFuzzEquivalence:
    """Registry-wide seed-fuzz sweep: random run shapes, both engines.

    Complements the targeted machine gates above with SeedSequence-
    derived randomized runs (the PR-2 fuzz idiom): every registered
    machine × several derived seeds, with the app, interaction counts
    and run seed all drawn from the per-case generator.  The temporal
    machines additionally get a non-default fence interval gate, since
    the interval changes the epoch-barrier placement in the batched
    pipeline.
    """

    #: Independent streams derived from one root SeedSequence; the
    #: entropy values (not the objects) parametrize so test IDs are
    #: stable and each case reseeds identically everywhere.
    SEEDS = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(20260808).spawn(3)]

    FUZZ_APPS = ("<AES, QUERY>", "<MEMCACHED, OS>", "<TC, GRAPH>")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fuzzed_machine_runs_identical(self, backend, machine_name, seed):
        rng = np.random.default_rng(seed)
        app = get_app(self.FUZZ_APPS[int(rng.integers(len(self.FUZZ_APPS)))])
        n = int(rng.integers(2, 6))
        run_seed = int(rng.integers(0, 1 << 16))
        results = {}
        for engine in ("scalar", "vector"):
            machine = build_machine(
                machine_name, SystemConfig.evaluation().with_engine(engine)
            )
            results[engine] = machine.run(app, n_interactions=n, seed=run_seed)
        assert results["scalar"] == results["vector"], (machine_name, seed)

    @pytest.mark.parametrize("machine,interval", [("fence_ts", 3), ("simf", 2)])
    def test_nondefault_fence_interval_identical(self, backend, machine, interval):
        app = get_app("<AES, QUERY>")
        results = {}
        for engine in ("scalar", "vector"):
            m = build_machine(
                machine,
                SystemConfig.evaluation().with_engine(engine),
                fence_interval=interval,
            )
            assert m.purge_policy.interval == interval
            results[engine] = m.run(app, n_interactions=5, seed=3)
        assert results["scalar"] == results["vector"], (machine, interval)


class TestNoCompilerPath:
    """Without compiled kernels a ``vector`` config runs the scalar oracle.

    Forces :func:`~repro.arch.native.native_available` to report False,
    as on a host without a C toolchain, and checks the three places the
    resolved engine decides: the hierarchy itself, ``Machine.run``'s
    dispatch, and a whole quick figure against its golden numbers.
    """

    def test_vector_config_runs_scalar_oracle(self, monkeypatch):
        import json
        from pathlib import Path

        from repro.experiments.fig1 import run_fig1a
        from repro.experiments.golden import quick_settings
        from repro.experiments.runner import clear_result_cache
        from repro.machines.base import Machine

        monkeypatch.setattr(
            "repro.arch.hierarchy.native_available", lambda: False
        )
        config = SystemConfig.evaluation().with_engine("vector")
        assert MemoryHierarchy(config).engine == "scalar"

        loop = []
        interaction = Machine._interaction

        def counted(self, *args, **kwargs):
            loop.append(self.name)
            return interaction(self, *args, **kwargs)

        def batched(*args, **kwargs):
            raise AssertionError("batched pipeline needs the vector engine")

        monkeypatch.setattr(Machine, "_interaction", counted)
        monkeypatch.setattr(Machine, "_run_batched", batched)
        machine = build_machine("mi6", config)
        machine.run(get_app("<AES, QUERY>"), n_interactions=2)
        assert len(loop) >= 2

        golden_path = Path(__file__).parent / "golden" / "figures_quick.json"
        with open(golden_path, "r", encoding="utf-8") as fh:
            golden = json.load(fh)
        # Memoized runs are keyed by config, not by the resolved engine:
        # start and finish cold so no native result masks this path.
        clear_result_cache()
        try:
            fig1 = run_fig1a(quick_settings("vector"), verbose=False)
        finally:
            clear_result_cache()
        assert {m: float(v) for m, v in fig1.items()} == golden["fig1"]
