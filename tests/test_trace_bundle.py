"""Trace-materialization layer: bundles, caching, scaling, concat."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.bundle import (
    TraceBundle,
    bundle_cache_bytes,
    bundle_cache_size,
    clear_bundle_cache,
    interaction_bundle,
)
from repro.sim.trace import Trace
from repro.workloads import APPS, get_app
from repro.workloads.base import AppSpec


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_bundle_cache()
    yield
    clear_bundle_cache()


class TestTraceConcat:
    def test_instr_per_access_weighted_by_length(self):
        """Regression: mixed-length concat must weight ipa by accesses."""
        a = Trace(np.arange(100, dtype=np.int64), instr_per_access=2.0)
        b = Trace(np.arange(10, dtype=np.int64), instr_per_access=20.0)
        cat = Trace.concat([a, b])
        assert cat.instructions == a.instructions + b.instructions
        # The old unweighted mean would give (2 + 20) / 2 = 11.
        assert cat.instr_per_access == pytest.approx(400 / 110)

    def test_equal_length_concat_unchanged(self):
        a = Trace(np.arange(50, dtype=np.int64), instr_per_access=3.0)
        b = Trace(np.arange(50, dtype=np.int64), instr_per_access=5.0)
        assert Trace.concat([a, b]).instr_per_access == pytest.approx(4.0)

    def test_empty_concat(self):
        assert len(Trace.concat([])) == 0


class TestTraceBundle:
    def test_segments_match_batch_traces(self):
        """Bundle slices are byte-identical to the generator's traces."""
        app = get_app("<MEMCACHED, OS>")
        sec, _ = app.processes()
        bundle = interaction_bundle(app, "secure", sec, seed=0, start=-2, count=6)
        assert bundle.n_segments == 6
        assert bundle.start == -2
        from repro.sim.bundle import bundle_rng

        rng = bundle_rng(app.name, "secure", 0, -2, 6, 1.0)
        sec2, _ = app.processes()
        reference = sec2.batch_traces(rng, -2, 6)
        for k, ref in enumerate(reference):
            seg = bundle.segment(k)
            assert np.array_equal(seg.addrs, ref.addrs)
            assert np.array_equal(seg.writes, ref.writes)
            assert seg.instr_per_access == ref.instr_per_access

    def test_cache_shared_across_machines(self):
        app = get_app("<LIGHTTPD, OS>")
        sec, _ = app.processes()
        b1 = interaction_bundle(app, "secure", sec, seed=0, start=0, count=4)
        sec2, _ = app.processes()
        b2 = interaction_bundle(app, "secure", sec2, seed=0, start=0, count=4)
        assert b1 is b2
        assert bundle_cache_size() == 1

    def test_distinct_keys_distinct_bundles(self):
        app = get_app("<LIGHTTPD, OS>")
        sec, _ = app.processes()
        b1 = interaction_bundle(app, "secure", sec, seed=0, start=0, count=4)
        b2 = interaction_bundle(app, "secure", sec, seed=1, start=0, count=4)
        b3 = interaction_bundle(app, "secure", sec, seed=0, start=1, count=4)
        assert not np.array_equal(b1.addrs, b2.addrs) or not np.array_equal(
            b1.writes, b2.writes
        )
        assert b1 is not b3
        assert bundle_cache_size() == 3

    def test_roles_draw_distinct_streams(self):
        app = get_app("<MEMCACHED, OS>")
        sec, ins = app.processes()
        b_sec = interaction_bundle(app, "secure", sec, seed=0, start=0, count=3)
        b_ins = interaction_bundle(app, "insecure", ins, seed=0, start=0, count=3)
        assert len(b_sec) != len(b_ins) or not np.array_equal(
            b_sec.addrs, b_ins.addrs
        )

    def test_from_traces_round_trip(self):
        traces = [
            Trace(np.arange(5, dtype=np.int64) * 64, None, 2.0),
            Trace(np.arange(3, dtype=np.int64),
                  np.ones(3, dtype=np.int8), 7.0),
        ]
        bundle = TraceBundle.from_traces(traces, start=-1)
        assert len(bundle) == 8
        seg0, seg1 = bundle.segment(0), bundle.segment(1)
        assert np.array_equal(seg0.addrs, traces[0].addrs)
        assert np.array_equal(seg1.addrs, traces[1].addrs)
        assert np.array_equal(seg0.writes, np.zeros(5, dtype=np.int8))
        assert np.array_equal(seg1.writes, traces[1].writes)
        assert seg1.instr_per_access == 7.0


class TestBundleEvents:
    """Bundles carry their run-length-compressed events for the planner."""

    APP = "<MEMCACHED, OS>"

    def test_cached_events_match_oracle_events(self):
        """Every segment's cached events are the oracle front end's."""
        from repro.arch.address import VirtualMemory
        from repro.arch.hierarchy import MemoryHierarchy, ProcessContext
        from repro.config import SystemConfig

        config = SystemConfig.evaluation()
        app = get_app(self.APP)
        for role, proc in zip(("secure", "insecure"), app.processes()):
            bundle = interaction_bundle(app, role, proc, seed=0, start=-2, count=5)
            before = bundle_cache_bytes()
            vlines, writes, ev_off = bundle.events(config.line_bytes)
            assert bundle.events(config.line_bytes)[0] is vlines
            # The cache's byte cap counts the events.
            assert bundle_cache_bytes() == before + sum(
                a.nbytes for a in (vlines, writes, ev_off)
            )
            hier = MemoryHierarchy(config.with_engine("scalar"))
            vm = VirtualMemory("p", hier.address_space, list(range(config.mem.n_regions)))
            ctx = ProcessContext(
                "p", "insecure", vm, cores=[0], slices=list(range(8)),
                controllers=[0], enforce=False,
            )
            for k in range(bundle.n_segments):
                seg = bundle.segment(k)
                vpages, ev_writes, plines, _, _, hits = hier._oracle_events(
                    ctx, seg.addrs, seg.writes
                )
                a, b = ev_off[k], ev_off[k + 1]
                assert np.array_equal(vlines[a:b] >> hier._lp_shift, vpages)
                assert np.array_equal(
                    vlines[a:b] & hier._lp_mask, plines & hier._lp_mask
                )
                assert np.array_equal(writes[a:b], ev_writes)
                assert len(seg) - (b - a) == hits

    def test_second_plan_does_not_recompress(self, monkeypatch):
        """A bundle is compressed once, however many plans replay it."""
        from repro.arch import batch_replay
        from repro.arch.address import VirtualMemory
        from repro.arch.batch_replay import BatchReplayer, Segment
        from repro.arch.hierarchy import MemoryHierarchy, ProcessContext
        from repro.arch.native import native_available
        from repro.config import SystemConfig
        from repro.sim import bundle as bundle_mod

        if not native_available():
            pytest.skip("compiled kernels unavailable")
        calls = []
        compress = batch_replay.compress_runs

        def spy(vlines, writes, offsets):
            calls.append(len(offsets) - 1)
            return compress(vlines, writes, offsets)

        monkeypatch.setattr(bundle_mod, "compress_runs", spy)
        monkeypatch.setattr(batch_replay, "compress_runs", spy)
        config = SystemConfig.evaluation().with_engine("vector")
        app = get_app(self.APP)
        sec, _ = app.processes()
        bundle = interaction_bundle(app, "secure", sec, seed=0, start=0, count=4)

        def replay(from_bundle):
            hier = MemoryHierarchy(config)
            vm = VirtualMemory("p", hier.address_space, [0, 1])
            ctx = ProcessContext(
                "p", "secure", vm, cores=[0, 1], slices=list(range(8)),
                controllers=[0, 1],
            )
            segs = [
                Segment(ctx, tr.addrs, tr.writes, *((bundle, k) if from_bundle else ()))
                for k, tr in enumerate(bundle.traces())
            ]
            return BatchReplayer(hier, segs).run_epoch(0, len(segs))

        first = replay(True)
        assert calls == [bundle.n_segments]
        assert replay(True) == first
        assert calls == [bundle.n_segments]
        assert replay(False) == first
        assert calls == [bundle.n_segments] * 2


class TestTraceScale:
    @pytest.mark.parametrize(
        "app_name", ["<MEMCACHED, OS>", "<LIGHTTPD, OS>", "<AES, QUERY>"]
    )
    def test_trace_scale_lengthens_streams(self, app_name):
        """The AppSpec knob scales every process's per-interaction trace,
        through both the vectorized and the fallback generators."""
        from dataclasses import replace

        app = get_app(app_name)
        scaled = replace(app, trace_scale=2.0)
        for role in ("secure", "insecure"):
            proc = (app.make_secure if role == "secure" else app.make_insecure)()
            base = interaction_bundle(app, role, proc, seed=0, start=0, count=2)
            big = interaction_bundle(scaled, role, proc, seed=0, start=0, count=2)
            ratio = len(big) / max(1, len(base))
            assert 1.5 < ratio < 2.5, (app_name, role, ratio)

    def test_trace_scale_keys_the_cache(self):
        from dataclasses import replace

        app = get_app("<MEMCACHED, OS>")
        scaled = replace(app, trace_scale=1.5)
        sec, _ = app.processes()
        interaction_bundle(app, "secure", sec, seed=0, start=0, count=2)
        interaction_bundle(scaled, "secure", sec, seed=0, start=0, count=2)
        assert bundle_cache_size() == 2

    def test_trace_scale_flows_through_machine_run(self):
        from dataclasses import replace

        from repro.config import SystemConfig
        from repro.machines import build_machine

        app = get_app("<MEMCACHED, OS>")
        scaled = replace(app, trace_scale=2.0)
        cfg = SystemConfig.evaluation().with_engine("vector")
        base = build_machine("insecure", cfg).run(app, n_interactions=4)
        big = build_machine("insecure", cfg).run(scaled, n_interactions=4)
        ratio = (big.secure.accesses + big.insecure.accesses) / (
            base.secure.accesses + base.insecure.accesses
        )
        assert 1.5 < ratio < 2.5

    def test_invalid_trace_scale_rejected(self):
        app = get_app("<MEMCACHED, OS>")
        from dataclasses import replace

        with pytest.raises(ValueError):
            replace(app, trace_scale=0.0)


class TestVectorizedGenerators:
    """The vectorized batch generators keep the scalar access shape."""

    HOT = ["<MEMCACHED, OS>", "<LIGHTTPD, OS>"]

    @pytest.mark.parametrize("app_name", HOT)
    @pytest.mark.parametrize("role", ["secure", "insecure"])
    def test_batch_matches_per_interaction_shape(self, app_name, role):
        app = get_app(app_name)
        proc = (app.make_secure if role == "secure" else app.make_insecure)()
        rng = np.random.default_rng(5)
        batch = proc.batch_traces(rng, 0, 5)
        assert len(batch) == 5
        single = proc.interaction_trace(np.random.default_rng(5), 0)
        for tr in batch:
            assert len(tr) == len(single)
            assert tr.addrs.dtype == np.int64
            assert tr.instr_per_access == single.instr_per_access
            # Same virtual regions are touched (same layout).
            assert tr.addrs.min() >= 0
            assert (tr.addrs >> 20).max() <= (1 << 12)

    @pytest.mark.parametrize("app_name", HOT)
    def test_batch_interactions_differ(self, app_name):
        """Vectorized generation must not repeat one interaction."""
        app = get_app(app_name)
        proc = app.make_secure()
        batch = proc.batch_traces(np.random.default_rng(5), 0, 4)
        distinct = {tuple(tr.addrs.tolist()) for tr in batch}
        assert len(distinct) > 1

    def test_default_batch_falls_back_to_loop(self):
        """Processes without a vectorized override still bundle."""
        app = get_app("<SSSP, GRAPH>")
        sec = app.make_secure()
        batch = sec.batch_traces(np.random.default_rng(3), -1, 3)
        assert len(batch) == 3
        assert all(isinstance(tr, Trace) for tr in batch)


def test_all_apps_bundle_cleanly():
    """Every registered app materializes both roles without error."""
    for app in APPS:
        sec, ins = app.processes()
        b_sec = interaction_bundle(app, "secure", sec, seed=0, start=-2, count=3)
        b_ins = interaction_bundle(app, "insecure", ins, seed=0, start=-2, count=3)
        assert b_sec.n_segments == b_ins.n_segments == 3
        assert len(b_sec) > 0 and len(b_ins) > 0
