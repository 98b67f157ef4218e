"""Tests for trace generators, synthetic primitives and the registry."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.trace import Trace
from repro.workloads import APPS, OS_APPS, USER_APPS, get_app
from repro.workloads import synthetic as syn
from repro.workloads.graph_procs import SsspProcess, TriangleCountProcess
from repro.workloads.aes import AesProcess
from repro.workloads.web import HttpdProcess


class TestSyntheticPrimitives:
    def test_sequential_covers_region(self):
        addrs = syn.sequential(1000, 256, stride=8)
        assert addrs[0] == 1000
        assert addrs[-1] == 1000 + 248
        assert len(addrs) == 32

    def test_sequential_truncates_and_tiles(self):
        assert len(syn.sequential(0, 64, 8, n=4)) == 4
        assert len(syn.sequential(0, 64, 8, n=20)) == 20

    def test_uniform_random_in_bounds(self, rng):
        addrs = syn.uniform_random(rng, 500, 1024, 200)
        assert addrs.min() >= 500
        assert addrs.max() < 500 + 1024

    def test_zipf_concentrates_on_head(self, rng):
        addrs = syn.zipf(rng, 0, 10_000, 64, 5000, alpha=1.3)
        head = (addrs < 64 * 64).mean()
        assert head > 0.3

    def test_hot_cold_mix(self, rng):
        addrs = syn.hot_cold(rng, 0, 1024, 1 << 20, 1 << 20, 1000, hot_fraction=0.8)
        hot_share = (addrs < 1024).mean()
        assert 0.7 < hot_share < 0.9

    def test_segmented_sequential_has_runs(self, rng):
        addrs = syn.segmented_sequential(rng, 0, 1 << 20, 512, segment_bytes=256, stride=8)
        diffs = np.diff(addrs)
        assert (diffs == 8).mean() > 0.8

    def test_rotating_window_rotates(self):
        a = syn.rotating_window(0, 1 << 20, 0, 1 << 16, 100)
        b = syn.rotating_window(0, 1 << 20, 1, 1 << 16, 100)
        assert a.max() < 1 << 16
        assert b.min() >= 1 << 16

    def test_interleave_preserves_all_accesses(self):
        a = np.arange(10, dtype=np.int64)
        b = np.arange(100, 140, dtype=np.int64)
        out = syn.interleave(a, b)
        assert len(out) == 50
        assert set(out.tolist()) == set(a.tolist()) | set(b.tolist())

    @staticmethod
    def _loop_interleave(*streams):
        """The block loop :func:`syn.interleave` replaced, as the reference."""
        streams = [s for s in streams if len(s)]
        n = sum(len(s) for s in streams)
        out = np.empty(n, dtype=np.int64)
        cursors = [0] * len(streams)
        pos = 0
        while pos < n:
            for i, s in enumerate(streams):
                c = cursors[i]
                if c >= len(s):
                    continue
                take = min(16, len(s) - c)
                out[pos : pos + take] = s[c : c + take]
                cursors[i] = c + take
                pos += take
        return out

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_interleave_matches_block_loop(self, rng, dtype):
        lengths = [0, 1, 15, 16, 17, 31, 32, 48, 100, 160, 200]
        for trial in range(300):
            k = trial % 7
            streams = [
                rng.integers(0, 1 << 30, size=int(rng.choice(lengths)), dtype=dtype)
                for _ in range(k)
            ]
            out = syn.interleave(*streams)
            assert out.dtype == np.int64
            assert np.array_equal(out, self._loop_interleave(*streams)), [
                len(s) for s in streams
            ]

    def test_write_mask_density(self, rng):
        mask = syn.write_mask(rng, 10_000, 0.3)
        assert 0.25 < mask.mean() < 0.35
        assert syn.write_mask(rng, 10, 0.0).sum() == 0
        assert syn.write_mask(rng, 10, 1.0).sum() == 10

    def test_region_layout_non_overlapping(self):
        layout = syn.RegionLayout()
        a = layout.add("a", 100)
        b = layout.add("b", 100)
        assert b >= a + 100
        with pytest.raises(ValueError):
            layout.add("a", 10)


class TestTrace:
    def test_concat(self):
        t1 = Trace(np.asarray([1, 2], dtype=np.int64))
        t2 = Trace(np.asarray([3], dtype=np.int64), np.asarray([1], dtype=np.int8))
        merged = Trace.concat([t1, t2])
        assert len(merged) == 3
        assert merged.writes is not None

    def test_footprint(self):
        t = Trace(np.asarray([0, 1, 64, 65, 128], dtype=np.int64))
        assert t.footprint_bytes(64) == 3 * 64

    def test_instruction_count(self):
        t = Trace(np.arange(10, dtype=np.int64), instr_per_access=5.0)
        assert t.instructions == 50

    def test_mismatched_writes_rejected(self):
        with pytest.raises(ValueError):
            Trace(np.arange(4, dtype=np.int64), np.zeros(3, dtype=np.int8))


class TestGeneratorContracts:
    @pytest.mark.parametrize("app", APPS, ids=[a.name for a in APPS])
    def test_processes_generate_valid_traces(self, app):
        sec, ins = app.processes()
        rng = np.random.default_rng(0)
        for proc in (sec, ins):
            trace = proc.interaction_trace(rng, 0)
            assert len(trace) > 0
            assert trace.addrs.dtype == np.int64
            assert np.all(trace.addrs >= 0)
            if trace.writes is not None:
                assert len(trace.writes) == len(trace)

    @pytest.mark.parametrize("app", APPS, ids=[a.name for a in APPS])
    def test_domains_are_correct(self, app):
        sec, ins = app.processes()
        assert sec.domain == "secure"
        assert ins.domain == "insecure"

    def test_determinism_per_seed(self):
        proc_a = AesProcess()
        proc_b = AesProcess()
        t1 = proc_a.interaction_trace(np.random.default_rng(7), 3)
        t2 = proc_b.interaction_trace(np.random.default_rng(7), 3)
        assert np.array_equal(t1.addrs, t2.addrs)

    def test_negative_interaction_indices_supported(self):
        proc = SsspProcess()
        trace = proc.interaction_trace(np.random.default_rng(0), -10_000)
        assert len(trace) > 0

    def test_tc_footprint_dwarfs_aes(self):
        rng = np.random.default_rng(0)
        tc = TriangleCountProcess().calibration_trace(rng, 2)
        aes = AesProcess().calibration_trace(np.random.default_rng(0), 2)
        assert tc.footprint_bytes() > 5 * aes.footprint_bytes()

    def test_httpd_single_pass_character(self):
        """Across interactions LIGHTTPD keeps touching fresh lines."""
        proc = HttpdProcess()
        rng = np.random.default_rng(0)
        first = set((proc.interaction_trace(rng, 0).addrs // 64).tolist())
        fresh = 0
        for i in range(1, 6):
            lines = set((proc.interaction_trace(rng, i).addrs // 64).tolist())
            fresh += len(lines - first)
        assert fresh > 100

    def test_calibration_trace_concatenates(self):
        proc = AesProcess()
        rng = np.random.default_rng(0)
        calib = proc.calibration_trace(rng, interactions=3)
        assert len(calib) >= 3 * proc.accesses * 0.9


class TestRegistry:
    def test_nine_apps(self):
        assert len(APPS) == 9
        assert len(USER_APPS) == 7
        assert len(OS_APPS) == 2

    def test_paper_names_resolve(self):
        for name in ("<SSSP, GRAPH>", "<AES, QUERY>", "<MEMCACHED, OS>"):
            assert get_app(name).name == name

    def test_unknown_app_raises(self):
        with pytest.raises(KeyError):
            get_app("<DOOM, OS>")

    def test_scales_are_sane(self):
        for app in USER_APPS:
            assert app.time_scale > 1
            assert app.footprint_scale > 1
        for app in OS_APPS:
            assert app.time_scale == 1.0

    def test_real_interaction_counts_match_paper(self):
        assert get_app("<MEMCACHED, OS>").real_interactions == 2_000_000
        assert get_app("<LIGHTTPD, OS>").real_interactions == 1_000_000
        assert all(a.real_interactions == 13_300 for a in USER_APPS)
