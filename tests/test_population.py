"""Served-population sampler properties + steady-state eviction gates.

Two suites.  ``TestPopulationSampler`` pins the contract of
``repro.workloads.population``: bit-determinism per (seed, size, skew)
— including across processes — Zipf rank-frequency monotonicity,
prefix stability, disjoint streams for disjoint index ranges, and that
every emitted ``AppSpec`` validates.  The eviction classes are the
steady-state regression gates for the capped result store under
population traffic: mtime-LRU order (reads protect entries), no
quarantining of valid entries, and a warming hit-rate across repeated
batches.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.workloads.base import AppSpec
from repro.workloads.interactive import APPS
from repro.workloads.population import (
    BATCH_INTERACTIONS,
    INTERACTIVE_INTERACTIONS,
    TRACE_SCALE_GRID,
    PopulationSpec,
    UserLoad,
    app_probabilities,
    distinct_unit_tuples,
    quantize_scale,
    sample_population,
    sample_user,
)

REPO = Path(__file__).resolve().parents[1]


class TestPopulationSampler:
    def test_deterministic_per_seed_size_skew(self):
        """Same (seed, size, skew) -> identical user list, call after call."""
        for skew in (0.0, 0.6, 1.4):
            spec = PopulationSpec(skew=skew)
            assert sample_population(3, 32, spec) == sample_population(3, 32, spec)

    def test_different_seeds_differ(self):
        spec = PopulationSpec(skew=1.1)
        assert sample_population(0, 32, spec) != sample_population(1, 32, spec)

    def test_cross_process_bit_reproducible(self):
        """A fresh interpreter samples the identical population.

        This is the acceptance criterion that population sampling is
        reproducible bit-for-bit across processes from the settings
        seed alone — no process-salted ``hash()`` anywhere in the
        stream derivation.
        """
        code = (
            "import json\n"
            "from repro.workloads.population import PopulationSpec, "
            "sample_population\n"
            "users = sample_population(5, 12, PopulationSpec(skew=1.1))\n"
            "print(json.dumps([[u.index, u.app, u.role, u.trace_scale, "
            "u.interactions] for u in users]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        expected = [
            [u.index, u.app, u.role, u.trace_scale, u.interactions]
            for u in sample_population(5, 12, PopulationSpec(skew=1.1))
        ]
        assert json.loads(proc.stdout) == expected

    def test_prefix_stability(self):
        """A size-n population is a strict prefix of every larger one."""
        spec = PopulationSpec(skew=1.4)
        big = sample_population(7, 64, spec)
        assert big[:16] == sample_population(7, 16, spec)
        assert big[:1] == sample_population(7, 1, spec)

    def test_window_independence(self):
        """``start`` offsets address the same per-index streams."""
        spec = PopulationSpec(skew=0.6)
        assert sample_population(7, 8, spec, start=8) == sample_population(
            7, 16, spec
        )[8:]

    def test_disjoint_index_ranges_are_disjoint_streams(self):
        """Different user indices consume independent SeedSequence
        streams: no draw-order coupling, no shared uniforms."""
        from repro.attacks.seeding import attack_rng

        draws = {
            i: tuple(attack_rng(7, "population", i).random(4)) for i in range(32)
        }
        assert len(set(draws.values())) == len(draws)
        # And the user tuples across two disjoint windows are not the
        # same sequence replayed.
        spec = PopulationSpec(skew=0.6)
        low = sample_population(7, 16, spec, start=0)
        high = sample_population(7, 16, spec, start=16)
        assert [u.index for u in high] == list(range(16, 32))
        assert [
            (u.app, u.role, u.trace_scale, u.interactions) for u in low
        ] != [(u.app, u.role, u.trace_scale, u.interactions) for u in high]

    def test_zipf_rank_frequency_monotonic(self):
        """Probabilities strictly decrease with rank for any skew > 0,
        are uniform at skew 0, and concentrate as skew grows."""
        for skew in (0.3, 0.6, 1.1, 1.4, 2.0):
            probs = app_probabilities(skew)
            assert all(a > b for a, b in zip(probs, probs[1:])), skew
        flat = app_probabilities(0.0)
        assert flat[0] == pytest.approx(flat[-1])
        assert app_probabilities(1.4)[0] > app_probabilities(0.6)[0]

    def test_head_app_dominates_under_heavy_skew(self):
        """Empirically, the top-ranked app is the most served one."""
        from collections import Counter

        users = sample_population(0, 256, PopulationSpec(skew=1.4))
        counts = Counter(u.app for u in users)
        assert counts.most_common(1)[0][0] == APPS[0].name

    def test_every_app_spec_validates(self):
        """Every emitted load converts to a valid registered AppSpec."""
        for skew in (0.6, 1.4):
            for user in sample_population(11, 128, PopulationSpec(skew=skew)):
                spec = user.app_spec()
                assert isinstance(spec, AppSpec)
                assert spec.name == user.app
                assert spec.n_interactions == user.interactions >= 1
                assert spec.trace_scale == user.trace_scale
                assert user.trace_scale in TRACE_SCALE_GRID
                grid = (
                    INTERACTIVE_INTERACTIONS
                    if user.role == "interactive"
                    else BATCH_INTERACTIONS
                )
                assert user.interactions in grid

    def test_role_grids_disjoint(self):
        """The role is recoverable from the session length."""
        assert not set(INTERACTIVE_INTERACTIONS) & set(BATCH_INTERACTIONS)

    def test_quantize_scale_log_space(self):
        grid = (1.0, 2.0, 4.0)
        assert quantize_scale(1.4, grid) == 1.0  # below sqrt(2)
        assert quantize_scale(1.5, grid) == 2.0  # above sqrt(2)
        assert quantize_scale(2.6, grid) == 2.0  # below sqrt(8)
        assert quantize_scale(2.9, grid) == 4.0  # above sqrt(8)
        # An exact log-space tie resolves to the smaller grid point.
        assert quantize_scale(2.0, (1.0, 4.0)) == 1.0
        assert quantize_scale(40.0, grid) == 4.0
        assert quantize_scale(0.01, grid) == 1.0

    def test_distinct_unit_tuples_dedupe(self):
        users = [
            UserLoad(0, APPS[0].name, "interactive", 1.0, 3),
            UserLoad(1, APPS[0].name, "interactive", 1.0, 3),
            UserLoad(2, APPS[1].name, "batch", 2.0, 10),
        ]
        assert distinct_unit_tuples(users) == sorted(
            [(APPS[0].name, 1.0, 3), (APPS[1].name, 2.0, 10)]
        )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PopulationSpec(skew=-0.1)
        with pytest.raises(ValueError):
            PopulationSpec(sigma=-1.0)
        with pytest.raises(ValueError):
            PopulationSpec(interactive_fraction=1.5)
        with pytest.raises(ValueError):
            PopulationSpec(scale_grid=())
        with pytest.raises(ValueError):
            PopulationSpec(batch_interactions=(0,))
        with pytest.raises(ValueError):
            sample_population(0, -1, PopulationSpec())
        with pytest.raises(ValueError):
            PopulationSpec().interactions_grid("admin")
        with pytest.raises(ValueError):
            PopulationSpec(interactive_interactions=(-3,))
        # And the happy path still samples.
        assert sample_user(0, 0, PopulationSpec()).index == 0


class TestStoreMtimeEviction:
    """mtime is the LRU clock: writes set it, reads refresh it."""

    def test_gc_evicts_oldest_mtime_first_and_reads_protect(self, tmp_path):
        from repro.experiments.store import ResultStore

        seed_store = ResultStore(tmp_path)
        pad = "x" * 600
        keys = [("pop-evict", i) for i in range(4)]
        for i, key in enumerate(keys):
            assert seed_store.put(key, {"i": i, "pad": pad})
            # Deterministic LRU clock: key i looks i hours old.
            t = (1_000_000 + i * 3600) * 1_000_000_000
            os.utime(seed_store.path_for(key), ns=(t, t))
        size = seed_store.path_for(keys[0]).stat().st_size

        store = ResultStore(tmp_path, max_bytes=4 * size)
        # A disk read refreshes keys[0]'s mtime — the *oldest* entry
        # becomes the newest, so eviction must skip it.
        assert store.get(keys[0]) == {"i": 0, "pad": pad}
        assert store.put(("pop-evict", 4), {"i": 4, "pad": pad})
        # Over budget by one entry: exactly the oldest unread entry
        # (keys[1]) is evicted; the read-refreshed keys[0] survives.
        assert store.path_for(keys[0]).exists()
        assert not store.path_for(keys[1]).exists()
        assert store.path_for(keys[2]).exists()
        assert store.path_for(keys[3]).exists()
        assert store.path_for(("pop-evict", 4)).exists()
        assert store.stats.quarantined == 0
        audit = store.verify()
        assert audit["invalid"] == 0 and audit["tmp"] == 0

    def test_keep_protects_fresh_write_under_tiny_cap(self, tmp_path):
        from repro.experiments.store import ResultStore

        store = ResultStore(tmp_path, max_bytes=1)
        assert store.put(("tiny", 0), {"pad": "x" * 200})
        assert store.put(("tiny", 1), {"pad": "y" * 200})
        # The cap is smaller than one entry, yet the entry just written
        # is always durable; everything else is evicted.
        assert not store.path_for(("tiny", 0)).exists()
        assert store.path_for(("tiny", 1)).exists()
        assert store.stats.quarantined == 0


class TestPopulationSteadyState:
    """Two population batches against one tiny capped store."""

    MACHINES = ("insecure", "sgx")

    def _units(self):
        from repro.experiments.sweep import run_unit

        users = sample_population(0, 12, PopulationSpec(skew=0.6))
        tuples = {
            (u.app, u.trace_scale, min(u.interactions, 6)) for u in users
        }
        return [
            run_unit(app, machine, scale, interactions)
            for app, scale, interactions in sorted(tuples)
            for machine in self.MACHINES
        ]

    def test_second_batch_hit_rate_exceeds_first(self, tmp_path):
        """Steady-state contract under a cap that forces eviction:
        warm batches hit survivors, evicted entries are re-run and
        re-persisted, nothing valid is ever quarantined, and the final
        audit is clean."""
        from repro.experiments import store as store_mod
        from repro.experiments.runner import ExperimentSettings
        from repro.experiments.sweep import run_units

        units = self._units()
        cache_dir = str(tmp_path / "pop-store")

        def run_batch():
            store_mod.reset_stores()
            settings = ExperimentSettings(
                cache_dir=cache_dir, cache_max_mb=0.012
            )
            run_units(units, settings, copy_results=False)
            stats = store_mod.get_store(cache_dir).stats
            total = stats.hits + stats.misses
            return stats, (stats.hits / total if total else 0.0)

        stats1, rate1 = run_batch()
        assert stats1.hits == 0 and stats1.writes == len(units)
        on_disk = sum(1 for _ in Path(cache_dir).rglob("*.json"))
        assert on_disk < len(units), "cap never forced an eviction"

        stats2, rate2 = run_batch()
        assert stats2.hits > 0
        assert rate2 > rate1
        # Evicted entries were re-run and re-persisted (write-back).
        assert stats2.writes == stats2.misses > 0
        assert stats1.quarantined == 0 and stats2.quarantined == 0

        store_mod.reset_stores()
        from repro.experiments.store import ResultStore

        audit = ResultStore(Path(cache_dir)).verify()
        assert audit["invalid"] == 0
        assert audit["tmp"] == 0
        assert audit["quarantined"] == 0
