"""Tests for the CLI entry point and experiment runner plumbing."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.__main__ import EXPERIMENTS, main
import repro.experiments.runner as runner_mod
from repro.experiments.runner import ExperimentSettings, run_matrix, run_one
from repro.machines import MACHINES
from repro.workloads import get_app


class TestRunner:
    def test_run_matrix_keys(self):
        settings = ExperimentSettings(n_user=2, n_os=4)
        apps = [get_app("<AES, QUERY>")]
        results = run_matrix(apps, ("insecure", "sgx"), settings)
        assert set(results) == {("<AES, QUERY>", "insecure"), ("<AES, QUERY>", "sgx")}

    def test_interactions_for_levels(self):
        settings = ExperimentSettings(n_user=5, n_os=9)
        assert settings.interactions_for(get_app("<AES, QUERY>")) == 5
        assert settings.interactions_for(get_app("<MEMCACHED, OS>")) == 9

    def test_default_settings_keep_app_defaults(self):
        settings = ExperimentSettings()
        assert settings.interactions_for(get_app("<AES, QUERY>")) is None

    def test_quickened_divides_counts(self):
        quick = ExperimentSettings().quickened(4)
        assert quick.n_user == 12
        assert quick.n_os == 80

    def test_run_one_threads_calibration_cache(self):
        settings = ExperimentSettings(n_user=2, n_os=4)
        run_one(get_app("<AES, QUERY>"), "ironhide", settings)
        assert len(settings.calibration_cache) == 1

    def test_seed_changes_results(self):
        settings_a = ExperimentSettings(n_user=3, seed=1)
        settings_b = ExperimentSettings(n_user=3, seed=2)
        a = run_one(get_app("<AES, QUERY>"), "insecure", settings_a)
        b = run_one(get_app("<AES, QUERY>"), "insecure", settings_b)
        assert a.completion_cycles != b.completion_cycles


class TestCli:
    def test_registry_covers_all_figures(self):
        assert {
            "fig1", "fig6", "fig7", "fig8", "figscale", "tables", "ablations"
        } <= set(EXPERIMENTS)

    def test_fig1_quick_run(self, capsys):
        assert main(["fig1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1(a)" in out
        assert "[fig1:" in out

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_rejects_bad_chunk_values(self):
        """A --chunk typo is a usage error, not a mid-run traceback."""
        for bad in ("two", "0", "-1", "none"):
            with pytest.raises(SystemExit):
                main(["fig1", "--quick", "--chunk", bad])

    def test_requires_an_argument(self):
        with pytest.raises(SystemExit):
            main([])

    def test_machines_help_lists_the_registry(self, capsys):
        """``--machines`` documents every registered machine, by name."""
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert set(MACHINES) == {
            "insecure", "sgx", "mi6", "ironhide", "fence_ts", "simf"
        }
        for name in MACHINES:
            assert name in out, name

    def test_machines_rejects_unknown_name(self):
        with pytest.raises(SystemExit):
            main(["figscale", "--quick", "--machines", "enclave9000"])

    def test_machines_restricts_figscale_curves(self, capsys):
        assert main(
            ["figscale", "--quick", "--machines", "sgx", "fence_ts", "--jobs", "1"]
        ) == 0
        out = capsys.readouterr().out.lower()
        assert "fence_ts" in out
        assert "mi6" not in out


class TestQuickenedOverrides:
    def test_quickened_divides_existing_overrides(self):
        """Regression: quickening must scale counts already set on the
        settings object instead of silently restoring app defaults."""
        quick = ExperimentSettings(n_user=8, n_os=32).quickened(2)
        assert quick.n_user == 4
        assert quick.n_os == 16

    def test_quickened_floors(self):
        quick = ExperimentSettings(n_user=8, n_os=32).quickened(100)
        assert quick.n_user == 4
        assert quick.n_os == 8

    def test_quickened_preserves_other_knobs(self):
        base = ExperimentSettings(n_user=8, seed=3, jobs=2, chunk="auto")
        quick = base.quickened(2)
        assert quick.seed == 3
        assert quick.jobs == 2
        assert quick.chunk == "auto"
        assert quick.calibration_cache is base.calibration_cache


class TestResultCache:
    def setup_method(self):
        runner_mod.clear_result_cache()

    def teardown_method(self):
        runner_mod.clear_result_cache()

    def test_repeat_run_matrix_hits_cache(self, monkeypatch):
        settings = ExperimentSettings(n_user=2, n_os=4)
        apps = [get_app("<AES, QUERY>")]
        calls = []
        real_run_one = runner_mod.run_one
        monkeypatch.setattr(
            runner_mod, "run_one",
            lambda *a, **k: calls.append(a) or real_run_one(*a, **k),
        )
        first = run_matrix(apps, ("insecure", "sgx"), settings)
        assert len(calls) == 2
        second = run_matrix(apps, ("insecure", "sgx"), settings)
        assert len(calls) == 2  # no recompute
        assert first == second

    def test_cached_results_are_isolated_copies(self):
        settings = ExperimentSettings(n_user=2, n_os=4)
        apps = [get_app("<AES, QUERY>")]
        first = run_matrix(apps, ("insecure",), settings)
        first[("<AES, QUERY>", "insecure")].breakdown.compute = -1.0
        second = run_matrix(apps, ("insecure",), settings)
        assert second[("<AES, QUERY>", "insecure")].breakdown.compute != -1.0

    def test_seed_and_count_changes_bypass_cache(self, monkeypatch):
        apps = [get_app("<AES, QUERY>")]
        calls = []
        real_run_one = runner_mod.run_one
        monkeypatch.setattr(
            runner_mod, "run_one",
            lambda *a, **k: calls.append(a) or real_run_one(*a, **k),
        )
        run_matrix(apps, ("insecure",), ExperimentSettings(n_user=2, seed=0))
        run_matrix(apps, ("insecure",), ExperimentSettings(n_user=2, seed=1))
        run_matrix(apps, ("insecure",), ExperimentSettings(n_user=3, seed=0))
        assert len(calls) == 3

    def test_cache_disabled(self, monkeypatch):
        settings = ExperimentSettings(n_user=2, n_os=4, no_cache=True)
        apps = [get_app("<AES, QUERY>")]
        calls = []
        real_run_one = runner_mod.run_one
        monkeypatch.setattr(
            runner_mod, "run_one",
            lambda *a, **k: calls.append(a) or real_run_one(*a, **k),
        )
        run_matrix(apps, ("insecure",), settings)
        run_matrix(apps, ("insecure",), settings)
        assert len(calls) == 2


class TestPersistentSweeps:
    def test_fig8_quick_warm_cache_dir_zero_machine_runs(self, tmp_path, monkeypatch):
        """A chunked-pool ``fig8 --quick`` run must leave a cache dir a
        second (serial) invocation completes from on store hits alone —
        zero machine runs — even with the in-process memory layer
        dropped.  Warm hits also prove the chunk workers' write-through
        produced the exact keys the serial path derives."""
        cache_dir = str(tmp_path / "results")
        assert main(["fig8", "--quick", "--cache-dir", cache_dir,
                     "--jobs", "4", "--chunk", "auto"]) == 0
        runner_mod.clear_result_cache()  # disk is all that's left

        def no_runs(*args, **kwargs):
            raise AssertionError("machine run despite a warm result store")

        monkeypatch.setattr(runner_mod, "run_one", no_runs)
        assert main(["fig8", "--quick", "--cache-dir", cache_dir,
                     "--jobs", "1"]) == 0

    def test_fig8_jobs_invariance(self):
        """fig8 output is identical serial, pooled and chunk-2."""
        from repro.experiments.fig8 import run_fig8

        runs = {}
        for label, jobs, chunk in (
            ("serial", 1, "auto"),
            ("pooled", 4, "auto"),
            ("chunk-2", 4, 2),
        ):
            settings = ExperimentSettings(
                n_user=2, n_os=4, no_cache=True, jobs=jobs, chunk=chunk
            )
            runs[label] = run_fig8(settings, verbose=False, percents=(5,))
        assert runs["serial"] == runs["pooled"] == runs["chunk-2"]

    def test_figattack_jobs_invariance(self):
        """figattack output is identical serial, pooled and chunk-2."""
        from repro.experiments.figattack import run_figattack

        runs = {}
        for label, jobs, chunk in (
            ("serial", 1, "auto"),
            ("pooled", 4, "auto"),
            ("chunk-2", 4, 2),
        ):
            settings = ExperimentSettings(no_cache=True, jobs=jobs, chunk=chunk)
            runs[label] = run_figattack(settings, scales=(1.0, 2.0), verbose=False)
        assert runs["serial"] == runs["pooled"] == runs["chunk-2"]

    def test_figattack_store_identity(self, tmp_path):
        """A serial and a ``--jobs 2 --chunk 2`` figattack run persist
        byte-identical store contents: the chunk workers' write-through
        must derive the exact keys and payload encodings the serial
        path does."""
        from repro.experiments import store as store_mod
        from repro.experiments.figattack import run_figattack

        contents = {}
        for label, jobs in (("serial", 1), ("chunked", 2)):
            store_mod.reset_stores()
            cache_dir = tmp_path / label
            settings = ExperimentSettings(
                cache_dir=str(cache_dir), jobs=jobs, chunk=2
            )
            run_figattack(settings, scales=(1.0,), verbose=False)
            contents[label] = {
                p.name: p.read_bytes()
                for p in sorted(cache_dir.rglob("*"))
                if p.is_file()
            }
        assert contents["serial"] == contents["chunked"]

    def test_figpop_jobs_invariance(self):
        """figpop output is identical serial, pooled and chunk-2."""
        from repro.experiments.figpop import run_figpop

        runs = {}
        for label, jobs, chunk in (
            ("serial", 1, "auto"),
            ("pooled", 4, "auto"),
            ("chunk-2", 4, 2),
        ):
            settings = ExperimentSettings(no_cache=True, jobs=jobs, chunk=chunk)
            runs[label] = run_figpop(
                settings, sizes=(8,), skews=(0.6,),
                machines=("sgx", "mi6"), verbose=False,
            )
        assert runs["serial"] == runs["pooled"] == runs["chunk-2"]

    def test_figpop_store_identity(self, tmp_path):
        """A serial and a ``--jobs 2 --chunk 2`` figpop run persist
        byte-identical store contents: population units carry their
        (scale, interactions) params into the key derivation, and the
        chunk workers must reproduce it exactly."""
        from repro.experiments import store as store_mod
        from repro.experiments.figpop import run_figpop

        contents = {}
        for label, jobs in (("serial", 1), ("chunked", 2)):
            store_mod.reset_stores()
            cache_dir = tmp_path / label
            settings = ExperimentSettings(
                cache_dir=str(cache_dir), jobs=jobs, chunk=2
            )
            run_figpop(
                settings, sizes=(8,), skews=(0.6,),
                machines=("sgx", "mi6"), verbose=False,
            )
            contents[label] = {
                p.name: p.read_bytes()
                for p in sorted(cache_dir.rglob("*"))
                if p.is_file()
            }
        assert contents["serial"] == contents["chunked"]

    def test_figpop_quick_warm_cache_dir_zero_machine_runs(
        self, tmp_path, monkeypatch
    ):
        """A chunked-pool ``figpop --quick`` run leaves a cache dir a
        second (serial) invocation completes from on store hits alone —
        zero machine runs — even with the memory layer dropped."""
        cache_dir = str(tmp_path / "results")
        assert main(["figpop", "--quick", "--cache-dir", cache_dir,
                     "--jobs", "2", "--chunk", "2"]) == 0
        runner_mod.clear_result_cache()  # disk is all that's left

        def no_runs(*args, **kwargs):
            raise AssertionError("machine run despite a warm result store")

        monkeypatch.setattr(runner_mod, "run_one", no_runs)
        assert main(["figpop", "--quick", "--cache-dir", cache_dir,
                     "--jobs", "1"]) == 0

    def test_ablations_jobs_invariance(self):
        """Every ablation is identical with --jobs 1 and --jobs 4."""
        from repro.experiments.ablations import run_all_ablations

        runs = {}
        for jobs in (1, 4):
            settings = ExperimentSettings(n_user=2, n_os=4, no_cache=True, jobs=jobs)
            runs[jobs] = run_all_ablations(settings, verbose=False)
        assert runs[1] == runs[4]


class TestParallelRunMatrix:
    def test_pool_matches_serial(self):
        runner_mod.clear_result_cache()
        apps = [get_app("<AES, QUERY>")]
        machines = ("insecure", "sgx")
        settings = ExperimentSettings(n_user=2, n_os=4, no_cache=True)
        serial = run_matrix(apps, machines, settings)
        parallel = run_matrix(apps, machines, replace(settings, jobs=2))
        assert serial == parallel

    def test_pool_merges_calibration_caches(self):
        runner_mod.clear_result_cache()
        settings = ExperimentSettings(n_user=2, n_os=4, no_cache=True, jobs=2)
        run_matrix([get_app("<AES, QUERY>")], ("ironhide",), settings)
        assert len(settings.calibration_cache) == 1

    def test_chunked_pool_merges_calibration_caches(self):
        runner_mod.clear_result_cache()
        settings = ExperimentSettings(
            n_user=2, n_os=4, no_cache=True, jobs=2, chunk=1
        )
        run_matrix([get_app("<AES, QUERY>")], ("ironhide",), settings)
        assert len(settings.calibration_cache) == 1


class TestChunking:
    """Chunk sizing and the chunked pool's scheduling contracts."""

    def test_auto_chunk_targets_chunks_per_worker(self):
        from repro.experiments.sweep import AUTO_CHUNKS_PER_WORKER, resolve_chunk

        # 99 pending over 4 workers -> ceil(99 / (4 * target)) per task.
        expected = -(-99 // (4 * AUTO_CHUNKS_PER_WORKER))
        assert resolve_chunk("auto", 99, 4) == expected
        # Never zero, even when the pool is wider than the work.
        assert resolve_chunk("auto", 1, 8) == 1

    def test_resolve_chunk_values(self):
        from repro.experiments.sweep import resolve_chunk

        assert resolve_chunk(3, 10, 4) == 3
        assert resolve_chunk("3", 10, 4) == 3
        with pytest.raises(ValueError):
            resolve_chunk(0, 10, 4)

    def test_chunked_matrix_matches_serial(self):
        runner_mod.clear_result_cache()
        apps = [get_app("<AES, QUERY>"), get_app("<MEMCACHED, OS>")]
        machines = ("insecure", "sgx")
        settings = ExperimentSettings(n_user=2, n_os=4, no_cache=True)
        serial = run_matrix(apps, machines, settings)
        chunked = run_matrix(
            apps, machines, replace(settings, jobs=2, chunk="auto")
        )
        assert serial == chunked

    def test_default_pool_dispatches_through_chunk_worker(self, monkeypatch):
        """A pooled sweep under default settings submits chunk tasks:
        ``_run_chunk_worker`` is the only pool entry point."""
        from concurrent.futures import Future

        from repro.experiments import sweep as sweep_mod
        from repro.experiments.sweep import run_unit, run_units

        submitted = []

        class InlinePool:
            """Runs each task in-process so the spy sees every call."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, args):
                submitted.append(fn)
                fut = Future()
                fut.set_result(fn(args))
                return fut

        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", InlinePool)
        settings = ExperimentSettings(n_user=2, n_os=4, no_cache=True, jobs=2)
        units = [run_unit("<AES, QUERY>", "insecure"), run_unit("<AES, QUERY>", "sgx")]
        results = run_units(units, settings)
        assert set(results) == set(units)
        assert submitted and all(fn is sweep_mod._run_chunk_worker for fn in submitted)

    def test_chunked_store_stats_not_double_counted(self, tmp_path):
        """A cold chunked sweep reports one miss and one write per
        unit: the workers' per-unit re-checks must not re-merge the
        misses the parent scan already counted."""
        from repro.experiments import store as store_mod
        from repro.experiments.sweep import run_unit, run_units

        store_mod.reset_stores()
        runner_mod.clear_result_cache()
        settings = ExperimentSettings(
            n_user=2, n_os=4, cache_dir=str(tmp_path), jobs=2, chunk=1
        )
        units = [run_unit("<AES, QUERY>", m) for m in ("insecure", "sgx")]
        run_units(units, settings)
        stats = store_mod.get_store(str(tmp_path)).stats
        assert stats.misses == len(units)
        assert stats.writes == len(units)

    def test_no_cache_forces_recompute_in_chunk_workers(self, tmp_path):
        """``no_cache`` must bypass the chunk workers' warm-read fast
        path too, not only the parent's pre-scan."""
        from repro.experiments import sweep as sweep_mod
        from repro.experiments.sweep import run_unit, run_units

        settings = ExperimentSettings(n_user=2, n_os=4, cache_dir=str(tmp_path))
        unit = run_unit("<AES, QUERY>", "insecure")
        run_units([unit], settings)  # persists the result

        chunk_settings = ExperimentSettings(
            n_user=2, n_os=4, cache_dir=str(tmp_path), no_cache=True
        )
        _, _, stats, _ = sweep_mod._run_chunk_worker(((unit,), chunk_settings))
        assert stats["memory_hits"] == 0 and stats["disk_hits"] == 0
        assert stats["writes"] == 1  # recomputed and re-published
