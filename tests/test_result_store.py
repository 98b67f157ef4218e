"""Tests for the persistent experiment result store.

Round-trip fidelity, validation (schema/model/engine mismatches,
corrupted and mismatched files -> recompute), atomic concurrent
writes, cross-process reuse, and the ``no_cache`` read-bypass.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments.runner import ExperimentSettings, run_matrix, run_one
from repro.experiments.store import (
    MODEL_VERSION,
    SCHEMA_VERSION,
    ResultStore,
    get_store,
)
from repro.experiments.sweep import run_unit, unit_cache_key
from repro.workloads import get_app

KEY = ("unit-test", "<AES, QUERY>", "sgx", "deadbeef", 2, 0)


@pytest.fixture(scope="module")
def sample_result():
    settings = ExperimentSettings(n_user=2, n_os=4)
    return run_one(get_app("<AES, QUERY>"), "sgx", settings)


def _tamper(store: ResultStore, key, field, value):
    path = store.path_for(key)
    payload = json.loads(path.read_text())
    payload[field] = value
    path.write_text(json.dumps(payload))


class TestRoundTrip:
    def test_run_result_round_trips_exactly(self, tmp_path, sample_result):
        ResultStore(tmp_path).put(KEY, sample_result)
        # A fresh instance has a cold memory layer: this is a disk read.
        fresh = ResultStore(tmp_path)
        got = fresh.get(KEY)
        assert got == sample_result
        assert got is not sample_result
        assert fresh.stats.disk_hits == 1

    def test_plain_data_round_trips(self, tmp_path):
        value = {"total": 123456.789e-3, "parts": [1, 2.5, "x"], "flag": True}
        ResultStore(tmp_path).put(KEY, value)
        assert ResultStore(tmp_path).get(KEY) == value

    def test_memory_only_store(self, sample_result):
        store = ResultStore(None)
        store.put(KEY, sample_result)
        assert store.get(KEY) == sample_result
        with pytest.raises(ValueError):
            store.path_for(KEY)

    def test_get_copy_semantics(self, tmp_path, sample_result):
        store = ResultStore(tmp_path)
        store.put(KEY, sample_result)
        shared = store.get(KEY, copy_result=False)
        assert store.get(KEY, copy_result=False) is shared
        assert store.get(KEY, copy_result=True) is not shared

    def test_miss_returns_none(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(KEY) is None
        assert store.stats.misses == 1


class TestValidation:
    def test_schema_version_mismatch_recomputes(self, tmp_path, sample_result):
        store = ResultStore(tmp_path)
        store.put(KEY, sample_result)
        _tamper(store, KEY, "schema", SCHEMA_VERSION + 1)
        fresh = ResultStore(tmp_path)
        assert fresh.get(KEY) is None
        assert fresh.stats.invalid == 1

    def test_model_version_mismatch_recomputes(self, tmp_path, sample_result):
        store = ResultStore(tmp_path)
        store.put(KEY, sample_result)
        _tamper(store, KEY, "model", MODEL_VERSION + "-stale")
        assert ResultStore(tmp_path).get(KEY) is None

    def test_engine_mismatch_means_different_key(self):
        """The replay engine is part of the config hash, so results
        computed under one engine are never served for the other."""
        unit = run_unit("<AES, QUERY>", "sgx")
        scalar = ExperimentSettings(n_user=2)
        vector = ExperimentSettings(n_user=2)
        vector.config = vector.config.with_engine("vector")
        assert unit_cache_key(unit, scalar) != unit_cache_key(unit, vector)

    def test_config_change_means_different_key(self):
        """Any config field reaches the key through the config hash, so
        a result computed under one cost model is never served for
        another."""
        unit = run_unit("<AES, QUERY>", "sgx")
        base = ExperimentSettings(n_user=2)
        slower = ExperimentSettings(n_user=2)
        slower.config = dataclasses.replace(
            slower.config,
            costs=dataclasses.replace(slower.config.costs, sgx_crossing_us=6.0),
        )
        assert unit_cache_key(unit, base) != unit_cache_key(unit, slower)

    def test_run_unit_overrides_get_distinct_keys(self):
        """A default run, a run at scale 1.0 and one with an explicit
        session length never share a store entry, even where the
        override values equal the defaults."""
        settings = ExperimentSettings(n_user=2, n_os=4)
        units = [
            run_unit("<AES, QUERY>", "sgx"),
            run_unit("<AES, QUERY>", "sgx", 1.0),
            run_unit("<AES, QUERY>", "sgx", 1.0, 2),
        ]
        keys = {unit_cache_key(unit, settings) for unit in units}
        assert len(keys) == len(units)

    def test_corrupted_file_recovery(self, tmp_path, sample_result):
        store = ResultStore(tmp_path)
        store.put(KEY, sample_result)
        path = store.path_for(KEY)
        path.write_bytes(b"\x00garbage{{{")
        fresh = ResultStore(tmp_path)
        assert fresh.get(KEY) is None  # corrupt -> miss, no crash
        fresh.put(KEY, sample_result)  # and the slot is recoverable
        assert ResultStore(tmp_path).get(KEY) == sample_result

    def test_foreign_key_payload_rejected(self, tmp_path, sample_result):
        """A file whose embedded key disagrees (collision/tampering)
        is ignored."""
        store = ResultStore(tmp_path)
        other = ("unit-test", "other-key")
        store.put(other, sample_result)
        path = store.path_for(KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(store.path_for(other).read_text())
        assert ResultStore(tmp_path).get(KEY) is None


def _concurrent_put(args):
    cache_dir, worker_id = args
    store = ResultStore(cache_dir)
    store.put(KEY, {"worker": worker_id, "payload": [worker_id] * 8})
    return worker_id


class TestConcurrency:
    def test_concurrent_writers_leave_valid_store(self, tmp_path):
        """Two pool workers racing on the same key: last atomic rename
        wins and the file is never torn."""
        with ProcessPoolExecutor(max_workers=2) as pool:
            done = list(pool.map(_concurrent_put, [(tmp_path, 1), (tmp_path, 2)]))
        assert sorted(done) == [1, 2]
        got = ResultStore(tmp_path).get(KEY)
        assert got in ({"worker": 1, "payload": [1] * 8}, {"worker": 2, "payload": [2] * 8})

    def test_no_tmp_files_left_behind(self, tmp_path, sample_result):
        store = ResultStore(tmp_path)
        store.put(KEY, sample_result)
        assert not list(Path(tmp_path).rglob("*.tmp"))

    def test_cross_process_reuse(self, tmp_path, monkeypatch):
        """A run recorded by another process is served from disk here."""
        script = (
            "from repro.experiments.runner import ExperimentSettings, run_matrix\n"
            "from repro.workloads import get_app\n"
            f"settings = ExperimentSettings(n_user=2, n_os=4, cache_dir={str(tmp_path)!r})\n"
            "run_matrix([get_app('<AES, QUERY>')], ('insecure',), settings)\n"
        )
        subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=Path(__file__).parent.parent,
        )
        runner_mod.clear_result_cache()
        calls = []
        real = runner_mod.run_one
        monkeypatch.setattr(
            runner_mod, "run_one", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        settings = ExperimentSettings(n_user=2, n_os=4, cache_dir=str(tmp_path))
        results = run_matrix([get_app("<AES, QUERY>")], ("insecure",), settings)
        assert not calls
        assert results[("<AES, QUERY>", "insecure")].app == "<AES, QUERY>"


class TestChunkWorkerConcurrency:
    """Chunk workers share one store directory; races must stay safe."""

    UNITS_SCRIPT = (
        "from repro.experiments.runner import ExperimentSettings\n"
        "from repro.experiments.sweep import WorkUnit, run_units\n"
        "units = [WorkUnit('routing', params=(r, c))\n"
        "         for r, c in ((2, 2), (2, 3), (3, 2), (3, 3))]\n"
        "settings = ExperimentSettings(cache_dir={cache_dir!r}, jobs=2, chunk=1)\n"
        "run_units(units, settings)\n"
    )

    def _routing_units(self):
        from repro.experiments.sweep import WorkUnit

        return [
            WorkUnit("routing", params=(r, c))
            for r, c in ((2, 2), (2, 3), (3, 2), (3, 3))
        ]

    def test_concurrent_chunked_sweeps_leave_valid_store(self, tmp_path):
        """Two whole processes each run a chunked pooled sweep over the
        same units and the same cache directory at once.  Every writer
        publishes with an atomic rename, so the surviving store must be
        valid and bit-identical to a serial recompute."""
        script = self.UNITS_SCRIPT.format(cache_dir=str(tmp_path))
        env = {"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"}
        cwd = Path(__file__).parent.parent
        procs = [
            subprocess.Popen([sys.executable, "-c", script], env=env, cwd=cwd)
            for _ in range(2)
        ]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        assert not list(Path(tmp_path).rglob("*.tmp"))

        from repro.experiments.sweep import execute_unit, unit_cache_key

        settings = ExperimentSettings()
        fresh = ResultStore(tmp_path)
        for unit in self._routing_units():
            stored = fresh.get(unit_cache_key(unit, settings))
            assert stored == execute_unit(unit, settings), unit
        assert fresh.stats.invalid == 0

    def test_chunk_worker_skips_units_a_sibling_persisted(self, tmp_path):
        """The warm-read fast path: a unit persisted to the shared
        directory after the parent's scan is read back, not re-run."""
        from repro.experiments import sweep as sweep_mod
        from repro.experiments.sweep import unit_cache_key

        units = self._routing_units()
        settings = ExperimentSettings(cache_dir=str(tmp_path))
        sentinel = {"pairs": -1, "xy_only_escapes": -1, "bidirectional_escapes": -1}
        # Simulate a sibling process publishing the first unit between
        # the parent's store scan and this worker picking up the chunk.
        ResultStore(tmp_path).put(unit_cache_key(units[0], settings), sentinel)

        pairs, _, stats, _ = sweep_mod._run_chunk_worker((tuple(units), settings))
        results = dict(pairs)
        assert results[units[0]] == sentinel  # served, not recomputed
        assert stats["disk_hits"] == 1
        assert stats["misses"] == len(units) - 1
        assert stats["writes"] == len(units) - 1


class TestNoCache:
    def test_no_cache_bypasses_reads_but_still_writes(self, tmp_path, monkeypatch):
        calls = []
        real = runner_mod.run_one
        monkeypatch.setattr(
            runner_mod, "run_one", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        apps = [get_app("<AES, QUERY>")]
        bypass = ExperimentSettings(n_user=2, n_os=4, cache_dir=str(tmp_path), no_cache=True)
        run_matrix(apps, ("insecure",), bypass)
        assert len(calls) == 1
        store = get_store(str(tmp_path))
        assert store.path_for(unit_cache_key(run_unit("<AES, QUERY>", "insecure"), bypass)).exists()
        run_matrix(apps, ("insecure",), bypass)
        assert len(calls) == 2  # reads bypassed: recomputed
        reading = ExperimentSettings(n_user=2, n_os=4, cache_dir=str(tmp_path))
        run_matrix(apps, ("insecure",), reading)
        assert len(calls) == 2  # normal settings hit what no_cache wrote


class TestEviction:
    """--cache-max-mb: LRU-by-mtime GC keeps the disk footprint capped."""

    @staticmethod
    def _sized_store(tmp_path, n_entries, max_bytes=None, payload_words=200):
        import os
        import time

        store = ResultStore(tmp_path, max_bytes=max_bytes)
        keys = []
        for i in range(n_entries):
            key = ("evict-test", i)
            store.put(key, {"i": i, "pad": ["x" * 8] * payload_words})
            # Distinct mtimes so the LRU order is unambiguous on
            # filesystems with coarse timestamps.
            path = store.path_for(key)
            stamp = time.time() - (n_entries - i) * 10
            os.utime(path, (stamp, stamp))
            keys.append(key)
        return store, keys

    def test_cap_enforced_on_write(self, tmp_path):
        store, _ = self._sized_store(tmp_path, 6)
        per_entry = store.disk_bytes() // 6
        capped = ResultStore(tmp_path, max_bytes=3 * per_entry + per_entry // 2)
        capped.put(("evict-test", "new"), {"pad": ["x" * 8] * 200})
        assert capped.disk_bytes() <= capped.max_bytes
        # The just-written entry always survives.
        assert ResultStore(tmp_path).get(("evict-test", "new")) is not None

    def test_oldest_entries_evicted_first(self, tmp_path):
        store, keys = self._sized_store(tmp_path, 6)
        per_entry = store.disk_bytes() // 6
        capped = ResultStore(tmp_path, max_bytes=4 * per_entry + per_entry // 2)
        removed = capped.gc()
        assert removed == 2
        fresh = ResultStore(tmp_path)
        for key in keys[:2]:  # oldest mtimes gone
            assert fresh.get(key) is None
        for key in keys[2:]:
            assert fresh.get(key) is not None

    def test_reads_refresh_lru_clock(self, tmp_path):
        store, keys = self._sized_store(tmp_path, 6)
        per_entry = store.disk_bytes() // 6
        capped = ResultStore(tmp_path, max_bytes=4 * per_entry + per_entry // 2)
        # Touch the globally-oldest entry through a disk read ...
        assert capped.get(keys[0]) is not None
        capped.gc()
        fresh = ResultStore(tmp_path)
        # ... so eviction takes the next-oldest two instead.
        assert fresh.get(keys[0]) is not None
        assert fresh.get(keys[1]) is None
        assert fresh.get(keys[2]) is None

    def test_no_cap_means_no_gc(self, tmp_path):
        store, keys = self._sized_store(tmp_path, 4)
        assert store.gc() == 0
        assert all(ResultStore(tmp_path).get(k) is not None for k in keys)

    def test_settings_wire_cap_through_sweep(self, tmp_path):
        from repro.experiments.sweep import run_units

        settings = ExperimentSettings(
            n_user=2, n_os=4, cache_dir=str(tmp_path), cache_max_mb=0.25
        )
        run_units([run_unit("<AES, QUERY>", "insecure")], settings)
        assert get_store(str(tmp_path)).max_bytes == int(0.25 * 1024 * 1024)


class TestStoreInterning:
    def test_get_store_interns_per_directory(self, tmp_path):
        assert get_store(str(tmp_path)) is get_store(str(tmp_path))
        assert get_store(None) is get_store(None)
        assert get_store(str(tmp_path)) is not get_store(None)

    def test_get_store_updates_cap(self, tmp_path):
        store = get_store(str(tmp_path), max_bytes=1000)
        assert get_store(str(tmp_path)).max_bytes == 1000
        get_store(str(tmp_path), max_bytes=2000)
        assert store.max_bytes == 2000

    def test_clear_result_cache_keeps_disk(self, tmp_path, sample_result):
        store = get_store(str(tmp_path))
        key = ("unit-test", "persist")
        store.put(key, sample_result)
        runner_mod.clear_result_cache()
        assert len(store) == 0
        assert store.get(key) == sample_result  # reloaded from disk
