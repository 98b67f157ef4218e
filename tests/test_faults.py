"""The fault-tolerance layer: injection, retries, integrity, quarantine.

Covers the deterministic fault-injection facility (plan grammar,
seeded decisions, cross-process token budgets), the store integrity
chain (payload digests, quarantine, ENOSPC degradation, kill-point
crash consistency, the gc-vs-reader race), the sweep scheduler's
retry/backoff/serial-fallback machinery with its ``SweepHealth``
accounting, the opt-in progress heartbeat, and the ``faults.dead-site``
static-analysis rule that keeps every registered site consulted.
"""

from __future__ import annotations

import os
import pickle
import textwrap
import time

import pytest

from repro import faults as faults_mod
from repro.analysis.core import RepoContext, SourceFile
from repro.analysis.faults import check_faults
from repro.errors import InjectedFault, SweepExecutionError
from repro.experiments.runner import ExperimentSettings
from repro.experiments.store import (
    TMP_REAP_AGE_S,
    ResultStore,
    payload_digest,
    reset_stores,
)
from repro.experiments.sweep import RetryPolicy, WorkUnit, run_units
from repro.faults import FaultPlan, FaultRule, SweepHealth, should_inject

KEY = ("faults-test", "unit", 0)


@pytest.fixture(autouse=True)
def _disarm_faults():
    """Every test leaves the process with no plan armed."""
    yield
    faults_mod.install(None)


def routing_units(n: int):
    """Cheap, deterministic units (2x2 mesh routing census)."""
    return [
        WorkUnit("routing", variant=f"faults{i}", params=(2, 2)) for i in range(n)
    ]


def fresh_settings(tmp_path=None, **kwargs):
    reset_stores()
    if tmp_path is not None:
        kwargs.setdefault("cache_dir", str(tmp_path / "store"))
    return ExperimentSettings(**kwargs)


# ---------------------------------------------------------------------------
# Plan grammar
# ---------------------------------------------------------------------------


class TestPlanGrammar:
    def test_parse_and_describe_roundtrip(self):
        spec = "worker_crash,unit_exception:0.25,store_write_enospc:1x1"
        plan = FaultPlan.parse(spec, seed=7)
        assert plan.describe() == spec
        assert plan.seed == 7
        assert plan.rule_for("worker_crash") == FaultRule("worker_crash")
        assert plan.rule_for("unit_exception").rate == 0.25
        assert plan.rule_for("store_write_enospc").count == 1
        assert plan.rule_for("store_read_corrupt") is None

    def test_plan_pickles(self):
        plan = FaultPlan.parse("unit_stall:0.5x3", seed=9, token_dir="/tmp/t")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan

    @pytest.mark.parametrize(
        "spec",
        [
            "no_such_site",  # unknown site
            "worker_crash:maybe",  # malformed rate
            "worker_crash:1xmany",  # malformed count
            "worker_crash:2.0",  # rate out of range
            "worker_crash:1x0",  # count < 1
            "worker_crash,worker_crash:0.5",  # duplicate site
            ", ,",  # no sites at all
        ],
    )
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_unknown_site_consult_raises_even_unarmed(self):
        with pytest.raises(ValueError, match="unknown injection site"):
            should_inject("definitely_not_a_site")

    @pytest.mark.parametrize("site", faults_mod.INJECTION_SITES)
    def test_each_registered_site_fires_only_for_its_rule(self, site):
        faults_mod.install(FaultPlan.parse(f"{site}:1"))
        assert should_inject(site)
        others = [s for s in faults_mod.INJECTION_SITES if s != site]
        assert not any(should_inject(other) for other in others)


# ---------------------------------------------------------------------------
# Deterministic decisions and budgets
# ---------------------------------------------------------------------------


class TestInjectionDecisions:
    def test_no_plan_never_injects(self):
        faults_mod.install(None)
        assert not should_inject("worker_crash")

    def test_unruled_site_never_injects(self):
        faults_mod.install(FaultPlan.parse("worker_crash"))
        assert not should_inject("unit_exception")

    def test_rate_zero_and_one(self):
        faults_mod.install(
            FaultPlan.parse("worker_crash:0,unit_exception:1", seed=3)
        )
        assert not any(should_inject("worker_crash") for _ in range(20))
        assert all(should_inject("unit_exception") for _ in range(20))

    def test_reinstall_replays_identical_sequences(self):
        plan = FaultPlan.parse("store_read_corrupt:0.5", seed=11)
        faults_mod.install(plan)
        first = [should_inject("store_read_corrupt", "entry") for _ in range(64)]
        faults_mod.install(plan)
        second = [should_inject("store_read_corrupt", "entry") for _ in range(64)]
        assert first == second
        assert any(first) and not all(first)  # the rate actually bites

    def test_seed_changes_the_sequence(self):
        seqs = []
        for seed in (1, 2):
            faults_mod.install(FaultPlan.parse("store_read_corrupt:0.5", seed=seed))
            seqs.append(
                tuple(should_inject("store_read_corrupt") for _ in range(64))
            )
        assert seqs[0] != seqs[1]

    def test_local_budget_caps_firings_per_install(self):
        plan = FaultPlan.parse("unit_exception:1x2", seed=0)
        faults_mod.install(plan)
        fired = [should_inject("unit_exception") for _ in range(5)]
        assert fired == [True, True, False, False, False]
        faults_mod.install(plan)  # reinstall refreshes the local budget
        assert should_inject("unit_exception")

    def test_token_dir_budget_spans_installs(self, tmp_path):
        plan = FaultPlan.parse(
            "unit_exception:1x2", seed=0, token_dir=tmp_path / "tokens"
        )
        faults_mod.install(plan)
        assert [should_inject("unit_exception") for _ in range(3)] == [
            True, True, False,
        ]
        faults_mod.install(plan)  # reinstall does NOT refresh shared tokens
        assert not should_inject("unit_exception")
        tokens = sorted(p.name for p in (tmp_path / "tokens").iterdir())
        assert tokens == ["unit_exception.0.tok", "unit_exception.1.tok"]


class TestSweepHealth:
    def test_merge_and_describe(self):
        health = SweepHealth(attempts=2, retries=1)
        health.merge(SweepHealth(attempts=3, worker_crashes=1).as_dict())
        assert health.attempts == 5
        assert health.retries == 1
        assert health.worker_crashes == 1
        assert "5 attempts" in health.describe()
        assert "1 crashes" in health.describe()


# ---------------------------------------------------------------------------
# Store integrity: digests, quarantine, degradation, kill points
# ---------------------------------------------------------------------------


class TestStoreIntegrity:
    def test_digest_tamper_quarantines_and_recomputes(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {"census": 42})
        path = store.path_for(KEY)
        text = path.read_text().replace("42", "43")  # bit-flip the payload
        path.write_text(text)
        store.clear_memory()
        assert store.get(KEY) is None
        assert store.stats.invalid == 1
        assert store.stats.quarantined == 1
        assert not path.exists()
        evidence = list(store.quarantine_dir.iterdir())
        assert [p.name for p in evidence] == [path.name]
        assert "43" in evidence[0].read_text()  # preserved, not deleted
        # The slot is free: recompute, re-publish, read back.
        store.put(KEY, {"census": 42})
        store.clear_memory()
        assert store.get(KEY) == {"census": 42}

    def test_garbled_bytes_quarantine_with_collision_suffix(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {"v": 1})
        path = store.path_for(KEY)
        for expected in ("1", "2"):
            path.write_bytes(b"\x00 not json \xff")
            store.clear_memory()
            assert store.get(KEY) is None
            assert store.stats.quarantined == int(expected)
            store.put(KEY, {"v": 1})
        names = sorted(p.name for p in store.quarantine_dir.iterdir())
        assert names == sorted([path.name, f"{path.stem}.1{path.suffix}"])

    def test_enospc_degrades_to_memory_only_once(self, tmp_path, capsys):
        faults_mod.install(FaultPlan.parse("store_write_enospc:1x1"))
        store = ResultStore(tmp_path)
        assert store.put(KEY, {"v": 1}) is False
        assert store.degraded
        assert store.get(KEY) == {"v": 1}  # memory layer still serves
        assert store.put(("other",), {"v": 2}) is False  # stays degraded
        assert store.stats.write_failures == 2
        assert list(tmp_path.rglob("*.json")) == []
        warnings = [
            line for line in capsys.readouterr().err.splitlines()
            if "degrading" in line
        ]
        assert len(warnings) == 1  # one warning, not one per put

    def test_partial_write_kill_point_converges(self, tmp_path):
        faults_mod.install(FaultPlan.parse("store_write_partial:1x1"))
        store = ResultStore(tmp_path)
        assert store.put(KEY, {"v": 7}) is False  # writer "died" mid-put
        path = store.path_for(KEY)
        assert not path.exists()  # never published
        tmps = list(path.parent.glob("*.tmp"))
        assert len(tmps) == 1  # the torn temp file is left behind
        # A reader sees a plain miss, not the torn bytes.
        next_store = ResultStore(tmp_path)
        assert next_store.get(KEY) is None
        # The next writer converges; the young tmp survives (it could
        # belong to a live writer) until it ages past the reap window.
        assert next_store.put(KEY, {"v": 7}) is True
        assert next_store.get(KEY) == {"v": 7}
        assert tmps[0].exists()
        old = time.time() - TMP_REAP_AGE_S - 1
        os.utime(tmps[0], (old, old))
        next_store.put(KEY, {"v": 7})  # same entry dir: reaps in passing
        assert not tmps[0].exists()  # stale orphan gone

    def test_gc_race_vanished_file_is_a_miss(self, tmp_path):
        writer = ResultStore(tmp_path)
        reader = ResultStore(tmp_path)
        writer.put(KEY, {"v": 1})
        assert reader.get(KEY) == {"v": 1}
        # A sibling's gc evicts the entry between path_for and open.
        writer.path_for(KEY).unlink()
        reader.clear_memory()
        assert reader.get(KEY) is None  # miss, never an exception
        assert reader.stats.invalid == 0  # a vanished file is not corruption
        assert reader.stats.quarantined == 0

    def test_verify_audits_without_mutating(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {"v": 1})
        store.put(("second",), {"v": 2})
        path = store.path_for(KEY)
        path.write_text(path.read_text().replace('"v"', '"w"'))
        (path.parent / "orphan.tmp").write_text("torn")
        store.quarantine_dir.mkdir()
        (store.quarantine_dir / "old.json").write_text("{}")
        audit = store.verify()
        assert audit == {"entries": 2, "invalid": 1, "quarantined": 1, "tmp": 1}
        assert path.exists()  # verify never quarantines or deletes


# ---------------------------------------------------------------------------
# Sweep retries, fallback and health accounting
# ---------------------------------------------------------------------------


class TestSweepRecovery:
    def _baseline(self, units):
        return run_units(units, fresh_settings())

    def test_injected_exceptions_retry_to_convergence(self, tmp_path):
        units = routing_units(4)
        expected = self._baseline(units)
        settings = fresh_settings(
            tmp_path, jobs=2, chunk=2,
            faults=FaultPlan.parse(
                "unit_exception:1x2", token_dir=tmp_path / "tokens"
            ),
        )
        got = run_units(
            units, settings,
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.01),
        )
        assert got == expected
        health = settings.sweep_health
        assert health.unit_failures >= 1
        assert health.retries >= 1
        assert health.attempts > len(units)

    def test_worker_crash_recovers(self, tmp_path):
        units = routing_units(4)
        expected = self._baseline(units)
        settings = fresh_settings(
            tmp_path, jobs=2, chunk=2,
            faults=FaultPlan.parse(
                "worker_crash:1x1", token_dir=tmp_path / "tokens"
            ),
        )
        got = run_units(
            units, settings,
            retry=RetryPolicy(backoff_base_s=0.01),
        )
        assert got == expected
        assert settings.sweep_health.worker_crashes >= 1

    def test_exhausted_units_fall_back_to_serial(self):
        # Workers always crash; the parent's in-process fallback (which
        # never consults worker_crash) still completes the sweep.
        units = routing_units(2)
        expected = self._baseline(units)
        settings = fresh_settings(jobs=2, faults=FaultPlan.parse("worker_crash"))
        got = run_units(
            units, settings,
            retry=RetryPolicy(max_attempts=1, backoff_base_s=0.01),
        )
        assert got == expected
        health = settings.sweep_health
        assert health.exhausted == len(units)
        assert health.degraded == len(units)

    def test_unrecoverable_units_raise_with_ledger(self):
        units = routing_units(2)
        settings = fresh_settings(jobs=2, faults=FaultPlan.parse("unit_exception"))
        with pytest.raises(SweepExecutionError) as excinfo:
            run_units(
                units, settings,
                retry=RetryPolicy(max_attempts=2, backoff_base_s=0.01),
            )
        err = excinfo.value
        assert set(err.failures) == set(units)
        for ledger in err.failures.values():
            assert any("attempt 1" in line for line in ledger)
            assert any("serial fallback" in line for line in ledger)
            assert any("InjectedFault" in line for line in ledger)
        assert err.health.exhausted == len(units)

    def test_stall_timeout_counts_and_retries(self, tmp_path):
        units = routing_units(1)
        expected = self._baseline(units)
        plan = FaultPlan.parse(
            "unit_stall:1x1", stall_s=1.5, token_dir=tmp_path / "tokens"
        )
        settings = fresh_settings(tmp_path, jobs=2, faults=plan)
        got = run_units(
            units, settings,
            retry=RetryPolicy(unit_timeout_s=0.3, backoff_base_s=0.01),
        )
        assert got == expected
        assert settings.sweep_health.timeouts >= 1

    def test_serial_path_propagates_injected_faults(self):
        faults_mod.install(None)
        settings = fresh_settings(faults=FaultPlan.parse("unit_exception:1x1"))
        with pytest.raises(InjectedFault):
            run_units(routing_units(1), settings)
        # run_units restored the pre-call (disarmed) plan on the way out.
        assert faults_mod.active_plan() is None


class TestProgressHeartbeat:
    def test_progress_emits_to_stderr_only(self, capsys):
        settings = fresh_settings(progress=True)
        run_units(routing_units(2), settings)
        captured = capsys.readouterr()
        assert "[sweep]" in captured.err
        assert "units done" in captured.err
        assert captured.out == ""

    def test_progress_off_by_default(self, capsys):
        run_units(routing_units(2), fresh_settings())
        assert "[sweep]" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI spec validation
# ---------------------------------------------------------------------------


class TestCliSpecValidation:
    def test_fault_arg_accepts_and_rejects(self):
        import argparse

        from repro.__main__ import fault_arg

        assert fault_arg("worker_crash:1x2") == "worker_crash:1x2"
        with pytest.raises(argparse.ArgumentTypeError):
            fault_arg("not_a_site")


# ---------------------------------------------------------------------------
# faults.dead-site static rule
# ---------------------------------------------------------------------------

_REGISTRY_SNIPPET = textwrap.dedent(
    """
    INJECTION_SITES = (
        "worker_crash",
        "unit_exception",
    )
    """
).lstrip("\n")


def _faults_ctx(consumer_text: str, registry: str = _REGISTRY_SNIPPET):
    return RepoContext(
        ".",
        [
            SourceFile.from_text("src/repro/faults.py", registry),
            SourceFile.from_text("src/repro/experiments/consumer.py", consumer_text),
        ],
    )


class TestFaultsStaticRules:
    def test_dead_site_reported_at_registry(self):
        ctx = _faults_ctx('should_inject("worker_crash")\n')
        findings = check_faults(ctx)
        assert [f.rule for f in findings] == ["faults.dead-site"]
        assert findings[0].path == "src/repro/faults.py"
        assert "unit_exception" in findings[0].message

    def test_non_literal_consult_leaves_site_dead(self):
        # A non-literal consult names no site the rule can see.
        ctx = _faults_ctx(
            'should_inject("worker_crash")\n'
            'site = "unit_exception"\nshould_inject(site)\n'
        )
        findings = check_faults(ctx)
        assert [f.rule for f in findings] == ["faults.dead-site"]
        assert "unit_exception" in findings[0].message

    def test_synced_registry_is_clean(self):
        ctx = _faults_ctx(
            'faults.should_inject("worker_crash")\n'
            'should_inject("unit_exception", unit.kind)\n'
        )
        assert check_faults(ctx) == []

    def test_no_registry_means_no_findings(self):
        ctx = RepoContext(
            ".",
            [SourceFile.from_text("src/x.py", 'should_inject("mystery")\n')],
        )
        assert check_faults(ctx) == []
