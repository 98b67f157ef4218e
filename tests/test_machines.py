"""Integration tests: every registered machine running real applications.

The ``results`` fixture (and the coverage meta-test at the bottom)
builds its machine list from the ``MACHINES`` registry, so a new
machine is exercised here the moment it registers.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import SystemConfig, build_machine, get_app
from repro.analysis.cache_keys import MODEL_AUDIT_REL
from repro.attacks.environment import ISOLATION_MODELS
from repro.experiments import figscale
from repro.machines import MACHINES
from repro.machines.ironhide import IronhideMachine
from repro.secure.isolation import SpatialClusterPolicy
from repro.secure.predictor import OptimalPredictor, StaticPredictor
from repro.units import cycles_from_us

REPO = Path(__file__).resolve().parents[1]
APP = "<AES, QUERY>"
OS_APP = "<MEMCACHED, OS>"
N = 8
N_OS = 24


@pytest.fixture(scope="module")
def results(calibration_cache=None):
    cfg = SystemConfig.evaluation()
    cache = {}
    out = {}
    for name in MACHINES:
        kwargs = {"calibration_cache": cache} if name == "ironhide" else {}
        out[name] = build_machine(name, cfg, **kwargs).run(
            get_app(APP), n_interactions=N, seed=0
        )
    return out


class TestMachineBasics:
    def test_build_machine_rejects_unknown(self):
        with pytest.raises(ValueError):
            build_machine("enclave9000")

    def test_unknown_machine_error_lists_registry(self):
        """The error names every registered machine, dynamically."""
        with pytest.raises(ValueError) as excinfo:
            build_machine("enclave9000")
        message = str(excinfo.value)
        for name in MACHINES:
            assert name in message, name
        assert "enclave9000" in message

    def test_all_machines_complete(self, results):
        for name, r in results.items():
            assert r.completion_cycles > 0, name
            assert r.interactions == N

    def test_insecure_has_no_security_overhead(self, results):
        bd = results["insecure"].breakdown
        assert bd.crossing == 0 and bd.purge == 0
        assert bd.reconfig == 0 and bd.attestation == 0

    def test_sgx_crossing_cost_exact(self, results):
        expected = 2 * N * cycles_from_us(5.0)
        assert results["sgx"].breakdown.crossing == expected

    def test_sgx_never_purges(self, results):
        assert results["sgx"].breakdown.purge == 0

    def test_mi6_purges_every_interaction(self, results):
        bd = results["mi6"].breakdown
        assert bd.purge > 0
        assert bd.crossing > 0  # MI6 keeps the SGX crossing cost

    def test_ironhide_has_no_crossings(self, results):
        bd = results["ironhide"].breakdown
        assert bd.crossing == 0 and bd.purge == 0

    def test_ironhide_pays_one_time_costs(self, results):
        bd = results["ironhide"].breakdown
        assert bd.attestation > 0

    def test_security_ordering(self, results):
        """Insecure fastest; MI6 slowest of the protected machines."""
        assert results["insecure"].completion_cycles <= results["sgx"].completion_cycles
        assert results["sgx"].completion_cycles < results["mi6"].completion_cycles
        assert results["ironhide"].completion_cycles < results["mi6"].completion_cycles

    def test_temporal_ordering(self, results):
        """fence.t.s's periodic core-local fence is far cheaper than the
        per-crossing bulk flushes; SIMF undercuts MI6 by exactly the
        software purge-sequence overhead it eliminates."""
        assert results["insecure"].completion_cycles < results["fence_ts"].completion_cycles
        assert results["fence_ts"].completion_cycles < results["simf"].completion_cycles
        assert results["simf"].completion_cycles < results["mi6"].completion_cycles

    def test_reproducible_given_seed(self):
        cfg = SystemConfig.evaluation()
        a = build_machine("sgx", cfg).run(get_app(APP), n_interactions=4, seed=9)
        b = build_machine("sgx", cfg).run(get_app(APP), n_interactions=4, seed=9)
        assert a.completion_cycles == b.completion_cycles
        assert a.l1_miss_rate == b.l1_miss_rate

    def test_strong_isolation_flags(self):
        cfg = SystemConfig.evaluation()
        assert build_machine("mi6", cfg).strong_isolation
        assert build_machine("ironhide", cfg).strong_isolation
        assert not build_machine("sgx", cfg).strong_isolation


class TestIronhideSpecifics:
    def test_chosen_split_is_valid(self, results):
        cfg = SystemConfig.evaluation()
        r = results["ironhide"]
        valid = SpatialClusterPolicy.valid_splits(cfg, build_machine("insecure", cfg).mesh)
        assert r.secure_cores in valid
        assert r.secure_cores + r.insecure_cores == 64

    def test_predictor_injectable(self):
        cfg = SystemConfig.evaluation()
        machine = IronhideMachine(cfg, predictor=StaticPredictor(10))
        r = machine.run(get_app(APP), n_interactions=4)
        assert r.secure_cores == 10

    def test_static_at_initial_split_skips_reconfig(self):
        cfg = SystemConfig.evaluation()
        machine = IronhideMachine(cfg, predictor=StaticPredictor(32))
        r = machine.run(get_app(APP), n_interactions=4)
        assert r.breakdown.reconfig == 0

    def test_calibration_cache_reused(self):
        cfg = SystemConfig.evaluation()
        cache = {}
        IronhideMachine(cfg, calibration_cache=cache).run(get_app(APP), n_interactions=2)
        assert len(cache) == 1
        IronhideMachine(cfg, calibration_cache=cache).run(get_app(APP), n_interactions=2)
        assert len(cache) == 1  # second run hit the cache

    def test_tc_gets_tiny_secure_cluster(self):
        cfg = SystemConfig.evaluation()
        r = IronhideMachine(cfg).run(get_app("<TC, GRAPH>"), n_interactions=4)
        assert r.secure_cores <= 8

    def test_lighttpd_gets_one_slice(self):
        cfg = SystemConfig.evaluation()
        r = IronhideMachine(cfg).run(get_app("<LIGHTTPD, OS>"), n_interactions=12)
        assert r.secure_cores <= 2

    def test_mutually_distrusting_context_switch_purges(self):
        cfg = SystemConfig.evaluation()
        machine = IronhideMachine(cfg)
        app = get_app(APP)
        sec, ins = app.processes()
        rng = np.random.default_rng(0)
        st = machine._setup(app, sec, ins, rng)
        cycles = machine.context_switch_secure(app, st)
        assert cycles >= machine.purge_model.estimate_fixed_cost()


class TestRegistryCoverage:
    """Meta-test: registration alone must buy equivalence coverage."""

    GATES = (
        "test_full_machine_runs_identical",
        "test_population_mix_runs_identical",
    )

    def test_every_machine_has_an_equivalence_gate(self, request):
        """Every registered machine must appear in every scalar-vs-vector
        equivalence gate's parametrization.

        Fails when a machine is added to ``MACHINES`` without riding the
        registry-driven ``machine_name`` fixture — i.e. when an
        equivalence gate (the fixed-mix one or the population-mix one)
        silently stops covering part of the registry.  Skips (rather
        than passes vacuously) when the equivalence suite was not
        collected in this session.
        """
        any_collected = False
        for gate in self.GATES:
            covered = set()
            gate_collected = False
            for item in request.session.items:
                if gate not in item.nodeid:
                    continue
                gate_collected = True
                callspec = getattr(item, "callspec", None)
                if callspec is not None:
                    covered.add(callspec.params.get("machine_name"))
            if not gate_collected:
                continue
            any_collected = True
            missing = set(MACHINES) - covered
            assert not missing, (
                f"registered machines missing from equivalence gate "
                f"{gate}: {sorted(missing)}"
            )
        if not any_collected:
            pytest.skip(
                "equivalence gates not collected in this session; run the "
                "full suite (or tests/test_replay_equivalence.py) to check "
                "registry coverage"
            )


    def test_figure_grids_span_registry(self):
        """figattack sweeps every machine; figscale every machine but
        the insecure normalization base."""
        assert ISOLATION_MODELS == tuple(MACHINES)
        assert set(figscale.MACHINES) == set(MACHINES) - {"insecure"}

    def test_golden_attack_curves_match_registry(self):
        golden = json.loads(
            (REPO / "tests" / "golden" / "figures_quick.json").read_text()
        )
        for attack, curves in golden["figattack"]["results"].items():
            assert set(curves) == set(MACHINES), attack

    def test_golden_scale_curves_match_registry(self):
        golden = json.loads(
            (REPO / "tests" / "golden" / "figures_quick.json").read_text()
        )
        for level, curves in golden["figscale"]["normalized"].items():
            assert set(curves) == set(MACHINES) - {"insecure"}, level

    def test_audit_manifest_lists_machine_modules(self):
        """Every machine module is digested by the model-version audit,
        and the audit names no module that is gone."""
        manifest = json.loads((REPO / MODEL_AUDIT_REL).read_text())
        audited = {
            rel for rel in manifest["digests"]
            if rel.startswith("src/repro/machines/")
        }
        on_disk = {
            p.relative_to(REPO).as_posix()
            for p in (REPO / "src" / "repro" / "machines").rglob("*.py")
        }
        assert audited == on_disk


class TestOsLevelBehaviour:
    def test_mi6_dominated_by_per_interaction_overheads(self):
        cfg = SystemConfig.evaluation()
        r = build_machine("mi6", cfg).run(get_app(OS_APP), n_interactions=N_OS)
        assert r.breakdown.purge + r.breakdown.crossing > r.breakdown.compute

    def test_ironhide_os_overhead_is_one_time_only(self):
        cfg = SystemConfig.evaluation()
        r = build_machine("ironhide", cfg).run(get_app(OS_APP), n_interactions=N_OS)
        assert r.breakdown.purge == 0
        assert r.breakdown.security_overhead < 0.5 * r.breakdown.compute
