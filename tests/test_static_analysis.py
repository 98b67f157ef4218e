"""The static analyzer catches seeded violations and passes the repo.

Each rule family gets positive fixtures (a snippet carrying exactly the
violation the rule exists for must produce a finding) and negative
fixtures (the sanctioned idiom must stay silent).  The capstone tests
run the whole analyzer over the real repository: zero live findings,
and every suppression is an explicit ``# repro: allow[...]`` pragma.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import run_all
from repro.analysis.core import (
    Finding,
    RepoContext,
    SourceFile,
    constant_str_assign,
    parse_pragmas,
    registered_checkers,
)
from repro.analysis import abi, cache_keys, determinism, machines, mp_safety

REPO = Path(__file__).resolve().parent.parent


def rules(findings):
    return {f.rule for f in findings}


def snippet(text: str) -> str:
    return textwrap.dedent(text).lstrip("\n")


# ---------------------------------------------------------------------------
# core: pragmas and suppression
# ---------------------------------------------------------------------------


class TestPragmas:
    def test_parse_pragma_lines(self):
        text = snippet(
            """
            x = 1  # repro: allow[mp.global-write]
            y = 2
            # repro: allow[determinism.banned-call, hygiene.bare-except]
            z = 3
            """
        )
        allow = parse_pragmas(text)
        assert allow == {
            1: {"mp.global-write"},
            3: {"determinism.banned-call", "hygiene.bare-except"},
        }

    def test_same_line_and_line_above_suppress(self):
        src = SourceFile.from_text(
            "src/repro/x.py",
            snippet(
                """
                a = 1  # repro: allow[mp.global-write]
                # repro: allow[keys.settings-field-unkeyed]
                b = 2
                """
            ),
        )
        assert src.allows("mp.global-write", 1)
        assert src.allows("keys.settings-field-unkeyed", 3)
        assert not src.allows("mp.global-write", 3)

    def test_family_name_allows_whole_family(self):
        src = SourceFile.from_text(
            "src/repro/x.py", "import random  # repro: allow[determinism]\n"
        )
        assert src.allows("determinism.banned-call", 1)
        assert not src.allows("hygiene.bare-except", 1)

    def test_pragma_suppresses_finding(self):
        findings = determinism.analyze_snippet(
            "import time\n"
            "t = time.time()  # repro: allow[determinism.banned-call]\n",
            rel="src/repro/model/x.py",
        )
        assert findings == []

    def test_all_rule_families_registered(self):
        names = {fn.__module__ for fn in registered_checkers()}
        assert {
            "repro.analysis.determinism",
            "repro.analysis.abi",
            "repro.analysis.cache_keys",
            "repro.analysis.mp_safety",
            "repro.analysis.faults",
            "repro.analysis.machines",
        } <= names


# ---------------------------------------------------------------------------
# determinism lint
# ---------------------------------------------------------------------------


class TestDeterminismRules:
    def test_wall_clock_flagged(self):
        findings = determinism.analyze_snippet(
            "import time\nstart = time.perf_counter()\n"
        )
        assert "determinism.banned-call" in rules(findings)

    def test_random_module_import_flagged(self):
        findings = determinism.analyze_snippet("import random\n")
        assert "determinism.banned-call" in rules(findings)
        findings = determinism.analyze_snippet("from secrets import token_bytes\n")
        assert "determinism.banned-call" in rules(findings)

    def test_os_urandom_and_uuid4_flagged(self):
        findings = determinism.analyze_snippet(
            "import os, uuid\na = os.urandom(8)\nb = uuid.uuid4()\n"
        )
        assert sum(f.rule == "determinism.banned-call" for f in findings) == 2

    def test_legacy_np_global_rng_flagged(self):
        findings = determinism.analyze_snippet(
            "import numpy as np\nx = np.random.rand(4)\n"
        )
        assert "determinism.banned-call" in rules(findings)

    def test_unseeded_default_rng_flagged(self):
        for call in ("np.random.default_rng()", "np.random.default_rng(None)"):
            findings = determinism.analyze_snippet(
                f"import numpy as np\nrng = {call}\n"
            )
            assert "determinism.unseeded-rng" in rules(findings), call

    def test_seeded_default_rng_clean(self):
        findings = determinism.analyze_snippet(
            "import numpy as np\n"
            "rng = np.random.default_rng(1234)\n"
            "rng2 = np.random.default_rng([seed, 7])\n"
        )
        assert findings == []

    def test_set_for_loop_flagged_in_replay_path(self):
        findings = determinism.analyze_snippet(
            snippet(
                """
                def f(lines):
                    stale = {x for x in lines}
                    for line in stale:
                        consume(line)
                """
            ),
            rel="src/repro/arch/x.py",
        )
        assert "determinism.set-iteration" in rules(findings)

    def test_set_iteration_ignored_outside_replay_paths(self):
        text = snippet(
            """
            def f(lines):
                for line in {x for x in lines}:
                    consume(line)
            """
        )
        assert "determinism.set-iteration" not in rules(
            determinism.analyze_snippet(text, rel="src/repro/experiments/x.py")
        )
        assert "determinism.set-iteration" in rules(
            determinism.analyze_snippet(text, rel="src/repro/sim/x.py")
        )

    def test_sorted_iteration_clean(self):
        findings = determinism.analyze_snippet(
            snippet(
                """
                def f(lines):
                    stale = set(lines)
                    for line in sorted(stale):
                        consume(line)
                """
            ),
            rel="src/repro/arch/x.py",
        )
        assert findings == []

    def test_order_free_reducers_clean(self):
        findings = determinism.analyze_snippet(
            snippet(
                """
                def f(pages):
                    live = set(pages)
                    total = sum(p.size for p in live)
                    biggest = max(x for x in live)
                    copy = {x for x in live}
                    return total, biggest, copy
                """
            ),
            rel="src/repro/arch/x.py",
        )
        assert findings == []

    def test_set_typed_attribute_flagged(self):
        findings = determinism.analyze_snippet(
            snippet(
                """
                def f(self):
                    return [line for line in self._replicated]
                """
            ),
            rel="src/repro/arch/x.py",
            set_attrs={"_replicated"},
        )
        assert "determinism.set-iteration" in rules(findings)

    def test_namespace_view_iteration_flagged(self):
        findings = determinism.analyze_snippet(
            snippet(
                """
                def f(obj):
                    return [k for k in vars(obj)]
                """
            ),
            rel="src/repro/model/x.py",
        )
        assert "determinism.set-iteration" in rules(findings)

    def test_collect_set_attributes_finds_repo_declarations(self):
        ctx = RepoContext.scan(REPO)
        attrs = determinism.collect_set_attributes(ctx)
        # ProcessContext._replicated is the motivating declaration.
        assert "_replicated" in attrs


class TestHygieneRules:
    def test_mutable_default_arg_flagged(self):
        for default in ("[]", "{}", "set()", "dict()", "OrderedDict()"):
            findings = determinism.analyze_snippet(
                f"def f(x, acc={default}):\n    return acc\n"
            )
            assert "hygiene.mutable-default-arg" in rules(findings), default

    def test_none_default_clean(self):
        findings = determinism.analyze_snippet(
            "def f(x, acc=None, n=0, name=''):\n    return acc\n"
        )
        assert findings == []

    def test_bare_except_flagged(self):
        findings = determinism.analyze_snippet(
            snippet(
                """
                def f():
                    try:
                        g()
                    except:
                        pass
                """
            )
        )
        assert "hygiene.bare-except" in rules(findings)

    def test_typed_except_clean(self):
        findings = determinism.analyze_snippet(
            snippet(
                """
                def f():
                    try:
                        g()
                    except (OSError, ValueError):
                        pass
                """
            )
        )
        assert findings == []


# ---------------------------------------------------------------------------
# kernel ABI parity
# ---------------------------------------------------------------------------

#: A doctored native.py: filter_probe's first argument should be a pointer
#: but is declared c_int64, and stats_probe has the wrong arity and
#: restype.
_BROKEN_NATIVE = '''
import ctypes

_C_SOURCE = """
typedef long long i64;
typedef signed char i8;

i64 filter_probe(const i64 *addrs, i64 n, i64 *out) {
    return n;
}

i64 stats_probe(const i64 *addrs, i64 n, i64 *stats_out) {
    stats_out[0] = 1; stats_out[1] = 2; stats_out[2] = 3;
    return 0;
}

static i64 helper(i64 x) { return x; }
"""


def _load(path):
    lib = ctypes.CDLL(path)
    ptr = ctypes.c_void_p
    i64 = ctypes.c_int64
    lib.filter_probe.argtypes = [i64, i64, ptr]
    lib.filter_probe.restype = i64
    lib.stats_probe.argtypes = [ptr, i64]
    lib.stats_probe.restype = ptr
    return lib
'''


class TestKernelAbi:
    def test_parse_c_prototypes(self):
        src = SourceFile.from_text("src/repro/arch/native.py", _BROKEN_NATIVE)
        c_source = constant_str_assign(src.tree, "_C_SOURCE")
        protos = abi.parse_c_prototypes(c_source)
        assert protos["filter_probe"].arg_kinds == ("ptr", "scalar", "ptr")
        assert protos["filter_probe"].exported
        assert not protos["helper"].exported

    def test_injected_argtype_mismatch_detected(self):
        ctx = RepoContext(REPO, [])
        src = SourceFile.from_text("src/repro/arch/native.py", _BROKEN_NATIVE)
        findings = abi.check_kernel_abi(ctx, native_src=src)
        found = rules(findings)
        # ptr declared as c_int64 => the address-truncation class.
        assert "abi.argtype-mismatch" in found
        # stats_probe declares 2 argtypes for a 3-parameter kernel.
        assert "abi.arity-mismatch" in found
        # stats_probe restype is a pointer, C returns i64.
        assert "abi.restype-mismatch" in found

    def test_real_native_module_is_clean(self):
        ctx = RepoContext.scan(REPO)
        findings = abi.check_kernel_abi(ctx)
        assert findings == []
        # Not vacuous: the kernels and their declarations were found.
        tree = ctx.file("src/repro/arch/native.py").tree
        protos = abi.parse_c_prototypes(constant_str_assign(tree, "_C_SOURCE"))
        assert "replay_events" in protos
        assert "replay_events" in abi.parse_ctypes_decls(tree)

    def test_strided_output_mismatch_detected(self):
        """Per-segment/per-cache output strides: C writes vs Python uses."""
        doctored = snippet(
            """
            import numpy as np

            _C_SOURCE = \"\"\"
            typedef long long i64;
            i64 replay_events(i64 n, i64 *seg_out, i64 *cache_out, i64 *lost) {
                for (i64 s = 0; s < n; s++) {
                    seg_out[6 * s + 0] += 1;
                    seg_out[6 * s + 5] += 2;
                    cache_out[5 * s + 4] += 3;
                    lost[2 * s + 1] = 4;
                }
                return 0;
            }
            \"\"\"


            def run(n):
                seg_out = np.zeros(5 * n, dtype=np.int64)
                cache_out = np.zeros(5 * n, dtype=np.int64)
                first = cache_out[6 * 0 + 1]
                return seg_out.reshape(-1, 7), cache_out[4::5], first
            """
        )
        tree = ast.parse(doctored)
        findings = abi.compare_stats_layout(
            constant_str_assign(tree, "_C_SOURCE"), tree
        )
        messages = [f.message for f in findings if f.rule == "abi.stats-layout"]
        assert any("allocates seg_out with stride 5" in m for m in messages)
        assert any("reshapes seg_out with stride 7" in m for m in messages)
        assert any("reads cache_out with stride 6" in m for m in messages)
        assert any("never allocates a buffer named lost" in m for m in messages)
        # The consistent read cache_out[4::5] is not reported.
        assert not any("cache_out with stride 5" in m for m in messages)

    def test_backend_parity_detects_renamed_param(self):
        ref = abi.class_signatures(
            ast.parse(
                snippet(
                    """
                    class Tlb:
                        def access_batch(self, vpages):
                            pass
                    """
                )
            ),
            "Tlb",
        )
        impl = abi.class_signatures(
            ast.parse(
                snippet(
                    """
                    class NativeTlb:
                        def access_batch(self, pages):
                            pass
                    """
                )
            ),
            "NativeTlb",
        )
        findings = abi.compare_backends(
            ref, impl, "Tlb", "NativeTlb", "src/repro/arch/native.py", 1
        )
        assert rules(findings) == {"abi.backend-parity"}

    def test_backend_parity_detects_missing_method(self):
        ref = abi.class_signatures(
            ast.parse("class A:\n    def flush(self):\n        pass\n"), "A"
        )
        findings = abi.compare_backends(
            ref, {}, "A", "B", "src/repro/arch/native.py", 1
        )
        assert rules(findings) == {"abi.backend-parity"}

    def test_repo_backend_parity_is_clean(self):
        ctx = RepoContext.scan(REPO)
        assert abi.check_backend_parity(ctx) == []
        # Not vacuous: the references' per-event rule is what the views
        # leave out, and everything else they share is compared.
        cache_tree = ctx.file("src/repro/arch/cache.py").tree
        native_tree = ctx.file("src/repro/arch/native.py").tree
        assert "access" in abi.class_signatures(cache_tree, "SetAssocCache")
        assert "access" not in abi.class_signatures(native_tree, "NativeCache")
        assert "clean_all" in abi.class_signatures(native_tree, "NativeCache")

    @pytest.mark.parametrize("old, new, flagged", [
        # A maintenance method the purge paths call goes missing.
        ("def clean_all(self)", "def _clean_all(self)",
         "NativeCache is missing SetAssocCache.clean_all()"),
        # The range eviction's parameters are renamed.
        ("def evict_line_range(self, base_line:", "def evict_line_range(self, first:",
         "NativeCache.evict_line_range(first, count) does not match"),
        # The TLB view's LRU read goes missing.
        ("def lru_entries(self)", "def _lru_entries(self)",
         "NativeTlb is missing Tlb.lru_entries()"),
        # A view's per-event access is no part of the contract.
        ("    def set_entries(self, set_index: int)",
         "    def access(self, line):\n        return False\n\n"
         "    def set_entries(self, set_index: int)",
         None),
    ], ids=["missing-clean_all", "renamed-evict-params", "missing-lru_entries",
            "access-ignored"])
    def test_seeded_backend_parity(self, old, new, flagged):
        """The rule on the repo's own sources with one seeded drift."""
        rel = "src/repro/arch/native.py"
        text = (REPO / rel).read_text(encoding="utf-8")
        assert text.count(old) == 1
        files = [
            SourceFile.from_text(r, (REPO / r).read_text(encoding="utf-8"))
            for r in ("src/repro/arch/cache.py", "src/repro/arch/tlb.py")
        ]
        ctx = RepoContext(REPO, files + [SourceFile.from_text(rel, text.replace(old, new))])
        messages = [f.message for f in abi.check_backend_parity(ctx)]
        if flagged is None:
            assert messages == []
        else:
            assert len(messages) == 1 and messages[0].startswith(flagged), messages


# ---------------------------------------------------------------------------
# cache-key completeness
# ---------------------------------------------------------------------------

_RUNNER_FIXTURE = snippet(
    """
    from dataclasses import dataclass

    @dataclass
    class ExperimentSettings:
        config: object
        n_user: int
        seed: int
        jobs: int
        trace_bias: float  # result-affecting, deliberately unkeyed

        def interactions_for(self, app):
            return self.n_user
    """
)

_SWEEP_FIXTURE = snippet(
    """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class WorkUnit:
        kind: str
        app: str
        machine: str
        extra: int  # deliberately unkeyed

    def unit_cache_key(unit, settings):
        return (
            unit.kind, unit.app, unit.machine,
            settings.config.config_hash(),
            settings.interactions_for(unit.app),
            settings.seed,
        )
    """
)


def _keys_ctx(runner_text: str, sweep_text: str) -> RepoContext:
    return RepoContext(
        REPO,
        [
            SourceFile.from_text(
                "src/repro/experiments/runner.py", runner_text
            ),
            SourceFile.from_text("src/repro/experiments/sweep.py", sweep_text),
        ],
    )


class TestCacheKeys:
    def test_unkeyed_settings_field_flagged(self):
        findings = cache_keys.check_settings_keyed(
            _keys_ctx(_RUNNER_FIXTURE, _SWEEP_FIXTURE)
        )
        unkeyed = [
            f for f in findings if f.rule == "keys.settings-field-unkeyed"
        ]
        assert len(unkeyed) == 1 and "trace_bias" in unkeyed[0].message

    def test_transitive_method_reads_count_as_keyed(self):
        # n_user is read only via interactions_for(), not directly —
        # it must NOT be flagged.
        findings = cache_keys.check_settings_keyed(
            _keys_ctx(_RUNNER_FIXTURE, _SWEEP_FIXTURE)
        )
        assert not any("n_user" in f.message for f in findings)

    def test_unkeyed_workunit_field_flagged(self):
        findings = cache_keys.check_settings_keyed(
            _keys_ctx(_RUNNER_FIXTURE, _SWEEP_FIXTURE)
        )
        unit = [f for f in findings if f.rule == "keys.unit-field-unkeyed"]
        assert len(unit) == 1 and "extra" in unit[0].message

    def test_app_override_from_params_clean_constant_flagged(self):
        sweep = _SWEEP_FIXTURE + snippet(
            """
            def unit_runner(kind):
                def wrap(fn):
                    return fn
                return wrap

            @unit_runner("scaled")
            def _run_scaled(unit, settings):
                good = replace_spec(get_app(unit.app),
                                    trace_scale=float(unit.params[0]))
                bad = replace_spec(get_app(unit.app), trace_scale=2.0)
                return good, bad
            """
        )
        findings = cache_keys.check_app_overrides(
            _keys_ctx(_RUNNER_FIXTURE, sweep)
        )
        assert len(findings) == 1
        assert findings[0].rule == "keys.app-override-unkeyed"

    def test_repo_keys_are_complete(self):
        ctx = RepoContext.scan(REPO)
        findings = cache_keys.check_settings_keyed(ctx)
        findings.extend(cache_keys.check_app_overrides(ctx))
        assert findings == []


class TestModelAudit:
    def _tree(self, tmp_path: Path) -> Path:
        root = tmp_path / "repo"
        (root / "src" / "repro" / "experiments").mkdir(parents=True)
        (root / "src" / "repro" / "model").mkdir(parents=True)
        (root / "tests" / "golden").mkdir(parents=True)
        (root / "src" / "repro" / "experiments" / "store.py").write_text(
            'MODEL_VERSION = "test-model-1"\n'
        )
        (root / "src" / "repro" / "model" / "perf.py").write_text(
            "LATENCY = 7\n"
        )
        return root

    def test_fresh_manifest_passes_then_edit_flags(self, tmp_path):
        root = self._tree(tmp_path)
        manifest = cache_keys.build_model_audit(root, "test-model-1")
        (root / cache_keys.MODEL_AUDIT_REL).write_text(json.dumps(manifest))
        assert cache_keys.check_model_audit(RepoContext.scan(root)) == []

        (root / "src" / "repro" / "model" / "perf.py").write_text(
            "LATENCY = 8\n"
        )
        findings = cache_keys.check_model_audit(RepoContext.scan(root))
        assert rules(findings) == {"keys.model-version-audit"}
        assert any("perf.py" in f.message for f in findings)

    def test_version_mismatch_flagged(self, tmp_path):
        root = self._tree(tmp_path)
        manifest = cache_keys.build_model_audit(root, "stale-model-0")
        (root / cache_keys.MODEL_AUDIT_REL).write_text(json.dumps(manifest))
        findings = cache_keys.check_model_audit(RepoContext.scan(root))
        assert any("stale-model-0" in f.message for f in findings)

    def test_missing_manifest_flagged(self, tmp_path):
        root = self._tree(tmp_path)
        findings = cache_keys.check_model_audit(RepoContext.scan(root))
        assert rules(findings) == {"keys.model-version-audit"}

    def test_new_module_flagged(self, tmp_path):
        root = self._tree(tmp_path)
        manifest = cache_keys.build_model_audit(root, "test-model-1")
        (root / cache_keys.MODEL_AUDIT_REL).write_text(json.dumps(manifest))
        (root / "src" / "repro" / "model" / "extra.py").write_text("X = 1\n")
        findings = cache_keys.check_model_audit(RepoContext.scan(root))
        assert any("extra.py" in f.message for f in findings)

    def test_repo_manifest_is_current(self):
        ctx = RepoContext.scan(REPO)
        assert cache_keys.check_model_audit(ctx) == []


# ---------------------------------------------------------------------------
# multiprocessing safety
# ---------------------------------------------------------------------------


class TestMpSafety:
    def test_global_container_write_flagged(self):
        findings = mp_safety.analyze_snippet(
            snippet(
                """
                _CACHE = {}

                def remember(key, value):
                    _CACHE[key] = value
                """
            )
        )
        assert rules(findings) == {"mp.global-write"}

    def test_mutator_method_call_flagged(self):
        findings = mp_safety.analyze_snippet(
            snippet(
                """
                _SEEN = set()

                def note(x):
                    _SEEN.add(x)
                """
            )
        )
        assert rules(findings) == {"mp.global-write"}

    def test_global_rebind_needs_global_decl(self):
        flagged = mp_safety.analyze_snippet(
            snippet(
                """
                _TABLE = []

                def rebuild():
                    global _TABLE
                    _TABLE = []
                """
            )
        )
        assert rules(flagged) == {"mp.global-write"}
        # A local shadowing the module name is not a global write.
        clean = mp_safety.analyze_snippet(
            snippet(
                """
                _TABLE = []

                def local_only():
                    _TABLE = []
                    return _TABLE
                """
            )
        )
        assert clean == []

    def test_read_only_access_clean(self):
        findings = mp_safety.analyze_snippet(
            snippet(
                """
                _LOOKUP = {"a": 1}

                def fetch(key):
                    return _LOOKUP.get(key, 0)
                """
            )
        )
        assert findings == []

    def test_import_time_initializer_exempt(self):
        findings = mp_safety.analyze_snippet(
            snippet(
                """
                _SBOX = []

                def _initialize_sbox():
                    _SBOX.extend(range(256))

                _initialize_sbox()
                """
            )
        )
        assert findings == []

    def test_workunit_lambda_payload_flagged(self):
        findings = mp_safety.analyze_snippet(
            snippet(
                """
                def schedule():
                    return WorkUnit("fig6", "aes", run=lambda: 1)
                """
            )
        )
        assert rules(findings) == {"mp.workunit-payload"}

    def test_nested_unit_runner_flagged(self):
        findings = mp_safety.analyze_snippet(
            snippet(
                """
                def install():
                    @unit_runner("nested")
                    def _run(unit, settings):
                        return unit
                    return _run
                """
            )
        )
        assert "mp.runner-not-module-level" in rules(findings)

    def test_worker_reachability_from_real_sweep(self):
        ctx = RepoContext.scan(REPO)
        reachable = mp_safety.worker_reachable_functions(ctx)
        assert ("src/repro/experiments/sweep.py", "_run_chunk_worker") in reachable
        # The chunk worker executes units, which land in get_store().
        assert ("src/repro/experiments/store.py", "get_store") in reachable


# ---------------------------------------------------------------------------
# machines.*: every registered machine is listed in the docs
# ---------------------------------------------------------------------------


_MACHINES_REGISTRY = snippet(
    """
    MACHINES = {
        "insecure": InsecureMachine,
        "mi6": Mi6Machine,
    }
    """
)


def _machines_ctx(tmp_path, docs="* **insecure**\n* **mi6**\n"):
    """A doctored repo root + context for the machines rule.

    ``docs`` is the text written to both doc files (``None``: write
    nothing).
    """
    files = [SourceFile.from_text("src/repro/machines/__init__.py", _MACHINES_REGISTRY)]
    (tmp_path / "docs").mkdir(exist_ok=True)
    if docs is not None:
        for rel in ("docs/architecture.md", "docs/experiments.md"):
            (tmp_path / rel).write_text(docs)
    return RepoContext(tmp_path, files)


class TestMachineRules:
    def test_synced_artifacts_are_clean(self, tmp_path):
        ctx = _machines_ctx(tmp_path)
        assert machines.check_machines(ctx) == []

    def test_registry_parses_names_and_line(self, tmp_path):
        ctx = _machines_ctx(tmp_path)
        line, names = machines.registered_machines(ctx)
        assert names == ("insecure", "mi6")
        assert line == 1

    def test_machine_missing_from_docs_flagged(self, tmp_path):
        for i, docs in enumerate((
            "* **insecure**\n",
            # Prose mentions are not entries: mi6 appears only in a sentence.
            "| `insecure` |\nunlike mi6, the insecure machine never purges\n",
        )):
            root = tmp_path / str(i)
            root.mkdir()
            findings = machines.check_machines(_machines_ctx(root, docs=docs))
            assert {f.rule for f in findings} == {"machines.machine-not-covered"}
            assert len(findings) == 2  # one per doc file
            assert all("'mi6'" in f.message for f in findings)

    def test_missing_artifacts_mean_no_findings(self, tmp_path):
        ctx = _machines_ctx(tmp_path, docs=None)
        assert machines.check_machines(ctx) == []

    def test_no_registry_means_no_findings(self, tmp_path):
        ctx = RepoContext(
            tmp_path, [SourceFile.from_text("src/x.py", "MACHINES = {}\n")]
        )
        assert machines.check_machines(ctx) == []

    def test_real_repo_registry_matches_package(self):
        from repro.machines import MACHINES as real

        ctx = RepoContext.scan(REPO)
        _, names = machines.registered_machines(ctx)
        assert names == tuple(real)


# ---------------------------------------------------------------------------
# whole-repo gate + CLI
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def repo_report():
    """One whole-repo scan shared by every test that reads it."""
    return run_all(REPO)


def _check_static(*argv, cwd=REPO):
    return subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_static.py"), *argv],
        capture_output=True, text=True, cwd=cwd,
    )


@pytest.fixture(scope="module")
def cli_json_run():
    """One ``check_static.py --json -`` run shared by the CLI tests."""
    return _check_static("--json", "-")


class TestRepoIsClean:
    def test_repo_passes_static_analysis(self, repo_report):
        assert repo_report.findings == [], "\n".join(
            str(f) for f in repo_report.findings
        )

    def test_suppressions_all_carry_pragmas(self, repo_report):
        for f in repo_report.suppressed:
            src = (REPO / f.path).read_text(encoding="utf-8").splitlines()
            window = "\n".join(src[max(0, f.line - 2):f.line])
            assert "repro: allow[" in window, f

    def test_report_json_roundtrip(self, repo_report):
        data = json.loads(repo_report.to_json())
        assert data["ok"] is True
        assert data["findings"] == []
        assert len(data["suppressed"]) == len(repo_report.suppressed)

    def test_finding_str_format(self):
        f = Finding("mp.global-write", "src/repro/x.py", 12, "boom")
        assert str(f) == "src/repro/x.py:12: [mp.global-write] boom"


class TestCheckStaticCli:
    def test_cli_reports_clean_repo(self, cli_json_run):
        proc = cli_json_run
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout

    def test_cli_json_report(self, cli_json_run):
        proc = cli_json_run
        assert proc.returncode == 0
        start = proc.stdout.index("{")
        end = proc.stdout.rindex("}") + 1
        data = json.loads(proc.stdout[start:end])
        assert data["ok"] is True

    def test_cli_list_rules(self):
        proc = _check_static("--list-rules")
        assert proc.returncode == 0
        listed = {line.split(":", 1)[0] for line in proc.stdout.splitlines()}
        assert listed == {fn.__module__ for fn in registered_checkers()}

    def test_cli_fails_on_seeded_violation(self, tmp_path):
        root = tmp_path / "repo"
        shutil.copytree(REPO / "src", root / "src")
        shutil.copytree(REPO / "tools", root / "tools")
        (root / "tests" / "golden").mkdir(parents=True)
        shutil.copy(
            REPO / "tests" / "golden" / "model_audit.json",
            root / "tests" / "golden" / "model_audit.json",
        )
        bad = root / "src" / "repro" / "experiments" / "leaky.py"
        bad.write_text("import random\n_STATE = {}\n")
        proc = subprocess.run(
            [sys.executable, str(root / "tools" / "check_static.py"),
             "--root", str(root)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "determinism.banned-call" in proc.stdout
