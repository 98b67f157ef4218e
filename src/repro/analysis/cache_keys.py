"""Cache-key completeness: the store key must pin every result input.

The persistent result store (:mod:`repro.experiments.store`) memoizes
whole experiment payloads under :func:`repro.experiments.sweep.unit_cache_key`.
A result-affecting knob that does not reach the key silently serves
stale results after the knob changes — the worst failure mode a cached
reproduction pipeline can have.  Four rules:

``keys.settings-field-unkeyed``
    Every field of ``ExperimentSettings`` must either be read by
    ``unit_cache_key`` (directly, or via a settings method the key
    function calls, e.g. ``interactions_for``) or be declared
    execution-only in :data:`EXECUTION_ONLY_SETTINGS` (parallelism and
    cache-plumbing knobs that cannot change payloads).  Adding a field
    therefore forces a conscious choice: key it or allowlist it.

``keys.unit-field-unkeyed``
    Every ``WorkUnit`` dataclass field must be read by
    ``unit_cache_key`` (a unit field that is not in the key aliases
    distinct work to one store entry).

``keys.app-override-unkeyed``
    Inside registered unit runners (``@unit_runner``), ``replace(app,
    field=...)``-style spec overrides must derive from ``unit.params``
    or ``unit.variant`` so the override rides in the key; a constant
    or settings-derived override would fork results without forking
    keys.

``keys.model-version-audit``
    ``tests/golden/model_audit.json`` records a content digest per
    result-shape-affecting module (``config.py``, ``units.py``,
    ``arch/``, ``machines/``, ``model/``, ``sim/``, ``secure/``,
    ``workloads/``, ``attacks/``) together with the ``MODEL_VERSION``
    it was audited against.  Editing such a module without refreshing
    the manifest is a finding: run ``tools/check_static.py
    --update-model-audit`` after deciding whether ``MODEL_VERSION``
    must bump (it must whenever stored payload values change).
"""

from __future__ import annotations

import ast
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro.analysis.core import (
    Finding,
    RepoContext,
    checker,
    constant_str_assign,
    dotted_name,
)

_RUNNER_REL = "src/repro/experiments/runner.py"
_SWEEP_REL = "src/repro/experiments/sweep.py"
_STORE_REL = "src/repro/experiments/store.py"

#: Settings fields that steer *execution* (parallelism, cache plumbing,
#: fault tolerance) and can never change a payload; everything else
#: must be keyed.  ``faults`` qualifies because the chaos-equivalence
#: gate (tools/soak_sweep.py) proves faulted runs converge to stores
#: bit-identical to fault-free ones.
EXECUTION_ONLY_SETTINGS = frozenset({
    "calibration_cache", "jobs", "chunk", "cache_dir", "no_cache",
    "cache_max_mb", "faults", "progress", "sweep_health",
})

#: Repo-relative path of the model-audit manifest.
MODEL_AUDIT_REL = "tests/golden/model_audit.json"

#: Files/directories whose content shapes stored results.
RESULT_AFFECTING = (
    "src/repro/config.py",
    "src/repro/units.py",
    "src/repro/arch",
    "src/repro/machines",
    "src/repro/model",
    "src/repro/sim",
    "src/repro/secure",
    "src/repro/workloads",
    "src/repro/attacks",
)


def dataclass_fields(tree: ast.Module, class_name: str) -> Dict[str, int]:
    """Annotated field name -> line for a dataclass body."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return {
                stmt.target.id: stmt.lineno
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            }
    return {}


def _attr_reads(fn: ast.AST, owner: str) -> Set[str]:
    """Attributes read off the name ``owner`` anywhere in ``fn``."""
    reads: Set[str] = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == owner
        ):
            reads.add(node.attr)
    return reads


def _method_self_reads(tree: ast.Module, class_name: str) -> Dict[str, Set[str]]:
    """Per method of ``class_name``: the ``self.<attr>`` names it reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return {
                item.name: _attr_reads(item, "self")
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            }
    return {}


def _find_function(tree: ast.Module, name: str) -> Optional[ast.FunctionDef]:
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def check_settings_keyed(ctx: RepoContext) -> List[Finding]:
    """``keys.settings-field-unkeyed`` / ``keys.unit-field-unkeyed`` over
    the real runner/sweep modules."""
    runner = ctx.file(_RUNNER_REL)
    sweep = ctx.file(_SWEEP_REL)
    if not (runner and runner.tree and sweep and sweep.tree):
        return [Finding(
            "keys.settings-field-unkeyed", _SWEEP_REL, 1,
            "experiments runner/sweep modules not found; keys rules need "
            "updating",
        )]
    key_fn = _find_function(sweep.tree, "unit_cache_key")
    if key_fn is None:
        return [Finding(
            "keys.settings-field-unkeyed", _SWEEP_REL, 1,
            "unit_cache_key() not found in experiments/sweep.py",
        )]
    findings: List[Finding] = []
    fields = dataclass_fields(runner.tree, "ExperimentSettings")
    direct = _attr_reads(key_fn, "settings")
    method_reads = _method_self_reads(runner.tree, "ExperimentSettings")
    keyed = set(direct)
    for name in direct:
        keyed |= method_reads.get(name, set())
    for field, line in sorted(fields.items()):
        if field in EXECUTION_ONLY_SETTINGS or field in keyed:
            continue
        findings.append(Finding(
            "keys.settings-field-unkeyed", _RUNNER_REL, line,
            f"ExperimentSettings.{field} is neither read by "
            "unit_cache_key() nor declared in EXECUTION_ONLY_SETTINGS — "
            "a result-affecting value outside the store key serves stale "
            "results",
        ))
    unit_fields = dataclass_fields(sweep.tree, "WorkUnit")
    unit_reads = _attr_reads(key_fn, "unit")
    for field, line in sorted(unit_fields.items()):
        if field not in unit_reads:
            findings.append(Finding(
                "keys.unit-field-unkeyed", _SWEEP_REL, line,
                f"WorkUnit.{field} is not read by unit_cache_key(); "
                "distinct units would share one store entry",
            ))
    return findings


def _unit_runner_functions(tree: ast.Module) -> List[ast.FunctionDef]:
    """Module-level functions decorated with ``@unit_runner(...)``."""
    out = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if dotted_name(target) == "unit_runner":
                out.append(node)
    return out


def _references_unit_key_material(node: ast.AST) -> bool:
    """Does the expression derive from ``unit.params``/``unit.variant``?"""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "unit"
            and sub.attr in {"params", "variant"}
        ):
            return True
    return False


def check_app_overrides(ctx: RepoContext) -> List[Finding]:
    """``keys.app-override-unkeyed`` over registered unit runners."""
    sweep = ctx.file(_SWEEP_REL)
    if not (sweep and sweep.tree):
        return []
    findings: List[Finding] = []
    for fn in _unit_runner_functions(sweep.tree):
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func) or ""
            if callee.split(".")[-1] not in {"replace", "replace_spec"}:
                continue
            for kw in node.keywords:
                if kw.arg is None:
                    continue
                if not _references_unit_key_material(kw.value):
                    findings.append(Finding(
                        "keys.app-override-unkeyed", sweep.rel, node.lineno,
                        f"{fn.name}() overrides {kw.arg!r} with a value not "
                        "derived from unit.params/unit.variant; the override "
                        "would not reach the store key",
                    ))
    return findings


# ---------------------------------------------------------------------------
# MODEL_VERSION audit manifest
# ---------------------------------------------------------------------------


def result_affecting_files(root: Path) -> List[Path]:
    """Every result-shape-affecting source file, sorted."""
    files: List[Path] = []
    for entry in RESULT_AFFECTING:
        path = root / entry
        if path.is_file():
            files.append(path)
        elif path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
    return sorted(set(files))


def file_digest(path: Path) -> str:
    """Stable content digest used by the audit manifest."""
    return hashlib.sha256(path.read_bytes()).hexdigest()


def current_model_version(ctx: RepoContext) -> Optional[str]:
    """``MODEL_VERSION`` as declared in experiments/store.py."""
    store = ctx.file(_STORE_REL)
    if store is None or store.tree is None:
        return None
    return constant_str_assign(store.tree, "MODEL_VERSION")


def build_model_audit(root: Path, model_version: str) -> dict:
    """A fresh manifest for ``--update-model-audit``."""
    return {
        "model_version": model_version,
        "digests": {
            p.relative_to(root).as_posix(): file_digest(p)
            for p in result_affecting_files(root)
        },
    }


def check_model_audit(ctx: RepoContext) -> List[Finding]:
    """``keys.model-version-audit`` against the checked-in manifest."""
    version = current_model_version(ctx)
    if version is None:
        return [Finding(
            "keys.model-version-audit", _STORE_REL, 1,
            "MODEL_VERSION constant not found in experiments/store.py",
        )]
    manifest_path = ctx.root / MODEL_AUDIT_REL
    if not manifest_path.exists():
        return [Finding(
            "keys.model-version-audit", MODEL_AUDIT_REL, 1,
            "model-audit manifest missing; run "
            "tools/check_static.py --update-model-audit",
        )]
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        recorded_version = manifest["model_version"]
        digests = dict(manifest["digests"])
    except (ValueError, KeyError, TypeError):
        return [Finding(
            "keys.model-version-audit", MODEL_AUDIT_REL, 1,
            "model-audit manifest is unreadable; re-run "
            "tools/check_static.py --update-model-audit",
        )]
    findings: List[Finding] = []
    if recorded_version != version:
        findings.append(Finding(
            "keys.model-version-audit", MODEL_AUDIT_REL, 1,
            f"manifest audited MODEL_VERSION {recorded_version!r} but "
            f"store.py declares {version!r}; re-run --update-model-audit",
        ))
    hint = (
        "result-affecting module changed since the last audit; decide "
        "whether MODEL_VERSION must bump (stored payloads change => yes), "
        "then run tools/check_static.py --update-model-audit"
    )
    current = {
        p.relative_to(ctx.root).as_posix(): file_digest(p)
        for p in result_affecting_files(ctx.root)
    }
    for rel in sorted(set(digests) | set(current)):
        if rel not in current:
            findings.append(Finding(
                "keys.model-version-audit", MODEL_AUDIT_REL, 1,
                f"audited module {rel} no longer exists; {hint}",
            ))
        elif rel not in digests:
            findings.append(Finding(
                "keys.model-version-audit", rel, 1,
                f"new result-affecting module {rel} is not audited; {hint}",
            ))
        elif digests[rel] != current[rel]:
            findings.append(Finding(
                "keys.model-version-audit", rel, 1,
                f"{rel} changed since the last audit; {hint}",
            ))
    return findings


@checker
def check_cache_keys(ctx: RepoContext) -> List[Finding]:
    """Run every cache-key completeness rule."""
    findings = check_settings_keyed(ctx)
    findings.extend(check_app_overrides(ctx))
    findings.extend(check_model_audit(ctx))
    return findings
