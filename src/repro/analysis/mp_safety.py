"""Multiprocessing safety: chunk workers vs module-level mutable state.

The sweep scheduler fans work units out over a ``ProcessPoolExecutor``
(:mod:`repro.experiments.sweep`).  Any module-level mutable container
written during a unit's execution is per-process state: populated in a
worker it vanishes with the worker, populated in the parent before a
``fork`` it silently diverges between siblings.  That is only *safe*
when the container is a pure content-addressed cache (same key =>
bit-identical value, e.g. the bundle LRU) — and such caches must say so
with a pragma.  Three rules:

``mp.global-write``
    A write (subscript store, ``global`` rebind, or mutating method
    call — ``append``/``add``/``update``/``setdefault``/``pop``/
    ``popitem``/``clear``/``move_to_end``/...) to a module-level
    mutable container, anywhere in the model/experiment tree.  The
    message records whether the write is *provably* reachable from the
    pool entry point (``_run_chunk_worker`` and every registered
    ``@unit_runner``) through the module-level call graph; writes in class methods are reported as conservatively
    reachable, because every machine/model method ultimately executes
    inside chunk workers.  One finding per (function, container) pair —
    the pragma goes on the first write site.  Module-level functions
    that the module itself calls at import time (``_init()``-style
    table builders) are exempt: their writes happen once, pre-fork,
    identically in every process.

``mp.workunit-payload``
    A ``lambda`` or nested function passed into a ``WorkUnit(...)``
    construction: units must stay picklable for the pool, and closures
    aren't.

``mp.runner-not-module-level``
    ``@unit_runner`` applied to a nested function: executors must be
    module-level so units pickle by reference.

Sanctioned per-process caches carry
``# repro: allow[mp.global-write]`` pragmas documented in
``docs/static-analysis.md``.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.core import (
    Finding,
    RepoContext,
    SourceFile,
    checker,
    dotted_name,
    import_map,
    module_level_functions,
    rel_for_module,
)

_SWEEP_REL = "src/repro/experiments/sweep.py"

#: Method names that mutate their receiver in place.
_MUTATORS = {
    "append", "extend", "insert", "remove", "add", "discard", "update",
    "setdefault", "pop", "popitem", "clear", "move_to_end",
    "difference_update", "intersection_update", "symmetric_difference_update",
}

#: Constructors producing mutable containers.
_CONTAINER_CALLS = {
    "dict", "list", "set", "OrderedDict", "defaultdict", "deque",
    "collections.OrderedDict", "collections.defaultdict",
    "collections.deque",
}

#: Packages scanned for global writes (the analyzer itself never runs
#: inside pool workers and is exempt).
_SCOPE_PREFIX = "src/repro/"
_SCOPE_EXCLUDE = ("src/repro/analysis/",)


def module_mutable_globals(tree: ast.Module) -> Dict[str, int]:
    """Module-level mutable-container names -> definition line."""
    out: Dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [
                t.id for t in node.targets if isinstance(t, ast.Name)
            ]
            value = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            targets = [node.target.id]
            value = node.value
        else:
            continue
        if value is None or not targets:
            continue
        mutable = isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
            isinstance(value, ast.Call)
            and dotted_name(value.func) in _CONTAINER_CALLS
        )
        if mutable:
            for name in targets:
                out[name] = node.lineno
    return out


def _write_sites(fn: ast.AST, globals_of_module: Set[str]) -> Dict[str, int]:
    """Global container -> first write line inside ``fn`` (own body only).

    Nested function definitions are analyzed separately, so their
    writes are not attributed to the enclosing function.
    """
    declared_global: Set[str] = set()
    sites: Dict[str, int] = {}

    def note(name: str, line: int) -> None:
        if name in globals_of_module and (
            name not in sites or line < sites[name]
        ):
            sites[name] = line

    def walk_own(node: ast.AST) -> Iterable[ast.AST]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            yield child
            yield from walk_own(child)

    for node in walk_own(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    for node in walk_own(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    if target.id in declared_global:
                        note(target.id, target.lineno)
                elif isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    note(target.value.id, target.lineno)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    note(target.value.id, target.lineno)
        elif isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.attr in _MUTATORS
            ):
                note(node.func.value.id, node.lineno)
    return sites


def _all_defs(tree: ast.Module) -> List[Tuple[str, ast.AST, bool]]:
    """(qualified name, def node, is_module_level_function) triples."""
    out: List[Tuple[str, ast.AST, bool]] = []

    def rec(node: ast.AST, prefix: str, module_level: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                out.append((qual, child, module_level))
                rec(child, qual + ".", False)
            elif isinstance(child, ast.ClassDef):
                rec(child, f"{prefix}{child.name}.", False)
            else:
                rec(child, prefix, module_level)

    rec(tree, "", True)
    return out


def worker_reachable_functions(ctx: RepoContext) -> Set[Tuple[str, str]]:
    """(module rel, function name) pairs reachable from pool entry points.

    Roots are ``_run_chunk_worker`` (the only pool task) plus every
    ``@unit_runner``-registered executor (the dynamic ``_RUNNERS``
    dispatch edge, resolved statically).  Edges follow direct calls to
    module-level functions — same module by name, imported modules by
    attribute (``_runner.run_one``) or ``from x import f`` name.
    """
    sweep = ctx.file(_SWEEP_REL)
    if sweep is None or sweep.tree is None:
        return set()
    roots: List[Tuple[str, str]] = []
    if "_run_chunk_worker" in module_level_functions(sweep.tree):
        roots.append((_SWEEP_REL, "_run_chunk_worker"))
    for node in sweep.tree.body:
        if isinstance(node, ast.FunctionDef) and any(
            dotted_name(d.func if isinstance(d, ast.Call) else d)
            == "unit_runner"
            for d in node.decorator_list
        ):
            roots.append((_SWEEP_REL, node.name))

    visited: Set[Tuple[str, str]] = set()
    queue = deque(roots)
    while queue:
        rel, fn_name = queue.popleft()
        if (rel, fn_name) in visited:
            continue
        visited.add((rel, fn_name))
        src = ctx.file(rel)
        if src is None or src.tree is None:
            continue
        funcs = module_level_functions(src.tree)
        fn = funcs.get(fn_name)
        if fn is None:
            continue
        imports = import_map(src.tree)
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee is None:
                continue
            parts = callee.split(".")
            target: Optional[Tuple[str, str]] = None
            if len(parts) == 1:
                if parts[0] in funcs:
                    target = (rel, parts[0])
                elif parts[0] in imports:
                    dotted = imports[parts[0]]
                    mod, _, attr = dotted.rpartition(".")
                    if mod.startswith("repro") and attr:
                        target = (rel_for_module(mod), attr)
            elif len(parts) == 2 and parts[0] in imports:
                mod = imports[parts[0]]
                if mod.startswith("repro"):
                    target = (rel_for_module(mod), parts[1])
            if target and target not in visited:
                queue.append(target)
    return visited


def _import_time_initializers(tree: ast.Module) -> Set[str]:
    """Module-level functions invoked at import time (``_init()`` calls).

    Writes inside them happen once, before any fork, with deterministic
    content identical in every process — not a pool hazard.
    """
    return {
        node.value.func.id
        for node in tree.body
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
    }


def check_global_writes(ctx: RepoContext) -> List[Finding]:
    """``mp.global-write`` over the model/experiment tree."""
    findings: List[Finding] = []
    reachable = worker_reachable_functions(ctx)
    for src in ctx.in_prefix(_SCOPE_PREFIX):
        if src.rel.startswith(_SCOPE_EXCLUDE) or src.tree is None:
            continue
        mutables = module_mutable_globals(src.tree)
        if not mutables:
            continue
        import_inits = _import_time_initializers(src.tree)
        for qual, fn, is_module_level in _all_defs(src.tree):
            if is_module_level and qual in import_inits:
                continue
            sites = _write_sites(fn, set(mutables))
            for global_name, line in sorted(sites.items()):
                if is_module_level and (src.rel, qual) in reachable:
                    how = (
                        "reachable from the pool workers via the module "
                        "call graph"
                    )
                elif is_module_level:
                    how = "callable from worker processes"
                else:
                    how = (
                        "method/nested scope; model code executes inside "
                        "chunk workers"
                    )
                findings.append(Finding(
                    "mp.global-write", src.rel, line,
                    f"{qual}() writes module-level mutable {global_name!r} "
                    f"({how}): per-process state diverges across the pool — "
                    "safe only for content-addressed caches (document with "
                    "a pragma)",
                ))
    return findings


def check_workunit_payloads(ctx: RepoContext) -> List[Finding]:
    """``mp.workunit-payload`` / ``mp.runner-not-module-level``."""
    findings: List[Finding] = []
    for src in ctx.in_prefix(_SCOPE_PREFIX):
        if src.rel.startswith(_SCOPE_EXCLUDE) or src.tree is None:
            continue
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call) and (
                dotted_name(node.func) or ""
            ).split(".")[-1] == "WorkUnit":
                args = list(node.args) + [kw.value for kw in node.keywords]
                for arg in args:
                    for sub in ast.walk(arg):
                        if isinstance(sub, ast.Lambda):
                            findings.append(Finding(
                                "mp.workunit-payload", src.rel, sub.lineno,
                                "lambda inside a WorkUnit payload: units "
                                "must stay picklable for the process pool",
                            ))
        for qual, fn, is_module_level in _all_defs(src.tree):
            if is_module_level or not isinstance(fn, ast.FunctionDef):
                continue
            if any(
                dotted_name(d.func if isinstance(d, ast.Call) else d)
                == "unit_runner"
                for d in fn.decorator_list
            ):
                findings.append(Finding(
                    "mp.runner-not-module-level", src.rel, fn.lineno,
                    f"@unit_runner executor {qual}() is not module-level; "
                    "units dispatched to it cannot pickle by reference",
                ))
    return findings


@checker
def check_mp_safety(ctx: RepoContext) -> List[Finding]:
    """Run every multiprocessing-safety rule."""
    findings = check_global_writes(ctx)
    findings.extend(check_workunit_payloads(ctx))
    return findings


def analyze_snippet(text: str, rel: str = "src/repro/experiments/_snip.py",
                    ctx: Optional[RepoContext] = None) -> List[Finding]:
    """Run the mp rules over one snippet as if it were a repo module."""
    src = SourceFile.from_text(rel, text)
    files = [src] + (ctx.files if ctx else [])
    snippet_ctx = RepoContext(ctx.root if ctx else ".", files)
    findings = [
        f for f in check_global_writes(snippet_ctx) if f.path == rel
    ]
    findings.extend(
        f for f in check_workunit_payloads(snippet_ctx) if f.path == rel
    )
    return [f for f in findings if not src.allows(f.rule, f.line)]
