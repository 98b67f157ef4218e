"""Core of the repo-native static analyzer: findings, pragmas, registry.

The analyzer is deliberately *repo-specific*: its rules encode this
repository's own correctness contracts (bit-exact replay determinism,
the C-kernel/ctypes ABI, store-key completeness, chunk-worker
multiprocessing safety) rather than generic style.  Rule modules live
next to this one and register a checker with :func:`checker`; each
checker receives a :class:`RepoContext` — every parsed source file of
interest — and emits :class:`Finding` objects.

Suppression is explicit and auditable.  A finding at line ``L`` is
suppressed only by a pragma comment on line ``L`` or ``L - 1``::

    # repro: allow[mp.global-write] per-process LRU, rebuilt after fork
    _CACHE[key] = bundle

The bracket lists one or more comma-separated rule names; a bare family
name (``determinism``) allows every rule of that family.  Suppressed
findings are counted (and reported by ``tools/check_static.py``) so a
creeping pragma population stays visible.

Entry points: :meth:`RepoContext.scan` parses the tree once,
:func:`run_checks` runs every registered rule module over it, and
:func:`~repro.analysis.run_all` (package level) combines the two.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

#: ``# repro: allow[rule, rule2]`` pragma comments.
_PRAGMA = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_.\-, ]+)\]")

#: Directories (relative to the repo root) whose Python files are
#: scanned into the context.  Rule modules narrow further by prefix.
SCAN_ROOTS = ("src/repro", "tools")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative, posix separators
    line: int
    message: str

    def as_dict(self) -> dict:
        """JSON-encodable form for the ``--json`` report."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def parse_pragmas(text: str) -> Dict[int, Set[str]]:
    """Map line number -> rule names allowed by a pragma on that line."""
    allow: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = _PRAGMA.search(line)
        if m:
            allow[lineno] = {
                name.strip() for name in m.group(1).split(",") if name.strip()
            }
    return allow


@dataclass
class SourceFile:
    """One parsed source file plus its pragma allowlist."""

    rel: str
    text: str
    tree: Optional[ast.Module]
    allow: Dict[int, Set[str]] = field(default_factory=dict)
    parse_error: Optional[str] = None

    @classmethod
    def from_text(cls, rel: str, text: str) -> "SourceFile":
        """Parse ``text`` as the file ``rel`` (tests use this directly)."""
        try:
            tree = ast.parse(text)
            error = None
        except SyntaxError as exc:  # pragma: no cover - repo always parses
            tree, error = None, f"{exc.msg} (line {exc.lineno})"
        return cls(rel=rel, text=text, tree=tree, allow=parse_pragmas(text),
                   parse_error=error)

    def allows(self, rule: str, line: int) -> bool:
        """True if a pragma on ``line`` or the line above permits ``rule``."""
        family = rule.split(".", 1)[0]
        for pragma_line in (line, line - 1):
            names = self.allow.get(pragma_line)
            if names and (rule in names or family in names):
                return True
        return False


class RepoContext:
    """Every scanned source file, parsed once and shared by all rules."""

    def __init__(self, root: Path, files: List[SourceFile]):
        self.root = Path(root)
        self.files = files
        self._by_rel = {f.rel: f for f in files}

    @classmethod
    def scan(cls, root) -> "RepoContext":
        """Parse every Python file under :data:`SCAN_ROOTS`."""
        root = Path(root)
        files = []
        for base in SCAN_ROOTS:
            base_dir = root / base
            if not base_dir.is_dir():
                continue
            for path in sorted(base_dir.rglob("*.py")):
                rel = path.relative_to(root).as_posix()
                files.append(
                    SourceFile.from_text(rel, path.read_text(encoding="utf-8"))
                )
        return cls(root, files)

    def file(self, rel: str) -> Optional[SourceFile]:
        """The scanned file at repo-relative path ``rel`` (or None)."""
        return self._by_rel.get(rel)

    def in_prefix(self, *prefixes: str) -> Iterator[SourceFile]:
        """Scanned files whose repo-relative path starts with a prefix."""
        for f in self.files:
            if any(f.rel.startswith(p) for p in prefixes):
                yield f


#: Registered rule-module checkers, in registration order.
_CHECKERS: List[Callable[[RepoContext], List[Finding]]] = []


def checker(fn: Callable[[RepoContext], List[Finding]]):
    """Register a rule-module entry point (``fn(ctx) -> [Finding]``)."""
    _CHECKERS.append(fn)
    return fn


def registered_checkers() -> List[Callable]:
    """The registered checkers (diagnostics / ``--list-rules``)."""
    return list(_CHECKERS)


@dataclass
class AnalysisReport:
    """Outcome of one analyzer run: live findings + suppression count."""

    findings: List[Finding]
    suppressed: List[Finding]

    @property
    def ok(self) -> bool:
        """True when no live (unsuppressed) findings remain."""
        return not self.findings

    def to_json(self) -> str:
        """Machine-readable report for CI consumption."""
        return json.dumps(
            {
                "ok": self.ok,
                "findings": [f.as_dict() for f in self.findings],
                "suppressed": [f.as_dict() for f in self.suppressed],
            },
            indent=2,
            sort_keys=True,
        )


def run_checks(ctx: RepoContext) -> AnalysisReport:
    """Run every registered checker; split findings by pragma status."""
    live: List[Finding] = []
    suppressed: List[Finding] = []
    for f in ctx.files:
        if f.parse_error:  # pragma: no cover - repo always parses
            live.append(
                Finding("core.syntax-error", f.rel, 1, f.parse_error)
            )
    for check in _CHECKERS:
        for finding in check(ctx):
            src = ctx.file(finding.path)
            if src is not None and src.allows(finding.rule, finding.line):
                suppressed.append(finding)
            else:
                live.append(finding)
    order = lambda f: (f.path, f.line, f.rule)  # noqa: E731
    return AnalysisReport(sorted(live, key=order), sorted(suppressed, key=order))


# ---------------------------------------------------------------------------
# Shared AST helpers used by several rule modules
# ---------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_functions(tree: ast.Module) -> Iterator[ast.AST]:
    """Every function/async-function definition in a module, any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def module_level_functions(tree: ast.Module) -> Dict[str, ast.FunctionDef]:
    """Top-level ``def``s by name (the picklable pool-task surface)."""
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }


def import_map(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted module/object path from this module's imports."""
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                mapping[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return mapping


def rel_for_module(module: str) -> str:
    """Repo-relative source path for a dotted ``repro.*`` module name."""
    return "src/" + module.replace(".", "/") + ".py"


def constant_str_assign(tree: ast.Module, name: str) -> Optional[str]:
    """The literal string assigned to module-level ``name`` (or None)."""
    for node in tree.body:
        targets: Iterable[ast.AST] = ()
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = (node.target,)
            value = node.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                if isinstance(value, ast.Constant) and isinstance(
                    value.value, str
                ):
                    return value.value
    return None


def registry_names(
    src: Optional[SourceFile], name: str
) -> Tuple[Optional[int], Tuple[str, ...]]:
    """``(line, names)`` of a module-level ``name = {...}`` or ``(...)``.

    A dict registry names its string keys, a tuple registry its string
    elements; ``(None, ())`` when ``src`` assigns no such literal.
    """
    if src is None or src.tree is None:
        return None, ()
    for node in src.tree.body:
        if not isinstance(node, ast.Assign) or not any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            continue
        if isinstance(node.value, ast.Dict):
            elts = node.value.keys
        elif isinstance(node.value, ast.Tuple):
            elts = node.value.elts
        else:
            continue
        return node.lineno, tuple(
            e.value for e in elts
            if isinstance(e, ast.Constant) and isinstance(e.value, str)
        )
    return None, ()
