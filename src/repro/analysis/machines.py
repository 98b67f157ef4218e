"""machines.*: every registered machine is listed in the docs tables.

``repro.machines.MACHINES`` is the single source of truth for which
machine models exist.  The golden figure grids are built from it
(figattack's ``ISOLATION_MODELS``, figscale's grid), so a registry
edit without refreshed goldens fails ``tests/test_golden_figures.py``;
a ``machines/`` module missing from the model-audit manifest is
``keys.model-version-audit``'s finding.  No test reads the docs, so
this rule keeps them in step:

* ``machines.machine-not-covered`` — a registered machine that
  ``docs/architecture.md`` or ``docs/experiments.md`` does not list as
  an entry: ``**name**`` (a bullet) or the name in backticks (a table
  cell).  A mention in prose does not count.

The registry is read from the AST of ``src/repro/machines/__init__.py``
(no import, so the rule also runs on broken trees); the docs are read
from disk relative to the scanned root.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.core import Finding, RepoContext, checker, registry_names

#: Repo-relative home of the machine registry.
_REGISTRY_REL = "src/repro/machines/__init__.py"

#: Docs whose machine tables must list every registered machine.
_DOC_RELS = ("docs/architecture.md", "docs/experiments.md")


def registered_machines(ctx: RepoContext) -> Tuple[Optional[int], Tuple[str, ...]]:
    """``(registry line, machine names)`` parsed from the machines package."""
    return registry_names(ctx.file(_REGISTRY_REL), "MACHINES")


@checker
def check_machines(ctx: RepoContext) -> List[Finding]:
    """Every registered machine is a list or table entry in the docs."""
    line, machines = registered_machines(ctx)
    if line is None or not machines:
        # No registry in this context (unit-test snippets): nothing to
        # cross-check.
        return []
    findings: List[Finding] = []
    for rel in _DOC_RELS:
        path = ctx.root / rel
        if not path.is_file():
            continue
        text = path.read_text(encoding="utf-8")
        for name in machines:
            if f"**{name}**" not in text and f"`{name}`" not in text:
                findings.append(
                    Finding(
                        "machines.machine-not-covered",
                        _REGISTRY_REL,
                        line,
                        f"machine {name!r} is not listed in {rel}; add it "
                        f"to the machine tables as **{name}** or `{name}`",
                    )
                )
    return findings
