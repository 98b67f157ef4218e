"""faults.*: every registered fault-injection site is consulted.

The chaos facility (:mod:`repro.faults`) is only trustworthy if each
name in :data:`repro.faults.INJECTION_SITES` is consulted somewhere: a
declared-but-never-consulted site documents coverage that does not
exist, and a fault plan naming it silently injects nothing.  The other
direction needs no rule: ``should_inject`` raises ``ValueError`` on an
unregistered name even when no plan is armed, and renaming any consult
to an unregistered site fails ``tests/test_faults.py``.

* ``faults.dead-site`` — a registered site that no scanned file
  consults through a ``should_inject("name", ...)`` call with a
  literal site name.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.analysis.core import (
    Finding,
    RepoContext,
    checker,
    dotted_name,
    registry_names,
)

#: Repo-relative home of the injection-site registry.
_FAULTS_REL = "src/repro/faults.py"


def _consulted_sites(tree: ast.Module) -> Set[str]:
    """Literal site names of every ``should_inject(...)`` call."""
    sites: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None or name.split(".")[-1] != "should_inject":
            continue
        if node.args and isinstance(node.args[0], ast.Constant) and isinstance(
            node.args[0].value, str
        ):
            sites.add(node.args[0].value)
    return sites


@checker
def check_faults(ctx: RepoContext) -> List[Finding]:
    """Report every registered site that no ``should_inject`` consults."""
    registry_line, sites = registry_names(
        ctx.file(_FAULTS_REL), "INJECTION_SITES"
    )
    if registry_line is None:
        # No registry in this context (unit-test snippets): no dead
        # sites to report.
        return []
    consulted: Set[str] = set()
    for src in ctx.files:
        if src.tree is not None:
            consulted |= _consulted_sites(src.tree)
    return [
        Finding(
            "faults.dead-site",
            _FAULTS_REL,
            registry_line,
            f"injection site {site!r} is registered but never "
            "consulted by any scanned file",
        )
        for site in sites
        if site not in consulted
    ]
