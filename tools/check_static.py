#!/usr/bin/env python
"""Run the repo-native static analysis suite (``repro.analysis``).

Exit status is the contract: 0 when the tree is clean, 1 when any live
finding remains — so the ``static`` phase of ``tools/run_tiers.py`` can
gate on it.  Findings print one per line as ``path:line: [rule]
message``; ``--json PATH`` additionally writes the machine-readable
report (``-`` for stdout).

``--update-model-audit`` refreshes ``tests/golden/model_audit.json``,
the manifest behind the ``keys.model-version-audit`` rule: it records a
content digest for every result-shape-affecting module against the
current ``MODEL_VERSION``.  Run it after changing such a module — and
bump ``MODEL_VERSION`` first if stored payload values changed.

Usage:
    python tools/check_static.py [--json PATH] [--list-rules]
                                 [--update-model-audit] [--root DIR]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.analysis import run_all  # noqa: E402
from repro.analysis.cache_keys import (  # noqa: E402
    MODEL_AUDIT_REL,
    build_model_audit,
    current_model_version,
)
from repro.analysis.core import RepoContext  # noqa: E402


def update_model_audit(repo: Path) -> int:
    """Rewrite the model-audit manifest from the current tree."""
    import json

    ctx = RepoContext.scan(repo)
    version = current_model_version(ctx)
    if version is None:
        print("MODEL_VERSION not found in experiments/store.py",
              file=sys.stderr)
        return 1
    manifest = build_model_audit(repo, version)
    path = repo / MODEL_AUDIT_REL
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(
        f"wrote {MODEL_AUDIT_REL}: {len(manifest['digests'])} modules "
        f"audited against {version}"
    )
    return 0


def list_rules() -> int:
    """Print every registered rule module and its docstring header."""
    from repro.analysis import registered_checkers

    for check in registered_checkers():
        module = sys.modules[check.__module__]
        header = (module.__doc__ or "").strip().splitlines()[0]
        print(f"{check.__module__}: {header}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the machine-readable report "
                             "(- for stdout)")
    parser.add_argument("--update-model-audit", action="store_true",
                        help="refresh tests/golden/model_audit.json and exit")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rule modules and exit")
    parser.add_argument("--root", default=str(REPO),
                        help="repository root to scan (default: this repo)")
    args = parser.parse_args(argv)

    if args.list_rules:
        return list_rules()
    if args.update_model_audit:
        return update_model_audit(Path(args.root))

    report = run_all(Path(args.root))
    for finding in report.findings:
        print(finding)
    if args.json:
        payload = report.to_json()
        if args.json == "-":
            print(payload)
        else:
            Path(args.json).write_text(payload + "\n", encoding="utf-8")
    n, s = len(report.findings), len(report.suppressed)
    summary = f"static analysis: {n} finding(s), {s} suppressed by pragma"
    print(summary if report.ok else f"FAIL {summary}",
          file=sys.stdout if report.ok else sys.stderr)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
