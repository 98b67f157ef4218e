"""Repo-native static analysis: the repository's contracts, checked.

This package is the static counterpart to the dynamic gates (golden
pins, equivalence suite, bench checks): it parses the tree once and
verifies the invariants that make the reproduction trustworthy *before*
anything executes.  A rule earns its place only where no tier-1 test
fails on its seeded violation (``docs/static-analysis.md`` lists the
retired rules and the tests that replaced them).  Seven rule families
ship today:

* ``determinism.*`` + ``hygiene.*`` — no wall clocks, no unseeded RNG,
  no set-iteration in replay paths (:mod:`repro.analysis.determinism`);
* ``abi.*`` — the embedded C kernels, their hand-written ctypes
  declarations and the scalar oracle's cache/TLB classes stay
  layout- and signature-identical (:mod:`repro.analysis.abi`);
* ``keys.*`` — every result-affecting knob reaches the persistent
  store key, and result-shape modules cannot change without a
  ``MODEL_VERSION`` audit (:mod:`repro.analysis.cache_keys`);
* ``mp.*`` — chunk workers never depend on module-level mutable state
  that ``fork`` would silently fork (:mod:`repro.analysis.mp_safety`);
* ``faults.*`` — every registered fault-injection site is consulted
  somewhere (:mod:`repro.analysis.faults`);
* ``machines.*`` — every machine in the ``MACHINES`` registry is
  listed in the docs tables (:mod:`repro.analysis.machines`).

Run it via ``python tools/check_static.py`` (or the ``static`` phase of
``tools/run_tiers.py``); suppress individual findings with
``# repro: allow[rule]`` pragmas.  ``docs/static-analysis.md`` holds
the rule catalog and the authoring guide for new rules.
"""

from __future__ import annotations

from repro.analysis import (  # noqa: F401
    abi,
    cache_keys,
    determinism,
    faults,
    machines,
    mp_safety,
)
from repro.analysis.core import (  # noqa: F401
    AnalysisReport,
    Finding,
    RepoContext,
    SourceFile,
    registered_checkers,
    run_checks,
)


def run_all(root) -> AnalysisReport:
    """Scan the repository at ``root`` and run every registered rule."""
    return run_checks(RepoContext.scan(root))
