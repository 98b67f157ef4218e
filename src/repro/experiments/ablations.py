"""Ablations of the design choices DESIGN.md calls out.

* homing: local homing (clustered) vs hash-for-homing for a process's
  shared-cache traffic;
* routing: X-Y-only vs bidirectional X-Y/Y-X containment for split-row
  clusters (the §III-B2 argument for bidirectional routing);
* binding: static 32/32 clusters vs the heuristic vs optimal (what
  dynamic hardware isolation buys);
* purge anatomy: the component costs of one MI6 purge for a data-heavy
  and a tiny-footprint interaction;
* replication: what disabling L2 replication (required for strong
  isolation) costs the baseline.

Each ablation decomposes into work units (see
:mod:`~repro.experiments.sweep`), so all five shard over the process
pool and persist to the result store like the figure drivers; the
measurement bodies live next to the other unit executors in
``sweep.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.reporting import geomean, print_table
from repro.experiments.runner import ExperimentSettings
from repro.experiments.sweep import WorkUnit, predicted_unit, run_unit, run_units

HOMING_APP = "<PR, GRAPH>"
REPLICATION_APP = "<AES, QUERY>"
PURGE_APPS = ("<PR, GRAPH>", "<MEMCACHED, OS>")
BINDING_APPS = ("<TC, GRAPH>", "<ALEXNET, VISION>", "<LIGHTTPD, OS>")


def ablate_homing(
    settings: Optional[ExperimentSettings] = None,
    verbose: bool = True,
) -> Dict[str, float]:
    """Average L2 round-trip NoC hops under each homing policy."""
    settings = settings or ExperimentSettings()
    units = {
        policy: WorkUnit("homing", app=HOMING_APP, variant=policy)
        for policy in ("local-cluster", "hash-global")
    }
    payloads = run_units(units.values(), settings, copy_results=False)
    results = {policy: payloads[unit] for policy, unit in units.items()}
    if verbose:
        print_table(
            "Ablation: homing policy (avg memory cycles per L1 miss)",
            ["policy", "cycles/miss"],
            [[k, v] for k, v in results.items()],
        )
    return results


def ablate_routing(
    rows: int = 8,
    cols: int = 8,
    verbose: bool = True,
    settings: Optional[ExperimentSettings] = None,
) -> Dict[str, int]:
    """Count cluster-escaping routes with and without Y-X support.

    For every split-row prefix/suffix cluster pair, count source ->
    destination pairs whose X-Y path leaves the cluster; bidirectional
    routing must bring that count to zero.
    """
    settings = settings or ExperimentSettings()
    unit = WorkUnit("routing", params=(rows, cols))
    results = run_units([unit], settings, copy_results=False)[unit]
    if verbose:
        print_table(
            "Ablation: deterministic routing containment (all split-row clusters)",
            ["metric", "count"],
            [[k, v] for k, v in results.items()],
            precision=0,
        )
    return results


def ablate_binding(
    settings: Optional[ExperimentSettings] = None,
    apps: Optional[List[str]] = None,
    verbose: bool = True,
) -> Dict[str, float]:
    """Static 32/32 vs heuristic vs optimal cluster binding (geomean
    completion normalized to static)."""
    settings = settings or ExperimentSettings()
    names = list(apps or BINDING_APPS)
    half = settings.config.n_cores // 2
    units = {}
    for name in names:
        units[(name, "static-32/32")] = predicted_unit(
            name, f"static-{half}", ("static", half)
        )
        # The heuristic is the machine default: share the default run.
        units[(name, "heuristic")] = run_unit(name, "ironhide")
        units[(name, "optimal")] = predicted_unit(name, "optimal", ("optimal",))
    payloads = run_units(units.values(), settings, copy_results=False)
    ratios: Dict[str, List[float]] = {"static-32/32": [], "heuristic": [], "optimal": []}
    for name in names:
        static = payloads[units[(name, "static-32/32")]].completion_cycles
        ratios["static-32/32"].append(1.0)
        for binding in ("heuristic", "optimal"):
            cycles = payloads[units[(name, binding)]].completion_cycles
            ratios[binding].append(cycles / static)
    results = {k: geomean(v) for k, v in ratios.items()}
    if verbose:
        print_table(
            "Ablation: cluster binding (completion vs static 32/32)",
            ["binding", "relative completion"],
            [[k, v] for k, v in results.items()],
        )
    return results


def ablate_purge_anatomy(
    settings: Optional[ExperimentSettings] = None,
    verbose: bool = True,
) -> Dict[str, Dict[str, float]]:
    """Purge component costs for a user app vs an OS app under MI6."""
    settings = settings or ExperimentSettings()
    units = {name: WorkUnit("purge_anatomy", app=name) for name in PURGE_APPS}
    payloads = run_units(units.values(), settings, copy_results=False)
    out = {name: payloads[unit] for name, unit in units.items()}
    if verbose:
        for name, comps in out.items():
            print_table(
                f"Ablation: purge anatomy for {name} (cycles)",
                ["component", "cycles"],
                [[k, v] for k, v in comps.items()],
                precision=0,
            )
    return out


def ablate_replication(
    settings: Optional[ExperimentSettings] = None,
    verbose: bool = True,
) -> Dict[str, float]:
    """Baseline completion with L2 replication on vs off (<AES, QUERY>)."""
    settings = settings or ExperimentSettings()
    units = {
        label: WorkUnit("replication", app=REPLICATION_APP, variant=label)
        for label in ("replication-on", "replication-off")
    }
    payloads = run_units(units.values(), settings, copy_results=False)
    results = {label: payloads[unit] for label, unit in units.items()}
    if verbose:
        print_table(
            "Ablation: L2 replication on the insecure baseline (<AES, QUERY>)",
            ["variant", "completion cycles"],
            [[k, int(v)] for k, v in results.items()],
            precision=0,
        )
    return results


def run_all_ablations(
    settings: Optional[ExperimentSettings] = None,
    verbose: bool = True,
):
    """Every ablation, in the order DESIGN.md discusses them."""
    settings = settings or ExperimentSettings()
    return (
        ablate_homing(settings, verbose=verbose),
        ablate_routing(verbose=verbose, settings=settings),
        ablate_binding(settings, verbose=verbose),
        ablate_purge_anatomy(settings, verbose=verbose),
        ablate_replication(settings, verbose=verbose),
    )
