#!/usr/bin/env python
"""Soak tier: repeated faulted quick sweeps must converge bit-exactly.

This is the chaos-equivalence gate for the fault-tolerance layer plus
a steady-state **service loop** for the caching stack.  The chaos gate
runs the quick ``figscale`` sweep twice over:

1. **Baseline** — serial, fault-free, into its own store directory.
2. **Soak loop** — N iterations over a chunked 2-worker pool, all on
   one *shared* store directory, with an active
   :class:`repro.faults.FaultPlan` (default: one worker crash, one
   injected unit exception, two corrupted reads and one ENOSPC, all
   count-capped via the shared token directory so the budget spans the
   whole soak, not one process).

Every iteration starts cold in memory (interned stores, bundle cache
and calibration dropped) but warm on disk, exactly like repeated CLI
invocations against one cache directory.  The gate asserts, per
iteration, that the figure payload is bit-identical to the baseline's;
and at the end that

* the faulted store's entries are **byte-identical** to the fault-free
  serial store (quarantine/, fault-tokens/ and ``*.tmp`` aside),
* the quarantine directory actually holds the injected corrupt entries
  (the corruption machinery demonstrably ran),
* a read-only :meth:`ResultStore.verify` audit reports a clean store
  (no invalid entries, no orphaned tmp files),
* resident-set growth across the loop stays under ``--rss-limit-mb``.

The **service loop** (``--service-iterations``, skip with
``--skip-service``) then models the capacity-planning service in
steady state: it repeatedly serves the same served-population batches
(:mod:`repro.experiments.figpop` quick populations, both skews)
against one shared store capped by a deliberately small
``--service-cache-max-mb``, so the store's mtime-LRU eviction and the
bounded bundle cache both churn continuously.  Each iteration starts
cold in memory but warm on disk, like repeated CLI invocations.  The
gate asserts the loop reaches steady state rather than degrading:

* warm iterations keep hitting the store (hits > 0) and their
  hit-rates **plateau** (spread across warm iterations stays under
  ``--service-plateau``),
* the cap demonstrably forces eviction (warm iterations still write:
  evicted entries are re-run and re-persisted),
* disk usage stays under the cap, nothing valid is ever quarantined,
  and the final :meth:`ResultStore.verify` audit is clean,
* the bundle cache never outgrows its cold-iteration footprint, and
  resident-set growth stays under ``--rss-limit-mb``.

Wall-clock use here is fine: this is a tools/ harness; nothing it
measures feeds a result or a cache key.

Usage:
    PYTHONPATH=src python tools/soak_sweep.py [--iterations N]
        [--faults SPEC] [--seed S] [--rss-limit-mb MB] [--keep]
        [--service-iterations N] [--service-cache-max-mb MB]
        [--service-plateau F] [--skip-service]
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

#: Default chaos plan: the acceptance mix — worker crashes + corrupt
#: reads + one ENOSPC — plus one injected unit exception, all
#: count-capped so the soak converges by construction.
DEFAULT_FAULTS = (
    "worker_crash:1x1,unit_exception:1x1,store_read_corrupt:1x2,"
    "store_write_enospc:1x1"
)


def rss_mb() -> float:
    """Resident set size of this process in MB (Linux /proc)."""
    try:
        with open("/proc/self/status", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def fresh_settings(seed: int, cache_dir: Path, jobs=None, chunk="auto", faults=None):
    """Quick-mode settings with cold caches (one CLI invocation's worth)."""
    from repro.experiments.runner import ExperimentSettings

    settings = ExperimentSettings(
        seed=seed,
        jobs=jobs,
        chunk=chunk,
        cache_dir=str(cache_dir),
        faults=faults,
    )
    settings.config = settings.config.with_engine("vector")
    return settings.quickened(4)


def run_quick_figscale(settings) -> dict:
    """One quick figscale sweep; returns its JSON-round-tripped payload."""
    from repro.experiments.figscale import QUICK_SCALES, run_figscale

    data = run_figscale(settings, scales=QUICK_SCALES, verbose=False)
    return json.loads(json.dumps(data.as_payload()))


def reset_process_caches() -> None:
    """Back to cold-memory state (disk entries survive)."""
    from repro.experiments import store as store_mod
    from repro.experiments.runner import clear_result_cache
    from repro.sim.bundle import clear_bundle_cache

    store_mod.reset_stores()
    clear_result_cache()
    clear_bundle_cache()


def store_entries(root: Path) -> dict:
    """Relative path -> bytes for every store entry under ``root``.

    Quarantined evidence, fault-injection tokens and tmp files are not
    entries and are excluded from the equivalence comparison.
    """
    out = {}
    for path in sorted(root.rglob("*.json")):
        rel = path.relative_to(root).as_posix()
        if rel.startswith(("quarantine/", "fault-tokens/")):
            continue
        out[rel] = path.read_bytes()
    return out


#: Population batches one service iteration serves: the figpop quick
#: skews at a small batch size, so the loop stays seconds-per-iteration
#: while still spanning dozens of distinct (app, scale, session) units.
SERVICE_BATCH_SIZE = 16


def run_service_batches(settings) -> dict:
    """Serve one iteration's population batches; returns the payload."""
    from repro.experiments.figpop import SKEWS, run_figpop

    data = run_figpop(
        settings, sizes=(SERVICE_BATCH_SIZE,), skews=SKEWS, verbose=False
    )
    return json.loads(json.dumps(data.as_payload()))


def run_service_loop(args, service_dir: Path) -> list:
    """Steady-state service loop; returns the failure list.

    Serves the same population batches ``--service-iterations`` times
    against one store capped at ``--service-cache-max-mb``, asserting
    hit-rate plateau, forced-but-clean LRU eviction, a bounded bundle
    cache, bounded RSS and a clean final audit (see module docstring).
    """
    from repro.experiments.store import ResultStore, get_store
    from repro.sim.bundle import bundle_cache_size

    failures = []
    hit_rates = []
    warm_writes = 0
    bundle_cold = None
    cap_bytes = int(args.service_cache_max_mb * 1024 * 1024)
    print(f"[service] {args.service_iterations} iterations of figpop "
          f"batches ({SERVICE_BATCH_SIZE} users/skew) -> {service_dir} "
          f"(cap {args.service_cache_max_mb:g} MB)")
    rss_start = rss_mb()
    baseline_payload = None
    for iteration in range(1, args.service_iterations + 1):
        reset_process_caches()
        settings = fresh_settings(args.seed, service_dir)
        settings.cache_max_mb = args.service_cache_max_mb
        start = time.perf_counter()
        payload = run_service_batches(settings)
        elapsed = time.perf_counter() - start
        stats = get_store(str(service_dir)).stats
        total = stats.hits + stats.misses
        hit_rate = stats.hits / total if total else 0.0
        hit_rates.append(hit_rate)
        disk_bytes = sum(
            p.stat().st_size for p in service_dir.rglob("*.json")
            if not p.relative_to(service_dir).as_posix().startswith(
                ("quarantine/", "fault-tokens/"))
        )
        bundles = bundle_cache_size()
        print(f"[service] iter {iteration}/{args.service_iterations}: "
              f"{elapsed:.1f}s, hit-rate {hit_rate:.2f} "
              f"({stats.hits}/{total}), {stats.writes} writes, "
              f"disk {disk_bytes / 1024:.0f} KB, {bundles} bundles, "
              f"rss {rss_mb():.0f} MB")
        if iteration == 1:
            baseline_payload = payload
            bundle_cold = bundles
            if stats.writes == 0:
                failures.append("cold service iteration wrote nothing")
        else:
            warm_writes += stats.writes
            if payload != baseline_payload:
                failures.append(
                    f"service iteration {iteration} payload diverged"
                )
            if stats.hits == 0:
                failures.append(
                    f"service iteration {iteration} never hit the store"
                )
            if bundle_cold is not None and bundles > bundle_cold:
                failures.append(
                    f"bundle cache grew past its cold footprint "
                    f"({bundles} > {bundle_cold})"
                )
        if stats.quarantined:
            failures.append(
                f"service iteration {iteration} quarantined "
                f"{stats.quarantined} valid entries"
            )
        if disk_bytes > cap_bytes:
            failures.append(
                f"store exceeded its cap after iteration {iteration} "
                f"({disk_bytes} > {cap_bytes} bytes)"
            )
    if args.service_iterations >= 2 and warm_writes == 0:
        failures.append(
            "the cap never forced an eviction (warm iterations wrote "
            "nothing); lower --service-cache-max-mb"
        )
    warm_rates = hit_rates[1:]
    if len(warm_rates) >= 2:
        spread = max(warm_rates) - min(warm_rates)
        if spread > args.service_plateau:
            failures.append(
                f"hit-rate never plateaued: warm spread {spread:.2f} > "
                f"{args.service_plateau:g}"
            )
        else:
            print(f"[service] steady state: warm hit-rates "
                  f"{[f'{r:.2f}' for r in warm_rates]} "
                  f"(spread {spread:.2f})")
    rss_growth = rss_mb() - rss_start
    if rss_growth > args.rss_limit_mb:
        failures.append(
            f"service RSS grew {rss_growth:.0f} MB over the loop "
            f"(limit {args.rss_limit_mb:.0f} MB)"
        )
    audit = ResultStore(service_dir).verify()
    print(f"[service] final store audit: {audit}")
    if audit["invalid"] or audit["tmp"] or audit["quarantined"]:
        failures.append(f"final service store is not clean: {audit}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iterations", type=int, default=3,
                        help="faulted sweep iterations on the shared store")
    parser.add_argument("--faults", default=DEFAULT_FAULTS, metavar="SPEC",
                        help="fault plan for the soak loop "
                             f"(default: {DEFAULT_FAULTS})")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rss-limit-mb", type=float, default=256.0,
                        help="max allowed resident-set growth across the loop")
    parser.add_argument("--keep", action="store_true",
                        help="keep the scratch directories for inspection")
    parser.add_argument("--service-iterations", type=int, default=3,
                        help="steady-state service-loop iterations "
                             "(population batches on one capped store)")
    parser.add_argument("--service-cache-max-mb", type=float, default=0.12,
                        help="store cap for the service loop; small on "
                             "purpose so LRU eviction churns in steady state")
    parser.add_argument("--service-plateau", type=float, default=0.25,
                        help="max allowed hit-rate spread across warm "
                             "service iterations (the plateau assertion)")
    parser.add_argument("--skip-service", action="store_true",
                        help="run only the chaos-equivalence gate")
    args = parser.parse_args(argv)

    from repro import faults as faults_mod
    from repro.experiments.store import ResultStore

    scratch = Path(tempfile.mkdtemp(prefix="repro-soak-"))
    baseline_dir = scratch / "baseline-store"
    soak_dir = scratch / "soak-store"
    failures = []
    try:
        print(f"[soak] baseline: serial fault-free quick figscale -> {baseline_dir}")
        reset_process_caches()
        start = time.perf_counter()
        baseline_payload = run_quick_figscale(
            fresh_settings(args.seed, baseline_dir)
        )
        print(f"[soak] baseline done in {time.perf_counter() - start:.1f}s")

        plan = faults_mod.FaultPlan.parse(
            args.faults, seed=args.seed, token_dir=soak_dir / "fault-tokens"
        )
        print(f"[soak] plan: {plan.describe()} "
              f"(budgets shared via {plan.token_dir})")
        rss_start = rss_mb()
        for iteration in range(1, args.iterations + 1):
            reset_process_caches()
            settings = fresh_settings(
                args.seed, soak_dir, jobs=2, chunk=2, faults=plan
            )
            start = time.perf_counter()
            payload = run_quick_figscale(settings)
            elapsed = time.perf_counter() - start
            converged = payload == baseline_payload
            print(f"[soak] iter {iteration}/{args.iterations}: {elapsed:.1f}s, "
                  f"payload {'==' if converged else '!='} baseline, "
                  f"health: {settings.sweep_health.describe()}, "
                  f"rss {rss_mb():.0f} MB")
            if not converged:
                failures.append(
                    f"iteration {iteration} payload diverged from baseline"
                )
        rss_growth = rss_mb() - rss_start
        if rss_growth > args.rss_limit_mb:
            failures.append(
                f"RSS grew {rss_growth:.0f} MB over the loop "
                f"(limit {args.rss_limit_mb:.0f} MB)"
            )

        # Chaos-equivalence gate: the faulted store's final contents
        # must be byte-identical to the fault-free serial store.
        base_entries = store_entries(baseline_dir)
        soak_entries = store_entries(soak_dir)
        if set(base_entries) != set(soak_entries):
            only_base = sorted(set(base_entries) - set(soak_entries))[:5]
            only_soak = sorted(set(soak_entries) - set(base_entries))[:5]
            failures.append(
                f"store entry sets differ (baseline-only: {only_base}, "
                f"soak-only: {only_soak})"
            )
        else:
            diff = [r for r in base_entries if base_entries[r] != soak_entries[r]]
            if diff:
                failures.append(
                    f"{len(diff)} store entries differ byte-wise, e.g. {diff[:3]}"
                )
            else:
                print(f"[soak] store equivalence: {len(base_entries)} entries "
                      "byte-identical to the fault-free serial store")

        quarantined = sorted((soak_dir / "quarantine").glob("*.json"))
        if "store_read_corrupt" in args.faults and not quarantined:
            failures.append(
                "corrupt-read faults were injected but the quarantine "
                "directory is empty"
            )
        elif quarantined:
            print(f"[soak] quarantine holds {len(quarantined)} injected "
                  "corrupt entries (preserved, not deleted)")

        audit = ResultStore(soak_dir).verify()
        print(f"[soak] final store audit: {audit}")
        if audit["invalid"] or audit["tmp"]:
            failures.append(f"final store is not clean: {audit}")

        if not args.skip_service:
            failures.extend(run_service_loop(args, scratch / "service-store"))

        for failure in failures:
            print(f"SOAK: {failure}", file=sys.stderr)
        if not failures:
            print("[soak] OK: faulted sweeps converged to a clean, "
                  "bit-identical store; service loop reached steady state"
                  if not args.skip_service else
                  "[soak] OK: faulted sweeps converged to a clean, "
                  "bit-identical store")
        return 1 if failures else 0
    finally:
        if args.keep:
            print(f"[soak] scratch kept at {scratch}")
        else:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
