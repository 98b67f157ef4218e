#!/usr/bin/env python
"""Scalar-vs-vector replay throughput smoke benchmark.

Replays the Figure 6 workload mix — every benchmark application's secure
and insecure per-interaction traces, OS apps weighted heavier exactly as
the experiment harness weighs them — through both replay engines on the
evaluation machine, verifies the engines return identical counters, and
reports events/second plus the vector/scalar speedup.

With ``--store`` it additionally benchmarks the persistent result
store: the Fig. 6 pair matrix cold (all misses), warm in-memory, and
warm from disk (fresh process image simulated by dropping the memory
layer), reporting hit/miss counts.  With ``--e2e`` it measures the
cold end-to-end ``fig6 --quick`` wall time on both engines (result
store and trace-bundle caches cleared per run), which exercises the
interaction-batched replay pipeline the vector engine drives.  With
``--figscale`` it measures the cold ``figscale --quick`` wall time on
the vector engine — the trace-length sweep stresses long-trace
bundles, so it guards a different axis than fig6.  With ``--figattack``
it measures the cold ``figattack --quick`` wall time — the attack grid
is dominated by harness-driven scalar replay and environment builds,
an axis neither figure above touches.  With ``--figpop`` it measures
the cold ``figpop --quick`` wall time — the served-population sweep is
dominated by many short heterogeneous runs (dozens of distinct
(app, scale, session) tuples), guarding the per-run setup cost the
long-trace figures amortize away.  With ``--sweep-overhead`` it
measures the fault-free per-unit scheduling tax of ``run_units``
(store scan, fault consults, retry bookkeeping) against a bare
``execute_unit`` loop; ``--check`` fails if that tax exceeds 2% of the
baseline cold fig6 e2e time.

``--json PATH`` snapshots every number (``BENCH_replay.json`` at the
repo root is the checked-in baseline); ``--history PATH`` additionally
appends a timestamped snapshot line so per-PR perf trends accumulate.
``--check`` re-measures and exits non-zero if replay throughput, the
fig6 e2e time, or the figscale/figattack/figpop e2e times regressed
more than 25% against the checked-in baseline.

Usage:
    PYTHONPATH=src python tools/bench_replay.py [--user N] [--os N]
                                                [--repeats K] [--store]
                                                [--e2e] [--figscale]
                                                [--figattack] [--figpop]
                                                [--sweep-overhead]
                                                [--json PATH]
                                                [--history PATH] [--check]

Exit status is non-zero if the engines disagree on any counter, so the
script doubles as a CI smoke check for the equivalence guarantee.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.arch.address import VirtualMemory
from repro.arch.hierarchy import MemoryHierarchy, ProcessContext
from repro.arch.native import native_available
from repro.config import SystemConfig
from repro.experiments.reporting import print_stats
from repro.workloads import APPS

#: Allowed relative slowdown before ``--check`` fails.
REGRESSION_THRESHOLD = 0.25

#: Max fraction of the cold quick fig6 e2e time the fault-free
#: retry/fault bookkeeping in ``run_units`` may cost (<2%): the
#: robustness layer must not tax the hot path.
SWEEP_OVERHEAD_FRACTION = 0.02


def build_mix(n_user: int, n_os: int):
    """One trace list per process, every app in the Fig. 6 matrix."""
    rng = np.random.default_rng(0)
    mix = []
    for app in APPS:
        n = n_user if app.level == "user" else n_os
        sec, ins = app.processes()
        for proc in (sec, ins):
            mix.append(
                (app.name, [proc.interaction_trace(rng, i) for i in range(n)])
            )
    return mix


def count_events(traces) -> int:
    """Line-change events (what the replay loop actually simulates)."""
    events = 0
    for tr in traces:
        vlines = tr.addrs >> 6
        if not len(vlines):
            continue
        events += 1 + int(np.count_nonzero(vlines[1:] != vlines[:-1]))
    return events


def replay_mix(engine: str, mix):
    config = SystemConfig.evaluation().with_engine(engine)
    hier = MemoryHierarchy(config)
    vm = VirtualMemory("bench", hier.address_space, list(range(4)))
    ctx = ProcessContext(
        "bench", "secure", vm,
        cores=list(range(8)), slices=list(range(16)), controllers=[0, 1],
    )
    results = []
    start = time.perf_counter()
    for _, traces in mix:
        for tr in traces:
            results.append(hier.run_trace(ctx, tr.addrs, tr.writes))
    elapsed = time.perf_counter() - start
    return results, elapsed


def bench_store(n_user: int, n_os: int) -> dict:
    """Cold / warm-memory / warm-disk result-store matrix timings."""
    from repro.experiments.runner import ExperimentSettings, run_matrix
    from repro.experiments.store import get_store

    cache_dir = tempfile.mkdtemp(prefix="repro-store-bench-")
    machines = ("insecure", "mi6")
    out = {"matrix": f"{len(APPS)} apps x {machines}"}
    try:
        store = get_store(cache_dir)
        for phase in ("cold", "warm-memory", "warm-disk"):
            if phase == "warm-disk":
                store.clear_memory()
            settings = ExperimentSettings(
                n_user=n_user, n_os=n_os, cache_dir=cache_dir
            )
            start = time.perf_counter()
            run_matrix(APPS, machines, settings, copy=False)
            out[phase + "_s"] = round(time.perf_counter() - start, 4)
        out.update(store.stats.as_dict())
        print_stats("  store", out)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return out


def bench_e2e(repeats: int = 2) -> dict:
    """Cold end-to-end ``fig6 --quick`` wall time per engine.

    Every run starts from scratch: interned result stores and the
    trace-bundle cache are dropped, and the quick settings carry a
    fresh calibration cache — so the measurement covers trace
    generation, calibration and replay, exactly what a cold CLI
    invocation pays.
    """
    from repro.experiments import store as store_mod
    from repro.experiments.fig6 import run_fig6
    from repro.experiments.golden import quick_settings
    from repro.sim.bundle import clear_bundle_cache

    out = {}
    for engine in ("scalar", "vector"):
        best = float("inf")
        for _ in range(max(1, repeats)):
            store_mod.reset_stores()
            clear_bundle_cache()
            settings = quick_settings(engine)
            start = time.perf_counter()
            run_fig6(settings, verbose=False)
            best = min(best, time.perf_counter() - start)
        out[f"{engine}_s"] = round(best, 4)
        print(f"  e2e fig6 --quick cold [{engine:7s}] {best:6.2f} s")
    store_mod.reset_stores()
    clear_bundle_cache()
    out["speedup"] = out["scalar_s"] / out["vector_s"]
    print(f"  e2e speedup {out['speedup']:.2f}x (vector batched over scalar loop)")
    return out


def bench_figscale(repeats: int = 2) -> dict:
    """Cold ``figscale --quick`` wall time on the vector engine.

    Same hygiene as :func:`bench_e2e` — interned stores and the
    trace-bundle cache are dropped per run — but over the quick
    trace-length grid, whose 8x bundles exercise the batched pipeline
    at trace lengths the fig6 matrix never reaches.  Vector only: it is
    the gated engine, and the scalar oracle's cost is already tracked
    by the fig6 e2e number.
    """
    from repro.experiments import store as store_mod
    from repro.experiments.figscale import QUICK_SCALES, run_figscale
    from repro.experiments.golden import quick_settings
    from repro.sim.bundle import clear_bundle_cache

    best = float("inf")
    for _ in range(max(1, repeats)):
        store_mod.reset_stores()
        clear_bundle_cache()
        settings = quick_settings("vector")
        start = time.perf_counter()
        run_figscale(settings, scales=QUICK_SCALES, verbose=False)
        best = min(best, time.perf_counter() - start)
    store_mod.reset_stores()
    clear_bundle_cache()
    print(f"  e2e figscale --quick cold [vector ] {best:6.2f} s")
    return {"vector_s": round(best, 4)}


def bench_figattack(repeats: int = 2) -> dict:
    """Cold ``figattack --quick`` wall time on the vector engine.

    Same hygiene as :func:`bench_e2e` — interned stores are dropped per
    run — over the quick attack grid.  Its cost profile is unlike the
    figures': thousands of tiny harness-driven ``run_trace`` calls and
    per-trial environment builds, so it guards the scalar replay path
    and the attack harnesses themselves.
    """
    from repro.experiments import store as store_mod
    from repro.experiments.figattack import QUICK_SCALES, run_figattack
    from repro.experiments.golden import quick_settings
    from repro.sim.bundle import clear_bundle_cache

    best = float("inf")
    for _ in range(max(1, repeats)):
        store_mod.reset_stores()
        clear_bundle_cache()
        settings = quick_settings("vector")
        start = time.perf_counter()
        run_figattack(settings, scales=QUICK_SCALES, verbose=False)
        best = min(best, time.perf_counter() - start)
    store_mod.reset_stores()
    clear_bundle_cache()
    print(f"  e2e figattack --quick cold [vector ] {best:6.2f} s")
    return {"vector_s": round(best, 4)}


def bench_figpop(repeats: int = 2) -> dict:
    """Cold ``figpop --quick`` wall time on the vector engine.

    Same hygiene as :func:`bench_e2e` — interned stores and the
    trace-bundle cache are dropped per run — over the quick
    served-population grid.  Its cost profile is many short
    heterogeneous runs (one per distinct (app, scale, session) tuple
    per machine), so it guards per-run setup cost — calibration,
    context builds, small-bundle materialization — that the long-trace
    figures amortize away.
    """
    from repro.experiments import store as store_mod
    from repro.experiments.figpop import QUICK_SIZES, run_figpop
    from repro.experiments.golden import quick_settings
    from repro.sim.bundle import clear_bundle_cache

    best = float("inf")
    for _ in range(max(1, repeats)):
        store_mod.reset_stores()
        clear_bundle_cache()
        settings = quick_settings("vector")
        start = time.perf_counter()
        run_figpop(settings, sizes=QUICK_SIZES, verbose=False)
        best = min(best, time.perf_counter() - start)
    store_mod.reset_stores()
    clear_bundle_cache()
    print(f"  e2e figpop --quick cold [vector ] {best:6.2f} s")
    return {"vector_s": round(best, 4)}


def bench_sweep_overhead(repeats: int = 3) -> dict:
    """Fault-free scheduler overhead of ``run_units`` per work unit.

    Runs a batch of cheap routing units twice: once through the full
    ``run_units`` scheduler (store scan, fault consults, retry
    bookkeeping, health accounting — serial, memory-only, cold) and
    once as a bare ``execute_unit`` loop.  The difference, divided by
    the unit count, is the per-unit scheduling tax the robustness layer
    adds; ``--check`` fails if it exceeds
    :data:`SWEEP_OVERHEAD_FRACTION` of the baseline cold fig6 e2e time.
    """
    from repro.experiments import store as store_mod
    from repro.experiments.runner import ExperimentSettings
    from repro.experiments.sweep import WorkUnit, execute_unit, run_units

    n_units = 36
    units = [
        WorkUnit("routing", variant=f"bench{i}", params=(2, 2))
        for i in range(n_units)
    ]
    best_sched = float("inf")
    best_raw = float("inf")
    for _ in range(max(1, repeats)):
        store_mod.reset_stores()
        settings = ExperimentSettings(no_cache=True)
        start = time.perf_counter()
        run_units(units, settings)
        best_sched = min(best_sched, time.perf_counter() - start)
        settings = ExperimentSettings(no_cache=True)
        start = time.perf_counter()
        for unit in units:
            execute_unit(unit, settings)
        best_raw = min(best_raw, time.perf_counter() - start)
    store_mod.reset_stores()
    per_unit_us = max(0.0, (best_sched - best_raw) / n_units * 1e6)
    print(f"  run_units overhead {per_unit_us:6.1f} us/unit "
          f"(sched {best_sched * 1e3:.1f} ms vs raw {best_raw * 1e3:.1f} ms, "
          f"{n_units} units)")
    return {
        "units": n_units,
        "per_unit_us": round(per_unit_us, 2),
        "sched_s": round(best_sched, 4),
        "raw_s": round(best_raw, 4),
    }


def append_history(history_path: str, snapshot: dict) -> None:
    """Append one timestamped snapshot line (JSONL trajectory)."""
    from repro.experiments.store import MODEL_VERSION

    line = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "model": MODEL_VERSION,
        **snapshot,
    }
    with open(history_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"  appended snapshot to {history_path}")


def check_regressions(baseline: dict, current: dict) -> "list[str]":
    """Compare a fresh measurement against the checked-in baseline.

    Returns human-readable failure strings for every metric that
    regressed beyond :data:`REGRESSION_THRESHOLD` (empty = pass).
    """
    failures = []
    base_tp = baseline.get("accesses_per_s", {}).get("vector")
    cur_tp = current.get("accesses_per_s", {}).get("vector")
    if base_tp and cur_tp and cur_tp < base_tp * (1.0 - REGRESSION_THRESHOLD):
        failures.append(
            f"vector replay throughput {cur_tp / 1e6:.2f} M/s is "
            f"{(1 - cur_tp / base_tp) * 100:.0f}% below baseline "
            f"{base_tp / 1e6:.2f} M/s"
        )
    base_e2e = baseline.get("e2e", {}).get("vector_s")
    cur_e2e = current.get("e2e", {}).get("vector_s")
    if base_e2e and cur_e2e and cur_e2e > base_e2e * (1.0 + REGRESSION_THRESHOLD):
        failures.append(
            f"cold fig6 --quick e2e {cur_e2e:.2f}s is "
            f"{(cur_e2e / base_e2e - 1) * 100:.0f}% above baseline "
            f"{base_e2e:.2f}s"
        )
    base_fs = baseline.get("figscale_e2e", {}).get("vector_s")
    cur_fs = current.get("figscale_e2e", {}).get("vector_s")
    if base_fs and cur_fs and cur_fs > base_fs * (1.0 + REGRESSION_THRESHOLD):
        failures.append(
            f"cold figscale --quick e2e {cur_fs:.2f}s is "
            f"{(cur_fs / base_fs - 1) * 100:.0f}% above baseline "
            f"{base_fs:.2f}s"
        )
    base_fa = baseline.get("figattack_e2e", {}).get("vector_s")
    cur_fa = current.get("figattack_e2e", {}).get("vector_s")
    if base_fa and cur_fa and cur_fa > base_fa * (1.0 + REGRESSION_THRESHOLD):
        failures.append(
            f"cold figattack --quick e2e {cur_fa:.2f}s is "
            f"{(cur_fa / base_fa - 1) * 100:.0f}% above baseline "
            f"{base_fa:.2f}s"
        )
    base_fp = baseline.get("figpop_e2e", {}).get("vector_s")
    cur_fp = current.get("figpop_e2e", {}).get("vector_s")
    if base_fp and cur_fp and cur_fp > base_fp * (1.0 + REGRESSION_THRESHOLD):
        failures.append(
            f"cold figpop --quick e2e {cur_fp:.2f}s is "
            f"{(cur_fp / base_fp - 1) * 100:.0f}% above baseline "
            f"{base_fp:.2f}s"
        )
    cur_so = current.get("sweep_overhead")
    ref_e2e = baseline.get("e2e", {}).get("vector_s")
    if cur_so and ref_e2e:
        # Absolute gate, not baseline-relative: the scheduler tax on a
        # fig6-sized batch must stay under SWEEP_OVERHEAD_FRACTION of
        # the cold quick fig6 e2e time.
        batch_s = cur_so["per_unit_us"] * 1e-6 * cur_so["units"]
        frac = batch_s / ref_e2e
        if frac > SWEEP_OVERHEAD_FRACTION:
            failures.append(
                f"fault-free run_units bookkeeping costs "
                f"{cur_so['per_unit_us']:.1f} us/unit "
                f"({frac:.1%} of the {ref_e2e:.2f}s cold fig6 e2e over "
                f"{cur_so['units']} units; limit "
                f"{SWEEP_OVERHEAD_FRACTION:.0%})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--user", type=int, default=4,
                        help="interactions per user-level app (default 4)")
    parser.add_argument("--os", dest="n_os", type=int, default=12,
                        help="interactions per OS-level app (default 12)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions; the best run is reported")
    parser.add_argument("--store", action="store_true",
                        help="also benchmark the persistent result store")
    parser.add_argument("--e2e", action="store_true",
                        help="also measure cold fig6 --quick end to end")
    parser.add_argument("--figscale", action="store_true",
                        help="also measure cold figscale --quick (vector)")
    parser.add_argument("--figattack", action="store_true",
                        help="also measure cold figattack --quick (vector)")
    parser.add_argument("--figpop", action="store_true",
                        help="also measure cold figpop --quick (vector)")
    parser.add_argument("--sweep-overhead", action="store_true",
                        help="also measure fault-free run_units scheduler "
                             "overhead per work unit")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write a machine-readable metrics snapshot here")
    parser.add_argument("--history", dest="history_path", default=None,
                        help="append a timestamped snapshot line (JSONL)")
    parser.add_argument("--check", dest="check_path", nargs="?", default=None,
                        const=str(Path(__file__).resolve().parent.parent
                                  / "BENCH_replay.json"),
                        help="fail if throughput or e2e regressed >25%% vs "
                             "this baseline (default: repo BENCH_replay.json)")
    args = parser.parse_args(argv)

    if args.check_path and not Path(args.check_path).exists():
        print(f"ERROR: no baseline at {args.check_path}", file=sys.stderr)
        return 1

    mix = build_mix(args.user, args.n_os)
    accesses = sum(len(tr) for _, traces in mix for tr in traces)
    events = sum(count_events(traces) for _, traces in mix)
    print(f"Fig. 6 mix: {len(mix)} process streams, "
          f"{accesses} accesses ({events} replay events)")

    timings = {}
    results = {}
    # Without compiled kernels the vector engine runs the scalar oracle.
    backend = "native" if native_available() else "scalar"
    for engine in ("scalar", "vector"):
        best = float("inf")
        for _ in range(max(1, args.repeats)):
            res, elapsed = replay_mix(engine, mix)
            best = min(best, elapsed)
        timings[engine] = best
        results[engine] = res
        print(f"  {engine:7s} {accesses / best / 1e6:6.2f} M accesses/s "
              f"({events / best / 1e6:5.2f} M events/s, {best * 1e3:6.1f} ms)"
              + (f"  [backend: {backend}]" if engine == "vector" else ""))

    if results["scalar"] != results["vector"]:
        bad = sum(a != b for a, b in zip(results["scalar"], results["vector"]))
        print(f"ERROR: engines disagree on {bad} of {len(results['scalar'])} "
              f"trace replays", file=sys.stderr)
        return 1

    speedup = timings["scalar"] / timings["vector"]
    print(f"  speedup {speedup:.2f}x (vector/{backend} over scalar); "
          f"counters identical across {len(results['scalar'])} replays")

    store_metrics = bench_store(args.user, args.n_os) if args.store else None

    snapshot = {
        "mix": {
            "user": args.user,
            "os": args.n_os,
            "streams": len(mix),
            "accesses": accesses,
            "events": events,
        },
        "backend": backend,
        "seconds": {engine: timings[engine] for engine in timings},
        "accesses_per_s": {
            engine: accesses / timings[engine] for engine in timings
        },
        "speedup": speedup,
    }
    if store_metrics is not None:
        snapshot["store"] = store_metrics

    if args.check_path:
        with open(args.check_path, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        if baseline.get("e2e") or args.e2e:
            snapshot["e2e"] = bench_e2e(repeats=2)
        if baseline.get("figscale_e2e") or args.figscale:
            snapshot["figscale_e2e"] = bench_figscale(repeats=2)
        if baseline.get("figattack_e2e") or args.figattack:
            snapshot["figattack_e2e"] = bench_figattack(repeats=2)
        if baseline.get("figpop_e2e") or args.figpop:
            snapshot["figpop_e2e"] = bench_figpop(repeats=2)
        if baseline.get("sweep_overhead") or args.sweep_overhead:
            snapshot["sweep_overhead"] = bench_sweep_overhead(repeats=2)
        if not baseline.get("e2e"):
            print("WARNING: baseline has no 'e2e' section — end-to-end "
                  "regressions are NOT guarded; refresh it with "
                  "run_tiers.py --bench", file=sys.stderr)
        if not baseline.get("figscale_e2e"):
            print("WARNING: baseline has no 'figscale_e2e' section — "
                  "trace-length e2e regressions are NOT guarded; refresh "
                  "it with run_tiers.py --bench", file=sys.stderr)
        if not baseline.get("figattack_e2e"):
            print("WARNING: baseline has no 'figattack_e2e' section — "
                  "attack-grid e2e regressions are NOT guarded; refresh "
                  "it with run_tiers.py --bench", file=sys.stderr)
        if not baseline.get("figpop_e2e"):
            print("WARNING: baseline has no 'figpop_e2e' section — "
                  "population e2e regressions are NOT guarded; refresh "
                  "it with run_tiers.py --bench", file=sys.stderr)
        if not baseline.get("sweep_overhead"):
            print("WARNING: baseline has no 'sweep_overhead' section — "
                  "run_units bookkeeping overhead is NOT guarded; refresh "
                  "it with run_tiers.py --bench", file=sys.stderr)
        if not baseline.get("accesses_per_s", {}).get("vector"):
            print("WARNING: baseline has no vector throughput — replay "
                  "regressions are NOT guarded", file=sys.stderr)
        failures = check_regressions(baseline, snapshot)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"  no perf regression vs {args.check_path} "
              f"(threshold {REGRESSION_THRESHOLD:.0%})")
    else:
        if args.e2e:
            snapshot["e2e"] = bench_e2e()
        if args.figscale:
            snapshot["figscale_e2e"] = bench_figscale()
        if args.figattack:
            snapshot["figattack_e2e"] = bench_figattack()
        if args.figpop:
            snapshot["figpop_e2e"] = bench_figpop()
        if args.sweep_overhead:
            snapshot["sweep_overhead"] = bench_sweep_overhead()

    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"  wrote {args.json_path}")
    if args.history_path:
        append_history(args.history_path, snapshot)
    return 0


if __name__ == "__main__":
    sys.exit(main())
