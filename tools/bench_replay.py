#!/usr/bin/env python
"""Replay-engine and figure-pipeline regression benchmark.

Every section is one row of :data:`SECTIONS`:

* ``replay`` (always run): the Figure 6 workload mix -- every
  application's secure and insecure per-interaction traces, OS apps
  weighted heavier exactly as the experiment harness weighs them --
  replayed one process stream at a time through ``run_trace_batched``
  (the call the figures make) on both engines of the evaluation
  machine.  Reports accesses/second and the vector/scalar speedup, and
  exits non-zero if the engines disagree on any counter, so the script
  doubles as a smoke check of the equivalence guarantee.
* ``store``: the Fig. 6 matrix against the persistent result store:
  cold (all misses), warm in memory, and warm from disk (memory layer
  dropped), with hit/miss counts.
* ``e2e``: cold ``fig6 --quick`` wall time on both engines.
* ``figscale_e2e``: cold ``figscale --quick`` wall time on the vector
  engine; its long-trace bundles stress an axis fig6 never reaches.
* ``sweep_overhead``: the fault-free per-unit scheduling tax of
  ``run_units`` (store scan, fault consults, retry bookkeeping) against
  a bare ``execute_unit`` loop.

Cold ``figattack`` and ``figpop`` wall times are the repo benchmark's
``attack`` and ``pop`` workloads (``perfbench/run.py``), so they are
not timed here.

``--all`` runs every section.  ``--json PATH`` snapshots the numbers
(``BENCH_replay.json`` at the repo root is the checked-in baseline) and
``--history PATH`` appends a timestamped snapshot line.  ``--check``
runs every gated section and exits non-zero if vector replay
throughput or a cold e2e time regressed more than 25% against the
baseline, or if the scheduling tax of a 36-unit batch exceeds 2% of
the baseline cold fig6 time.

Usage:
    PYTHONPATH=src python tools/bench_replay.py [--all] [--json PATH]
                                                [--history PATH]
                                                [--check [BASELINE]]
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Tuple

import numpy as np

from repro.arch.address import VirtualMemory
from repro.arch.hierarchy import MemoryHierarchy, ProcessContext
from repro.arch.native import native_available
from repro.config import SystemConfig
from repro.experiments import store as store_mod
from repro.experiments.reporting import print_stats
from repro.sim.bundle import clear_bundle_cache
from repro.workloads import APPS

#: Allowed relative regression before ``--check`` fails.
REGRESSION_THRESHOLD = 0.25

#: Max fraction of the cold quick fig6 e2e time the fault-free
#: retry/fault bookkeeping in ``run_units`` may cost: the robustness
#: layer must not tax the hot path.
SWEEP_OVERHEAD_FRACTION = 0.02

#: Interactions per user-level and per OS-level app in the replay mix.
MIX_USER, MIX_OS = 4, 12

#: Timed repetitions of the cheap sections and of each cold figure;
#: the best run is reported.
REPEATS, COLD_REPEATS = 3, 2


def build_mix():
    """One ``(addrs, writes, bounds)`` stream per process of the Fig. 6 apps."""
    rng = np.random.default_rng(0)
    mix = []
    for app in APPS:
        n = MIX_USER if app.level == "user" else MIX_OS
        for proc in app.processes():
            traces = [proc.interaction_trace(rng, i) for i in range(n)]
            bounds = np.cumsum([0] + [len(tr) for tr in traces]).tolist()
            mix.append((
                np.concatenate([tr.addrs for tr in traces]),
                np.concatenate([tr.writes for tr in traces]),
                bounds,
            ))
    return mix


def count_events(addrs, bounds, line_bytes: int) -> int:
    """Line-change events per segment (what the replay loop simulates)."""
    shift = line_bytes.bit_length() - 1
    events = 0
    for a, b in zip(bounds[:-1], bounds[1:]):
        vlines = addrs[a:b] >> shift
        if len(vlines):
            events += 1 + int(np.count_nonzero(vlines[1:] != vlines[:-1]))
    return events


def replay_mix(engine: str, mix):
    """Replay every stream in one hierarchy; returns (results, seconds)."""
    config = SystemConfig.evaluation().with_engine(engine)
    hier = MemoryHierarchy(config)
    vm = VirtualMemory("bench", hier.address_space, list(range(4)))
    ctx = ProcessContext(
        "bench", "secure", vm,
        cores=list(range(8)), slices=list(range(16)), controllers=[0, 1],
    )
    start = time.perf_counter()
    results = [
        res
        for addrs, writes, bounds in mix
        for res in hier.run_trace_batched(ctx, addrs, writes, bounds)
    ]
    return results, time.perf_counter() - start


def bench_replay() -> dict:
    """Scalar vs vector throughput over the mix, plus counter agreement."""
    mix = build_mix()
    line_bytes = SystemConfig.evaluation().line_bytes
    accesses = sum(len(addrs) for addrs, _, _ in mix)
    events = sum(count_events(addrs, bounds, line_bytes) for addrs, _, bounds in mix)
    print(f"Fig. 6 mix: {len(mix)} process streams, "
          f"{accesses} accesses ({events} replay events)")
    # Without compiled kernels the vector engine runs the scalar oracle.
    backend = "native" if native_available() else "scalar"
    seconds, results = {}, {}
    for engine in ("scalar", "vector"):
        runs = [replay_mix(engine, mix) for _ in range(REPEATS)]
        results[engine] = runs[0][0]
        seconds[engine] = min(elapsed for _, elapsed in runs)
        print(f"  {engine:7s} {accesses / seconds[engine] / 1e6:6.2f} M accesses/s "
              f"({events / seconds[engine] / 1e6:5.2f} M events/s, "
              f"{seconds[engine] * 1e3:6.1f} ms)"
              + (f"  [backend: {backend}]" if engine == "vector" else ""))
    mismatches = sum(a != b for a, b in zip(results["scalar"], results["vector"]))
    speedup = seconds["scalar"] / seconds["vector"]
    print(f"  speedup {speedup:.2f}x (vector/{backend} over scalar); "
          f"{mismatches} of {len(results['scalar'])} segment results disagree")
    return {
        "mix": {"user": MIX_USER, "os": MIX_OS, "streams": len(mix),
                "accesses": accesses, "events": events},
        "backend": backend,
        "seconds": seconds,
        "accesses_per_s": {e: accesses / s for e, s in seconds.items()},
        "speedup": speedup,
        "mismatches": mismatches,
    }


def bench_store() -> dict:
    """Cold / warm-memory / warm-disk result-store matrix timings."""
    from repro.experiments.runner import ExperimentSettings, run_matrix

    cache_dir = tempfile.mkdtemp(prefix="repro-store-bench-")
    machines = ("insecure", "mi6")
    out = {"matrix": f"{len(APPS)} apps x {machines}"}
    try:
        store = store_mod.get_store(cache_dir)
        for phase in ("cold", "warm-memory", "warm-disk"):
            if phase == "warm-disk":
                store.clear_memory()
            settings = ExperimentSettings(
                n_user=MIX_USER, n_os=MIX_OS, cache_dir=cache_dir
            )
            start = time.perf_counter()
            run_matrix(APPS, machines, settings, copy=False)
            out[phase + "_s"] = round(time.perf_counter() - start, 4)
        out.update(store.stats.as_dict())
        print_stats("  store", out)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return out


def bench_cold(figure: str, engines=("vector",)) -> dict:
    """Best cold ``<figure> --quick`` wall time per engine.

    Every run starts from scratch: interned result stores and the
    trace-bundle cache are dropped, and the quick settings carry a
    fresh calibration cache, so the time covers trace generation,
    calibration and replay, exactly what a cold CLI invocation pays.
    """
    from repro.experiments.fig6 import run_fig6
    from repro.experiments.figscale import QUICK_SCALES, run_figscale
    from repro.experiments.golden import quick_settings

    run = {
        "fig6": lambda s: run_fig6(s, verbose=False),
        "figscale": lambda s: run_figscale(s, scales=QUICK_SCALES, verbose=False),
    }[figure]
    out = {}
    for engine in engines:
        best = float("inf")
        for _ in range(COLD_REPEATS):
            store_mod.reset_stores()
            clear_bundle_cache()
            settings = quick_settings(engine)
            start = time.perf_counter()
            run(settings)
            best = min(best, time.perf_counter() - start)
        out[f"{engine}_s"] = round(best, 4)
        print(f"  e2e {figure} --quick cold [{engine:7s}] {best:6.2f} s")
    store_mod.reset_stores()
    clear_bundle_cache()
    if len(engines) > 1:
        out["speedup"] = out["scalar_s"] / out["vector_s"]
    return out


def bench_sweep_overhead() -> dict:
    """Fault-free scheduler overhead of ``run_units`` per work unit.

    Runs a batch of cheap routing units through the full ``run_units``
    scheduler (serial, memory-only, cold) and as a bare
    ``execute_unit`` loop; the difference is the tax the robustness
    layer adds.
    """
    from repro.experiments.runner import ExperimentSettings
    from repro.experiments.sweep import WorkUnit, execute_unit, run_units

    units = [
        WorkUnit("routing", variant=f"bench{i}", params=(2, 2))
        for i in range(36)
    ]
    best_sched = best_raw = float("inf")
    for _ in range(REPEATS):
        store_mod.reset_stores()
        start = time.perf_counter()
        run_units(units, ExperimentSettings(no_cache=True))
        best_sched = min(best_sched, time.perf_counter() - start)
        settings = ExperimentSettings(no_cache=True)
        start = time.perf_counter()
        for unit in units:
            execute_unit(unit, settings)
        best_raw = min(best_raw, time.perf_counter() - start)
    store_mod.reset_stores()
    overhead_s = max(0.0, best_sched - best_raw)
    per_unit_us = overhead_s / len(units) * 1e6
    print(f"  run_units overhead {per_unit_us:6.1f} us/unit "
          f"(sched {best_sched * 1e3:.1f} ms vs raw {best_raw * 1e3:.1f} ms, "
          f"{len(units)} units)")
    return {
        "units": len(units),
        "per_unit_us": round(per_unit_us, 2),
        "overhead_s": round(overhead_s, 6),
        "sched_s": round(best_sched, 4),
        "raw_s": round(best_raw, 4),
    }


def _value(snapshot: dict, path: Tuple[str, ...]) -> Optional[float]:
    """The number at ``path`` in a snapshot, or ``None`` if absent."""
    for key in path:
        snapshot = snapshot.get(key) if isinstance(snapshot, dict) else None
    return snapshot


@dataclass(frozen=True)
class Section:
    """One benchmark section and its ``--check`` gate.

    ``gated`` is the snapshot path of the gated number (empty: no gate,
    and the section only runs under ``--all``).  Its bound is the
    baseline's number at ``ref`` (default: ``gated`` itself) times
    ``factor``; ``higher_is_better`` says which side of the bound fails.
    """

    key: str
    label: str
    bench: Callable[[], dict]
    gated: Tuple[str, ...] = ()
    factor: float = 1.0 + REGRESSION_THRESHOLD
    higher_is_better: bool = False
    ref: Tuple[str, ...] = ()


SECTIONS = (
    Section("replay", "vector replay throughput (accesses/s)", bench_replay,
            ("replay", "accesses_per_s", "vector"),
            factor=1.0 - REGRESSION_THRESHOLD, higher_is_better=True),
    Section("store", "result store", bench_store),
    Section("e2e", "cold fig6 --quick e2e (s)",
            lambda: bench_cold("fig6", ("scalar", "vector")),
            ("e2e", "vector_s")),
    Section("figscale_e2e", "cold figscale --quick e2e (s)",
            lambda: bench_cold("figscale"), ("figscale_e2e", "vector_s")),
    # Absolute gate: the scheduler tax on a fig6-sized batch must stay
    # under a share of the baseline cold fig6 e2e time.
    Section("sweep_overhead", "run_units bookkeeping on 36 units (s)",
            bench_sweep_overhead, ("sweep_overhead", "overhead_s"),
            factor=SWEEP_OVERHEAD_FRACTION, ref=("e2e", "vector_s")),
)


def check_regressions(baseline: dict, snapshot: dict) -> "list[str]":
    """Failure strings for every gate the snapshot breaks (empty = pass).

    A gate whose bound the baseline cannot supply is reported as
    unguarded on stderr rather than silently passed.
    """
    failures = []
    for section in SECTIONS:
        if not section.gated:
            continue
        base = _value(baseline, section.ref or section.gated)
        value = _value(snapshot, section.gated)
        if base is None or value is None:
            print(f"WARNING: baseline has no '{section.key}' section; "
                  f"{section.label} is NOT guarded; refresh it with "
                  "run_tiers.py --bench", file=sys.stderr)
            continue
        bound = base * section.factor
        if value < bound if section.higher_is_better else value > bound:
            failures.append(
                f"{section.label} is {value:.4g}, past its limit {bound:.4g}"
            )
    return failures


def append_history(history_path: str, snapshot: dict) -> None:
    """Append one timestamped snapshot line (JSONL trajectory)."""
    line = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "model": store_mod.MODEL_VERSION,
        **snapshot,
    }
    with open(history_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"  appended snapshot to {history_path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--all", action="store_true",
                        help="run every section, not only the replay mix")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write a machine-readable metrics snapshot here")
    parser.add_argument("--history", dest="history_path", default=None,
                        help="append a timestamped snapshot line (JSONL)")
    parser.add_argument("--check", dest="check_path", nargs="?", default=None,
                        const=str(Path(__file__).resolve().parent.parent
                                  / "BENCH_replay.json"),
                        help="run every gated section and fail on a "
                             "regression vs this baseline (default: repo "
                             "BENCH_replay.json)")
    args = parser.parse_args(argv)

    baseline = None
    if args.check_path:
        if not Path(args.check_path).exists():
            print(f"ERROR: no baseline at {args.check_path}", file=sys.stderr)
            return 1
        with open(args.check_path, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)

    snapshot = {}
    for section in SECTIONS:
        if section.key == "replay" or args.all or (baseline and section.gated):
            snapshot[section.key] = section.bench()
            if section.key == "replay" and snapshot["replay"]["mismatches"]:
                print("ERROR: engines disagree on "
                      f"{snapshot['replay']['mismatches']} segment results",
                      file=sys.stderr)
                return 1

    if baseline is not None:
        failures = check_regressions(baseline, snapshot)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"  no perf regression vs {args.check_path} "
              f"(threshold {REGRESSION_THRESHOLD:.0%})")

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
