"""One benchmark child process: set up, run figures, report one JSON line.

Started by ``run.py``, never by hand.  The child imports the program
from ``src/``, loads the compiled kernels and builds the CLI's quick
settings for the given seed, then prints ``READY`` (the parent times
interpreter start to this line as ``setup_s``).  It then runs its mode
and prints one JSON object as its last stdout line.

Modes:
  prepare  build the kernels if needed, report provenance and map the
           benchmark seed (``--seed``) to the program seed
  setup    stop after READY
  cold     one call of the ``--workload`` figure against ``--store``
  warm     replay both quick grids from a populated ``--store`` for
           ``--seconds``, dropping the store's memory layer per pass

Every other mode takes the program seed as ``--seed``.

``--spans PATH`` traces the figure calls (see ``tracer.py``) and
writes the spans there; warm passes then alternate traced and
untraced so the tracing overhead is measured in one process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import repro.__main__ as cli  # noqa: E402
from repro.arch.native import load_native  # noqa: E402
from repro.experiments import figpop  # noqa: E402
from repro.experiments import store as store_mod  # noqa: E402
from repro.experiments.golden import QUICK_FACTOR  # noqa: E402
from repro.experiments.runner import ExperimentSettings  # noqa: E402
from repro.sim.bundle import bundle_cache_bytes, bundle_rng  # noqa: E402
from repro.workloads import get_app  # noqa: E402
from repro.workloads.population import distinct_unit_tuples  # noqa: E402

#: The figures a workload runs, by CLI experiment name.
FIGURES = {"pop": ("figpop",), "attack": ("figattack",), "warm": ("figpop", "figattack")}

#: SweepHealth counters that must stay 0 in a fault-free serial run.
HEALTH_FAILURES = (
    "retries", "worker_crashes", "timeouts", "unit_failures",
    "recovered", "degraded", "exhausted",
)

#: Program seeds tried for benchmark seed ``b`` are ``b * SEED_STRIDE + j``.
SEED_STRIDE = 4096
#: How far a candidate's simulated access count may be from seed 0's.
SIZE_TOLERANCE = 0.03


def app_accesses(app_name: str) -> float:
    """Mean accesses of one secure plus one insecure interaction at scale 1."""
    total = 0
    for role, proc in zip(("secure", "insecure"), get_app(app_name).processes()):
        traces = proc.batch_traces(bundle_rng(app_name, role, 0, 0, 4, 1.0), 0, 4)
        total += sum(len(t) for t in traces) / 4
    return total


def grid_size(seed: int, accesses) -> tuple:
    """Distinct runs and estimated accesses of the quick figpop grid for ``seed``."""
    settings = ExperimentSettings(seed=seed)
    tuples = set()
    for skew in figpop.SKEWS:
        users = figpop.population_for(settings, skew, max(figpop.QUICK_SIZES))
        tuples.update(distinct_unit_tuples(users))
    return len(tuples), sum(accesses(app) * scale * n for app, scale, n in tuples)


def program_seed(bench_seed: int) -> int:
    """The program seed a benchmark seed stands for.

    The figpop population, and so the amount of work in every
    workload, depends on the seed: seeds 1-15 span 276 to 366 machine
    runs.  A benchmark seed therefore picks the first program seed in
    its own range whose quick grid has as many runs as seed 0's and
    simulated accesses within :data:`SIZE_TOLERANCE` of it, so times
    compare across seeds.  Seed 0 maps to itself, so the goldens apply.
    """
    if bench_seed == 0:
        return 0
    weights = {}

    def accesses(app):
        if app not in weights:
            weights[app] = app_accesses(app)
        return weights[app]

    ref_runs, ref_accesses = grid_size(0, accesses)
    for candidate in range(bench_seed * SEED_STRIDE, (bench_seed + 1) * SEED_STRIDE):
        runs, n = grid_size(candidate, accesses)
        if runs == ref_runs and abs(n / ref_accesses - 1) <= SIZE_TOLERANCE:
            return candidate
    raise RuntimeError(f"no program seed of seed 0's grid size for seed {bench_seed}")


def cli_settings(seed: int, store_dir) -> ExperimentSettings:
    """What ``python -m repro <fig> --quick --jobs 1 --seed S --cache-dir D`` builds."""
    settings = ExperimentSettings(seed=seed, jobs=None, chunk="auto", cache_dir=store_dir)
    settings.config = settings.config.with_engine("vector")
    settings.progress = False
    return settings.quickened(QUICK_FACTOR)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def payload_digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden(seed: int):
    """The pinned quick payloads; only seed 0 has them."""
    if seed != 0:
        return None
    with open(cli.GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_figure(fig: str, settings, golden) -> dict:
    """One figure call: timed, then checked the way ``--check-golden`` checks."""
    sink = io.StringIO()
    cpu0 = cpu_seconds()
    start = perf_counter()
    with contextlib.redirect_stdout(sink):
        data = cli.EXPERIMENTS[fig](settings, True, None)
    wall = perf_counter() - start
    cpu = cpu_seconds() - cpu0
    payload = json.loads(json.dumps(cli.GOLDEN_PAYLOADS[fig](data)))
    return {
        "fig": fig,
        "wall_s": wall,
        "cpu_s": cpu,
        "digest": payload_digest(payload),
        "golden": None if golden is None else payload == golden[fig],
    }


def sweep_problems(settings, store, warm: bool) -> list:
    problems = []
    health = settings.sweep_health.as_dict()
    for name in HEALTH_FAILURES:
        if health[name]:
            problems.append(f"sweep health {name}={health[name]}")
    stats = store.stats.as_dict()
    for name in ("invalid", "quarantined", "write_failures") + (("misses",) if warm else ()):
        if stats[name]:
            problems.append(f"store {name}={stats[name]}")
    return problems


def layer_metrics(tracer, wall: float, settings, store) -> dict:
    """Per-layer metrics of one traced run, from the tracer's aggregates."""
    from tracer import LAYERS

    calls, counts, self_s, incl = tracer.calls, tracer.counts, tracer.self_s, tracer.incl_s
    units = sorted(tracer.unit_ms)

    def pct(q):
        if not units:
            return 0.0
        return units[max(0, -(-q * len(units) // 100) - 1)]

    health = settings.sweep_health
    layer_total = sum(self_s[layer] for layer in LAYERS)
    bundle_calls = calls["bundle.interaction_bundle"]
    accesses = counts["replay.accesses"]
    rt_calls = calls["run_trace"]
    out = {
        "sweep.units": counts["sweep.units"],
        "sweep.self_s": self_s["sweep"],
        "sweep.unit_p50_ms": pct(50),
        "sweep.unit_p95_ms": pct(95),
        "sweep.retried": health.retries,
        "sweep.failed": health.unit_failures + health.worker_crashes
        + health.timeouts + health.exhausted,
        "store.get.calls": calls["store.get"],
        "store.get.disk_hits": counts["store.get.disk_hits"],
        "store.get.self_s": self_s["store.get"],
        "store.put.calls": calls["store.put"],
        "store.put.self_s": self_s["store.put"],
        "store.disk_bytes": store.disk_bytes(),
        "reduce.self_s": self_s["reduce"],
        "machine.runs": calls["machine.run"],
        "machine.build_s": self_s["machine.build"],
        "machine.run.self_s": self_s["machine.run"],
        "bundle.calls": bundle_calls,
        "bundle.builds": counts["bundle.builds"],
        "bundle.hit_ratio": 1.0 - counts["bundle.builds"] / bundle_calls if bundle_calls else 0.0,
        "bundle.self_s": self_s["bundle"],
        "bundle.cache_bytes": bundle_cache_bytes(),
        "plan.calls": calls["plan"],
        "plan.self_s": self_s["plan"],
        "epoch.calls": calls["epoch"],
        "epoch.self_s": self_s["epoch"],
        "replay.accesses": accesses,
        "replay.ns_per_access": (incl["plan"] + incl["epoch"]) / accesses * 1e9 if accesses else 0.0,
        "kernel.l1.calls": calls["kernel.l1"],
        "kernel.l1.self_s": self_s["kernel.l1"],
        "kernel.l2.calls": calls["kernel.l2.slice"] + calls["kernel.l2.multi"],
        "kernel.l2.self_s": self_s["kernel.l2"],
        "kernel.tlb.calls": calls["kernel.tlb"],
        "kernel.tlb.self_s": self_s["kernel.tlb"],
        "run_trace.calls": rt_calls,
        "run_trace.accesses": counts["run_trace.accesses"],
        "run_trace.self_s": self_s["run_trace"],
        "run_trace.us_per_call": incl["run_trace"] / rt_calls * 1e6 if rt_calls else 0.0,
        "calibrate.calls": calls["calibrate"],
        "calibrate.self_s": self_s["calibrate"],
        "purge.calls": calls["purge"],
        "purge.self_s": self_s["purge"],
        "ipc.calls": calls["ipc.plan_send"] + calls["ipc.plan_recv"] + calls["ipc.finish"],
        "ipc.self_s": self_s["ipc"],
        "attack.env.calls": calls["attack.env"],
        "attack.env.self_s": self_s["attack.env"],
        "attack.evset.calls": calls["attack.evset"],
        "attack.evset.self_s": self_s["attack.evset"],
        "attack.scenario.self_s": self_s["attack.scenario"],
        "other.self_s": wall - layer_total,
        "trace.wall_s": wall,
    }
    tracer.reset()
    return out


def run_pass(figs, seed, store_dir, golden, tracer, warm: bool) -> dict:
    """Run ``figs`` once with fresh settings; ``warm`` drops the store's memory first."""
    if warm:
        store_mod.reset_stores()
    settings = cli_settings(seed, store_dir)
    if tracer is not None:
        tracer.install()
    try:
        figures = [run_figure(fig, settings, golden) for fig in figs]
    finally:
        if tracer is not None:
            tracer.uninstall()
    store = store_mod.get_store(store_dir)
    wall = sum(f["wall_s"] for f in figures)
    record = {
        "wall_s": wall,
        "cpu_s": sum(f["cpu_s"] for f in figures),
        "figures": figures,
        "problems": sweep_problems(settings, store, warm),
        "traced": tracer is not None,
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, wall, settings, store)
        tracer.run_id += 1
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("prepare", "setup", "cold", "warm"))
    parser.add_argument("--workload", choices=sorted(FIGURES), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--store", default=None)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    backend = "native" if load_native() is not None else "python"
    cli_settings(args.seed, args.store)
    print("READY", flush=True)

    result = {"backend": backend, "model": store_mod.MODEL_VERSION, "runs": []}
    if args.mode == "prepare":
        result["schema"] = store_mod.SCHEMA_VERSION
        result["program_seed"] = program_seed(args.seed)
    if args.mode in ("prepare", "setup"):
        print(json.dumps(result))
        return 0

    tracer = None
    if args.spans:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
    golden = load_golden(args.seed)
    figs = FIGURES[args.workload]
    runs = result["runs"]
    if args.mode == "cold":
        runs.append(run_pass(figs, args.seed, args.store, golden, tracer, warm=False))
    # A traced warm run alternates traced and untraced passes: two traced
    # ones to compare counts, one untraced for the overhead, at least.
    deadline = perf_counter() + args.seconds
    min_passes = 1 if tracer is None else 3
    while args.mode == "warm" and (len(runs) < min_passes or perf_counter() < deadline):
        traced = tracer if len(runs) % 2 == 0 else None
        runs.append(run_pass(figs, args.seed, args.store, golden, traced, warm=True))
    if tracer is not None:
        result["spans"] = tracer.write_spans(args.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
