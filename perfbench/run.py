#!/usr/bin/env python3
"""Host-time benchmark of the quick figure sweeps, end to end and per layer.

    python3 perfbench/run.py --workload pop --seed 0 --seconds 20 --trace 0

Workloads (see README.md): ``pop`` is a cold ``figpop --quick``,
``attack`` a cold ``figattack --quick``, each in a fresh process with
an empty store directory; ``warm`` replays both quick grids from a
store populated before timing.  Every figure runs the CLI's default
vector engine serially (``--jobs 1``).

``--trace 0`` times untraced runs for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` runs traced and untraced runs side
by side and reports the per-layer metrics, the tracing overhead and the
spans file.  ``--seed`` picks the program seed (``worker.program_seed``:
0 stays 0, others map to a population of seed 0's size).  Every run's
figure payload is checked: against the goldens for seed 0, and for one
digest per figure and seed otherwise.  The last stdout line is one JSON
object; the exit code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKER = HERE / "worker.py"
REQUIRED = (ROOT / "src" / "repro" / "__init__.py", ROOT / "tests" / "golden" / "figures_quick.json")
#: The metric contract: which metrics the last output line carries.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = ("pop", "attack", "warm")

#: Set-up-only children started per run, on top of every run child.
SETUP_PROBES = 4
#: Budget for one benchmark run once the kernels are built.
RUN_BUDGET_S = 170.0
#: The first kernel build may take this long.
PREPARE_BUDGET_S = 850.0
#: Largest share of the traced wall time left outside every layer.
OTHER_LIMIT = 0.05

#: Counts the traced seed-0 runs must reproduce exactly.
PINNED = {
    "pop": {
        "machine.runs": 324, "plan.calls": 324, "epoch.calls": 2588,
        "bundle.calls": 756, "bundle.builds": 162, "run_trace.calls": 648,
        "purge.calls": 2318, "store.put.calls": 342,
    },
    "attack": {
        "sweep.units": 144, "run_trace.calls": 84568,
        "attack.evset.calls": 114, "attack.env.calls": 366,
    },
    "warm": {
        "sweep.units": 468, "store.get.calls": 468, "store.get.disk_hits": 468,
        "store.put.calls": 0, "machine.runs": 0, "run_trace.calls": 0,
    },
}


def unit_of(metric: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("ns_per_access", "ns"),
                         ("us_per_call", "us"), ("_ratio", "ratio"), ("_bytes", "bytes"),
                         ("_mb", "MB")):
        if metric.endswith(suffix):
            return unit
    return "count"


def is_count(metric: str) -> bool:
    return unit_of(metric) in ("count", "bytes")


class ChildError(RuntimeError):
    """A child process crashed, hung or printed no result."""


class Bench:
    """One benchmark run: spawns the children, checks and aggregates them."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = OUT / "work"
        self.deadline = None
        self.provenance = None
        self.program_seed = None
        self.setup = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        self._stores = 0

    # -- children ----------------------------------------------------

    def child(self, mode: str, workload: str, *extra: str, budget: float = None) -> dict:
        """Run ``worker.py mode ...``; returns its result plus ``setup_s``."""
        if budget is None:
            budget = max(5.0, self.deadline - perf_counter())
        seed = self.seed if self.program_seed is None else self.program_seed
        cmd = [sys.executable, str(WORKER), mode, "--workload", workload,
               "--seed", str(seed), *extra]
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        timer = threading.Timer(budget, proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        lines = rest.strip().splitlines()
        if ready.strip() != "READY" or code != 0 or not lines:
            raise ChildError(f"worker {mode} exited {code} without a result")
        result = json.loads(lines[-1])
        result["setup_s"] = setup_s
        if self.provenance is not None:
            for key in ("backend", "model"):
                if result[key] != self.provenance[key]:
                    raise ChildError(
                        f"refusing to compare: child {key} {result[key]!r} "
                        f"differs from {self.provenance[key]!r}"
                    )
        return result

    def fresh_store(self) -> Path:
        self._stores += 1
        return self.work / f"store-{self._stores}"

    def prepare(self) -> None:
        """Build the kernels (untimed) and fix the provenance of this run."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        result = self.child("prepare", self.workload, budget=PREPARE_BUDGET_S)
        self.deadline = perf_counter() + RUN_BUDGET_S
        self.program_seed = result["program_seed"]
        self.provenance = {
            "model": result["model"],
            "schema": result["schema"],
            "backend": result["backend"],
            "git_rev": git_revision(),
            "src_digest": source_digest(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "seed": self.seed,
            "program_seed": self.program_seed,
        }

    def probe_setup(self) -> None:
        for _ in range(SETUP_PROBES):
            self.setup.append(self.child("setup", self.workload)["setup_s"])

    def cold(self, workload: str, spans: Path = None) -> dict:
        """One cold figure run in a fresh process and store; checked and recorded."""
        store = self.fresh_store()
        extra = ["--store", str(store)]
        if spans is not None:
            extra += ["--spans", str(spans)]
        try:
            result = self.child("cold", workload, *extra)
        finally:
            shutil.rmtree(store, ignore_errors=True)
        self.check(result)
        if spans is None:
            self.setup.append(result["setup_s"])
        return result

    # -- checks ------------------------------------------------------

    def check(self, result: dict) -> None:
        """Count each figure call of ``result`` as attempted, failed or not."""
        for run in result["runs"]:
            for fig in run["figures"]:
                self.attempted += 1
                why = list(run["problems"])
                if fig["golden"] is False:
                    why.append("payload differs from tests/golden/figures_quick.json")
                first = self.digests.setdefault(fig["fig"], fig["digest"])
                if fig["digest"] != first:
                    why.append("payload digest differs between runs of this seed")
                if why:
                    self.failed += 1
                    self.problems.append(f"{fig['fig']}: " + "; ".join(why))

    def check_recorded_digests(self) -> None:
        """The same seed must give the same payload in every run, ever."""
        path = OUT / "digests.json"
        try:
            recorded = json.loads(path.read_text())
        except (OSError, ValueError):
            recorded = {}
        prov = self.provenance
        for fig, digest in self.digests.items():
            key = f"{prov['model']}|{prov['backend']}|{fig}|seed{self.program_seed}"
            if recorded.setdefault(key, digest) != digest:
                self.problems.append(f"{fig}: payload digest {digest[:12]} differs "
                                     f"from the one recorded for seed {self.program_seed}")
                self.failed += 1
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)

    def check_layers(self, runs: list) -> dict:
        """Counts repeat exactly, layers cover the wall time; returns the mean."""
        first = runs[0]
        for other in runs[1:]:
            for name, value in first.items():
                if is_count(name) and other[name] != value:
                    self.problems.append(f"count {name} differs between traced runs: "
                                         f"{value} vs {other[name]}")
        for run in runs:
            if abs(run["other.self_s"]) > OTHER_LIMIT * run["trace.wall_s"]:
                self.problems.append(
                    f"layers leave {run['other.self_s']:.3f}s of "
                    f"{run['trace.wall_s']:.3f}s traced wall time unaccounted")
        if self.seed == 0:
            for name, want in PINNED.get(self.workload, {}).items():
                if first[name] != want:
                    self.problems.append(f"pinned count {name} = {first[name]}, want {want}")
        return {name: statistics.fmean(run[name] for run in runs) for name in first}

    # -- workloads ---------------------------------------------------

    def populate(self) -> Path:
        """Fill one store with both quick grids, in parallel, before timing."""
        store = self.fresh_store()
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(self.child, "cold", workload, "--store", str(store))
                       for workload in ("pop", "attack")]
            results = [future.result() for future in futures]
        for result in results:
            self.check(result)
        return store

    def untraced(self) -> dict:
        self.probe_setup()
        if self.workload == "warm":
            store = self.populate()
            result = self.child("warm", "warm", "--store", str(store),
                                "--seconds", str(self.seconds))
            self.check(result)
            self.setup.append(result["setup_s"])
            passes = result["runs"]
            rss = [result["peak_rss_mb"]]
        else:
            passes, rss = [], []
            start = perf_counter()
            while not passes or perf_counter() - start < self.seconds:
                result = self.cold(self.workload)
                passes += result["runs"]
                rss.append(result["peak_rss_mb"])
        return {
            "wall_s": [p["wall_s"] for p in passes],
            "cpu_s": [p["cpu_s"] for p in passes],
            "setup_s": self.setup,
            "peak_rss_mb": rss,
        }

    def traced(self) -> dict:
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{self.workload}-seed{self.seed}"
        if self.workload == "warm":
            store = self.populate()
            spans = spans_dir / f"{stem}.jsonl.gz"
            result = self.child("warm", "warm", "--store", str(store), "--seconds",
                                str(self.seconds), "--spans", str(spans))
            self.check(result)
            traced = [p for p in result["runs"] if p["traced"]]
            plain = [p["wall_s"] for p in result["runs"] if not p["traced"]]
            span_count = result["spans"]
        else:
            # Traced, untraced, traced: the overhead is not skewed by drift.
            traced, plain, span_count = [], [], 0
            for i in range(3):
                if i == 1:
                    plain += [p["wall_s"] for p in self.cold(self.workload)["runs"]]
                    continue
                result = self.cold(self.workload, spans=spans_dir / f"{stem}-{i}.jsonl.gz")
                traced += result["runs"]
                span_count += result["spans"]
        layers = self.check_layers([p["layers"] for p in traced])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.fmean(plain)
        layers["trace.spans"] = span_count
        missing = {m["name"] for m in SPEC["per_layer"]} - set(layers)
        if missing:
            self.problems.append(f"per-layer metrics not measured: {sorted(missing)}")
        return layers


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """SHA-256 over the program sources and goldens (the checkout has no git)."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + [REQUIRED[1]]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a seed >= 0, got {value}")
    return value


def tail(values):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    q = (100 * (n - 10)) // n
    return q, sorted(values)[-(-q * n // 100) - 1]


def gated_value(workload: str, name: str, values: list) -> float:
    """The number a metric's bound applies to: the median of its samples.

    Warm passes are the exception.  They last 50-90 ms, while this
    kind of shared host switches between fast and up to 2x slower
    phases that last seconds, so the median pass tracks the phase mix
    of the run.  The best pass does not.
    """
    if workload == "warm" and name in ("wall_s", "cpu_s"):
        return min(values)
    return statistics.median(values)


def report(workload: str, samples: dict, failed_frac: float) -> dict:
    """Print every end-to-end metric; return the ones BENCHMARK.json gates."""
    gated = {m["name"] for m in SPEC["end_to_end"]}
    metrics = {}
    for name, values in samples.items():
        if name in gated:
            metrics[name] = {"value": gated_value(workload, name, values), "unit": unit_of(name)}
        t = tail(values)
        tail_text = f"p{t[0]} {t[1]:.4f}" if t else "tail n/a (<11 samples)"
        print(f"{workload:6s} {name:12s} median {statistics.median(values):10.4f} "
              f"best {min(values):10.4f} {unit_of(name):5s} {tail_text}  n={len(values)}")
    print(f"{workload:6s} {'failed_frac':12s} {failed_frac:.4f} ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=non_negative, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"perfbench: program files missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit so the finally blocks stop the children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT.mkdir(exist_ok=True)
    bench = Bench(args.workload, args.seed, args.seconds)
    samples = {}
    try:
        bench.prepare()
        samples = bench.traced() if args.trace else bench.untraced()
        bench.check_recorded_digests()
    except ChildError as exc:
        bench.attempted += 1
        bench.failed += 1
        bench.problems.append(str(exc))
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in samples.items()}
        for name, m in metrics.items():
            print(f"{args.workload:6s} {name:24s} {m['value']:16.6f} {m['unit']}")
    else:
        metrics = report(args.workload, samples, bench.failed / max(1, bench.attempted))
    correct = not bench.problems and bench.failed == 0
    for problem in bench.problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload, "trace": args.trace, "provenance": bench.provenance,
        "digests": bench.digests, "problems": bench.problems, "samples": samples,
    }
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, bench.attempted),
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
