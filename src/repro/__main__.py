"""Command-line entry point: regenerate the paper's results.

    python -m repro fig1                 # Figure 1(a)
    python -m repro fig6 fig7            # several at once
    python -m repro all                  # every figure and table
    python -m repro fig8 --quick         # reduced interaction counts
    python -m repro figscale --quick     # overhead vs trace length
    python -m repro figattack --quick    # attack channels vs observation
    python -m repro figpop --quick       # population tail percentiles

On a multi-core host every figure runs through the vector engine and a
chunked process pool by default (``--jobs``/``--chunk``); ``--jobs 1``
restores the serial path with bit-identical output.  ``--plot-dir DIR``
additionally renders SVG charts for the figures that have plotters
(fig6, fig8, figscale, figattack, figpop); ``--check-golden`` verifies a quick
run against the pinned golden numbers (CI's scale smoke phase).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.experiments import (
    ExperimentSettings,
    run_fig1a,
    run_fig6,
    run_fig7,
    run_fig8,
    run_figattack,
    run_figpop,
    run_figscale,
    run_interactivity_table,
)
from repro.experiments.ablations import run_all_ablations
from repro.experiments.fig6 import plot_fig6
from repro.experiments.fig8 import plot_fig8
from repro.experiments import figattack as _figattack
from repro.experiments import figpop as _figpop
from repro.experiments.figattack import plot_figattack
from repro.experiments.figpop import plot_figpop
from repro.experiments.figscale import QUICK_SCALES, SCALES, plot_figscale
from repro.experiments.store import get_store
from repro.machines import MACHINES
from repro import faults as faults_mod

#: name -> driver(settings, quick, machines).  ``quick`` only matters
#: to drivers with their own quick-mode shape (figscale's reduced scale
#: grid); the interaction-count reduction itself rides in the settings.
#: ``machines`` (from ``--machines``) restricts the machine axis of the
#: drivers that have one; the paper figures ignore it.
EXPERIMENTS = {
    "fig1": lambda s, quick, machines: run_fig1a(s),
    "fig6": lambda s, quick, machines: run_fig6(s),
    "fig7": lambda s, quick, machines: run_fig7(s),
    "fig8": lambda s, quick, machines: run_fig8(s),
    "figscale": lambda s, quick, machines: run_figscale(
        s, scales=QUICK_SCALES if quick else SCALES, machines=machines
    ),
    "figattack": lambda s, quick, machines: run_figattack(
        s, scales=_figattack.QUICK_SCALES if quick else _figattack.SCALES,
        machines=machines,
    ),
    "figpop": lambda s, quick, machines: run_figpop(
        s, sizes=_figpop.QUICK_SIZES if quick else _figpop.SIZES,
        machines=machines,
    ),
    "tables": lambda s, quick, machines: run_interactivity_table(s),
    "ablations": lambda s, quick, machines: run_all_ablations(s),
}

#: Figures that can render themselves as SVG (``--plot-dir``).
PLOTTERS = {
    "fig6": plot_fig6,
    "fig8": plot_fig8,
    "figscale": plot_figscale,
    "figattack": plot_figattack,
    "figpop": plot_figpop,
}

#: Experiments whose quick payload is pinned in the golden file and can
#: be re-checked from the CLI: name -> payload extractor.
GOLDEN_PAYLOADS = {
    "figscale": lambda data: data.as_payload(),
    "figattack": lambda data: data.as_payload(),
    "figpop": lambda data: data.as_payload(),
}

GOLDEN_PATH = Path(__file__).resolve().parents[2] / "tests" / "golden" / "figures_quick.json"


def chunk_arg(value: str):
    """Parse/validate ``--chunk`` at argparse time.

    Returns ``"auto"`` or a positive int — exactly the values
    :func:`~repro.experiments.sweep.resolve_chunk` accepts — so a typo
    fails as a usage error instead of mid-experiment.
    """
    label = value.strip().lower()
    if label == "auto":
        return "auto"
    try:
        chunk = int(label)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None
    if chunk < 1:
        raise argparse.ArgumentTypeError(f"chunk size must be >= 1, got {chunk}")
    return chunk


def fault_arg(value: str) -> str:
    """Validate a ``--faults`` spec at argparse time.

    The real plan is built later (it folds in ``--seed`` and the cache
    directory's token dir); here the grammar and site names are checked
    so typos fail as usage errors instead of mid-sweep.
    """
    try:
        faults_mod.FaultPlan.parse(value, seed=0)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def default_jobs() -> int:
    """Pool width when ``--jobs`` is not given: one worker per core.

    Capped at 8 — the quick figure matrices stop scaling well before
    that, and wider pools just multiply fork + import cost.  Single-core
    hosts stay serial.
    """
    return min(8, os.cpu_count() or 1)


def check_golden(name: str, data, quick: bool) -> int:
    """Compare one experiment's payload against the golden file.

    Returns the number of mismatches (0 = bit-identical).  Used by the
    ``scale`` smoke phase in ``tools/run_tiers.py`` to prove a chunked
    pooled CLI run reproduces the serially-collected golden numbers.
    """
    if name not in GOLDEN_PAYLOADS:
        print(f"[check-golden: no pinned payload for {name}; skipped]")
        return 0
    if not quick:
        print(f"ERROR: --check-golden requires --quick ({name} goldens "
              "pin the quick settings)", file=sys.stderr)
        return 1
    if not GOLDEN_PATH.exists():
        print(f"ERROR: no golden file at {GOLDEN_PATH}", file=sys.stderr)
        return 1
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    if name not in golden:
        print(f"ERROR: golden file has no {name!r} section; refresh with "
              "tools/update_goldens.py", file=sys.stderr)
        return 1
    # Round-trip through JSON so floats compare via their canonical
    # shortest-repr doubles, exactly as the stored goldens do.
    measured = json.loads(json.dumps(GOLDEN_PAYLOADS[name](data)))
    if measured != golden[name]:
        print(f"ERROR: {name} output differs from the pinned golden "
              "numbers", file=sys.stderr)
        return 1
    print(f"[check-golden: {name} matches {GOLDEN_PATH.name}]")
    return 0


def main(argv=None) -> int:
    """Parse arguments, run the chosen experiments, report store stats."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate IRONHIDE (HPCA 2020) evaluation results.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which paper results to regenerate",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced interaction counts (faster, noisier)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--engine",
        choices=("scalar", "vector"),
        default="vector",
        help="trace-replay engine (identical results; vector is faster)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for experiment matrices "
             "(default: one per core, capped at 8; 1 = serial)",
    )
    parser.add_argument(
        "--chunk",
        type=chunk_arg,
        default="auto",
        help="work units per pool task: an integer or 'auto' (sized "
             "from the pending count; default)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persist completed runs here for cross-process reuse",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass result-store reads (fresh runs are still recorded)",
    )
    parser.add_argument(
        "--cache-max-mb",
        type=float,
        default=None,
        help="disk cap for --cache-dir; LRU entries are evicted on write",
    )
    parser.add_argument(
        "--plot-dir",
        default=None,
        help="render SVG charts here for figures with plotters "
             "(fig6, fig8, figscale, figattack, figpop)",
    )
    parser.add_argument(
        "--machines",
        nargs="+",
        choices=sorted(MACHINES),
        default=None,
        metavar="NAME",
        help="restrict figscale/figattack/figpop to these machines "
             f"(registry: {', '.join(MACHINES)}; default: all); "
             "note --check-golden pins the full grid",
    )
    parser.add_argument(
        "--check-golden",
        action="store_true",
        help="verify quick output against tests/golden/figures_quick.json "
             "(supported: figscale, figattack, figpop)",
    )
    parser.add_argument(
        "--faults",
        type=fault_arg,
        default=os.environ.get("REPRO_FAULTS") or None,
        metavar="SPEC",
        help="chaos testing: deterministic fault-injection plan, "
             "comma-separated site[:RATE[xCOUNT]] terms (sites: "
             + ", ".join(faults_mod.INJECTION_SITES) + "); also read "
             "from $REPRO_FAULTS; never enabled by default",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="emit a sweep heartbeat line to stderr per retry round "
             "(off by default; stdout is unchanged either way)",
    )
    args = parser.parse_args(argv)

    jobs = args.jobs if args.jobs is not None else default_jobs()
    settings = ExperimentSettings(
        seed=args.seed,
        jobs=jobs if jobs > 1 else None,
        chunk=args.chunk,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        cache_max_mb=args.cache_max_mb,
    )
    settings.config = settings.config.with_engine(args.engine)
    settings.progress = args.progress
    if args.faults:
        token_dir = (
            Path(args.cache_dir) / "fault-tokens" if args.cache_dir else None
        )
        settings.faults = faults_mod.FaultPlan.parse(
            args.faults, seed=args.seed, token_dir=token_dir
        )
        faults_mod.install(settings.faults)
        print(f"[faults: {settings.faults.describe()}]", file=sys.stderr)
    if args.quick:
        settings = settings.quickened(4)

    failures = 0
    chosen = sorted(EXPERIMENTS) if "all" in args.experiments else args.experiments
    for name in chosen:
        # Progress display only — never feeds a result or a cache key.
        start = time.time()  # repro: allow[determinism.banned-call]
        data = EXPERIMENTS[name](
            settings, args.quick, tuple(args.machines) if args.machines else None
        )
        print(f"[{name}: {time.time() - start:.1f}s]")  # repro: allow[determinism.banned-call]
        if args.plot_dir and name in PLOTTERS:
            plot_dir = Path(args.plot_dir)
            plot_dir.mkdir(parents=True, exist_ok=True)
            out = plot_dir / f"{name}.svg"
            PLOTTERS[name](data, out)
            print(f"[{name}: wrote {out}]")
        if args.check_golden:
            failures += check_golden(name, data, args.quick)
    if args.cache_dir:
        stats = get_store(args.cache_dir).stats
        print(
            f"[store: {stats.hits} hits ({stats.disk_hits} from disk), "
            f"{stats.misses} misses, {stats.writes} writes -> {args.cache_dir}]"
        )
        if stats.quarantined:
            print(
                f"[store: {stats.quarantined} corrupt entries quarantined "
                f"under {Path(args.cache_dir) / 'quarantine'}]",
                file=sys.stderr,
            )
    if args.faults:
        # Health goes to stderr like the heartbeat: golden stdout stays
        # byte-identical between faulted and fault-free runs.
        print(
            f"[sweep-health: {settings.sweep_health.describe()}]",
            file=sys.stderr,
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
