"""Figure 8: impact of core re-allocation predictor decisions.

The paper compares the geometric-mean completion time (across all
interactive applications) of the MI6 baseline against IRONHIDE driven
by: the gradient-based Heuristic (~2.1x better than MI6), an Optimal
exhaustive search (~2.3x), and fixed ±x% decision variations (x in
5..25: the secure cluster receives x% more or fewer cores than
Optimal).  The Heuristic lands within the ±5% band of Optimal.

The whole figure is expressed as one batch of work units — the MI6
baselines plus every (variant, app) IRONHIDE run — so it shards over
the process pool (``settings.jobs``) and replays from a warm result store
without a single machine run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.reporting import geomean, print_table
from repro.experiments.runner import ExperimentSettings
from repro.experiments.sweep import WorkUnit, predicted_unit, run_unit, run_units
from repro.workloads import APPS

VARIATION_PERCENTS = (5, 10, 15, 25)


@dataclass
class Fig8Data:
    """Geomean completion per predictor variant, normalized to MI6=100."""

    series: Dict[str, float]
    secure_cores: Dict[str, Dict[str, int]]  # variant -> app -> cores

    @property
    def heuristic_gain(self) -> float:
        """Geomean speedup of the heuristic over MI6 (paper ~2.1x)."""
        return 100.0 / self.series["heuristic"]

    @property
    def optimal_gain(self) -> float:
        """Geomean speedup of exhaustive search over MI6 (paper ~2.3x)."""
        return 100.0 / self.series["optimal"]


def _variant_units(percents) -> List[Tuple[str, WorkUnit]]:
    """(variant label, work unit) for every IRONHIDE run in the figure.

    The heuristic variant is the machine's default predictor, so it is
    expressed as a plain ``run`` unit and shares stored results with
    the Figure 1/6 matrices.
    """
    units = []
    specs = [("optimal", ("optimal",))]
    for pct in percents:
        specs.append((f"+{pct}%", ("fixed", pct)))
        specs.append((f"-{pct}%", ("fixed", -pct)))
    for app in APPS:
        units.append(("heuristic", run_unit(app.name, "ironhide")))
        for variant, spec in specs:
            units.append((variant, predicted_unit(app.name, variant, spec)))
    return units


def run_fig8(
    settings: Optional[ExperimentSettings] = None,
    verbose: bool = True,
    percents=VARIATION_PERCENTS,
) -> Fig8Data:
    """Run the predictor-variant sweep; returns the MI6=100 series.

    The sweep runs as ``settings`` says (pool size, chunking, cache
    reads), like every figure driver.
    """
    settings = settings or ExperimentSettings()
    variant_units = _variant_units(percents)
    mi6_units = {app.name: run_unit(app.name, "mi6") for app in APPS}
    batch = list(mi6_units.values()) + [unit for _, unit in variant_units]
    results = run_units(batch, settings, copy_results=False)

    order = ["heuristic", "optimal"] + [
        f"{s}{p}%" for p in percents for s in ("+", "-")
    ]
    series: Dict[str, float] = {"mi6": 100.0}
    cores: Dict[str, Dict[str, int]] = {}
    for variant in order:
        ratios = []
        cores[variant] = {}
        for (label, unit) in variant_units:
            if label != variant:
                continue
            result = results[unit]
            mi6 = results[mi6_units[unit.app]]
            ratios.append(result.completion_cycles / mi6.completion_cycles)
            cores[variant][unit.app] = result.secure_cores
        series[variant] = 100.0 * geomean(ratios)

    data = Fig8Data(series, cores)
    if verbose:
        print_table(
            "Figure 8: geomean completion vs MI6=100 (lower is better)",
            ["variant", "completion"],
            [[v, series[v]] for v in ["mi6"] + order if v in series],
            precision=1,
        )
        print(
            f"Heuristic gain {data.heuristic_gain:.2f}x (paper ~2.1x), "
            f"Optimal gain {data.optimal_gain:.2f}x (paper ~2.3x)"
        )
    return data


def plot_fig8(data: Fig8Data, out_path) -> None:
    """Render the predictor-variant completion bars as SVG."""
    from repro.experiments.plotting import render_grouped_bars

    variants = [v for v in data.series if v != "mi6"]
    render_grouped_bars(
        out_path,
        "Figure 8: geomean completion vs MI6 = 100 (lower is better)",
        "completion (MI6 = 100)",
        variants,
        {"ironhide": [data.series[v] for v in variants]},
        baseline=100.0,
        baseline_label="MI6 = 100",
    )
