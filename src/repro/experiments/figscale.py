"""Security overhead vs interaction (trace) length.

The paper's central cost asymmetry — MI6 purges microarchitectural
state at **every** domain crossing while IRONHIDE pays one
reconfiguration — implies the overheads scale differently with the
amount of work done *between* crossings: a purge is (nearly) fixed per
interaction, so stretching each interaction's trace amortizes it,
whereas SGX's crossing tax and IRONHIDE's partitioning cost track the
work itself.  Related flush-based defenses report the same axis (SIMF
and fence.t characterize flush cost as a function of flush frequency
vs work-per-epoch).

This driver sweeps :attr:`~repro.workloads.base.AppSpec.trace_scale`
— the knob multiplying every process's per-interaction access count at
bundle-materialization time — over ~1–32x on the Fig. 6 application
mix for every registered machine, and reports completion time
normalized to the insecure baseline *at the same scale*.  The visible
result: the per-crossing flush machines (MI6, SIMF) amortize toward
the purge-free machines as interactions lengthen, fence.t.s's periodic
fence sits near SGX, and IRONHIDE stays flat.

Each (scale, app, machine) point is one scaled ``run``
:class:`~repro.experiments.sweep.WorkUnit`, so the whole figure shards
over the chunked process pool and persists to the result store (the
scale rides in the unit params and therefore in the store key).
Because the sweep's axis is accesses *per* interaction, the driver
trades interaction count for trace length: it divides the settings'
interaction counts by :data:`INTERACTION_DIVISOR`, keeping total
replay work linear in the scale grid rather than quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.reporting import geomean, print_table
from repro.experiments.runner import ExperimentSettings
from repro.experiments.sweep import run_unit, run_units
from repro.machines import MACHINES as MACHINE_REGISTRY
from repro.workloads import APPS, OS_APPS, USER_APPS

#: The full trace-length grid (multiples of each app's default
#: per-interaction access count).
SCALES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: The grid ``figscale --quick`` runs (golden-pinned on both engines).
QUICK_SCALES = (1.0, 2.0, 4.0, 8.0)

#: Machines normalized against the insecure baseline: every registered
#: machine except the baseline itself, in registry order.
MACHINES = tuple(m for m in MACHINE_REGISTRY if m != "insecure")

#: The sweep divides the settings' interaction counts by this factor:
#: the figure's axis is accesses *per* interaction, so fewer (longer)
#: interactions keep the total replay work proportional to
#: ``sum(scales)`` instead of ``n_interactions * sum(scales)``.
INTERACTION_DIVISOR = 8


@dataclass
class FigScaleData:
    """Normalized overhead per machine as traces lengthen.

    ``normalized[level][machine]`` is one geomean-normalized completion
    value per entry of ``scales`` (completion over the insecure
    baseline at the same scale), for ``level`` in ``user`` / ``os`` /
    ``all``.
    """

    scales: Tuple[float, ...]
    normalized: Dict[str, Dict[str, List[float]]]
    n_user: Optional[int]
    n_os: Optional[int]

    @property
    def mi6_amortization(self) -> float:
        """MI6's all-apps overhead at scale 1 over the longest scale.

        > 1 means lengthening interactions amortizes the per-crossing
        purges, pulling MI6 toward the purge-free machines.
        """
        series = self.normalized["all"]["mi6"]
        return series[0] / series[-1]

    @property
    def ironhide_drift(self) -> float:
        """IRONHIDE's overhead at the longest scale over scale 1.

        ~1 means the partitioning cost tracks the work itself: no
        per-crossing term to amortize.
        """
        series = self.normalized["all"]["ironhide"]
        return series[-1] / series[0]

    def as_payload(self) -> Dict:
        """JSON-ready dict (golden pinning, ``--check-golden``)."""
        return {
            "scales": [float(s) for s in self.scales],
            "normalized": {
                level: {m: [float(v) for v in series] for m, series in by_machine.items()}
                for level, by_machine in self.normalized.items()
            },
            "settings": {"n_user": self.n_user, "n_os": self.n_os},
        }


def figscale_settings(settings: ExperimentSettings) -> ExperimentSettings:
    """The derived settings the sweep actually runs with.

    Divides the interaction counts by :data:`INTERACTION_DIVISOR`
    (floored at 4 user / 8 OS interactions) while keeping every other
    knob — config, seed, caches, pool — untouched.  The derived counts
    enter the store key, so figscale results never collide with the
    default-count figure matrices.
    """
    return settings.quickened(INTERACTION_DIVISOR)


def run_figscale(
    settings: Optional[ExperimentSettings] = None,
    scales: Tuple[float, ...] = SCALES,
    verbose: bool = True,
    machines: Optional[Tuple[str, ...]] = None,
) -> FigScaleData:
    """Sweep ``trace_scale`` over ``scales`` for the whole app mix.

    Returns normalized (to insecure, per scale) geomean completion for
    every machine at user / OS / all level.  ``machines`` restricts the
    curve set (default: every registered machine); the insecure
    baseline is always run as the denominator.  The entire sweep is one
    batch of work units, so it shards over the process pool ``settings``
    configures and replays from a warm result store without a machine run.
    """
    settings = figscale_settings(settings or ExperimentSettings())
    curves = tuple(m for m in (machines or MACHINES) if m != "insecure")
    units = {
        (scale, app.name, machine): run_unit(app.name, machine, scale)
        for scale in scales
        for app in APPS
        for machine in ("insecure",) + curves
    }
    payloads = run_units(units.values(), settings, copy_results=False)

    normalized: Dict[str, Dict[str, List[float]]] = {
        level: {m: [] for m in curves}
        for level in ("user", "os", "all")
    }
    for scale in scales:
        ratios = {
            (app.name, m): (
                payloads[units[(scale, app.name, m)]].completion_cycles
                / payloads[units[(scale, app.name, "insecure")]].completion_cycles
            )
            for app in APPS
            for m in curves
        }
        for level, apps in (("user", USER_APPS), ("os", OS_APPS), ("all", APPS)):
            for m in curves:
                normalized[level][m].append(
                    geomean([ratios[(app.name, m)] for app in apps])
                )

    data = FigScaleData(
        scales=tuple(float(s) for s in scales),
        normalized=normalized,
        n_user=settings.n_user,
        n_os=settings.n_os,
    )
    if verbose:
        print_table(
            "Overhead vs interaction length (completion normalized to "
            "insecure at the same trace scale; all apps)",
            ["trace scale"] + [m.upper() for m in curves],
            [
                [f"{scale:g}x"] + [normalized["all"][m][i] for m in curves]
                for i, scale in enumerate(data.scales)
            ],
        )
        if "mi6" in curves and "ironhide" in curves:
            print(
                f"MI6 amortization {data.mi6_amortization:.2f}x from 1x to "
                f"{data.scales[-1]:g}x traces (per-crossing purges amortize); "
                f"IRONHIDE drift {data.ironhide_drift:.2f}x (no per-crossing term)"
            )
    return data


def plot_figscale(data: FigScaleData, out_path) -> None:
    """Render the all-apps normalized-overhead lines as SVG."""
    from repro.experiments.plotting import render_lines

    curves = list(data.normalized["all"])
    render_lines(
        out_path,
        "Security overhead vs interaction length (all apps)",
        "completion / insecure",
        [f"{s:g}x" for s in data.scales],
        {m: list(data.normalized["all"][m]) for m in curves},
        xlabel="trace scale (accesses per interaction, vs default)",
        series_order=curves,
    )
