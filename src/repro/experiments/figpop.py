"""Security overhead across a served user population (tail percentiles).

Every paper figure replays the fixed Fig. 6 mix, which answers "what
does isolation cost *this* workload" — a capacity-planning service
needs "what does it cost the *population*": thousands of users whose
app choice follows a Zipf popularity law and whose session length and
working-set scale vary per user (:mod:`repro.workloads.population`).
Means hide exactly what matters there.  The per-crossing flush
machines (MI6, SIMF) charge a near-fixed purge per interaction, so a
short-session small-working-set user pays proportionally far more than
the mean user — the overhead *distribution* grows a heavy tail — while
IRONHIDE's one-time partitioning cost tracks the work itself and stays
flat across the population.  This driver makes that visible: it sweeps
population size x Zipf skew x every registered machine and reports
**per-user overhead percentiles** (p50/p95/p99 across users, never
just means), normalized to the insecure baseline running the *same*
user's load.

Each distinct ``(app, trace_scale, interactions)`` tuple runs once per
machine as a ``run`` :class:`~repro.experiments.sweep.WorkUnit` with
the scale and session length in its params
(:func:`~repro.experiments.sweep.run_unit`), so the whole
figure shards over the chunked process pool and persists to the result
store, and the quantized sampler makes the unit count grow with the
distinct-tuple count, not the user count: population sizes are prefix
stable, so every size at a given skew replays the largest size's unit
set.  The quick grid is golden-pinned bit-exactly on both engines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.reporting import print_table
from repro.experiments.runner import ExperimentSettings
from repro.experiments.sweep import run_unit, run_units
from repro.machines import MACHINES as MACHINE_REGISTRY
from repro.workloads.population import (
    PopulationSpec,
    UserLoad,
    distinct_unit_tuples,
    sample_population,
)

#: The full population-size grid (users served).
SIZES = (64, 256, 1024)

#: The grid ``figpop --quick`` runs (golden-pinned on both engines).
QUICK_SIZES = (16, 64)

#: Zipf skews swept: a mild long-tail mix and a heavily concentrated
#: one (the regime where per-user tails separate the machines).
SKEWS = (0.6, 1.4)

#: Per-user overhead percentiles reported (across users, not means).
PERCENTILES = (50, 95, 99)

#: Machines normalized against the insecure baseline: every registered
#: machine except the baseline itself, in registry order.
MACHINES = tuple(m for m in MACHINE_REGISTRY if m != "insecure")


def skew_label(skew: float) -> str:
    """The payload/golden key for one skew value (``1.4`` -> ``"1.4"``)."""
    return f"{float(skew):g}"


def percentile_nearest_rank(values: List[float], pct: float) -> float:
    """Deterministic nearest-rank percentile (no interpolation).

    ``rank = max(1, ceil(pct/100 * n))`` over the sorted values — the
    classical definition, chosen over interpolating estimators because
    it returns an *observed* overhead bit-exactly reproducible across
    platforms, which is what golden pinning needs.
    """
    if not values:
        raise ValueError("percentile of empty population")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


@dataclass
class FigPopData:
    """Per-machine overhead percentiles across served populations.

    ``overheads[skew_label][machine][f"p{pct}"]`` is one per-user
    overhead percentile (completion over the insecure baseline running
    the same user's load) per entry of ``sizes``.
    ``distinct_units[skew_label]`` counts the deduplicated
    ``(app, scale, interactions)`` tuples behind each size — the
    cache-collapse ratio of the service.
    """

    sizes: Tuple[int, ...]
    skews: Tuple[float, ...]
    overheads: Dict[str, Dict[str, Dict[str, List[float]]]]
    distinct_units: Dict[str, List[int]]
    seed: int

    def series(self, skew: float, machine: str, pct: int) -> List[float]:
        """One machine's ``pct`` overhead percentile over the size grid."""
        return self.overheads[skew_label(skew)][machine][f"p{int(pct)}"]

    def tail_amplification(self, machine: str) -> float:
        """p99 over p50 at the largest size under the highest skew.

        ~1 means the machine costs every user alike; large means the
        population's short-session/small-footprint tail pays
        disproportionately.
        """
        skew = max(self.skews)
        return self.series(skew, machine, 99)[-1] / self.series(skew, machine, 50)[-1]

    @property
    def mi6_tail_amplification(self) -> float:
        """MI6's p99/p50 at the largest, most skewed population.

        > 1: the per-crossing purge is near-fixed per interaction, so
        the short-interactive tail of the population bears it hardest.
        """
        return self.tail_amplification("mi6")

    @property
    def ironhide_tail_amplification(self) -> float:
        """IRONHIDE's p99/p50 at the largest, most skewed population.

        ~1: partitioning cost tracks each user's own work, so the
        overhead distribution stays flat across the population.
        """
        return self.tail_amplification("ironhide")

    def as_payload(self) -> Dict:
        """JSON-ready dict (golden pinning, ``--check-golden``)."""
        return {
            "sizes": [int(s) for s in self.sizes],
            "skews": [float(s) for s in self.skews],
            "overheads": {
                label: {
                    m: {p: [float(v) for v in series] for p, series in by_pct.items()}
                    for m, by_pct in by_machine.items()
                }
                for label, by_machine in self.overheads.items()
            },
            "distinct_units": {
                label: [int(n) for n in counts]
                for label, counts in self.distinct_units.items()
            },
            "settings": {"seed": self.seed},
        }


def population_for(
    settings: ExperimentSettings, skew: float, size: int, spec: Optional[PopulationSpec] = None
) -> List[UserLoad]:
    """The population one figpop grid row serves.

    Centralized so the figure, the soak service loop, and the tests all
    sample the identical users for a given ``(settings.seed, skew,
    size)`` — bit-for-bit across processes, per the SeedSequence idiom.
    """
    if spec is None:
        spec = PopulationSpec(skew=float(skew))
    return sample_population(settings.seed, int(size), spec)


def run_figpop(
    settings: Optional[ExperimentSettings] = None,
    sizes: Tuple[int, ...] = SIZES,
    skews: Tuple[float, ...] = SKEWS,
    verbose: bool = True,
    machines: Optional[Tuple[str, ...]] = None,
) -> FigPopData:
    """Sweep population size x skew x machine; report tail percentiles.

    For every skew the driver samples the largest population once
    (smaller sizes are prefixes), collapses it onto distinct
    ``(app, scale, interactions)`` tuples, and runs each tuple once per
    machine (plus the insecure denominator) as a single batch of
    ``run`` work units — so the sweep shards over the process pool
    ``settings`` configures and replays from a warm result store without a single
    machine run.  Per-user overheads are then read off the tuple
    results and reduced to nearest-rank p50/p95/p99 per (size, skew,
    machine).  ``machines`` restricts the curve set (default: every
    registered machine).
    """
    settings = settings or ExperimentSettings()
    curves = tuple(m for m in (machines or MACHINES) if m != "insecure")
    largest = max(sizes)
    populations = {skew: population_for(settings, skew, largest) for skew in skews}

    units = {}
    for skew, users in populations.items():
        for tup in distinct_unit_tuples(users):
            app, scale, interactions = tup
            for machine in ("insecure",) + curves:
                units.setdefault(
                    (tup, machine), run_unit(app, machine, scale, interactions)
                )
    payloads = run_units(units.values(), settings, copy_results=False)

    def completion(tup, machine) -> float:
        return float(payloads[units[(tup, machine)]].completion_cycles)

    overheads: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
    distinct_counts: Dict[str, List[int]] = {}
    for skew in skews:
        label = skew_label(skew)
        users = populations[skew]
        overheads[label] = {
            m: {f"p{pct}": [] for pct in PERCENTILES} for m in curves
        }
        distinct_counts[label] = []
        for size in sizes:
            window = users[:size]
            distinct_counts[label].append(len(distinct_unit_tuples(window)))
            for m in curves:
                per_user = [
                    completion(u.unit_tuple(), m) / completion(u.unit_tuple(), "insecure")
                    for u in window
                ]
                for pct in PERCENTILES:
                    overheads[label][m][f"p{pct}"].append(
                        percentile_nearest_rank(per_user, pct)
                    )

    data = FigPopData(
        sizes=tuple(int(s) for s in sizes),
        skews=tuple(float(s) for s in skews),
        overheads=overheads,
        distinct_units=distinct_counts,
        seed=settings.seed,
    )
    if verbose:
        for skew in data.skews:
            print_table(
                f"Population overhead percentiles at skew {skew_label(skew)} "
                f"({data.sizes[-1]} users; completion / insecure per user)",
                ["machine"] + [f"p{pct}" for pct in PERCENTILES],
                [
                    [m.upper()]
                    + [data.series(skew, m, pct)[-1] for pct in PERCENTILES]
                    for m in curves
                ],
            )
        if "mi6" in curves and "ironhide" in curves:
            print(
                f"MI6 tail amplification {data.mi6_tail_amplification:.2f}x "
                f"(p99/p50, {data.sizes[-1]} users, skew "
                f"{skew_label(max(data.skews))}: short sessions bear the purge); "
                f"IRONHIDE {data.ironhide_tail_amplification:.2f}x (flat tail)"
            )
    return data


def plot_figpop(data: FigPopData, out_path) -> None:
    """Render per-skew p99 overhead curves vs population size as SVG."""
    from pathlib import Path

    from repro.experiments.plotting import (
        legend,
        line_panel,
        series_colors,
        svg_document,
    )

    first = data.overheads[skew_label(data.skews[0])]
    order = list(first)
    colors = series_colors(order)
    labels = [str(size) for size in data.sizes]
    width = 760
    panel_h = 140
    pitch = panel_h + 64
    parts: List[str] = []
    legend(parts, order, colors, width - 150, 18)
    for i, skew in enumerate(data.skews):
        line_panel(
            parts,
            f"p99 per-user overhead, Zipf skew {skew_label(skew)}",
            "completion / insecure",
            {m: list(data.series(skew, m, 99)) for m in order},
            labels,
            series_order=order,
            colors=colors,
            y0=48 + i * pitch,
            height=panel_h,
        )
    total_h = 48 + len(data.skews) * pitch
    parts.append(
        f'<text x="{64 + 640 / 2}" y="{total_h - 18}" fill="#6b7280" '
        f'font-size="10" text-anchor="middle">population size '
        f"(served users)</text>"
    )
    Path(out_path).write_text(svg_document(parts, width, total_h), encoding="utf-8")
