"""Attack-channel quality vs observation (trace) length.

The paper argues its security case qualitatively (§III): temporal
sharing leaves microarchitectural channels open, MI6's purges and
IRONHIDE's spatial partitioning close them.  This driver makes the
case *quantitative and scaling*: every attack harness runs as a grid
of (attack kind x isolation model x trace scale) scenarios, where the
scale multiplies the attacker's observation budget (trials, bits,
packets).  A real channel's bit-error rate stays pinned near zero as
transmissions lengthen, while a severed channel hovers at chance no
matter how long the attacker listens — so the curves separate the
models far more sharply than any single-point number.

Two grid rows go beyond the paper's evaluation (see
:mod:`repro.attacks.scenarios`): a Shield-Bash-style purge-*timing*
channel that leaks through MI6's own defense mechanism (and SIMF's —
any policy that drains the controllers at crossings), and a
NoC-contention covert channel that generalizes the network probe.
IRONHIDE is the only model that closes both; the temporal machines
sever spectre at their flush boundaries but leave the shared-cache and
NoC channels open, exactly as the paper's taxonomy predicts.

Each grid point is one ``attack`` :class:`~repro.experiments.sweep.WorkUnit`,
so the whole figure shards over the chunked process pool and persists
to the result store exactly like the performance figures — the scale
rides in the unit params, the seed and config hash in the key tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.attacks.environment import ISOLATION_MODELS
from repro.attacks.scenarios import ATTACK_KINDS
from repro.experiments.reporting import print_table
from repro.experiments.runner import ExperimentSettings
from repro.experiments.sweep import attack_unit, run_units

#: The full observation-budget grid (multiples of each attack kind's
#: base trial/bit/packet count).
SCALES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: The grid ``figattack --quick`` runs (golden-pinned on both engines).
QUICK_SCALES = (1.0, 2.0, 4.0, 8.0)

#: Isolation models attacked: every registered machine, registry order.
MACHINES = ISOLATION_MODELS

#: Attack kinds on the grid, in presentation order.
ATTACKS = ATTACK_KINDS

#: The headline per-point metric of each attack kind (what the curves
#: and the summary table show).
HEADLINE_METRIC = {
    "prime_probe": "error_rate",
    "covert": "ber",
    "noc_probe": "transits_per_packet",
    "spectre": "leak_rate",
    "purge_timing": "ber",
    "noc_covert": "ber",
}

#: The covert channels whose bit-error-rate curves the figure plots.
_BER_PANELS = (
    ("covert", "Cache covert channel (bit-error rate)"),
    ("purge_timing", "Purge-timing channel, beyond paper (bit-error rate)"),
    ("noc_covert", "NoC-contention channel, beyond paper (bit-error rate)"),
)


@dataclass
class FigAttackData:
    """Per-point attack payloads over the whole grid.

    ``results[kind][machine]`` is one scenario payload dict per entry
    of ``scales`` (the dicts are exactly what
    :func:`~repro.attacks.scenarios.run_attack_scenario` returned, so
    they round-trip the result store bit-exactly).
    """

    scales: Tuple[float, ...]
    results: Dict[str, Dict[str, List[Dict]]]
    seed: int

    def metric_series(self, kind: str, machine: str) -> List[float]:
        """The kind's headline metric over the scale grid."""
        key = HEADLINE_METRIC[kind]
        return [float(p[key]) for p in self.results[kind][machine]]

    @property
    def mi6_purge_channel_ber(self) -> float:
        """Purge-timing BER on MI6 at the longest observation.

        Near zero means the purge itself carries bits: the defining
        beyond-paper result (MI6's defense opens a channel IRONHIDE
        structurally lacks).
        """
        return self.metric_series("purge_timing", "mi6")[-1]

    @property
    def ironhide_channel_floor(self) -> float:
        """IRONHIDE's best (lowest) covert-channel BER at the longest scale.

        Chance-level (~0.5) means every modulated channel on the grid
        stays severed no matter how long the attacker observes.
        """
        return min(
            self.metric_series(kind, "ironhide")[-1]
            for kind, _ in _BER_PANELS
        )

    def as_payload(self) -> Dict:
        """JSON-ready dict (golden pinning, ``--check-golden``)."""
        return {
            "scales": [float(s) for s in self.scales],
            "results": {
                kind: {m: [dict(p) for p in series] for m, series in by_machine.items()}
                for kind, by_machine in self.results.items()
            },
            "settings": {"seed": self.seed},
        }


def run_figattack(
    settings: Optional[ExperimentSettings] = None,
    scales: Tuple[float, ...] = SCALES,
    verbose: bool = True,
    machines: Optional[Tuple[str, ...]] = None,
) -> FigAttackData:
    """Run the full attack grid and collect every scenario payload.

    One work unit per (kind, machine, scale) point — ``machines``
    restricts the model axis (default: every registered machine); the
    batch shards over the process pool ``settings`` configures and
    replays from a warm result store without mounting a single attack.
    """
    settings = settings or ExperimentSettings()
    models = tuple(machines or MACHINES)
    units = {
        (kind, machine, scale): attack_unit(kind, machine, scale)
        for kind in ATTACKS
        for machine in models
        for scale in scales
    }
    payloads = run_units(units.values(), settings, copy_results=False)

    results: Dict[str, Dict[str, List[Dict]]] = {
        kind: {
            machine: [payloads[units[(kind, machine, scale)]] for scale in scales]
            for machine in models
        }
        for kind in ATTACKS
    }
    data = FigAttackData(
        scales=tuple(float(s) for s in scales),
        results=results,
        seed=settings.seed,
    )
    if verbose:
        print_table(
            "Attack channels at the longest observation "
            f"({data.scales[-1]:g}x budget; headline metric per kind)",
            ["attack"] + [m.upper() for m in models],
            [
                [f"{kind} ({HEADLINE_METRIC[kind]})"]
                + [data.metric_series(kind, m)[-1] for m in models]
                for kind in ATTACKS
            ],
        )
        if "mi6" in models and "ironhide" in models:
            print(
                f"MI6 purge-timing BER {data.mi6_purge_channel_ber:.3f} at "
                f"{data.scales[-1]:g}x (the purge itself leaks); IRONHIDE channel "
                f"floor {data.ironhide_channel_floor:.3f} (chance-level everywhere)"
            )
    return data


def plot_figattack(data: FigAttackData, out_path) -> None:
    """Render the covert-channel BER curves (one panel per channel)."""
    from pathlib import Path

    from repro.experiments.plotting import (
        legend,
        line_panel,
        series_colors,
        svg_document,
    )

    order = list(data.results[_BER_PANELS[0][0]])
    colors = series_colors(order)
    labels = [f"{s:g}x" for s in data.scales]
    width = 760
    panel_h = 140
    pitch = panel_h + 64
    parts: List[str] = []
    legend(parts, order, colors, width - 150, 18)
    for i, (kind, title) in enumerate(_BER_PANELS):
        line_panel(
            parts,
            title,
            "bit-error rate",
            {m: data.metric_series(kind, m) for m in order},
            labels,
            series_order=order,
            colors=colors,
            y0=48 + i * pitch,
            height=panel_h,
        )
    total_h = 48 + len(_BER_PANELS) * pitch
    parts.append(
        f'<text x="{64 + 640 / 2}" y="{total_h - 18}" fill="#6b7280" '
        f'font-size="10" text-anchor="middle">observation budget '
        f"(trials/bits/packets, vs default)</text>"
    )
    Path(out_path).write_text(svg_document(parts, width, total_h), encoding="utf-8")
