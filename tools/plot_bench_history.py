#!/usr/bin/env python
"""Render the BENCH_history.jsonl perf trajectory to SVG.

Reads the append-only snapshot lines that ``run_tiers.py --bench``
accumulates (see docs/benchmarking.md for the schema) and draws three
stacked panels over snapshot index:

* replay throughput (M accesses/s), scalar vs vector;
* cold ``fig6 --quick`` end-to-end seconds, scalar vs vector;
* cold ``figscale --quick`` end-to-end seconds (vector), when
  snapshots carry the ``figscale_e2e`` section.

The measures have different units, so each gets its own panel with one
y-axis (never a dual-axis chart).  The SVG backend is the shared
dependency-free helper module ``src/repro/experiments/plotting.py`` —
the same palette and panel renderer the fig6/fig8/figscale charts use.

Usage:
    python tools/plot_bench_history.py
        [--history BENCH_history.jsonl] [--out BENCH_history.svg]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.experiments.plotting import (  # noqa: E402 (path bootstrap above)
    ENGINE_COLORS,
    TEXT,
    legend,
    line_panel,
    svg_document,
)

PANEL_H, PANEL_GAP, TOP = 170, 64, 48


def load_history(path: Path) -> list:
    """Parse the JSONL trajectory; skips blank/corrupt lines loudly."""
    snapshots = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                snapshots.append(json.loads(line))
            except ValueError:
                print(f"WARNING: skipping corrupt line {lineno}", file=sys.stderr)
    return snapshots


def extract_series(snapshots: list) -> dict:
    """Per-engine throughput and e2e series (None where not measured)."""
    series = {
        "throughput": {"vector": [], "scalar": []},
        "e2e": {"vector": [], "scalar": []},
        "figscale": {"vector": []},
        "labels": [],
    }
    for snap in snapshots:
        ts = snap.get("timestamp", "")
        series["labels"].append(ts.split("T")[0] if ts else "?")
        # Replay numbers sit under "replay"; older lines kept them at the top.
        tp = snap.get("replay", snap).get("accesses_per_s", {})
        e2e = snap.get("e2e", {})
        for engine in ("vector", "scalar"):
            val = tp.get(engine)
            series["throughput"][engine].append(
                val / 1e6 if val is not None else None
            )
            series["e2e"][engine].append(e2e.get(f"{engine}_s"))
        series["figscale"]["vector"].append(
            snap.get("figscale_e2e", {}).get("vector_s")
        )
    return series


def render_svg(series: dict, out_path: Path) -> None:
    """Write the stacked panels through the shared SVG helpers."""
    labels = series["labels"]
    panels = [
        ("Replay throughput (Fig. 6 mix)", "M accesses/s", series["throughput"]),
        ("Cold fig6 --quick end to end", "seconds", series["e2e"]),
        ("Cold figscale --quick end to end", "seconds", series["figscale"]),
    ]
    panels = [p for p in panels if any(
        v is not None for vals in p[2].values() for v in vals
    )]
    height = TOP + len(panels) * (PANEL_H + PANEL_GAP)
    parts = [
        f'<text x="64" y="24" fill="{TEXT}" font-size="15" '
        f'font-weight="700">Replay benchmark history</text>',
    ]
    legend(parts, ["vector", "scalar"], ENGINE_COLORS, 64 + 640 - 150, 18)
    for i, (title, unit, data) in enumerate(panels):
        line_panel(
            parts, title, unit, data, labels,
            y0=TOP + i * (PANEL_H + PANEL_GAP), height=PANEL_H,
            colors=ENGINE_COLORS,
        )
    out_path.write_text(svg_document(parts, 760, height), encoding="utf-8")


def main(argv=None) -> int:
    """CLI entry point: load the history, render the SVG."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--history", type=Path,
                        default=REPO / "BENCH_history.jsonl")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default BENCH_history.svg)")
    args = parser.parse_args(argv)

    if not args.history.exists():
        print(f"ERROR: no history at {args.history}; run "
              "`python tools/run_tiers.py --bench` first", file=sys.stderr)
        return 1
    snapshots = load_history(args.history)
    if not snapshots:
        print("ERROR: history is empty", file=sys.stderr)
        return 1
    series = extract_series(snapshots)

    out = args.out or (REPO / "BENCH_history.svg")
    render_svg(series, out)
    print(f"wrote {out} ({len(snapshots)} snapshots)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
