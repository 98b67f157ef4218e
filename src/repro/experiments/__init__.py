"""Experiment drivers regenerating the paper's figures and tables.

Each driver returns structured data and can print the same rows/series
the paper reports.  ``tests/test_experiments.py`` asserts the paper's
bands on them; ``examples/`` calls them interactively.
"""

from repro.experiments.fig1 import run_fig1a
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import run_fig8
from repro.experiments.figattack import run_figattack
from repro.experiments.figpop import run_figpop
from repro.experiments.figscale import run_figscale
from repro.experiments.runner import ExperimentSettings, run_matrix
from repro.experiments.store import ResultStore, get_store
from repro.experiments.sweep import WorkUnit, run_units
from repro.experiments.tables import run_interactivity_table

__all__ = [
    "run_fig1a",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_figattack",
    "run_figpop",
    "run_figscale",
    "run_interactivity_table",
    "ExperimentSettings",
    "run_matrix",
    "ResultStore",
    "get_store",
    "WorkUnit",
    "run_units",
]
