"""Parallel scalability profiles for workload processes.

Interactive-application processes differ sharply in how they use cores:
GRAPH generation is embarrassingly parallel, while triangle counting
"incurs significant thread synchronization overheads, thus it is
allocated a small number of cores" (§V-C).  The profile combines an
Amdahl term with a synchronization overhead that grows with thread
count:

    time_factor(n) = (serial + (1 - serial) / n) * (1 + sync * (n - 1))

A process launched with more threads than its sweet spot gets *slower*;
machines therefore run each process at its preferred thread count within
the cores it was allocated (``best_factor``), which is also what makes
the core re-allocation predictor's trade-off real: cores beyond the
sweet spot only help through the L2 slices they bring along.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class ScalabilityProfile:
    """Amdahl + synchronization model of one process's parallelism."""

    serial_fraction: float = 0.05
    sync_coeff: float = 0.002

    def __post_init__(self) -> None:
        if not 0.0 <= self.serial_fraction <= 1.0:
            raise ValueError("serial_fraction must be within [0, 1]")
        if self.sync_coeff < 0.0:
            raise ValueError("sync_coeff must be non-negative")

    def time_factor(self, n_threads: int) -> float:
        """Execution-time multiplier relative to one thread."""
        if n_threads < 1:
            raise ValueError("thread count must be >= 1")
        s = self.serial_fraction
        amdahl = s + (1.0 - s) / n_threads
        return amdahl * (1.0 + self.sync_coeff * (n_threads - 1))

    @lru_cache(maxsize=512)
    def best_factor(self, max_threads: int) -> tuple:
        """(thread count, factor) minimizing time within ``max_threads``."""
        best_n = 1
        best_f = self.time_factor(1)
        for n in range(2, max_threads + 1):
            f = self.time_factor(n)
            if f < best_f:
                best_n, best_f = n, f
        return best_n, best_f

    def speedup(self, n_threads: int) -> float:
        return 1.0 / self.time_factor(n_threads)
