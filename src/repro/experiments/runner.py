"""Shared experiment plumbing: run app x machine matrices.

Three scaling features sit on top of the per-pair :func:`run_one`:

* **Result caching.**  Machine runs are deterministic given the app,
  machine, system configuration, interaction counts and seed, so
  :func:`run_matrix` memoizes completed runs in a
  :class:`~repro.experiments.store.ResultStore` keyed by exactly those
  inputs.  The store keeps an in-process memory layer and, when
  ``settings.cache_dir`` is set, persists results as content-addressed
  JSON files shared across processes and invocations.
  ``settings.no_cache`` bypasses reads (forcing recomputation) but
  still writes completed runs back.

* **Parallel execution.**  ``jobs=N`` fans the (app, machine) pairs out
  over a process pool; ``chunk`` batches whole groups of pairs per pool
  task so fork/pickle cost is amortized on wide matrices (``"auto"``
  sizes chunks from the pending count — see
  :func:`~repro.experiments.sweep.resolve_chunk`).  Workers ship back
  their predictor-calibration caches, which are merged into the
  caller's settings so subsequent serial runs stay warm.
  ``jobs=None``/``1`` keeps the serial path (the library default; the
  CLI turns the pool on whenever the host has more than one core).

* **Work units.**  The matrix is decomposed into
  :class:`~repro.experiments.sweep.WorkUnit`\\ s and driven through
  :func:`~repro.experiments.sweep.run_units`, the same sharded
  scheduler the figure drivers and ablations use — so a ``fig6`` run
  warms the store for ``fig1``, ``fig7`` and ``fig8``'s baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple, Union

from repro import faults as faults_mod
from repro.config import SystemConfig
from repro.experiments import store as store_mod
from repro.machines import build_machine
from repro.sim.stats import RunResult
from repro.workloads import APPS
from repro.workloads.base import AppSpec

DEFAULT_MACHINES = ("insecure", "sgx", "mi6", "ironhide")


def clear_result_cache() -> None:
    """Drop all in-memory memoized runs (tests and long-lived sessions).

    Disk-persisted entries survive; delete the cache directory to drop
    those too.
    """
    store_mod.clear_memory_caches()


def result_cache_size() -> int:
    """Entries in the default (memory-only) store."""
    return len(store_mod.get_store(None))


@dataclass
class ExperimentSettings:
    """Knobs shared by all experiment drivers.

    ``n_user`` / ``n_os`` override the per-app interaction counts so
    benchmarks can trade precision for runtime; ``None`` keeps each
    app's default.  ``cache_dir`` persists completed runs to disk for
    cross-process reuse; ``no_cache`` bypasses cache *reads* while
    still recording fresh results.
    """

    config: SystemConfig = field(default_factory=SystemConfig.evaluation)
    n_user: Optional[int] = None
    n_os: Optional[int] = None
    seed: int = 0
    calibration_cache: Dict = field(default_factory=dict)
    # Default worker count for run_matrix / run_units (None/1 = serial).
    jobs: Optional[int] = None
    # Units per pool task: an int, "auto", or None (one task per unit).
    chunk: Union[int, str, None] = None
    # Disk persistence for the result store (None = memory only).
    cache_dir: Optional[str] = None
    # Bypass store reads (still writes completed runs back).
    no_cache: bool = False
    # Disk size cap in MB for the result store (None = unbounded);
    # least-recently-used entries are evicted on write.
    cache_max_mb: Optional[float] = None
    # Deterministic fault-injection plan (chaos/test runs only; None in
    # production).  Ships to pool workers inside the pickled settings.
    faults: Optional[faults_mod.FaultPlan] = None
    # Opt-in liveness heartbeat from run_units to stderr.
    progress: bool = False
    # Fault-tolerance accounting, accumulated across every sweep run
    # under these settings (like calibration_cache, it is shared state).
    sweep_health: faults_mod.SweepHealth = field(
        default_factory=faults_mod.SweepHealth
    )

    @property
    def cache_max_bytes(self) -> Optional[int]:
        """``cache_max_mb`` converted to bytes (``None`` = unbounded)."""
        if self.cache_max_mb is None:
            return None
        return int(self.cache_max_mb * 1024 * 1024)

    def interactions_for(self, app: AppSpec) -> Optional[int]:
        """The override count for ``app``'s level (``None`` = default)."""
        return self.n_user if app.level == "user" else self.n_os

    def quickened(self, factor: int) -> "ExperimentSettings":
        """A faster variant dividing the interaction counts by ``factor``.

        Counts already set on this settings object are divided in place
        of the app defaults — quickening a benchmark-scale settings
        object must not silently restore full-length runs.
        """
        base_user = self.n_user
        if base_user is None:
            base_user = next(a.n_interactions for a in APPS if a.level == "user")
        base_os = self.n_os
        if base_os is None:
            base_os = next(a.n_interactions for a in APPS if a.level == "os")
        return ExperimentSettings(
            config=self.config,
            n_user=max(4, base_user // factor),
            n_os=max(8, base_os // factor),
            seed=self.seed,
            calibration_cache=self.calibration_cache,
            jobs=self.jobs,
            chunk=self.chunk,
            cache_dir=self.cache_dir,
            no_cache=self.no_cache,
            cache_max_mb=self.cache_max_mb,
            faults=self.faults,
            progress=self.progress,
            sweep_health=self.sweep_health,
        )

    def cache_key(self, app: AppSpec, machine_name: str) -> Tuple:
        """Memoization key for one (app, machine) run under these knobs.

        Matches the key :func:`~repro.experiments.sweep.unit_cache_key`
        derives for the equivalent default ``run`` work unit, so direct
        callers and the sweep scheduler share stored results.
        """
        from repro.experiments.sweep import run_unit, unit_cache_key

        return unit_cache_key(run_unit(app.name, machine_name), self)


def run_one(
    app: AppSpec, machine_name: str, settings: ExperimentSettings, **machine_kwargs
) -> RunResult:
    """Run one app on a freshly built machine.

    IRONHIDE machines additionally get the settings' predictor
    calibration cache and the settings' result store (for memoized
    calibration probe curves, honouring ``no_cache`` for reads) unless
    the caller overrides them.
    """
    if machine_name == "ironhide":
        if "calibration_cache" not in machine_kwargs:
            machine_kwargs["calibration_cache"] = settings.calibration_cache
        if "probe_store" not in machine_kwargs:
            machine_kwargs["probe_store"] = store_mod.get_store(
                settings.cache_dir, max_bytes=settings.cache_max_bytes
            )
            machine_kwargs["probe_store_read"] = not settings.no_cache
    machine = build_machine(machine_name, settings.config, **machine_kwargs)
    return machine.run(
        app, n_interactions=settings.interactions_for(app), seed=settings.seed
    )


def run_matrix(
    apps: Optional[Iterable[AppSpec]] = None,
    machines: Iterable[str] = DEFAULT_MACHINES,
    settings: Optional[ExperimentSettings] = None,
    jobs: Optional[int] = None,
    cache: bool = True,
    copy: bool = True,
    chunk: Union[int, str, None] = None,
) -> Dict[Tuple[str, str], RunResult]:
    """Run every (app, machine) pair; returns results keyed by names.

    ``jobs`` > 1 distributes the pairs over a process pool; ``chunk``
    batches pairs per pool task (an int, ``"auto"``, or ``None`` for
    ``settings.chunk`` / per-unit tasks).  ``cache=False`` (like
    ``settings.no_cache``) bypasses store *reads*, forcing
    recomputation; completed runs are still written back so later
    cached callers benefit.  ``copy=False`` skips the defensive deep
    copy of store hits — for read-only callers like the figure
    drivers, which immediately reduce the results without mutating
    them.
    """
    from repro.experiments.sweep import run_unit, run_units

    settings = settings or ExperimentSettings()
    apps = list(apps) if apps is not None else list(APPS)
    machines = tuple(machines)
    units = [
        run_unit(app.name, machine_name)
        for app in apps
        for machine_name in machines
    ]
    payloads = run_units(
        units, settings, jobs=jobs, cache=cache, copy_results=copy, chunk=chunk
    )
    return {(unit.app, unit.machine): payloads[unit] for unit in units}
