"""Sharded sweep scheduler: declarative work units over the run store.

Every figure driver and ablation decomposes into :class:`WorkUnit`\\ s —
small, hashable, picklable descriptions of one deterministic piece of
work (one (app, machine) run, one predictor-variant run, one ablation
measurement).  :func:`run_units` drives a batch of units through the
persistent :mod:`~repro.experiments.store`:

* units whose key is already stored are returned without running;
* the rest execute serially or, with ``settings.jobs`` > 1, fan out
  over a ``ProcessPoolExecutor`` in chunks of units, in either case
  producing identical results (units are independent and results are
  keyed by unit, not by completion order);
* fresh results are written back to the store — even under
  ``no_cache``, which only bypasses *reads* — so a warm cache directory
  lets a second invocation of any figure complete without a single
  machine run.

Every sweep input — ``jobs``, ``chunk``, ``no_cache``, ``config`` —
comes from the :class:`~repro.experiments.runner.ExperimentSettings`
the caller passes; no driver takes a per-call override.

**Chunked pool tasks.**  Each pool task is one chunk of units:
``settings.chunk`` is an integer size or ``"auto"``
(:func:`resolve_chunk` sizes ``"auto"`` chunks from the pending count
and worker count), amortizing the fork + settings pickle over the
chunk.  Each chunk worker executes its units in order and, when a cache
directory is configured, writes every result straight through the
shared store directory (atomic write-then-rename, so concurrent writers
keep the store valid) and re-checks the directory before executing a
unit, skipping work a sibling process already persisted.  Pooled and
serial execution are bit-identical: results are keyed by unit, never
by completion order or worker identity.

New unit kinds register an executor with :func:`unit_runner`; executors
are plain module-level functions so units stay picklable for the pool.
"""

from __future__ import annotations

import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import wait as _futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro import faults as faults_mod
from repro.errors import InjectedFault, SweepExecutionError
from repro.experiments import runner as _runner
from repro.experiments.store import ResultStore, get_store
from repro.machines import MACHINES, machine_policy
from repro.workloads import get_app

#: ``"auto"`` chunking targets this many chunks per pool worker: big
#: enough chunks to amortize fork/pickle cost, small enough that a slow
#: chunk cannot leave the other workers idle for long.
AUTO_CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class RetryPolicy:
    """How :func:`run_units` reacts to pool task failures.

    ``max_attempts`` is the per-unit pool attempt budget (the
    in-process serial fallback afterwards is extra); backoff between
    retry rounds is ``base * 2**round`` capped at ``backoff_cap_s``,
    with deterministic jitter derived from the sweep seed.
    ``unit_timeout_s`` (off by default) bounds each pool task at
    ``unit_timeout_s * units_in_task``; tasks still running at the
    deadline count as stalled and their units are retried.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    unit_timeout_s: Optional[float] = None


DEFAULT_RETRY = RetryPolicy()


def _backoff_delay(policy: RetryPolicy, seed: int, round_index: int) -> float:
    """Capped exponential backoff with seed-derived jitter.

    Jitter comes from the same SeedSequence idiom as fault injection —
    never from wall-clock or OS entropy — so a replayed faulted sweep
    sleeps the same schedule.
    """
    sequence = np.random.SeedSequence(
        entropy=int(seed) & ((1 << 64) - 1),
        spawn_key=(faults_mod.scope_word("sweep-backoff"), round_index),
    )
    rng = np.random.default_rng(sequence)
    base = min(policy.backoff_cap_s, policy.backoff_base_s * (2.0 ** round_index))
    return base * (0.5 + rng.random())


@dataclass(frozen=True)
class WorkUnit:
    """One shardable, cacheable piece of experiment work.

    ``kind`` names a registered executor; ``variant`` is a short label
    distinguishing config variants of the same (app, machine) pair
    (predictor choice, homing policy, ...); ``params`` carries the
    variant's constructor arguments as plain hashable values.
    """

    kind: str
    app: str = ""
    machine: str = ""
    variant: str = ""
    params: Tuple = ()


_RUNNERS: Dict[str, Callable] = {}


def unit_runner(kind: str):
    """Register the executor for one unit kind."""

    def register(fn):
        # Import-time registration: every process builds the identical
        # registry when it imports this module.
        _RUNNERS[kind] = fn  # repro: allow[mp.global-write]
        return fn

    return register


def unit_cache_key(unit: WorkUnit, settings) -> Tuple:
    """Store key: the unit plus everything the result depends on.

    The machine description enters through
    :meth:`SystemConfig.config_hash` (so does the replay engine — the
    engines are bit-identical, but keeping them keyed apart means a
    warm cache can never mask an equivalence regression).  The
    machine's purge-policy signature is keyed explicitly: changing a
    registered machine's flush schedule or flush set must fork the
    store rather than replay stale results.
    """
    if unit.app:
        app = get_app(unit.app)
        counts = settings.interactions_for(app)
        trace_scale = app.trace_scale
    else:
        counts = (settings.n_user, settings.n_os)
        trace_scale = 1.0
    policy_sig = machine_policy(unit.machine).signature() if unit.machine in MACHINES else ""
    return (
        unit.kind,
        unit.app,
        unit.machine,
        unit.variant,
        tuple(unit.params),
        settings.config.config_hash(),
        counts,
        trace_scale,
        settings.seed,
        policy_sig,
    )


def execute_unit(unit: WorkUnit, settings):
    """Run one unit now, bypassing the store."""
    scope = (unit.kind, unit.app, unit.machine, unit.variant, unit.params)
    if faults_mod.should_inject("unit_stall", *scope):
        time.sleep(faults_mod.active_plan().stall_s)
    if faults_mod.should_inject("unit_exception", *scope):
        raise InjectedFault(f"injected unit failure for {unit}")
    try:
        fn = _RUNNERS[unit.kind]
    except KeyError:
        raise ValueError(
            f"unknown work-unit kind {unit.kind!r}; "
            f"registered: {sorted(_RUNNERS)}"
        ) from None
    return fn(unit, settings)


def _maybe_crash_worker(unit: WorkUnit) -> None:
    """Consult the ``worker_crash`` site; hard-exit like an OOM kill.

    ``os._exit`` (not ``sys.exit``) so no cleanup handlers run — the
    parent sees exactly what a segfaulted or OOM-killed worker produces:
    a broken pool and an abandoned tmp-file-ridden store directory.
    """
    if faults_mod.should_inject(
        "worker_crash", unit.kind, unit.app, unit.machine, unit.variant, unit.params
    ):
        os._exit(3)


def _run_chunk_worker(args: Tuple[Tuple[WorkUnit, ...], object]):
    """Pool entry point for one *chunk* of units.

    The only pool task shape.  Executes its units in order, amortizing
    the fork + settings pickle over the whole chunk; returns the
    worker's predictor-calibration cache so the parent can keep later
    serial runs warm.  With a cache directory configured the worker
    runs write-through: every fresh result is published to the shared
    store directory immediately (atomic rename — concurrent writers
    leave exactly one valid file, last writer wins), and each unit is
    re-checked against the directory first so work persisted by a
    sibling process since the parent's scan is skipped instead of
    recomputed.  ``no_cache`` disables that warm re-check but keeps the
    write-through.

    Returns ``(pairs, calibration_cache, store_stats, unpersisted)``
    where ``pairs`` is ``[(unit, payload), ...]`` in chunk order,
    ``store_stats`` are this worker's store counters for the parent to
    fold in, and ``unpersisted`` lists units whose write-through was
    dropped (store degraded mid-run) so the parent can re-persist them.
    """
    chunk_units, settings = args
    # Arm (or explicitly disarm) fault injection for this process: pool
    # workers fork from the parent and must not inherit its consult
    # counters, or injection decisions would depend on pool scheduling.
    faults_mod.install(getattr(settings, "faults", None))
    _maybe_crash_worker(chunk_units[0])
    # A private store instance (not the interned one): its counters
    # start at zero, so the parent can merge them without double
    # counting state inherited over ``fork``.
    store = ResultStore(settings.cache_dir, max_bytes=settings.cache_max_bytes)
    read = store.cache_dir is not None and not settings.no_cache
    pairs = []
    unpersisted = []
    for unit in chunk_units:
        key = unit_cache_key(unit, settings)
        payload = store.get(key, copy_result=False) if read else None
        if payload is None:
            payload = execute_unit(unit, settings)
            if store.cache_dir is not None:
                if not store.put(key, payload):
                    unpersisted.append(unit)
        pairs.append((unit, payload))
    return pairs, settings.calibration_cache, store.stats.as_dict(), tuple(unpersisted)


def resolve_chunk(chunk: Union[int, str], n_pending: int, jobs: int) -> int:
    """Concrete units-per-task size for one pool round.

    ``"auto"`` targets :data:`AUTO_CHUNKS_PER_WORKER` chunks per worker:
    ``ceil(n_pending / (jobs * AUTO_CHUNKS_PER_WORKER))`` units per
    task.  That amortizes fork/pickle cost across the chunk while
    keeping enough tasks in flight that one slow chunk cannot starve
    the pool.  Integer values (or integer strings) are used as given.
    """
    if isinstance(chunk, str):
        label = chunk.strip().lower()
        if label == "auto":
            return max(1, math.ceil(n_pending / (jobs * AUTO_CHUNKS_PER_WORKER)))
        chunk = int(label)
    if chunk < 1:
        raise ValueError(f"chunk size must be >= 1, got {chunk}")
    return chunk


def _emit_progress(settings, done, total, pending_count, retried, store) -> None:
    """Opt-in liveness heartbeat to stderr (never stdout: golden-safe)."""
    if not getattr(settings, "progress", False):
        return
    print(
        f"[sweep] {done}/{total} units done, {pending_count} pending, "
        f"{retried} retried, {store.stats.hits} store hits",
        file=sys.stderr,
    )


def _run_pool_rounds(
    pending, settings, worker_settings, store, policy,
    read, copy_results, health, failures, results, needs_parent_persist,
):
    """Drive pending units through pool rounds with retry + backoff.

    Each round submits the still-missing units as chunks, classifies
    failures (worker death, unit exception, stall timeout), rescues units a dying chunk already published
    through the shared store (writer-wins), then re-queues survivors
    under the attempt budget.  Units that exhaust the budget are
    returned for the caller's in-process serial fallback.
    """
    jobs = settings.jobs
    remaining = list(pending)
    attempts = {unit: 0 for unit in pending}
    exhausted: List[WorkUnit] = []
    round_index = 0
    while remaining:
        if round_index > 0:
            time.sleep(_backoff_delay(policy, settings.seed, round_index - 1))
            if read:
                # Writer-wins recovery: a crashed chunk's completed
                # units were already published through the shared
                # directory — rescue them instead of re-running.
                rescued = set()
                for unit in remaining:
                    hit = store.get(
                        unit_cache_key(unit, settings), copy_result=copy_results
                    )
                    if hit is not None:
                        results[unit] = hit
                        health.recovered += 1
                        rescued.add(unit)
                remaining = [u for u in remaining if u not in rescued]
                if not remaining:
                    break
        size = resolve_chunk(settings.chunk, len(remaining), jobs)
        groups = [
            tuple(remaining[i : i + size])
            for i in range(0, len(remaining), size)
        ]
        for unit in remaining:
            attempts[unit] += 1
            health.attempts += 1
        failed = set()
        timeout = None
        if policy.unit_timeout_s is not None:
            timeout = policy.unit_timeout_s * max(len(g) for g in groups)
        with ProcessPoolExecutor(max_workers=min(jobs, len(groups))) as pool:
            futures = {}
            for group in groups:
                fut = pool.submit(_run_chunk_worker, (group, worker_settings))
                futures[fut] = group
            done, not_done = _futures_wait(futures, timeout=timeout)
            for fut in not_done:
                fut.cancel()
                health.timeouts += 1
                for unit in futures[fut]:
                    failed.add(unit)
                    failures.setdefault(unit, []).append(
                        f"attempt {attempts[unit]}: stalled past "
                        f"{timeout:g}s task deadline"
                    )
            if not_done:
                pool.shutdown(wait=False, cancel_futures=True)
            for fut in done:
                group = futures[fut]
                try:
                    out = fut.result()
                except BrokenProcessPool:
                    health.worker_crashes += 1
                    for unit in group:
                        failed.add(unit)
                        failures.setdefault(unit, []).append(
                            f"attempt {attempts[unit]}: worker process died"
                        )
                    continue
                except Exception as exc:
                    health.unit_failures += 1
                    for unit in group:
                        failed.add(unit)
                        failures.setdefault(unit, []).append(
                            f"attempt {attempts[unit]}: "
                            f"{type(exc).__name__}: {exc}"
                        )
                    continue
                pairs, calib, stats, unpersisted = out
                settings.calibration_cache.update(calib)
                # A worker's per-unit re-check misses the same keys the
                # parent scan already counted as misses — merge only the
                # new information (writes, and disk hits from the
                # sibling-skip fast path).
                stats.pop("misses", None)
                store.stats.merge(stats)
                needs_parent_persist.update(unpersisted)
                for unit, payload in pairs:
                    results[unit] = payload
        retry_units = [
            u for u in remaining
            if u in failed and attempts[u] < policy.max_attempts
        ]
        newly_exhausted = [
            u for u in remaining
            if u in failed and attempts[u] >= policy.max_attempts
        ]
        health.retries += len(retry_units)
        health.exhausted += len(newly_exhausted)
        exhausted.extend(newly_exhausted)
        remaining = retry_units
        round_index += 1
        _emit_progress(
            settings, len(results),
            len(results) + len(remaining) + len(exhausted),
            len(remaining), health.retries, store,
        )
    return exhausted


def run_units(
    units: Iterable[WorkUnit],
    settings=None,
    copy_results: bool = True,
    retry: Optional[RetryPolicy] = None,
) -> Dict[WorkUnit, object]:
    """Run every unit; returns payloads keyed by unit.

    ``settings.jobs`` > 1 shards pending units over a process pool in
    chunks of ``settings.chunk`` units (an integer or ``"auto"``, sized
    by :func:`resolve_chunk`); otherwise they run serially in this
    process.  ``settings.no_cache`` bypasses store reads; completed
    units are always written back.  ``copy_results=False`` returns
    stored objects directly for read-only callers (see
    :meth:`ResultStore.get`).

    Pool task failures (worker death, unit exceptions, stall timeouts)
    are retried per ``retry`` (default :data:`DEFAULT_RETRY`) with
    capped exponential backoff and deterministic jitter; units that
    exhaust the pool attempt budget degrade to an in-process serial
    fallback.  Only when a unit fails even that does the sweep raise
    :class:`~repro.errors.SweepExecutionError`, carrying the per-unit
    failure ledger.  Recovery accounting merges into
    ``settings.sweep_health``.

    Serial and pooled execution are bit-identical: units are
    independent and results are keyed by unit, not by completion order.
    """
    settings = settings or _runner.ExperimentSettings()
    policy = retry or DEFAULT_RETRY
    units = list(units)
    store = get_store(settings.cache_dir, max_bytes=settings.cache_max_bytes)

    # Arm this process with the sweep's fault plan (a no-op None for
    # production runs); restore whatever was armed before on the way
    # out so nested/legacy callers keep their state.
    previous_plan = faults_mod.active_plan()
    faults_mod.install(getattr(settings, "faults", None))
    try:
        return _run_units_armed(units, settings, copy_results, policy, store)
    finally:
        faults_mod.install(previous_plan)


def _run_units_armed(units, settings, copy_results, policy, store):
    read = not settings.no_cache
    results: Dict[WorkUnit, object] = {}
    pending: List[WorkUnit] = []
    for unit in units:
        hit = store.get(unit_cache_key(unit, settings), copy_result=copy_results) if read else None
        if hit is not None:
            results[unit] = hit
        elif unit not in results and unit not in pending:
            pending.append(unit)
    _emit_progress(
        settings, len(results), len(units), len(pending), 0, store
    )

    health = faults_mod.SweepHealth()
    failures: Dict[WorkUnit, List[str]] = {}
    needs_parent_persist = set()
    exhausted: List[WorkUnit] = []
    pooled = bool(pending) and (settings.jobs or 1) > 1
    if pooled:
        # Ship pared-down settings: the calibration cache can hold
        # arbitrarily large state and every worker rebuilds what it
        # needs anyway.
        worker_settings = replace(
            settings, calibration_cache={}, jobs=None,
            sweep_health=faults_mod.SweepHealth(),
        )
        exhausted = _run_pool_rounds(
            pending, settings, worker_settings, store, policy,
            read, copy_results, health, failures, results,
            needs_parent_persist,
        )
    else:
        for unit in pending:
            results[unit] = execute_unit(unit, settings)

    # Graceful degradation: units the pool could not complete run
    # in-process (after one last writer-wins store check), so a flaky
    # pool costs time, not the sweep.
    for unit in exhausted:
        hit = (
            store.get(unit_cache_key(unit, settings), copy_result=copy_results)
            if read else None
        )
        if hit is not None:
            results[unit] = hit
            health.recovered += 1
            continue
        try:
            results[unit] = execute_unit(unit, settings)
        except Exception as exc:
            failures.setdefault(unit, []).append(
                f"serial fallback: {type(exc).__name__}: {exc}"
            )
            continue
        health.degraded += 1
        needs_parent_persist.add(unit)

    parent_health = getattr(settings, "sweep_health", None)
    if parent_health is not None:
        parent_health.merge(health.as_dict())

    missing = [u for u in pending if u not in results]
    if missing:
        raise SweepExecutionError(
            f"{len(missing)} of {len(units)} work units failed after "
            f"{policy.max_attempts} pool attempts and a serial fallback",
            failures={u: failures.get(u, ["no result produced"]) for u in missing},
            health=health,
        )

    # Chunk workers already published through the shared directory;
    # memoize their payloads here without duplicating the disk write.
    # Units a degraded worker store could not persist (and serial
    # fallbacks) are re-persisted from the parent.
    persist_default = not (pooled and settings.cache_dir is not None)
    for unit in pending:
        store.put(
            unit_cache_key(unit, settings),
            results[unit],
            persist=persist_default or unit in needs_parent_persist,
        )
    _emit_progress(
        settings, len(results), len(units), 0, health.retries, store
    )
    return results


# ---------------------------------------------------------------------------
# Unit executors
# ---------------------------------------------------------------------------


def run_unit(
    app_name: str,
    machine_name: str,
    scale: Optional[float] = None,
    interactions: Optional[int] = None,
) -> WorkUnit:
    """One (app, machine) run, optionally with a scaled trace and session.

    With no overrides the run uses the machine's default configuration
    and the settings' interaction counts.  ``scale`` overrides
    ``AppSpec.trace_scale``; ``interactions`` (which implies a scale,
    default 1.0) replaces both settings counts with one session length.
    The overrides ride in ``params`` and therefore in the store key, so
    an overridden run never collides with a default one, even when the
    values match the defaults.
    """
    params: Tuple = ()
    if scale is not None or interactions is not None:
        params = (float(1.0 if scale is None else scale),)
    if interactions is not None:
        params += (int(interactions),)
    return WorkUnit("run", app=app_name, machine=machine_name, params=params)


@unit_runner("run")
def _run_app(unit: WorkUnit, settings):
    app = get_app(unit.app)
    if unit.params:
        app = replace(app, trace_scale=float(unit.params[0]))
    if len(unit.params) > 1:
        settings = replace(
            settings, n_user=int(unit.params[1]), n_os=int(unit.params[1])
        )
    return _runner.run_one(app, unit.machine, settings)


def attack_unit(kind: str, machine_name: str, scale: float) -> WorkUnit:
    """One attack scenario on one isolation model at one trace scale.

    ``machine`` is the isolation model the attack environment builds
    (which includes ``"insecure"``, not a registered machine driver);
    the attack kind rides in ``variant`` and the scale in ``params``,
    so every grid point gets its own store key.  ``settings.seed``
    enters the key through the standard key tail, keeping reseeded
    sweeps apart.
    """
    return WorkUnit(
        "attack",
        machine=machine_name,
        variant=kind,
        params=(float(scale),),
    )


@unit_runner("attack")
def _run_attack(unit: WorkUnit, settings):
    """Execute one attack scenario; returns its JSON-able payload."""
    from repro.attacks.scenarios import run_attack_scenario

    return run_attack_scenario(
        unit.variant, unit.machine, settings.config, float(unit.params[0]), settings.seed
    )


def build_predictor(spec: Tuple):
    """Instantiate the re-allocation predictor a ``predicted`` unit names.

    ``spec`` is ``(kind, *constructor_args)`` with ``kind`` one of
    ``heuristic`` / ``optimal`` / ``fixed`` / ``static`` — plain
    hashable values so the spec can ride in :attr:`WorkUnit.params`.
    """
    from repro.secure.predictor import (
        FixedVariationPredictor,
        GradientHeuristicPredictor,
        OptimalPredictor,
        StaticPredictor,
    )

    kind, *params = spec
    factories = {
        "heuristic": GradientHeuristicPredictor,
        "optimal": OptimalPredictor,
        "fixed": FixedVariationPredictor,
        "static": StaticPredictor,
    }
    try:
        factory = factories[kind]
    except KeyError:
        raise ValueError(
            f"unknown predictor spec {kind!r}; expected one of {sorted(factories)}"
        ) from None
    return factory(*params)


def predicted_unit(app_name: str, variant: str, spec: Tuple) -> WorkUnit:
    """An IRONHIDE run driven by an explicit re-allocation predictor."""
    return WorkUnit(
        "predicted", app=app_name, machine="ironhide", variant=variant, params=spec
    )


@unit_runner("predicted")
def _run_predicted(unit: WorkUnit, settings):
    predictor = build_predictor(unit.params)
    return _runner.run_one(
        get_app(unit.app), "ironhide", settings, predictor=predictor
    )


@unit_runner("homing")
def _run_homing(unit: WorkUnit, settings):
    """Average L2 round-trip memory cycles per L1 miss for one policy."""
    from repro.arch.address import VirtualMemory
    from repro.arch.hierarchy import MemoryHierarchy, ProcessContext

    config = settings.config
    policy = unit.variant
    app = get_app(unit.app)
    proc = app.make_secure()
    rng = np.random.default_rng(1)
    trace = proc.calibration_trace(rng, 2)
    slices = list(range(24)) if policy == "local-cluster" else list(range(config.n_cores))
    hier = MemoryHierarchy(config)
    vm = VirtualMemory("p", hier.address_space, list(range(config.mem.n_regions)))
    ctx = ProcessContext(
        "p", "secure", vm, cores=list(range(24)), slices=slices,
        controllers=list(range(config.mem.n_controllers)),
        homing="local" if policy == "local-cluster" else "hash",
        enforce=False,
    )
    res = hier.run_trace(ctx, trace.addrs, trace.writes)
    return res.mem_cycles / max(1, res.l1_misses)


@unit_runner("routing")
def _run_routing(unit: WorkUnit, settings):
    """Cluster-escape counts for X-Y-only vs bidirectional routing."""
    from repro.arch.mesh import MeshTopology
    from repro.arch.routing import path_contained, route_xy, route_yx

    rows, cols = unit.params
    mesh = MeshTopology(rows, cols, 4)
    n = rows * cols
    xy_escapes = 0
    bidi_escapes = 0
    pairs = 0
    for n_sec in range(1, n):
        for cluster in (frozenset(range(n_sec)), frozenset(range(n_sec, n))):
            members = sorted(cluster)
            for a in members:
                for b in members:
                    if a == b:
                        continue
                    pairs += 1
                    xy_ok = path_contained(route_xy(mesh, a, b), cluster)
                    yx_ok = path_contained(route_yx(mesh, a, b), cluster)
                    if not xy_ok:
                        xy_escapes += 1
                    if not (xy_ok or yx_ok):
                        bidi_escapes += 1
    return {
        "pairs": pairs,
        "xy_only_escapes": xy_escapes,
        "bidirectional_escapes": bidi_escapes,
    }


@unit_runner("purge_anatomy")
def _run_purge_anatomy(unit: WorkUnit, settings):
    """Component costs of one MI6 purge after a short warm-up."""
    from repro.machines.mi6 import Mi6Machine
    from repro.sim.stats import ProcessStats

    from repro.sim.bundle import interaction_bundle

    app = get_app(unit.app)
    machine = Mi6Machine(settings.config)
    sec, ins = app.processes()
    rng = np.random.default_rng(0)
    st = machine._setup(app, sec, ins, rng)
    b_sec = interaction_bundle(app, "secure", sec, 0, 0, 4)
    b_ins = interaction_bundle(app, "insecure", ins, 0, 0, 4)
    for i in range(3):
        machine._interaction(app, st, sec, ins, b_sec.segment(i), b_ins.segment(i),
                             False, st.breakdown, ProcessStats(), ProcessStats())
    # One more producer+consumer pass, then inspect a purge directly.
    tr = b_ins.segment(3)
    machine.hier.run_trace(st.ctx_insecure, tr.addrs, tr.writes)
    tr = b_sec.segment(3)
    machine.hier.run_trace(st.ctx_secure, tr.addrs, tr.writes)
    report = machine.purge_model.purge(
        machine.hier,
        cores=[st.ctx_secure.rep_core, st.ctx_insecure.rep_core],
        l2_slices=machine._plan.secure_slices + machine._plan.insecure_slices,
        controllers=machine._plan.secure_mcs,
        dirty_scale=app.footprint_scale,
    )
    return {
        "dummy_read": report.dummy_read_cycles,
        "tlb_flush": report.tlb_flush_cycles,
        "l1_drain": report.l1_drain_cycles,
        "mc_drain": report.mc_drain_cycles,
        "pipeline": report.pipeline_flush_cycles,
        "total": report.total_cycles,
    }


@unit_runner("replication")
def _run_replication(unit: WorkUnit, settings):
    """Baseline completion cycles with L2 replication forced on or off."""
    from repro.machines.insecure import InsecureMachine

    enabled = unit.variant == "replication-on"
    app = get_app(unit.app)
    machine = InsecureMachine(settings.config)
    original = machine._make_context

    def patched(*args, **kwargs):
        kwargs["replication"] = enabled
        return original(*args, **kwargs)

    machine._make_context = patched
    return machine.run(
        app, n_interactions=settings.interactions_for(app), seed=settings.seed
    ).completion_cycles
