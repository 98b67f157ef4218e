"""Deterministic fault injection for the sweep/store stack.

The scale-out layer (:mod:`repro.experiments.sweep`,
:mod:`repro.experiments.store`) must keep producing bit-identical
results when workers crash, units raise, reads hit corrupt files or the
disk fills up.  Proving that needs *reproducible* failures: this module
is a chaos facility whose every injection decision derives from
``ExperimentSettings.seed`` through the same
:class:`numpy.random.SeedSequence` idiom the attack harnesses use
(:mod:`repro.attacks.seeding`) — no wall clocks, no OS entropy — so a
faulted run can be replayed injection-for-injection.

**Injection sites.**  Code under test consults :func:`should_inject`
with one of the registered :data:`INJECTION_SITES` names (any other
name raises ``ValueError``; the ``faults.dead-site`` static rule
reports a registered site that nothing consults):

* ``worker_crash`` — a pool worker hard-exits (``os._exit``) at chunk
  start, simulating an OOM-kill or segfault;
* ``unit_exception`` — :func:`~repro.experiments.sweep.execute_unit`
  raises :class:`~repro.errors.InjectedFault` instead of running;
* ``store_read_corrupt`` — the store corrupts the on-disk entry right
  before reading it, exercising checksum verification + quarantine;
* ``store_write_enospc`` — a store write-through fails with a synthetic
  ``ENOSPC``, exercising memory-only degradation;
* ``store_write_partial`` — a store write dies mid-``put`` (truncated
  temp file, no rename), exercising crash-consistent atomic publishes;
* ``unit_stall`` — a unit sleeps ``stall_s`` before executing,
  exercising per-unit timeouts.

**Plans.**  A :class:`FaultPlan` is a frozen, picklable bundle of
:class:`FaultRule`\\ s parsed from a spec string
(``site[:RATE[xCOUNT]]`` comma-separated, e.g.
``"worker_crash:1x2,store_read_corrupt:0.5"``); it ships to pool
workers inside ``ExperimentSettings.faults`` and is activated
per-process with :func:`install`.  Nothing injects unless a plan is
installed — production runs pay one dict lookup per site consult.

**Budgets.**  A rule's ``xCOUNT`` cap bounds total firings.  With a
``token_dir`` configured the budget is *global across processes*
(claimed via ``O_CREAT | O_EXCL`` token files, so "exactly one ENOSPC
per run" means one across the whole worker pool); without one it is
per-:func:`install`.

:class:`SweepHealth` rides along here (not in the sweep module) so
``ExperimentSettings`` can hold one without an import cycle.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

#: Every registered injection-site name.  :func:`should_inject` raises
#: on any other name, armed or not; the ``faults.dead-site`` static
#: rule reports a site here that no ``should_inject`` call consults.
INJECTION_SITES = (
    "worker_crash",
    "unit_exception",
    "store_read_corrupt",
    "store_write_enospc",
    "store_write_partial",
    "unit_stall",
)


def scope_word(part) -> int:
    """One stable 64-bit word per scope component.

    Strings are digested directly; everything else folds in via its
    canonical ``repr`` (``hash()`` is process-salted and would break
    cross-process reproducibility).  The attack harnesses'
    :func:`~repro.attacks.seeding.attack_rng` derives its streams
    through it too.
    """
    data = part if isinstance(part, str) else repr(part)
    digest = hashlib.sha256(data.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class FaultRule:
    """One site's injection policy: fire with ``rate``, at most ``count`` times.

    ``rate`` is the per-consult firing probability (1.0 = every
    consult); ``count`` caps total firings (``None`` = unbounded).
    """

    site: str
    rate: float = 1.0
    count: Optional[int] = None

    def __post_init__(self):
        if self.site not in INJECTION_SITES:
            raise ValueError(
                f"unknown injection site {self.site!r}; "
                f"registered: {list(INJECTION_SITES)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.count is not None and self.count < 1:
            raise ValueError(f"fault count must be >= 1, got {self.count}")

    def describe(self) -> str:
        """The rule back in spec-grammar form (``site[:RATE[xCOUNT]]``)."""
        out = self.site
        if self.rate != 1.0 or self.count is not None:
            out += f":{self.rate:g}"
        if self.count is not None:
            out += f"x{self.count}"
        return out


@dataclass(frozen=True)
class FaultPlan:
    """A frozen, picklable set of fault rules plus their seed material.

    ``seed`` feeds every injection decision; ``stall_s`` is the
    ``unit_stall`` sleep; ``token_dir`` (a shared directory) makes
    ``xCOUNT`` budgets global across processes instead of
    per-:func:`install`.
    """

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0
    stall_s: float = 0.05
    token_dir: Optional[str] = None

    @classmethod
    def parse(
        cls,
        spec: str,
        seed: int = 0,
        stall_s: float = 0.05,
        token_dir: Optional[os.PathLike] = None,
    ) -> "FaultPlan":
        """Build a plan from a ``--faults`` spec string.

        Grammar: comma-separated ``site[:RATE[xCOUNT]]`` terms —
        ``"worker_crash"`` (always fire), ``"unit_exception:0.25"``
        (fire on a quarter of consults), ``"store_write_enospc:1x1"``
        (fire exactly once).  Raises ``ValueError`` on unknown sites,
        malformed numbers or duplicate sites.
        """
        rules = []
        seen = set()
        for term in spec.split(","):
            term = term.strip()
            if not term:
                continue
            site, _, tail = term.partition(":")
            site = site.strip()
            rate, count = 1.0, None
            if tail:
                rate_text, _, count_text = tail.partition("x")
                try:
                    rate = float(rate_text)
                    if count_text:
                        count = int(count_text)
                except ValueError:
                    raise ValueError(
                        f"malformed fault term {term!r}; expected "
                        "site[:RATE[xCOUNT]]"
                    ) from None
            if site in seen:
                raise ValueError(f"duplicate fault site {site!r} in {spec!r}")
            seen.add(site)
            rules.append(FaultRule(site, rate=rate, count=count))
        if not rules:
            raise ValueError(f"fault spec {spec!r} names no sites")
        return cls(
            rules=tuple(rules),
            seed=seed,
            stall_s=stall_s,
            token_dir=str(token_dir) if token_dir is not None else None,
        )

    def rule_for(self, site: str) -> Optional[FaultRule]:
        """The rule registered for ``site`` (``None`` = never inject)."""
        for rule in self.rules:
            if rule.site == site:
                return rule
        return None

    def describe(self) -> str:
        """The whole plan back in spec-grammar form."""
        return ",".join(rule.describe() for rule in self.rules)


# Per-process injection state.  ``install()`` resets the bookkeeping so
# a fresh pool worker (or a re-armed parent) makes decisions that
# depend only on (plan seed, site, consult index, scope) — never on
# state inherited across ``fork``.
_ACTIVE: Dict[str, Optional[FaultPlan]] = {"plan": None}
_CONSULTS: Dict[str, int] = {}
_FIRED: Dict[str, int] = {}


def install(plan: Optional[FaultPlan]) -> None:
    """Arm ``plan`` for this process (``None`` disarms).

    Resets the per-process consult counters and local firing budgets,
    so decisions are a pure function of the plan and the consult
    sequence that follows.
    """
    # Deterministic per-process injection bookkeeping: reset on every
    # install, content derives only from the seeded plan.
    _ACTIVE["plan"] = plan  # repro: allow[mp.global-write]
    _CONSULTS.clear()  # repro: allow[mp.global-write]
    _FIRED.clear()  # repro: allow[mp.global-write]


def active_plan() -> Optional[FaultPlan]:
    """The currently armed plan for this process (``None`` = disarmed)."""
    return _ACTIVE["plan"]


def _claim_budget(plan: FaultPlan, site: str, count: int) -> bool:
    """Claim one of ``site``'s ``count`` firing tokens (True = claimed).

    With ``plan.token_dir`` the claim is an ``O_CREAT | O_EXCL`` token
    file, atomic across every process sharing the directory; without
    one (or when the directory is unusable) the budget falls back to a
    per-:func:`install` counter.
    """
    if plan.token_dir:
        tdir = Path(plan.token_dir)
        usable = True
        try:
            tdir.mkdir(parents=True, exist_ok=True)
        except OSError:
            usable = False
        if usable:
            for k in range(count):
                token = tdir / f"{site}.{k}.tok"
                try:
                    fd = os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    continue
                except OSError:
                    usable = False
                    break
                os.close(fd)
                return True
            if usable:
                return False  # every token already claimed
    fired = _FIRED.get(site, 0)
    if fired >= count:
        return False
    # Deterministic per-process injection bookkeeping (see install()).
    _FIRED[site] = fired + 1  # repro: allow[mp.global-write]
    return True


def should_inject(site: str, *scope) -> bool:
    """Consult the armed plan: inject at ``site`` for ``scope`` now?

    Every consult advances a per-process, per-site counter; the firing
    decision derives a fresh generator from ``SeedSequence(seed,
    (site, index, *scope))``, so identical consult sequences replay
    identically while retries of the same scope still get fresh
    decisions.  Returns ``False`` immediately when no plan is armed or
    the plan has no rule for ``site``.
    """
    if site not in INJECTION_SITES:
        raise ValueError(
            f"unknown injection site {site!r}; "
            f"registered: {list(INJECTION_SITES)}"
        )
    plan = _ACTIVE["plan"]
    if plan is None:
        return False
    rule = plan.rule_for(site)
    if rule is None:
        return False
    index = _CONSULTS.get(site, 0)
    # Deterministic per-process injection bookkeeping (see install()).
    _CONSULTS[site] = index + 1  # repro: allow[mp.global-write]
    if rule.rate <= 0.0:
        return False
    if rule.rate < 1.0:
        sequence = np.random.SeedSequence(
            entropy=int(plan.seed) & ((1 << 64) - 1),
            spawn_key=(scope_word(site), index)
            + tuple(scope_word(part) for part in scope),
        )
        rng = np.random.default_rng(sequence)
        if rng.random() >= rule.rate:
            return False
    if rule.count is not None:
        return _claim_budget(plan, site, rule.count)
    return True


@dataclass
class SweepHealth:
    """Fault-tolerance accounting for one sweep (merged like StoreStats).

    ``attempts`` counts unit executions handed to the pool (including
    retries); ``retries`` counts units re-queued after a failed round;
    ``worker_crashes`` / ``timeouts`` / ``unit_failures`` classify the
    round failures; ``recovered`` counts units rescued from the shared
    store after a failed chunk (writer-wins); ``degraded`` counts units
    that fell back to in-process serial execution; ``exhausted`` counts
    units whose pool attempt budget ran out.
    """

    attempts: int = 0
    retries: int = 0
    worker_crashes: int = 0
    timeouts: int = 0
    unit_failures: int = 0
    recovered: int = 0
    degraded: int = 0
    exhausted: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dict (reporting, cross-process merges)."""
        return {
            "attempts": self.attempts,
            "retries": self.retries,
            "worker_crashes": self.worker_crashes,
            "timeouts": self.timeouts,
            "unit_failures": self.unit_failures,
            "recovered": self.recovered,
            "degraded": self.degraded,
            "exhausted": self.exhausted,
        }

    def merge(self, other: Dict[str, int]) -> None:
        """Fold another sweep's counters in (parent-side accumulation)."""
        for name, value in other.items():
            setattr(self, name, getattr(self, name) + value)

    def describe(self) -> str:
        """One-line summary for heartbeat/CLI reporting."""
        return (
            f"{self.attempts} attempts, {self.retries} retries, "
            f"{self.worker_crashes} crashes, {self.timeouts} timeouts, "
            f"{self.recovered} recovered, {self.degraded} degraded"
        )
