"""Prime+Probe on the shared L2 (Liu et al., the paper's [1]).

The attacker fills every way of the victim's candidate L2 sets with its
own lines (prime), lets the victim run, then re-checks its lines
(probe): a missing line means the victim touched that set, revealing
the secret-dependent index.

Under the SGX-like model the attack works end to end: hash-for-homing
lets the attacker allocate lines homed in the *same slice* the victim's
data lives in.  Under MI6/IRONHIDE the attacker's allocations can only
ever be homed in its own slice partition/cluster, so it cannot even
construct an eviction set for the victim's slice — the harness degrades
to a random guess, and any attempt to touch the victim's slice directly
trips :class:`~repro.errors.CacheIsolationViolation`.

Every touch is a one-line access, and the harness replays its touches
as batched schedules: the eviction-set search, then the prime rounds
together with the victim's secret access.  A schedule's segments are
runs of touches by one context to changing pages (see
:meth:`PrimeProbeAttack._schedule`).  The vector engine plans each
schedule once (:class:`~repro.arch.batch_replay.BatchReplayer`); the
scalar oracle replays it one
:meth:`~repro.arch.hierarchy.MemoryHierarchy.run_trace` call per
segment.  The state left behind equals a loop of one ``run_trace`` per
touch (``TestScheduleEquivalence`` in ``tests/test_attacks.py`` keeps
that loop as its reference).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.batch_replay import Segment, schedule_runner
from repro.arch.hierarchy import ProcessContext
from repro.attacks.environment import AttackEnvironment
from repro.attacks.seeding import attack_rng
from repro.errors import CacheIsolationViolation


#: One single-line access: ``(ctx, vpage, line_in_page, write)``.
Touch = Tuple[ProcessContext, int, int, bool]


@dataclass
class PrimeProbeResult:
    model: str
    secret: int
    recovered: Optional[int]
    eviction_set_built: bool
    probed_indices: int

    @property
    def success(self) -> bool:
        return self.recovered == self.secret


class PrimeProbeAttack:
    """One Prime+Probe attacker against one victim.

    The secret is the victim's line index within its page (0..63); the
    attacker recovers it by finding which L2 set lost a primed way.
    """

    _VICTIM_PAGE = 0
    _ATTACKER_PAGE_BASE = 1 << 20
    #: Give-up bound: if none of the first this-many attacker pages is
    #: homed in the target slice, none ever will be — homing follows
    #: the isolation plan deterministically, so an empty prefix proves
    #: the partition is structural and the search stops early instead
    #: of touching every candidate page.
    _GIVE_UP_PAGES = 256

    def __init__(self, env: AttackEnvironment, max_search_pages: int = 4096):
        self.env = env
        self.max_search_pages = max_search_pages
        self._lines_per_page = env.config.page_bytes // env.config.line_bytes
        self._n_sets = env.config.l2_slice.n_sets

    # -- helpers ---------------------------------------------------------
    def _touch(self, ctx, vpage: int, line_in_page: int = 0, write: bool = False) -> None:
        addr = vpage * self.env.config.page_bytes + line_in_page * self.env.config.line_bytes
        addrs = np.asarray([addr], dtype=np.int64)
        writes = np.asarray([1 if write else 0], dtype=np.int8)
        self.env.hier.run_trace(ctx, addrs, writes)

    def _schedule(
        self, touches: Sequence[Touch], cuts: Sequence[int] = ()
    ) -> Tuple[List[Segment], List[int]]:
        """Segments replaying ``touches`` as one :meth:`_touch` each would.

        A new segment starts where the context changes, where a touch
        repeats the previous touch's page, and at every touch index in
        ``cuts`` (epoch boundaries).  Inside such a segment, replay
        differs from one call per touch only by run-length compression
        of equal consecutive lines and by the TLB skipping a repeated
        page, and both need the same page twice in a row.  Every page
        must already be mapped (``ValueError`` otherwise): a merged
        segment would allocate its new pages in one call.  Returns the
        segments and, per cut, the index of the segment it starts.
        """
        page, line = self.env.config.page_bytes, self.env.config.line_bytes
        cut_set = set(cuts)
        starts: List[int] = []
        prev_ctx, prev_page = None, None
        for k, (ctx, vpage, _, _) in enumerate(touches):
            if vpage not in ctx.vm.page_table:
                raise ValueError(f"{ctx.name} page {vpage:#x} is not mapped yet")
            if ctx is not prev_ctx or vpage == prev_page or k in cut_set:
                starts.append(k)
            prev_ctx, prev_page = ctx, vpage
        addrs = np.asarray([v * page + i * line for _, v, i, _ in touches], dtype=np.int64)
        writes = np.asarray([w for _, _, _, w in touches], dtype=np.int8)
        bounds = starts + [len(touches)]
        segments = [
            Segment(touches[a][0], addrs[a:b], writes[a:b])
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
        return segments, [bisect_left(bounds, c) for c in cuts]

    def _replay(self, touches: Sequence[Touch]) -> None:
        """Replay ``touches`` as one schedule (see :meth:`_schedule`)."""
        segments, _ = self._schedule(touches)
        schedule_runner(self.env.hier, segments)(0, len(segments))

    def _frame(self, ctx, vpage: int) -> int:
        return ctx.vm.page_table[vpage]

    def _base_set(self, frame: int) -> int:
        return (frame * self._lines_per_page) & (self._n_sets - 1)

    def _line_id(self, frame: int, line_in_page: int) -> int:
        return frame * self._lines_per_page + line_in_page

    # -- attack phases ----------------------------------------------------
    def build_eviction_sets(
        self, home_slice: int, target_sets: List[int]
    ) -> Dict[int, List[Tuple[int, int]]]:
        """(vpage, line_in_page) ways per target set, homed in the slice.

        Allocates attacker pages until every target set has enough ways
        (associativity).  Under strong isolation no attacker page is
        ever homed in the victim's slice, so the map stays empty.

        Each candidate page is touched once (line 0) in two passes.
        The decide pass maps, homes and checks the pages one call per
        page, as a per-page :meth:`_touch` would, and skips pages that
        raise :class:`~repro.errors.CacheIsolationViolation`; the
        replay pass then replays the kept touches as one schedule (one
        segment: the pages all differ).
        The state afterwards equals the per-page loop's, because replay
        reads no allocator or homing state except the touched frames'
        homes.  If anything else escapes the decide pass, the decided
        prefix is replayed before it propagates.
        """
        env = self.env
        hier = env.hier
        ctx = env.attacker
        ways = env.config.l2_slice.associativity
        wanted = set(target_sets)
        coverage: Dict[int, List[Tuple[int, int]]] = {s: [] for s in target_sets}
        matched = 0
        kept: List[Touch] = []
        try:
            for i in range(self.max_search_pages):
                if i >= self._GIVE_UP_PAGES and not matched:
                    # Structurally partitioned: no allocation will ever
                    # land in the target slice, so stop probing pages.
                    break
                vpage = self._ATTACKER_PAGE_BASE + i
                # One page per call: the allocator restarts its region
                # round-robin on every call, so batching pages here
                # would hand out different frames.
                frame = ctx.vm.translate(vpage)
                hier.ensure_homed([frame], ctx)
                if ctx.enforce:
                    try:
                        hier._check_entitlement([frame], ctx)
                    except CacheIsolationViolation:
                        continue
                kept.append((ctx, vpage, 0, False))
                if int(hier.home_table[frame]) != home_slice:
                    continue
                matched += 1
                base = self._base_set(frame)
                for line_in_page in range(self._lines_per_page):
                    cache_set = (base + line_in_page) & (self._n_sets - 1)
                    if cache_set in wanted and len(coverage[cache_set]) < ways:
                        coverage[cache_set].append((vpage, line_in_page))
                if all(len(v) >= ways for v in coverage.values()):
                    break
        finally:
            self._replay(kept)
        return coverage

    def run(
        self,
        secret: int,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
    ) -> PrimeProbeResult:
        """Attempt to recover the victim's secret line index.

        ``rng`` drives the chance-level guess a severed channel
        degrades to.  Callers threading :class:`ExperimentSettings`
        pass either a generator derived from ``settings.seed`` or the
        seed itself; the default derivation keeps bare ``run(secret)``
        calls deterministic.
        """
        env = self.env
        if rng is None:
            rng = attack_rng(seed, "prime_probe", env.model)
        if not 0 <= secret < self._lines_per_page:
            raise ValueError(f"secret must be a line index < {self._lines_per_page}")

        # Victim maps its page; its home slice is the attack target.
        self._touch(env.victim, self._VICTIM_PAGE)
        victim_frame = self._frame(env.victim, self._VICTIM_PAGE)
        home = int(env.hier.home_table[victim_frame])
        victim_base = self._base_set(victim_frame)
        candidate_sets = [
            (victim_base + i) & (self._n_sets - 1) for i in range(self._lines_per_page)
        ]

        coverage = self.build_eviction_sets(home, candidate_sets)
        ways = env.config.l2_slice.associativity
        if not all(len(v) >= ways for v in coverage.values()):
            # Strong isolation: no eviction sets; attacker can only guess.
            return PrimeProbeResult(
                env.model, secret, int(rng.integers(0, self._lines_per_page)), False, 0
            )

        # Prime every way of every candidate set, then the victim makes
        # its secret-dependent access: one schedule.
        touches: List[Touch] = []
        primed_lines: Dict[int, List[int]] = {}
        for idx, cache_set in enumerate(candidate_sets):
            lines = []
            for vpage, line_in_page in coverage[cache_set][:ways]:
                touches.append((env.attacker, vpage, line_in_page, False))
                frame = self._frame(env.attacker, vpage)
                lines.append(self._line_id(frame, line_in_page))
            primed_lines[idx] = lines
        touches.append((env.victim, self._VICTIM_PAGE, secret, True))
        self._replay(touches)

        # Probe: the candidate index whose set lost an attacker line.
        slice_cache = env.hier.l2_slice(home)
        recovered = None
        for idx in range(self._lines_per_page):
            if any(not slice_cache.contains(line) for line in primed_lines[idx]):
                recovered = idx
                break
        return PrimeProbeResult(env.model, secret, recovered, True, self._lines_per_page)

    def trial_success_rate(
        self,
        secrets,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
    ) -> float:
        """Fraction of independent trials recovering the exact secret."""
        if rng is None:
            rng = attack_rng(seed, "prime_probe_trials", self.env.model)
        secrets = [int(s) for s in secrets]
        wins = 0
        for secret in secrets:
            env = AttackEnvironment.build(self.env.model, self.env.config)
            attack = PrimeProbeAttack(env, self.max_search_pages)
            if attack.run(secret, rng).success:
                wins += 1
        return wins / len(secrets)
