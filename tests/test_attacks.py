"""Security validation: the paper's isolation claims, demonstrated.

Every channel that works under the SGX-like model must be severed by
MI6 and IRONHIDE strong isolation.  The temporal-partitioning models
(fence_ts, simf) sit in between, exactly where the taxonomy predicts:
their flush schedule severs speculation channels but leaves
occupancy/contention channels open, and SIMF's per-crossing drain
reopens the purge-timing channel MI6 has.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import (
    AttackEnvironment,
    CacheCovertChannel,
    NocTimingProbe,
    PrimeProbeAttack,
    SpectreAttack,
)
from repro.attacks.analysis import (
    bit_error_rate,
    channel_capacity_estimate,
    mutual_information_bits,
    recovery_rate,
)
from repro.attacks.covert_channel import CovertChannelResult
from repro.attacks.environment import ISOLATION_MODELS
from repro.attacks.prime_probe import PrimeProbeResult
from repro.errors import CacheIsolationViolation, ConfigError, MemoryIsolationViolation

STRONG = ("mi6", "ironhide")
TEMPORAL = ("fence_ts", "simf")


class TestEnvironment:
    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            AttackEnvironment.build("tpm")

    def test_sgx_shares_slices(self):
        env = AttackEnvironment.build("sgx")
        assert env.shared_slices()

    @pytest.mark.parametrize("model", STRONG)
    def test_strong_isolation_shares_nothing(self, model):
        env = AttackEnvironment.build(model)
        assert not env.shared_slices()


class TestPrimeProbe:
    def test_sgx_recovers_secret(self):
        env = AttackEnvironment.build("sgx")
        result = PrimeProbeAttack(env).run(secret=13)
        assert result.eviction_set_built
        assert result.success

    def test_sgx_recovers_several_secrets(self):
        for secret in (0, 7, 31, 63):
            env = AttackEnvironment.build("sgx")
            assert PrimeProbeAttack(env).run(secret=secret).success

    @pytest.mark.parametrize("model", STRONG)
    def test_strong_isolation_blocks_eviction_sets(self, model):
        env = AttackEnvironment.build(model)
        result = PrimeProbeAttack(env).run(secret=13)
        assert not result.eviction_set_built

    @pytest.mark.parametrize("model", STRONG)
    def test_recovery_rate_near_chance(self, model):
        secrets = [3, 17, 42, 55]
        recovered = []
        for s in secrets:
            env = AttackEnvironment.build(model)
            recovered.append(PrimeProbeAttack(env).run(s).recovered)
        assert recovery_rate(secrets, recovered) <= 0.25

    def test_direct_probe_of_victim_slice_raises(self):
        env = AttackEnvironment.build("ironhide")
        attack = PrimeProbeAttack(env)
        attack._touch(env.victim, attack._VICTIM_PAGE)
        victim_frame = env.victim.vm.page_table[attack._VICTIM_PAGE]
        # Force a mapping homed into the victim's cluster and touch it.
        vpage = attack._ATTACKER_PAGE_BASE
        attack._touch(env.attacker, vpage)
        frame = env.attacker.vm.page_table[vpage]
        env.hier.home_table[frame] = int(env.hier.home_table[victim_frame])
        with pytest.raises(CacheIsolationViolation):
            attack._touch(env.attacker, vpage)


class TestCovertChannel:
    BITS = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1] * 2

    def test_sgx_channel_is_clean(self):
        env = AttackEnvironment.build("sgx")
        result = CacheCovertChannel(env).transmit(self.BITS)
        assert result.bit_error_rate == 0.0
        assert result.channel_works

    @pytest.mark.parametrize("model", STRONG)
    def test_strong_isolation_severs_channel(self, model):
        env = AttackEnvironment.build(model)
        result = CacheCovertChannel(env).transmit(self.BITS)
        assert not result.channel_works
        assert result.bit_error_rate > 0.2

    def test_mutual_information_collapses(self):
        env = AttackEnvironment.build("sgx")
        good = CacheCovertChannel(env).transmit(self.BITS)
        env = AttackEnvironment.build("ironhide")
        bad = CacheCovertChannel(env).transmit(self.BITS)
        mi_good = mutual_information_bits(zip(good.sent, good.received))
        mi_bad = mutual_information_bits(zip(bad.sent, bad.received))
        assert mi_good > 0.9
        assert mi_bad < 0.3


class TestSpectre:
    def test_sgx_leaks_speculatively(self):
        env = AttackEnvironment.build("sgx")
        result = SpectreAttack(env).run(secret=29)
        assert result.leaked
        assert not result.blocked_by_guard

    @pytest.mark.parametrize("model", STRONG)
    def test_guard_discards_without_state_change(self, model):
        env = AttackEnvironment.build(model)
        result = SpectreAttack(env).run(secret=29)
        assert result.blocked_by_guard
        assert result.recovered is None

    @pytest.mark.parametrize("model", STRONG)
    def test_guard_counts_discards(self, model):
        env = AttackEnvironment.build(model)
        SpectreAttack(env).run(secret=5)
        assert env.guard.stats.discarded == 1

    def test_secret_out_of_range_rejected(self):
        env = AttackEnvironment.build("sgx")
        with pytest.raises(ValueError):
            SpectreAttack(env).run(secret=4096)


class TestNocProbe:
    def test_unpartitioned_noc_is_observable(self):
        env = AttackEnvironment.build("sgx")
        result = NocTimingProbe(env).run()
        assert result.observable

    def test_ironhide_contains_victim_traffic(self):
        env = AttackEnvironment.build("ironhide")
        result = NocTimingProbe(env).run()
        assert not result.observable
        assert result.blocked_packets == 0  # contained, not dropped

    def test_victim_packets_all_delivered(self):
        env = AttackEnvironment.build("ironhide")
        result = NocTimingProbe(env).run(n_packets=32)
        assert result.victim_packets == 32


class TestAnalysisHelpers:
    def test_recovery_rate(self):
        assert recovery_rate([1, 2, 3], [1, 0, 3]) == pytest.approx(2 / 3)
        assert recovery_rate([], []) == 0.0

    def test_recovery_rate_misaligned(self):
        with pytest.raises(ValueError):
            recovery_rate([1], [1, 2])

    def test_bit_error_rate(self):
        assert bit_error_rate([1, 1, 0, 0], [1, 0, 0, 1]) == 0.5

    def test_mutual_information_identity(self):
        pairs = [(b, b) for b in (0, 1) * 20]
        assert mutual_information_bits(pairs) == pytest.approx(1.0)

    def test_mutual_information_independent(self):
        pairs = [(0, 0), (0, 1), (1, 0), (1, 1)] * 10
        assert mutual_information_bits(pairs) == pytest.approx(0.0, abs=1e-9)

    def test_channel_capacity(self):
        assert channel_capacity_estimate(0.0) == pytest.approx(1.0)
        assert channel_capacity_estimate(0.5) == pytest.approx(0.0, abs=1e-9)


class TestAnalysisHardening:
    """Degenerate estimator inputs: defined values or typed errors."""

    def test_empty_transcripts_carry_nothing(self):
        assert bit_error_rate([], []) == 0.0
        assert recovery_rate([], []) == 0.0
        assert mutual_information_bits([]) == 0.0
        assert mutual_information_bits([(1, 1)]) == 0.0

    def test_misalignment_raises_typed_error(self):
        from repro.errors import AnalysisError, ReproError

        with pytest.raises(AnalysisError):
            bit_error_rate([1, 0], [1])
        with pytest.raises(AnalysisError):
            recovery_rate([1, 2], [1])
        # The typed error stays catchable as both hierarchies.
        assert issubclass(AnalysisError, ValueError)
        assert issubclass(AnalysisError, ReproError)

    def test_capacity_rejects_non_probabilities(self):
        from repro.errors import AnalysisError

        for bad in (float("nan"), float("inf"), -0.1, 1.5, None, "0.3", True):
            with pytest.raises(AnalysisError):
                channel_capacity_estimate(bad)

    def test_capacity_defined_at_the_endpoints(self):
        # 0.0/1.0 clamp instead of feeding log2(0).
        assert 0.0 <= channel_capacity_estimate(0.0) <= 1.0
        assert 0.0 <= channel_capacity_estimate(1.0) <= 1.0

    def test_classify_by_threshold_polarity(self):
        from repro.attacks.analysis import classify_by_threshold

        # Normal polarity: 1-symbol slower.
        assert classify_by_threshold([10.0], [20.0], [11.0, 19.0]) == [0, 1]
        # Inverted channel: 1-symbol faster.
        assert classify_by_threshold([20.0], [10.0], [11.0, 19.0]) == [1, 0]
        # Empty samples classify to nothing.
        assert classify_by_threshold([10.0], [20.0], []) == []

    def test_classify_by_threshold_severed_channel(self):
        from repro.attacks.analysis import classify_by_threshold

        # All-identical timings: no signal, everything reads as 0.
        assert classify_by_threshold([5.0], [5.0], [5.0, 5.0, 5.0]) == [0, 0, 0]

    def test_classify_by_threshold_invalid_calibration(self):
        from repro.attacks.analysis import classify_by_threshold
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            classify_by_threshold([], [1.0], [0.5])
        with pytest.raises(AnalysisError):
            classify_by_threshold([1.0], [], [0.5])
        with pytest.raises(AnalysisError):
            classify_by_threshold([float("nan")], [1.0], [0.5])


class TestSeeding:
    """Deterministic RNG derivation for the harnesses."""

    def test_attack_rng_reproducible(self):
        from repro.attacks.seeding import attack_rng

        a = attack_rng(7, "covert", "mi6", 4.0).integers(0, 1 << 30, size=8)
        b = attack_rng(7, "covert", "mi6", 4.0).integers(0, 1 << 30, size=8)
        assert (a == b).all()

    def test_scopes_get_independent_streams(self):
        from repro.attacks.seeding import attack_rng

        base = attack_rng(7, "covert", "mi6", 4.0).integers(0, 1 << 30, size=8)
        for other in (
            attack_rng(8, "covert", "mi6", 4.0),
            attack_rng(7, "prime_probe", "mi6", 4.0),
            attack_rng(7, "covert", "sgx", 4.0),
            attack_rng(7, "covert", "mi6", 8.0),
        ):
            assert not (other.integers(0, 1 << 30, size=8) == base).all()

    def test_harness_runs_reproducible(self):
        """Same seed, same result — across fresh environments."""
        results = [
            PrimeProbeAttack(AttackEnvironment.build("sgx")).run(9, seed=3).recovered
            for _ in range(2)
        ]
        assert results[0] == results[1]


class TestScenarios:
    """The figattack grid's per-point scenario payloads."""

    def test_unknown_kind_and_model_rejected(self):
        from repro.attacks.scenarios import run_attack_scenario
        from repro.config import SystemConfig

        cfg = SystemConfig.evaluation()
        with pytest.raises(ConfigError):
            run_attack_scenario("meltdown", "sgx", cfg, 1.0, 0)
        with pytest.raises(ConfigError):
            run_attack_scenario("covert", "tz", cfg, 1.0, 0)
        with pytest.raises(ConfigError):
            run_attack_scenario("covert", "sgx", cfg, 0.0, 0)

    def test_scenarios_deterministic_per_seed(self):
        from repro.attacks.scenarios import ATTACK_KINDS, run_attack_scenario
        from repro.config import SystemConfig

        cfg = SystemConfig.evaluation()
        for kind in ATTACK_KINDS:
            first = run_attack_scenario(kind, "sgx", cfg, 1.0, 5)
            second = run_attack_scenario(kind, "sgx", cfg, 1.0, 5)
            assert first == second, kind

    def test_insecure_model_leaks_like_sgx(self):
        from repro.attacks.scenarios import run_attack_scenario
        from repro.config import SystemConfig

        cfg = SystemConfig.evaluation()
        assert run_attack_scenario("covert", "insecure", cfg, 2.0, 0)["ber"] == 0.0
        assert (
            run_attack_scenario("spectre", "insecure", cfg, 2.0, 0)["leak_rate"] == 1.0
        )

    def test_purge_timing_leaks_only_through_mi6(self):
        """Beyond-paper: the purge itself is a channel.  MI6's crossing
        purge drains the sender's modulated dirty footprint, so its
        timing carries the bit; the other models cross at constant
        cost and the receiver reads chance."""
        from repro.attacks.scenarios import run_attack_scenario
        from repro.config import SystemConfig

        cfg = SystemConfig.evaluation()
        bers = {
            m: run_attack_scenario("purge_timing", m, cfg, 4.0, 0)["ber"]
            for m in ("insecure", "sgx", "mi6", "ironhide", "fence_ts", "simf")
        }
        # The channel follows the dirty-footprint *drain*, not the purge
        # mechanism: MI6's software sequence and SIMF's single
        # instruction both drain at every crossing, so both leak.
        assert bers["mi6"] == 0.0
        assert bers["simf"] == 0.0
        # fence.t.s never drains the shared L2, so its fence latency
        # carries no victim footprint — flat like the non-purging models.
        for model in ("insecure", "sgx", "ironhide", "fence_ts"):
            assert bers[model] > 0.2, model

    def test_noc_covert_severed_only_by_ironhide(self):
        """Beyond-paper: link contention carries bits through any
        unpartitioned mesh (including MI6's); only IRONHIDE's cluster
        containment blocks the probe's route."""
        from repro.attacks.scenarios import run_attack_scenario
        from repro.config import SystemConfig

        cfg = SystemConfig.evaluation()
        for model in ("insecure", "sgx", "mi6", "fence_ts", "simf"):
            payload = run_attack_scenario("noc_covert", model, cfg, 4.0, 0)
            assert payload["ber"] == 0.0 and payload["blocked"] == 0, model
        severed = run_attack_scenario("noc_covert", "ironhide", cfg, 4.0, 0)
        assert severed["ber"] > 0.2
        assert severed["blocked"] == severed["bits"] + 2  # data + calibration


class TestTemporalModels:
    """fence_ts / simf: flush-schedule isolation without partitioning."""

    @pytest.mark.parametrize("model", TEMPORAL)
    def test_environment_carries_the_policy(self, model):
        from repro.machines import machine_policy

        env = AttackEnvironment.build(model)
        assert env.policy == machine_policy(model)
        assert env.policy.stateful and env.policy.flush_predictor
        # Unified hardware: no spatial isolation, shared slices remain.
        assert not env.strong_isolation
        assert env.shared_slices()

    @pytest.mark.parametrize("model", TEMPORAL)
    def test_occupancy_channels_stay_open(self, model):
        """No partitioning between flushes: prime+probe and the cache
        covert channel work exactly as they do under SGX."""
        env = AttackEnvironment.build(model)
        result = PrimeProbeAttack(env).run(secret=13)
        assert result.eviction_set_built and result.success
        env = AttackEnvironment.build(model)
        covert = CacheCovertChannel(env).transmit(TestCovertChannel.BITS)
        assert covert.channel_works
        assert covert.bit_error_rate == 0.0

    @pytest.mark.parametrize("model", TEMPORAL)
    def test_predictor_flush_severs_spectre(self, model):
        """The flush discards cross-domain branch mistraining, so the
        speculation never steers — blocked by the flush, not by a
        spectre guard (the temporal models have none)."""
        env = AttackEnvironment.build(model)
        result = SpectreAttack(env).run(secret=29)
        assert result.blocked_by_flush
        assert not result.blocked_by_guard
        assert not result.leaked
        assert result.recovered is None

    def test_strong_isolation_blocks_via_guard_not_flush(self):
        """MI6 flushes the predictor too, but its guard fires first —
        the result records the architectural defense, not the flush."""
        env = AttackEnvironment.build("mi6")
        result = SpectreAttack(env).run(secret=29)
        assert result.blocked_by_guard
        assert not result.blocked_by_flush

    @pytest.mark.parametrize("model", TEMPORAL)
    def test_noc_stays_observable(self, model):
        env = AttackEnvironment.build(model)
        assert NocTimingProbe(env).run().observable


# ---------------------------------------------------------------------------
# Batched schedules vs the per-touch loop
# ---------------------------------------------------------------------------


def per_touch_eviction_sets(attack, home_slice, target_sets):
    """Reference ``build_eviction_sets``: one ``run_trace`` per touch."""
    env = attack.env
    ways = env.config.l2_slice.associativity
    wanted = set(target_sets)
    coverage = {s: [] for s in target_sets}
    matched = 0
    for i in range(attack.max_search_pages):
        if i >= attack._GIVE_UP_PAGES and not matched:
            break
        vpage = attack._ATTACKER_PAGE_BASE + i
        try:
            attack._touch(env.attacker, vpage)
        except CacheIsolationViolation:
            continue
        frame = attack._frame(env.attacker, vpage)
        if int(env.hier.home_table[frame]) != home_slice:
            continue
        matched += 1
        base = attack._base_set(frame)
        for line_in_page in range(attack._lines_per_page):
            cache_set = (base + line_in_page) & (attack._n_sets - 1)
            if cache_set in wanted and len(coverage[cache_set]) < ways:
                coverage[cache_set].append((vpage, line_in_page))
        if all(len(v) >= ways for v in coverage.values()):
            break
    return coverage


def per_touch_run(attack, secret, rng):
    """Reference ``PrimeProbeAttack.run``: one ``run_trace`` per touch."""
    env = attack.env
    attack._touch(env.victim, attack._VICTIM_PAGE)
    victim_frame = attack._frame(env.victim, attack._VICTIM_PAGE)
    home = int(env.hier.home_table[victim_frame])
    victim_base = attack._base_set(victim_frame)
    candidate_sets = [
        (victim_base + i) & (attack._n_sets - 1) for i in range(attack._lines_per_page)
    ]
    coverage = per_touch_eviction_sets(attack, home, candidate_sets)
    ways = env.config.l2_slice.associativity
    if not all(len(v) >= ways for v in coverage.values()):
        return PrimeProbeResult(
            env.model, secret, int(rng.integers(0, attack._lines_per_page)), False, 0
        )
    primed_lines = {}
    for idx, cache_set in enumerate(candidate_sets):
        lines = []
        for vpage, line_in_page in coverage[cache_set][:ways]:
            attack._touch(env.attacker, vpage, line_in_page)
            lines.append(attack._line_id(attack._frame(env.attacker, vpage), line_in_page))
        primed_lines[idx] = lines
    attack._touch(env.victim, attack._VICTIM_PAGE, secret, write=True)
    slice_cache = env.hier.l2_slice(home)
    recovered = None
    for idx in range(attack._lines_per_page):
        if any(not slice_cache.contains(line) for line in primed_lines[idx]):
            recovered = idx
            break
    return PrimeProbeResult(env.model, secret, recovered, True, attack._lines_per_page)


def per_touch_transmit(channel, bits, rng):
    """Reference ``CacheCovertChannel.transmit``: one ``run_trace`` per touch."""
    env, pp = channel.env, channel._pp
    pp._touch(env.victim, pp._VICTIM_PAGE)
    sender_frame = pp._frame(env.victim, pp._VICTIM_PAGE)
    home = int(env.hier.home_table[sender_frame])
    agreed_set = (pp._base_set(sender_frame) + channel.AGREED_LINE) & (pp._n_sets - 1)
    coverage = per_touch_eviction_sets(pp, home, [agreed_set])
    ways = env.config.l2_slice.associativity
    can_prime = len(coverage[agreed_set]) >= ways
    received = []
    slice_cache = env.hier.l2_slice(home)
    for bit in bits:
        primed = []
        if can_prime:
            for vpage, line_in_page in coverage[agreed_set][:ways]:
                pp._touch(env.attacker, vpage, line_in_page)
                primed.append(pp._line_id(pp._frame(env.attacker, vpage), line_in_page))
        if bit:
            pp._touch(env.victim, pp._VICTIM_PAGE, channel.AGREED_LINE, write=True)
        if can_prime:
            received.append(int(any(not slice_cache.contains(line) for line in primed)))
        else:
            received.append(int(rng.integers(0, 2)))
    return CovertChannelResult(env.model, list(bits), received)


def cache_state(cache):
    """Stats and every set's ``[tag, dirty]`` entries, MRU-first."""
    if hasattr(cache, "set_entries"):
        sets = [cache.set_entries(s) for s in range(cache.n_sets)]
    else:
        sets = [[list(e) for e in cache._sets[s]] for s in range(cache.n_sets)]
    return cache.stats.snapshot(), sets


def tlb_state(tlb):
    entries = tlb.lru_entries() if hasattr(tlb, "lru_entries") else [int(p) for p in tlb._entries]
    return tlb.stats, entries


def assert_same_env_state(a, b):
    """Whole-state equality of two attack environments on one engine."""
    ha, hb = a.hier, b.hier
    for ctx_a, ctx_b in ((a.victim, b.victim), (a.attacker, b.attacker)):
        assert ctx_a.vm.page_table == ctx_b.vm.page_table
        assert ctx_a._rr_next == ctx_b._rr_next
        assert (ctx_a._replicated or set()) == (ctx_b._replicated or set())
    assert [r.next_free for r in ha.address_space.regions] == [
        r.next_free for r in hb.address_space.regions
    ]
    assert np.array_equal(ha.home_table, hb.home_table)
    for name in ("_l1", "_l2"):
        ca, cb = getattr(ha, name), getattr(hb, name)
        assert set(ca) == set(cb), name
        for key in ca:
            assert cache_state(ca[key]) == cache_state(cb[key]), (name, key)
    assert set(ha._tlb) == set(hb._tlb)
    for core in ha._tlb:
        assert tlb_state(ha._tlb[core]) == tlb_state(hb._tlb[core]), core
    for mc_a, mc_b in zip(ha.controllers, hb.controllers):
        assert mc_a.stats == mc_b.stats
        assert (mc_a._busy_until, mc_a._pending) == (mc_b._busy_until, mc_b._pending)


def env_pair(model, engine):
    """Two identical fresh environments on ``engine``."""
    from repro.config import SystemConfig

    config = SystemConfig.evaluation().with_engine(engine)
    return AttackEnvironment.build(model, config), AttackEnvironment.build(model, config)


@pytest.mark.equivalence
class TestScheduleEquivalence:
    """The harnesses' batched schedules leave exactly the per-touch state.

    ``build_eviction_sets``, ``run`` and ``transmit`` replay their
    touches as planned schedules; the references above are the
    one-``run_trace``-per-touch loops the schedules replace.  Results,
    page tables, the frame allocator, homing cursors and table, every
    cache and TLB (entries and stats) and controller traffic must match
    on both engines.
    """

    ENGINES = ("scalar", "vector")

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("model", ISOLATION_MODELS)
    def test_prime_probe_run(self, model, engine):
        batched, per_touch = env_pair(model, engine)
        got = PrimeProbeAttack(batched).run(29, np.random.default_rng(5))
        want = per_touch_run(PrimeProbeAttack(per_touch), 29, np.random.default_rng(5))
        assert got == want
        assert_same_env_state(batched, per_touch)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("model", ISOLATION_MODELS)
    def test_covert_transmit(self, model, engine):
        bits = TestCovertChannel.BITS[:12]
        batched, per_touch = env_pair(model, engine)
        got = CacheCovertChannel(batched).transmit(bits, np.random.default_rng(5))
        want = per_touch_transmit(
            CacheCovertChannel(per_touch), bits, np.random.default_rng(5)
        )
        assert got == want
        assert_same_env_state(batched, per_touch)

    @staticmethod
    def _victim_home(env, attack):
        attack._touch(env.victim, attack._VICTIM_PAGE)
        return int(env.hier.home_table[env.victim.vm.page_table[attack._VICTIM_PAGE]])

    @pytest.mark.parametrize("engine", ENGINES)
    def test_isolation_violation_mid_search(self, engine):
        """A later attacker page pre-homed into the victim's slice (as
        in ``test_direct_probe_of_victim_slice_raises``) is skipped at
        the same index by both."""
        envs = env_pair("ironhide", engine)
        coverages = []
        for env, build in zip(envs, ("batched", "per_touch")):
            attack = PrimeProbeAttack(env)
            home = self._victim_home(env, attack)
            vpage = attack._ATTACKER_PAGE_BASE + 5
            attack._touch(env.attacker, vpage)
            env.hier.home_table[env.attacker.vm.page_table[vpage]] = home
            with pytest.raises(CacheIsolationViolation):
                attack._touch(env.attacker, vpage)
            sets = [home * 7 % attack._n_sets]
            if build == "batched":
                coverages.append(attack.build_eviction_sets(home, sets))
            else:
                coverages.append(per_touch_eviction_sets(attack, home, sets))
        assert coverages[0] == coverages[1]
        # The pre-touch plus 255 of the 256 searched pages: page 5 is skipped.
        tlb = envs[0].hier.tlb_for(envs[0].attacker.rep_core)
        assert tlb.stats.accesses == PrimeProbeAttack._GIVE_UP_PAGES
        assert_same_env_state(*envs)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("model", STRONG)
    def test_escaping_error_replays_decided_prefix(self, model, engine):
        """A ``MemoryIsolationViolation`` mid-search propagates after
        the touches decided before it are replayed: the state at the
        raise equals the per-touch loop's."""
        envs = env_pair(model, engine)
        for env, build in zip(envs, ("batched", "per_touch")):
            attack = PrimeProbeAttack(env)
            home = self._victim_home(env, attack)
            # Map a later attacker page onto a frame of the victim's
            # DRAM region.
            attack._touch(env.victim, attack._VICTIM_PAGE + 1)
            victim_frame = env.victim.vm.page_table[attack._VICTIM_PAGE + 1]
            env.attacker.vm.page_table[attack._ATTACKER_PAGE_BASE + 9] = victim_frame
            l1 = env.hier.l1_for(env.attacker.rep_core)
            before = l1.stats.accesses
            with pytest.raises(MemoryIsolationViolation):
                if build == "batched":
                    attack.build_eviction_sets(home, [0, 1])
                else:
                    per_touch_eviction_sets(attack, home, [0, 1])
            # Pages 0-8 were decided before the raise, and replayed.
            assert l1.stats.accesses - before == 9
        assert_same_env_state(*envs)
