"""Picklable attack scenarios for the figattack sweep.

Each scenario runs one attack kind against one isolation model at one
``trace_scale`` (which sets the trial/bit/packet budget) and returns a
small JSON-able payload that the result store can round-trip bit-
exactly.  The figattack experiment schedules these through the shared
:mod:`repro.experiments.sweep` WorkUnit machinery, so everything here
is importable at module level and driven purely by
``(kind, model, config, scale, seed)`` — no hidden state, no ambient
randomness (see :mod:`repro.attacks.seeding`).

Four scenarios wrap the existing harnesses (prime+probe, cache covert
channel, NoC probe, Spectre).  Two go beyond the paper's evaluation:

* ``purge_timing`` — a Shield-Bash-style channel *through the defense
  itself*: a malicious secure sender modulates its dirty-cache
  footprint, and the receiver times the crossing flush.  Any policy
  that drains the controllers at crossings (MI6's software purge,
  SIMF's bulk-flush instruction) carries the bit in the drain time;
  IRONHIDE (no crossing purge), sgx/insecure (no purge at all) and
  fence.t.s (core-local fence only) show a constant crossing cost and
  the channel collapses.
* ``noc_covert`` — generalizes the NoC probe into an intentional
  covert channel: the sender bursts packets at a shared destination
  and the receiver times one probe packet through the contended
  links.  IRONHIDE's cluster containment blocks both the burst's
  route and the probe's, severing the channel.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.arch.batch_replay import Segment, schedule_runner
from repro.arch.noc import Packet
from repro.arch.routing import route_xy
from repro.attacks.analysis import (
    bit_error_rate,
    channel_capacity_estimate,
    classify_by_threshold,
    recovery_rate,
)
from repro.attacks.covert_channel import CacheCovertChannel
from repro.attacks.environment import ISOLATION_MODELS, AttackEnvironment
from repro.attacks.noc_probe import NocTimingProbe
from repro.attacks.prime_probe import PrimeProbeAttack
from repro.attacks.seeding import attack_rng
from repro.attacks.spectre import SpectreAttack
from repro.config import SystemConfig
from repro.errors import ConfigError

#: All schedulable attack kinds, in presentation order.
ATTACK_KINDS = (
    "prime_probe",
    "covert",
    "noc_probe",
    "spectre",
    "purge_timing",
    "noc_covert",
)

# Trial budgets per unit of trace scale; sized from measured harness
# costs so the quick grid stays in interactive territory.
_PRIME_PROBE_TRIALS = 1
_COVERT_BITS = 8
_NOC_PACKETS = 16
_SPECTRE_TRIALS = 2
_PURGE_BITS = 4
_NOC_COVERT_BITS = 4

# Dirty-footprint modulation for the purge-timing sender (lines written
# per symbol): far enough apart that the per-controller drain quantum
# cannot alias them.
_PURGE_FOOTPRINT = {0: 8, 1: 96}

# NoC covert-channel shape: the sender's per-bit burst and packet size.
_NOC_BURST_PACKETS = 8
_NOC_BURST_BYTES = 256


def _scenario_rng(kind: str, model: str, scale: float, seed: int) -> np.random.Generator:
    """The one generator a scenario draws from (secrets, payload bits)."""
    return attack_rng(seed, kind, model, float(scale))


def run_prime_probe(
    model: str, config: SystemConfig, scale: float, seed: int
) -> Dict[str, object]:
    """Independent prime+probe trials; fresh environment per trial."""
    rng = _scenario_rng("prime_probe", model, scale, seed)
    trials = max(1, int(round(_PRIME_PROBE_TRIALS * scale)))
    secrets: List[int] = []
    recovered: List[object] = []
    built = 0
    for _ in range(trials):
        env = AttackEnvironment.build(model, config)
        attack = PrimeProbeAttack(env)
        secret = int(rng.integers(0, attack._lines_per_page))
        result = attack.run(secret, rng)
        secrets.append(secret)
        recovered.append(result.recovered)
        built += 1 if result.eviction_set_built else 0
    rate = recovery_rate(secrets, recovered)
    return {
        "trials": trials,
        "recovery_rate": rate,
        "error_rate": 1.0 - rate,
        "eviction_sets": built,
    }


def run_covert(
    model: str, config: SystemConfig, scale: float, seed: int
) -> Dict[str, object]:
    """Cache covert channel: one transmission of ``8 * scale`` bits."""
    rng = _scenario_rng("covert", model, scale, seed)
    n_bits = max(1, int(round(_COVERT_BITS * scale)))
    bits = [int(b) for b in rng.integers(0, 2, size=n_bits)]
    env = AttackEnvironment.build(model, config)
    result = CacheCovertChannel(env).transmit(bits, rng)
    ber = bit_error_rate(result.sent, result.received)
    return {
        "bits": n_bits,
        "ber": ber,
        "capacity": channel_capacity_estimate(ber),
    }


def run_noc_probe(
    model: str, config: SystemConfig, scale: float, seed: int
) -> Dict[str, object]:
    """NoC timing probe over ``16 * scale`` victim packets."""
    n_packets = max(1, int(round(_NOC_PACKETS * scale)))
    env = AttackEnvironment.build(model, config)
    result = NocTimingProbe(env).run(n_packets)
    return {
        "packets": n_packets,
        "observed": result.observed_transits,
        "blocked": result.blocked_packets,
        "transits_per_packet": result.observed_transits / n_packets,
    }


def run_spectre(
    model: str, config: SystemConfig, scale: float, seed: int
) -> Dict[str, object]:
    """Independent Spectre trials; fresh environment per trial."""
    rng = _scenario_rng("spectre", model, scale, seed)
    trials = max(1, int(round(_SPECTRE_TRIALS * scale)))
    leaks = 0
    blocks = 0
    for _ in range(trials):
        env = AttackEnvironment.build(model, config)
        attack = SpectreAttack(env)
        # Line 0 is indistinguishable from "probe array warmed", so the
        # transmit convention uses indices 1..lines-1.
        secret = int(rng.integers(1, attack._lines_per_page))
        result = attack.run(secret)
        leaks += 1 if result.leaked else 0
        blocks += 1 if (result.blocked_by_guard or result.blocked_by_flush) else 0
    return {
        "trials": trials,
        "leak_rate": leaks / trials,
        "blocked_rate": blocks / trials,
    }


def _purge_addrs(config: SystemConfig, bit: int) -> np.ndarray:
    """The sender's writes for one symbol: its first ``_PURGE_FOOTPRINT[bit]`` lines."""
    i = np.arange(_PURGE_FOOTPRINT[int(bit)], dtype=np.int64)
    lines_per_page = config.page_bytes // config.line_bytes
    return (i // lines_per_page) * config.page_bytes + (i % lines_per_page) * config.line_bytes


def _observe_crossing(env: AttackEnvironment) -> float:
    """The receiver's observation of one domain crossing.

    On MI6 the crossing purges, and the observable cost is the
    controller drain, which scales with the sender's dirty footprint.
    Every other model crosses at a footprint-independent cost, so the
    observation carries no signal.
    """
    pol = env.policy
    if pol.schedule == "crossing" and pol.drain_controllers:
        # The crossing flushes through the memory controllers (MI6's
        # software purge, SIMF's bulk-flush instruction): the drain time
        # is the observable, and it scales with the dirty footprint.
        report = env.purge_model.flush(
            env.hier,
            cores=[env.victim.rep_core, env.attacker.rep_core],
            l2_slices=list(env.victim.slices) + list(env.attacker.slices),
            controllers=list(env.victim.controllers),
            flush_private=pol.flush_private,
            flush_l2_dirty=pol.flush_l2_dirty,
            drain_controllers=pol.drain_controllers,
            software_sequence=pol.software_sequence,
        )
        return float(report.mc_drain_cycles)
    # No controller drain at crossings (IRONHIDE's isolation is
    # spatial; sgx/insecure never purge; fence.t.s flushes only
    # core-local state on its periodic fence): clean up so symbols
    # stay independent, and observe the constant crossing cost.
    env.hier.clean_l2(list(env.victim.slices))
    return 0.0


def _purge_samples(env: AttackEnvironment, symbols: Sequence[int]) -> List[float]:
    """One purge-timing observation per transmitted symbol.

    Per symbol the sender dirties its footprint of its own memory, then
    the domain crossing happens.  The sender's writes are one schedule,
    planned once; each symbol is one epoch of it, and the crossing
    happens between epochs.
    """
    addrs = {bit: _purge_addrs(env.config, bit) for bit in _PURGE_FOOTPRINT}
    run_epoch = schedule_runner(env.hier, [
        Segment(env.victim, addrs[bit], np.ones(len(addrs[bit]), dtype=np.int8))
        for bit in symbols
    ])
    samples = []
    for k in range(len(symbols)):
        run_epoch(k, k + 1)
        samples.append(_observe_crossing(env))
    return samples


def run_purge_timing(
    model: str, config: SystemConfig, scale: float, seed: int
) -> Dict[str, object]:
    """Shield-Bash-style purge-timing channel over ``4 * scale`` bits."""
    rng = _scenario_rng("purge_timing", model, scale, seed)
    n_bits = max(1, int(round(_PURGE_BITS * scale)))
    bits = [int(b) for b in rng.integers(0, 2, size=n_bits)]
    env = AttackEnvironment.build(model, config)
    # The receiver calibrates with one known symbol of each value.
    zero_cal, one_cal, *samples = _purge_samples(env, [0, 1] + bits)
    received = classify_by_threshold([zero_cal], [one_cal], samples)
    ber = bit_error_rate(bits, received)
    return {
        "bits": n_bits,
        "ber": ber,
        "capacity": channel_capacity_estimate(ber),
    }


def _contending_pair(env: AttackEnvironment, anchor: int) -> Tuple[int, int]:
    """A (sender core, receiver core) pair whose routes to ``anchor`` share a link.

    Deterministic search over the first few cores of each domain; on an
    unpartitioned mesh two flows converging on one destination share at
    least the final approach for many pairs.  Falls back to the
    representative cores if nothing overlaps (the channel then simply
    degrades to noise, a defined outcome).
    """
    topo = env.hier.mesh
    for sender in list(env.victim.cores)[:8]:
        path_s = route_xy(topo, sender, anchor)
        links_s = set(zip(path_s, path_s[1:]))
        for receiver in list(env.attacker.cores)[:8]:
            path_r = route_xy(topo, receiver, anchor)
            if links_s & set(zip(path_r, path_r[1:])):
                return sender, receiver
    return env.victim.rep_core, env.attacker.rep_core


def run_noc_covert(
    model: str, config: SystemConfig, scale: float, seed: int
) -> Dict[str, object]:
    """NoC-contention covert channel over ``4 * scale`` bits.

    Per bit the network is quiesced; for a 1 the sender bursts
    ``_NOC_BURST_PACKETS`` packets at the sender-side memory-controller
    anchor, then the receiver times a single probe packet to the same
    anchor.  Link serialization inflates the probe latency behind a
    burst.  Under IRONHIDE the probe's route leaves the receiver's
    cluster and is blocked, so the observation is constant and the
    classifier reads every bit as 0.
    """
    rng = _scenario_rng("noc_covert", model, scale, seed)
    n_bits = max(1, int(round(_NOC_COVERT_BITS * scale)))
    bits = [int(b) for b in rng.integers(0, 2, size=n_bits)]
    env = AttackEnvironment.build(model, config)
    net = env.network
    anchor = env.hier.mesh.mc_anchor_core(env.victim.controllers[-1])
    sender, receiver = _contending_pair(env, anchor)
    sender_allowed = env.victim_network
    if sender_allowed is not None:
        sender_allowed = frozenset(sender_allowed) | {anchor}

    blocked = 0

    def observe(bit: int) -> float:
        """Probe latency behind (bit=1) or without (bit=0) a burst."""
        nonlocal blocked
        net.reset()
        if bit:
            for k in range(_NOC_BURST_PACKETS):
                net.try_send(
                    Packet(src=sender, dst=anchor, size_bytes=_NOC_BURST_BYTES),
                    allowed=sender_allowed,
                )
        probe = net.try_send(
            Packet(src=receiver, dst=anchor, size_bytes=64),
            allowed=env.attacker_network,
        )
        if probe is None:
            blocked += 1
            return 0.0
        return float(probe.latency)

    zero_cal = [observe(0)]
    one_cal = [observe(1)]
    samples = [observe(bit) for bit in bits]
    received = classify_by_threshold(zero_cal, one_cal, samples)
    ber = bit_error_rate(bits, received)
    return {
        "bits": n_bits,
        "ber": ber,
        "capacity": channel_capacity_estimate(ber),
        "blocked": blocked,
    }


_SCENARIOS = {
    "prime_probe": run_prime_probe,
    "covert": run_covert,
    "noc_probe": run_noc_probe,
    "spectre": run_spectre,
    "purge_timing": run_purge_timing,
    "noc_covert": run_noc_covert,
}


def run_attack_scenario(
    kind: str, model: str, config: SystemConfig, scale: float, seed: int
) -> Dict[str, object]:
    """Run one attack scenario and return its JSON-able payload.

    ``kind`` is one of :data:`ATTACK_KINDS`, ``model`` one of
    :data:`~repro.attacks.environment.ISOLATION_MODELS`; ``scale``
    multiplies the kind's base trial budget and ``seed`` pins every
    random choice.
    """
    if kind not in _SCENARIOS:
        raise ConfigError(f"unknown attack kind {kind!r}")
    if model not in ISOLATION_MODELS:
        raise ConfigError(f"unknown isolation model {model!r}")
    if not (isinstance(scale, (int, float)) and math.isfinite(scale) and scale > 0):
        raise ConfigError(f"trace scale must be a positive number, got {scale!r}")
    return _SCENARIOS[kind](model, config, float(scale), int(seed))
