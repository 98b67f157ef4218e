"""Cache covert channel between a secure sender and insecure receiver.

A malicious (or compromised) secure process tries to exfiltrate bits by
modulating a shared L2 set: for a 1-bit it accesses a line mapping to
the agreed set, for a 0-bit it stays quiet; the receiver primes the set
beforehand and probes afterwards.  With temporal sharing (SGX-like) the
channel is clean.  Under MI6/IRONHIDE the receiver cannot place lines
in any slice the sender can touch, so its observations carry no signal
and the channel collapses to coin flips.

The whole transmission is one schedule of one-line touches, planned
once; each bit is one epoch of it (its own segments, see
:meth:`~repro.attacks.prime_probe.PrimeProbeAttack._schedule`), and
the receiver probes the set between epochs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.arch.batch_replay import schedule_runner
from repro.attacks.environment import AttackEnvironment
from repro.attacks.prime_probe import PrimeProbeAttack, Touch
from repro.attacks.seeding import attack_rng


@dataclass
class CovertChannelResult:
    model: str
    sent: List[int]
    received: List[int]

    @property
    def bit_error_rate(self) -> float:
        errors = sum(1 for s, r in zip(self.sent, self.received) if s != r)
        return errors / len(self.sent) if self.sent else 0.0

    @property
    def channel_works(self) -> bool:
        return self.bit_error_rate < 0.05


class CacheCovertChannel:
    """Send a bit string through L2 set contention."""

    AGREED_LINE = 7  # line index within the sender's page

    def __init__(self, env: AttackEnvironment):
        self.env = env
        self._pp = PrimeProbeAttack(env)

    def transmit(
        self,
        bits: List[int],
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
    ) -> CovertChannelResult:
        """Transmit ``bits``; ``rng``/``seed`` drive the severed-channel noise."""
        env = self.env
        if rng is None:
            rng = attack_rng(seed, "covert", env.model)
        pp = self._pp

        # Sender's page; the agreed set derives from its layout.
        pp._touch(env.victim, pp._VICTIM_PAGE)
        sender_frame = pp._frame(env.victim, pp._VICTIM_PAGE)
        home = int(env.hier.home_table[sender_frame])
        agreed_set = (pp._base_set(sender_frame) + self.AGREED_LINE) & (pp._n_sets - 1)

        coverage = pp.build_eviction_sets(home, [agreed_set])
        ways = env.config.l2_slice.associativity
        can_prime = len(coverage[agreed_set]) >= ways

        # The whole transmission is one schedule, planned once: per bit
        # the receiver primes the set, then the sender writes for a 1.
        touches: List[Touch] = []
        epochs = [0]
        primed: List[int] = []
        if can_prime:
            for vpage, line_in_page in coverage[agreed_set][:ways]:
                frame = pp._frame(env.attacker, vpage)
                primed.append(pp._line_id(frame, line_in_page))
        for bit in bits:
            if can_prime:
                touches.extend(
                    (env.attacker, vpage, line_in_page, False)
                    for vpage, line_in_page in coverage[agreed_set][:ways]
                )
            if bit:
                touches.append((env.victim, pp._VICTIM_PAGE, self.AGREED_LINE, True))
            epochs.append(len(touches))
        segments, epochs = pp._schedule(touches, epochs)
        run_epoch = schedule_runner(env.hier, segments)

        received: List[int] = []
        slice_cache = env.hier.l2_slice(home)
        for a, b in zip(epochs[:-1], epochs[1:]):
            run_epoch(a, b)
            # Receiver probes.
            if can_prime:
                evicted = any(not slice_cache.contains(line) for line in primed)
                received.append(1 if evicted else 0)
            else:
                # No observable state: the receiver is reduced to noise.
                received.append(int(rng.integers(0, 2)))
        return CovertChannelResult(env.model, list(bits), received)
