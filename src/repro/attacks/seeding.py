"""Deterministic RNG derivation for the attack harnesses.

Every attack harness needs randomness (secrets to recover, bit strings
to transmit, the chance-level guesses a severed channel degrades to),
and every run must be reproducible *and store-keyable*: the same
``ExperimentSettings.seed`` must replay bit-identically, and distinct
scenarios must not share a stream.  :func:`attack_rng` derives one
independent :class:`numpy.random.Generator` per ``(seed, *scope)``
via :class:`numpy.random.SeedSequence`, with scope strings folded in
through a stable content digest (:func:`repro.faults.scope_word`,
shared with the fault layer) — no process-salted ``hash()``, no
wall-clock entropy, so the derivation itself is deterministic across
interpreters and pool workers.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.faults import scope_word

ScopePart = Union[str, int, float]


def attack_rng(seed: int, *scope: ScopePart) -> np.random.Generator:
    """An independent, reproducible generator for one attack scenario.

    ``seed`` is the experiment-level seed (threaded from
    ``ExperimentSettings.seed``); ``scope`` names the consumer — e.g.
    ``attack_rng(seed, "covert", "mi6", 4.0)`` — so no two scenarios,
    models or trace scales ever share a stream.
    """
    sequence = np.random.SeedSequence(
        entropy=int(seed) & ((1 << 64) - 1),
        spawn_key=tuple(scope_word(part) for part in scope),
    )
    return np.random.default_rng(sequence)
