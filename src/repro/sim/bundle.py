"""Trace materialization: whole-run interaction bundles, cached.

The measured run of every machine consumes one trace per interaction
per process.  Generating those traces one at a time costs a workload
generator call per interaction — dozens of small NumPy allocations and
an interleave each — and regenerating them for every machine in a
figure matrix multiplies that by four.

A :class:`TraceBundle` materializes a process's whole interaction
stream at once: the workload generator is invoked a single time for the
run (vectorized generators emit every interaction in one NumPy pass),
the per-interaction traces are concatenated into one contiguous address
/write array, and segment offsets preserve the interaction boundaries
so both the per-interaction replay loop (scalar oracle) and the batched
replay pipeline slice the *same* bytes.

Bundles are cached (bounded, LRU) under a key that pins everything the
stream depends on — workload/app name, role, seed, index range and the
:attr:`~repro.workloads.base.AppSpec.trace_scale` knob — so the four
machines of a figure matrix, and both replay engines of the
equivalence suite, share one materialization per app.  A bundle also
carries its run-length-compressed events (:meth:`TraceBundle.events`,
per line size): the batched replay planner compresses a bundle once,
however many machines replay it, and the cache's byte cap counts them.

The bundle stream is *canonical*: each (app, role, seed, range, scale)
key deterministically defines the traces, independent of which machine
or engine consumes them.  Trace generation draws from a dedicated
seeded generator per bundle rather than the machine's interleaved
per-interaction RNG, which is what makes one materialization reusable
across machines.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.batch_replay import compress_runs
from repro.sim.trace import Trace

#: Entropy tag separating bundle RNG streams from every other seeded
#: generator in the codebase.
_BUNDLE_TAG = 0x1B0B5EED

#: Offset making interaction indices non-negative for SeedSequence
#: (warm-up interactions use negative indices down to -10_000).
_INDEX_BIAS = 1 << 20


@dataclass
class TraceBundle:
    """One process's materialized interaction stream.

    ``offsets`` has ``n_segments + 1`` entries; segment ``k`` is
    ``addrs[offsets[k]:offsets[k+1]]``.  ``start`` is the interaction
    index of segment 0 (warm-up interactions are negative).
    """

    addrs: np.ndarray
    writes: Optional[np.ndarray]
    offsets: np.ndarray
    instr_per_access: np.ndarray  # one value per segment
    start: int
    _events: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def n_segments(self) -> int:
        """Number of interactions materialized in this bundle."""
        return len(self.offsets) - 1

    def __len__(self) -> int:
        return len(self.addrs)

    def segment(self, k: int) -> Trace:
        """Interaction ``start + k`` as a (zero-copy) :class:`Trace`."""
        a, b = int(self.offsets[k]), int(self.offsets[k + 1])
        return Trace(
            self.addrs[a:b],
            None if self.writes is None else self.writes[a:b],
            float(self.instr_per_access[k]),
        )

    def events(self, line_bytes: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run-length-compressed events of every segment, for one line size.

        ``(vlines, writes, ev_offsets)`` as
        :func:`~repro.arch.batch_replay.compress_runs` returns them for
        the bundle's segments: segment ``k``'s events are
        ``[ev_offsets[k], ev_offsets[k+1])``.  Computed on first use
        and kept with the bundle, so every machine that replays it
        shares one compression.
        """
        events = self._events.get(line_bytes)
        if events is None:
            shift = (line_bytes - 1).bit_length()
            events = compress_runs(self.addrs >> shift, self.writes, self.offsets)
            self._events[line_bytes] = events
        return events

    def traces(self) -> List[Trace]:
        """All segments as (zero-copy) per-interaction traces."""
        return [self.segment(k) for k in range(self.n_segments)]

    @staticmethod
    def from_traces(traces: Sequence[Trace], start: int = 0) -> "TraceBundle":
        """Concatenate per-interaction traces, preserving boundaries."""
        offsets = np.zeros(len(traces) + 1, dtype=np.int64)
        np.cumsum([len(t) for t in traces], out=offsets[1:])
        if traces:
            addrs = np.concatenate([t.addrs for t in traces])
        else:
            addrs = np.empty(0, dtype=np.int64)
        if any(t.writes is not None for t in traces):
            writes = np.concatenate([
                t.writes.astype(np.int8, copy=False)
                if t.writes is not None
                else np.zeros(len(t), dtype=np.int8)
                for t in traces
            ])
        else:
            writes = None
        ipa = np.asarray([t.instr_per_access for t in traces], dtype=np.float64)
        return TraceBundle(addrs, writes, offsets, ipa, start)


def bundle_rng(
    name: str, role: str, seed: int, start: int, count: int, scale: float
) -> np.random.Generator:
    """The dedicated generator a bundle's traces are drawn from."""
    tag = zlib.crc32(f"{name}/{role}".encode())
    return np.random.default_rng(
        [
            _BUNDLE_TAG,
            tag,
            int(seed) & 0xFFFFFFFF,
            int(start) + _INDEX_BIAS,
            int(count),
            int(round(scale * 1024)),
        ]
    )


# ---------------------------------------------------------------------------
# Bounded bundle cache
# ---------------------------------------------------------------------------

#: Entry-count and byte caps; the byte cap matters because
#: ``trace_scale`` makes individual bundles arbitrarily large.
_CACHE_CAP = 64
_CACHE_MAX_BYTES = 256 * 1024 * 1024
_CACHE: "OrderedDict[Tuple, TraceBundle]" = OrderedDict()


def _bundle_nbytes(bundle: TraceBundle) -> int:
    return (
        bundle.addrs.nbytes
        + (bundle.writes.nbytes if bundle.writes is not None else 0)
        + bundle.offsets.nbytes
        + bundle.instr_per_access.nbytes
        + sum(a.nbytes for events in bundle._events.values() for a in events)
    )


def clear_bundle_cache() -> None:
    """Drop every cached bundle (tests, cold benchmarks).

    This is the only explicit invalidation the bundle cache has — and
    the only one it needs: cache keys pin every input of the stream
    (app, role, seed, index range, ``trace_scale``), so entries can
    become *unused* but never stale.  Capacity eviction is automatic
    (LRU past :data:`_CACHE_CAP` entries / :data:`_CACHE_MAX_BYTES`).
    """
    # Explicit invalidation of the per-process bundle LRU.
    _CACHE.clear()  # repro: allow[mp.global-write]


def bundle_cache_size() -> int:
    """Number of bundles currently cached (tests and diagnostics)."""
    return len(_CACHE)


def bundle_cache_bytes() -> int:
    """Total bytes held by cached bundles (the eviction cap's metric)."""
    return sum(_bundle_nbytes(b) for b in _CACHE.values())


def interaction_bundle(app, role: str, proc, seed: int, start: int, count: int) -> TraceBundle:
    """The cached bundle for ``count`` interactions of one process.

    ``app`` is the :class:`~repro.workloads.base.AppSpec` being run and
    ``role`` is ``"secure"`` or ``"insecure"``; together with ``seed``,
    the index range and ``app.trace_scale`` they key the cache, so every
    machine (and both replay engines) of a matrix reuses one
    materialization.  ``proc`` must be the matching process instance
    (machines pass the ones ``app.processes()`` built).
    """
    scale = float(getattr(app, "trace_scale", 1.0))
    key = (app.name, role, int(seed), int(start), int(count), scale)
    bundle = _CACHE.get(key)
    if bundle is not None:
        # Per-process content-addressed LRU: the key pins every input
        # of the stream, so a cold worker recomputes bit-identical
        # bundles — warmth changes speed, never results.
        _CACHE.move_to_end(key)  # repro: allow[mp.global-write]
        return bundle
    rng = bundle_rng(app.name, role, seed, start, count, scale)
    traces = proc.batch_traces(rng, start, count, scale=scale)
    bundle = TraceBundle.from_traces(traces, start)
    _CACHE[key] = bundle
    # Evict LRU entries past either cap; the fresh bundle always stays.
    while len(_CACHE) > 1 and (
        len(_CACHE) > _CACHE_CAP or bundle_cache_bytes() > _CACHE_MAX_BYTES
    ):
        _CACHE.popitem(last=False)
    return bundle
