"""Vectorized access-pattern building blocks.

Workload trace generators compose these primitives.  Every function
returns an ``int64`` array of virtual byte addresses (and, where useful,
a write mask).  Regions are laid out by the caller via ``base`` offsets;
generators keep each logical data structure (graph CSR arrays, AES
tables, item heaps, file caches...) in its own region so working sets
and locality are explicit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def sequential(base: int, length_bytes: int, stride: int = 8, n: Optional[int] = None) -> np.ndarray:
    """A linear sweep over ``[base, base + length_bytes)``."""
    addrs = np.arange(0, length_bytes, stride, dtype=np.int64)
    if n is not None:
        if n <= len(addrs):
            addrs = addrs[:n]
        else:
            reps = -(-n // len(addrs))
            addrs = np.tile(addrs, reps)[:n]
    return base + addrs


def uniform_random(
    rng: np.random.Generator, base: int, region_bytes: int, n, granule: int = 8
) -> np.ndarray:
    """Uniformly random accesses across a region (no locality).

    ``n`` may be a shape tuple — batched generators draw one
    ``(interactions, accesses)`` matrix in a single call.
    """
    slots = max(1, region_bytes // granule)
    return base + rng.integers(0, slots, size=n, dtype=np.int64) * granule


def zipf(
    rng: np.random.Generator,
    base: int,
    n_items: int,
    item_bytes: int,
    n,
    alpha: float = 1.1,
) -> np.ndarray:
    """Zipf-distributed item accesses (hot-set reuse, long cold tail).

    ``n`` may be a shape tuple (see :func:`uniform_random`).
    """
    if n_items < 1:
        raise ValueError("need at least one item")
    ranks = rng.zipf(alpha, size=n)
    items = np.minimum(ranks - 1, n_items - 1).astype(np.int64)
    offsets = rng.integers(0, max(1, item_bytes // 8), size=n, dtype=np.int64) * 8
    return base + items * item_bytes + offsets


def hot_cold(
    rng: np.random.Generator,
    hot_base: int,
    hot_bytes: int,
    cold_base: int,
    cold_bytes: int,
    n: int,
    hot_fraction: float = 0.8,
) -> np.ndarray:
    """Mix of a small reused hot set and a large cold region."""
    is_hot = rng.random(n) < hot_fraction
    n_hot = int(is_hot.sum())
    addrs = np.empty(n, dtype=np.int64)
    addrs[is_hot] = uniform_random(rng, hot_base, hot_bytes, n_hot)
    addrs[~is_hot] = uniform_random(rng, cold_base, cold_bytes, n - n_hot)
    return addrs


def segmented_sequential(
    rng: np.random.Generator,
    base: int,
    region_bytes: int,
    n: int,
    segment_bytes: int = 512,
    stride: int = 8,
) -> np.ndarray:
    """Short sequential runs at random positions (adjacency-list scans).

    Models CSR neighbour walks and record scans: pick a random start in
    the region, stream ``segment_bytes`` sequentially, repeat.
    """
    per_seg = max(1, segment_bytes // stride)
    n_segs = -(-n // per_seg)
    slots = max(1, (region_bytes - segment_bytes) // 64)
    starts = rng.integers(0, slots, size=n_segs, dtype=np.int64) * 64
    offsets = np.arange(per_seg, dtype=np.int64) * stride
    addrs = (starts[:, None] + offsets[None, :]).reshape(-1)[:n]
    return base + addrs


def rotating_window(
    base: int,
    region_bytes: int,
    index: int,
    window_bytes: int,
    n: int,
    stride: int = 64,
) -> np.ndarray:
    """Sequential sweep over the ``index``-th window of a large region.

    Single-pass workloads (triangle counting's one-shot traversal,
    layer-wise weight streaming) touch a different slab each interaction;
    the steady-state footprint is the whole region while per-interaction
    traces stay short.
    """
    n_windows = max(1, region_bytes // window_bytes)
    start = (index % n_windows) * window_bytes
    addrs = start + (np.arange(n, dtype=np.int64) * stride) % window_bytes
    return base + addrs


def strided(base: int, n: int, stride: int, window_bytes: int) -> np.ndarray:
    """A strided sweep wrapping inside a window (stencil row walks)."""
    return base + (np.arange(n, dtype=np.int64) * stride) % max(stride, window_bytes)


def interleave(*streams: np.ndarray) -> np.ndarray:
    """Round-robin interleave several address streams."""
    streams = [s for s in streams if len(s)]
    if not streams:
        return np.empty(0, dtype=np.int64)
    if len(streams) == 1:
        return streams[0]
    n = sum(len(s) for s in streams)
    out = np.empty(n, dtype=np.int64)
    k = len(streams)
    longest = max(len(s) for s in streams)
    pos = 0
    chunks = []
    cursors = [0] * k
    # Interleave in small blocks to mimic pipelined phases while keeping
    # per-stream spatial locality runs intact.
    block = 16
    while pos < n:
        for i, s in enumerate(streams):
            c = cursors[i]
            if c >= len(s):
                continue
            take = min(block, len(s) - c)
            out[pos : pos + take] = s[c : c + take]
            cursors[i] = c + take
            pos += take
    return out


def interleave_pattern(lengths) -> np.ndarray:
    """Index pattern :func:`interleave` produces for the given lengths.

    Batched trace generators build every interaction's sub-streams as
    rows of ``(count, len)`` matrices; because the per-interaction
    stream lengths are constant, the interleave order is one fixed
    permutation of column indices.  Computing it once and applying it
    with a single fancy-index replaces the per-interaction Python loop.
    """
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64)
    streams = [
        np.arange(length, dtype=np.int64) + off
        for length, off in zip(lengths, offsets)
    ]
    return interleave(*streams)


def write_mask(rng: np.random.Generator, n, write_fraction: float) -> np.ndarray:
    """Random store flags at the requested density (``n`` may be a shape)."""
    if write_fraction <= 0:
        return np.zeros(n, dtype=np.int8)
    if write_fraction >= 1:
        return np.ones(n, dtype=np.int8)
    return (rng.random(n) < write_fraction).astype(np.int8)


# Region layout helper ---------------------------------------------------

MB = 1024 * 1024


class RegionLayout:
    """Assigns non-overlapping virtual regions to named structures."""

    def __init__(self, alignment: int = 1 << 20):
        self.alignment = alignment
        self._next = 0
        self._regions: dict = {}

    def add(self, name: str, size_bytes: int) -> int:
        """Reserve a region; returns its base address."""
        if name in self._regions:
            raise ValueError(f"region {name!r} already defined")
        base = self._next
        aligned = -(-size_bytes // self.alignment) * self.alignment
        self._next += aligned
        self._regions[name] = (base, size_bytes)
        return base

    def base(self, name: str) -> int:
        return self._regions[name][0]

    def size(self, name: str) -> int:
        return self._regions[name][1]
