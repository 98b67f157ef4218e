"""Set-associative cache model with LRU replacement and purge support.

Used for both the per-core private L1s and the per-tile shared L2
slices.  The model tracks dirty state per line so that the MI6 purge
protocol (flush-and-invalidate via a dummy-buffer read, followed by a
memory fence that drains modified data) can charge a cost proportional
to the *actual* dirty footprint — the mechanism behind the paper's
observation that purges cost ~0.19 ms for data-heavy user applications.

The hot path is :meth:`SetAssocCache.access`; it is deliberately written
with plain lists and local variables, since the trace replayer calls it
millions of times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.config import CacheConfig


@dataclass
class CacheStats:
    """Running counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    invalidations: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            self.hits,
            self.misses,
            self.evictions,
            self.writebacks,
            self.invalidations,
            self.flushes,
        )

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        """Counters accumulated since ``earlier`` was snapshotted."""
        return CacheStats(
            self.hits - earlier.hits,
            self.misses - earlier.misses,
            self.evictions - earlier.evictions,
            self.writebacks - earlier.writebacks,
            self.invalidations - earlier.invalidations,
            self.flushes - earlier.flushes,
        )


class SetAssocCache:
    """A set-associative, write-back, write-allocate cache.

    Lines are identified by a global *line id* (physical address divided
    by the line size).  The set index uses the low bits of the line id.
    Each set is a list ordered most-recently-used first; entries are
    ``[tag, dirty]`` pairs.

    This is the scalar oracle's cache; :meth:`access` is its per-event
    rule, which the vector engine's ``replay_events`` kernel mirrors.
    Everything else — the maintenance operations the purge paths call
    and the read API (``contains``, :meth:`set_entries`, the occupancy
    counters, ``stats``) — is the surface both engines share: the
    vector engine's :class:`repro.arch.native.NativeCache` views
    implement it over a state-arena slot.  Occupancy (valid and dirty
    line counts) is tracked incrementally on every access, so the purge
    models read it in O(1) instead of scanning every set.
    """

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        self.n_sets = config.n_sets
        self.assoc = config.associativity
        self._set_mask = self.n_sets - 1
        self._sets: List[List[List[int]]] = [[] for _ in range(self.n_sets)]
        self._valid_count = 0
        self._dirty_count = 0
        self.stats = CacheStats()

    def access(self, line_id: int, is_write: bool) -> bool:
        """Access one line; returns True on hit.

        On a miss the line is allocated; if the victim is dirty a
        writeback is counted.
        """
        cset = self._sets[line_id & self._set_mask]
        tag = line_id >> 0  # the full line id doubles as the tag
        stats = self.stats
        for i, entry in enumerate(cset):
            if entry[0] == tag:
                stats.hits += 1
                if is_write and not entry[1]:
                    entry[1] = 1
                    self._dirty_count += 1
                if i:
                    cset.insert(0, cset.pop(i))
                return True
        stats.misses += 1
        if len(cset) >= self.assoc:
            victim = cset.pop()
            stats.evictions += 1
            if victim[1]:
                stats.writebacks += 1
                self._dirty_count -= 1
        else:
            self._valid_count += 1
        if is_write:
            self._dirty_count += 1
        cset.insert(0, [tag, 1 if is_write else 0])
        return False

    def contains(self, line_id: int) -> bool:
        cset = self._sets[line_id & self._set_mask]
        return any(entry[0] == line_id for entry in cset)

    @property
    def valid_lines(self) -> int:
        """Resident line count (incrementally tracked, O(1))."""
        return self._valid_count

    @property
    def dirty_lines(self) -> int:
        """Modified-line count (incrementally tracked, O(1))."""
        return self._dirty_count

    def invalidate_all(self) -> Tuple[int, int]:
        """Flush-and-invalidate; returns (valid, dirty) line counts."""
        valid = self._valid_count
        dirty = self._dirty_count
        if valid:
            for s in self._sets:
                if s:
                    s.clear()
        self._valid_count = 0
        self._dirty_count = 0
        self.stats.invalidations += valid
        self.stats.flushes += 1
        self.stats.writebacks += dirty
        return valid, dirty

    def clean_all(self) -> int:
        """Write back all dirty lines without invalidating; returns count.

        Models ``tmc_mem_fence_node``: modified data homed at a memory
        controller is written back to DRAM, leaving the lines valid.
        A clean cache returns immediately off the occupancy counter.
        """
        dirty = self._dirty_count
        if dirty:
            for s in self._sets:
                for entry in s:
                    if entry[1]:
                        entry[1] = 0
            self._dirty_count = 0
        self.stats.writebacks += dirty
        return dirty

    def _evict_line(self, line_id: int) -> bool:
        """Remove one specific line; True if it was resident."""
        cset = self._sets[line_id & self._set_mask]
        for i, entry in enumerate(cset):
            if entry[0] == line_id:
                if entry[1]:
                    self.stats.writebacks += 1
                    self._dirty_count -= 1
                del cset[i]
                self._valid_count -= 1
                self.stats.evictions += 1
                return True
        return False

    def evict_line_range(self, base_line: int, count: int) -> int:
        """Evict every resident line in ``[base_line, base_line+count)``.

        The page re-homing / migration path calls it once per physical
        frame; each resident line counts one eviction, plus a writeback
        if dirty.  Returns lines evicted.
        """
        evicted = 0
        for line_id in range(base_line, base_line + count):
            if self._evict_line(line_id):
                evicted += 1
        return evicted

    def set_entries(self, set_index: int) -> List[List[int]]:
        """Set contents as ``[tag, dirty]`` pairs, MRU-first."""
        return [list(entry) for entry in self._sets[set_index]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssocCache({self.name}, {self.config.size_bytes}B, "
            f"{self.assoc}-way, {self.valid_lines} valid)"
        )
