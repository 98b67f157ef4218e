"""Optional compiled kernels for the vector replay engine.

The batch replay engine's inner loops — LRU set-associative cache walks
over per-set tag/dirty/age matrices — are branchy and sequential, which
caps a pure-Python implementation at a few hundred nanoseconds per
event.  When a C compiler is available this module builds (once, cached
under ``.cache/native`` next to the repository sources) a small shared
library with the two batch kernels and exposes :class:`NativeCache`,
whose canonical state *is* the NumPy matrices:

``tags``
    ``(n_sets, assoc)`` int64, the resident line id per way (-1 empty).
``dirty``
    ``(n_sets, assoc)`` int8 modified flags.
``age``
    ``(n_sets, assoc)`` int64 recency stamps from a monotonically
    increasing per-cache clock; the eviction victim is the valid way
    with the smallest stamp, which is exactly the tail of the reference
    implementation's MRU-first list.

The kernels implement bit-for-bit the semantics of
:class:`repro.arch.cache.SetAssocCache` (hit/miss, LRU victim choice,
dirty propagation, eviction/writeback counting), so the equivalence
suite holds regardless of which backend serviced a batch.

Everything degrades gracefully: if no compiler is present or the build
fails for any reason, :func:`native_available` returns False and a
``vector`` configuration runs the scalar oracle
(:func:`repro.arch.hierarchy.resolve_engine`) — but never silently:
the compiler's stderr is reported once on the process's stderr and
kept retrievable via :func:`build_error`.  No third-party
packages are involved — only ``ctypes`` and the system toolchain.

Builds always use ``-Wall -Wextra`` (the kernels are warning-clean and
must stay that way).  Setting ``REPRO_NATIVE_SANITIZE=1`` selects a
hardened build — ``-fsanitize=address,undefined -fno-sanitize-recover
-Werror`` — used by the ``--sanitize`` tier phase to run the whole
equivalence suite over instrumented kernels.  Sanitized and plain
shared objects coexist in the build cache because the compile flags are
folded into the library digest.  Loading an ASan-instrumented library
into a non-ASan interpreter requires the ASan runtime to be preloaded
(``LD_PRELOAD=$(cc -print-file-name=libasan.so)``); without it the
loader would abort the host process, so :func:`load_native` refuses the
attempt and the scalar oracle runs instead.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
from typing import List, Optional, Tuple

import numpy as np

from repro.arch.cache import CacheStats, primed_lines_for_set
from repro.config import CacheConfig

_C_SOURCE = r"""
#include <stdint.h>

typedef int64_t i64;
typedef int8_t  i8;

/* LRU set-associative cache access over tag/dirty/age matrices.
 * tags[set*assoc + way] == -1 marks an empty way.  On a hit the age is
 * restamped; on a miss the first empty way (or the minimum-age victim)
 * is (re)filled.
 *
 * Every kernel reports stats_out = {evictions, writebacks, n_wb,
 * dirtied}: `dirtied` counts clean->dirty transitions plus dirty
 * fills, so the caller can maintain the cache's dirty-line occupancy
 * incrementally (dirty_delta = dirtied - writebacks) and the purge
 * models never have to scan the matrices.  `n_wb` is only meaningful
 * for l1_filter_wb (0 otherwise).
 *
 * l1_filter: records the indices of missing events in miss_pos and
 * returns how many there were. */

static inline i64 do_access(i64 line, i8 w,
                            i64 *tags, i8 *dirty, i64 *age,
                            i64 *clock, i64 set_mask, i64 assoc,
                            i64 *evictions, i64 *writebacks, i64 *dirtied)
{
    i64 base = (line & set_mask) * assoc;
    i64 hit_way = -1, empty_way = -1;
    for (i64 j = 0; j < assoc; j++) {
        i64 t = tags[base + j];
        if (t == line) { hit_way = j; break; }
        if (t == -1 && empty_way == -1) empty_way = j;
    }
    if (hit_way >= 0) {
        age[base + hit_way] = ++(*clock);
        if (w && !dirty[base + hit_way]) (*dirtied)++;
        dirty[base + hit_way] |= w;
        return 1;
    }
    i64 slot = empty_way;
    if (slot < 0) {
        slot = 0;
        i64 amin = age[base];
        for (i64 j = 1; j < assoc; j++)
            if (age[base + j] < amin) { amin = age[base + j]; slot = j; }
        (*evictions)++;
        if (dirty[base + slot]) (*writebacks)++;
    }
    tags[base + slot] = line;
    dirty[base + slot] = w;
    if (w) (*dirtied)++;
    age[base + slot] = ++(*clock);
    return 0;
}

i64 l1_filter(i64 n, const i64 *lines, const i8 *writes,
              i64 *tags, i8 *dirty, i64 *age, i64 *clock_io,
              i64 set_mask, i64 assoc,
              i64 *miss_pos, i64 *stats_out)
{
    i64 clock = *clock_io, n_miss = 0, evictions = 0, writebacks = 0;
    i64 dirtied = 0;
    for (i64 k = 0; k < n; k++) {
        if (!do_access(lines[k], writes[k], tags, dirty, age, &clock,
                       set_mask, assoc, &evictions, &writebacks, &dirtied))
            miss_pos[n_miss++] = k;
    }
    *clock_io = clock;
    stats_out[0] = evictions;
    stats_out[1] = writebacks;
    stats_out[2] = 0;
    stats_out[3] = dirtied;
    return n_miss;
}

/* l1_filter_wb: additionally records which events caused a dirty-line
 * writeback (wb_pos, indices into the batch), so a batched replay can
 * attribute writebacks to the segment whose access evicted the line. */

i64 l1_filter_wb(i64 n, const i64 *lines, const i8 *writes,
                 i64 *tags, i8 *dirty, i64 *age, i64 *clock_io,
                 i64 set_mask, i64 assoc,
                 i64 *miss_pos, i64 *wb_pos, i64 *stats_out)
{
    i64 clock = *clock_io, n_miss = 0, n_wb = 0, evictions = 0, writebacks = 0;
    i64 dirtied = 0;
    for (i64 k = 0; k < n; k++) {
        i64 wb_before = writebacks;
        if (!do_access(lines[k], writes[k], tags, dirty, age, &clock,
                       set_mask, assoc, &evictions, &writebacks, &dirtied))
            miss_pos[n_miss++] = k;
        if (writebacks != wb_before)
            wb_pos[n_wb++] = k;
    }
    *clock_io = clock;
    stats_out[0] = evictions;
    stats_out[1] = writebacks;
    stats_out[2] = n_wb;
    stats_out[3] = dirtied;
    return n_miss;
}

/* Multi-slice variant: one call services the whole home-sorted miss
 * stream of an epoch.  Part p covers stream positions
 * [bounds[p], bounds[p+1]) and replays through the slice whose state
 * buffers are at tags_ptrs[p]/dirty_ptrs[p]/age_ptrs[p]/clock_ptrs[p]
 * (raw addresses, one entry per part).  Per part, stats4[4p..4p+3] =
 * {evictions, writebacks, hits, dirtied}; wb_pos collects the
 * positions (into the sorted stream) of dirty-line writebacks across
 * all parts; returns their count. */

i64 l2_flags_wb_multi(i64 n_parts, const i64 *bounds,
                      const i64 *tags_ptrs, const i64 *dirty_ptrs,
                      const i64 *age_ptrs, const i64 *clock_ptrs,
                      const i64 *lines, const i8 *writes,
                      i64 set_mask, i64 assoc,
                      i8 *flags, i64 *wb_pos, i64 *stats4)
{
    i64 total_wb = 0;
    for (i64 p = 0; p < n_parts; p++) {
        i64 *tags = (i64 *)tags_ptrs[p];
        i8  *dirty = (i8 *)dirty_ptrs[p];
        i64 *age = (i64 *)age_ptrs[p];
        i64 *clock_io = (i64 *)clock_ptrs[p];
        i64 clock = *clock_io;
        i64 hits = 0, evictions = 0, writebacks = 0, dirtied = 0;
        for (i64 k = bounds[p]; k < bounds[p + 1]; k++) {
            i64 wb_before = writebacks;
            i64 h = do_access(lines[k], writes[k], tags, dirty, age, &clock,
                              set_mask, assoc, &evictions, &writebacks,
                              &dirtied);
            flags[k] = (i8)h;
            hits += h;
            if (writebacks != wb_before)
                wb_pos[total_wb++] = k;
        }
        *clock_io = clock;
        stats4[4 * p + 0] = evictions;
        stats4[4 * p + 1] = writebacks;
        stats4[4 * p + 2] = hits;
        stats4[4 * p + 3] = dirtied;
    }
    return total_wb;
}

/* Fully-associative LRU TLB over page-change events.  entries/age are
 * capacity-sized arrays (-1 = empty).  Returns the number of misses.
 * The _flags variant also writes a per-event 1/0 miss flag. */
static inline i64 tlb_one(i64 page, i64 *entries, i64 *age,
                          i64 *clock, i64 capacity)
{
    i64 hit = -1, empty = -1;
    for (i64 j = 0; j < capacity; j++) {
        i64 t = entries[j];
        if (t == page) { hit = j; break; }
        if (t == -1 && empty == -1) empty = j;
    }
    if (hit >= 0) {
        age[hit] = ++(*clock);
        return 0;
    }
    i64 slot = empty;
    if (slot < 0) {
        slot = 0;
        i64 amin = age[0];
        for (i64 j = 1; j < capacity; j++)
            if (age[j] < amin) { amin = age[j]; slot = j; }
    }
    entries[slot] = page;
    age[slot] = ++(*clock);
    return 1;
}

i64 tlb_misses(i64 n, const i64 *pages,
               i64 *entries, i64 *age, i64 *clock_io, i64 capacity)
{
    i64 clock = *clock_io, misses = 0;
    for (i64 k = 0; k < n; k++)
        misses += tlb_one(pages[k], entries, age, &clock, capacity);
    *clock_io = clock;
    return misses;
}

i64 tlb_flags(i64 n, const i64 *pages,
              i64 *entries, i64 *age, i64 *clock_io, i64 capacity,
              i8 *miss_flags)
{
    i64 clock = *clock_io, misses = 0;
    for (i64 k = 0; k < n; k++) {
        i64 m = tlb_one(pages[k], entries, age, &clock, capacity);
        miss_flags[k] = (i8)m;
        misses += m;
    }
    *clock_io = clock;
    return misses;
}
"""

_lib: Optional[ctypes.CDLL] = None
_load_attempted = False
_build_error: Optional[str] = None


def sanitize_requested() -> bool:
    """True when ``REPRO_NATIVE_SANITIZE`` selects the hardened build."""
    return os.environ.get("REPRO_NATIVE_SANITIZE", "") not in ("", "0")


def compile_flags() -> List[str]:
    """Compiler flags for the current build mode.

    ``-Wall -Wextra`` always; the sanitize mode adds ASan+UBSan with
    ``-fno-sanitize-recover=all`` (any report is fatal, so the
    equivalence suite cannot pass over a corrupting kernel) and
    promotes warnings to errors.
    """
    flags = ["-O2", "-shared", "-fPIC", "-Wall", "-Wextra"]
    if sanitize_requested():
        flags += [
            "-g", "-fsanitize=address,undefined",
            "-fno-sanitize-recover=all", "-Werror",
        ]
    return flags


def _asan_preloaded() -> bool:
    """True when the ASan runtime is already in the process image."""
    return "asan" in os.environ.get("LD_PRELOAD", "")


def _build_dir() -> str:
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))))
    return os.path.join(root, ".cache", "native")


def _load() -> Optional[ctypes.CDLL]:
    flags = compile_flags()
    # The flags are part of the digest so plain and sanitized builds
    # coexist in the cache instead of fighting over one filename.
    digest = hashlib.sha1(
        (" ".join(flags) + "\n" + _C_SOURCE).encode()
    ).hexdigest()[:16]
    build_dir = _build_dir()
    lib_path = os.path.join(build_dir, f"replaykernels_{digest}.so")
    if not os.path.exists(lib_path):
        os.makedirs(build_dir, exist_ok=True)
        src_path = os.path.join(build_dir, f"replaykernels_{digest}.c")
        with open(src_path, "w") as fh:
            fh.write(_C_SOURCE)
        fd, tmp = tempfile.mkstemp(dir=build_dir, suffix=".so")
        os.close(fd)
        try:
            cmd = ["cc", *flags, "-o", tmp, src_path]
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=120
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    f"kernel build failed (rc {proc.returncode}): "
                    f"{' '.join(cmd)}\n{proc.stderr.strip()}"
                )
            os.replace(tmp, lib_path)  # atomic: parallel workers may race
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    if sanitize_requested() and not _asan_preloaded():
        # dlopening an ASan library without the runtime preloaded
        # aborts the interpreter outright — refuse and fall back.
        raise RuntimeError(
            "REPRO_NATIVE_SANITIZE=1 needs the ASan runtime preloaded: "
            "rerun under LD_PRELOAD=$(cc -print-file-name=libasan.so)"
        )
    lib = ctypes.CDLL(lib_path)
    # All pointers are passed as raw addresses (ndarray.ctypes.data);
    # c_void_p argtypes keep the per-call marshalling cost negligible.
    ptr = ctypes.c_void_p
    i64 = ctypes.c_int64
    lib.l1_filter.restype = i64
    lib.l1_filter.argtypes = [i64, ptr, ptr, ptr, ptr, ptr, ptr, i64, i64, ptr, ptr]
    lib.l1_filter_wb.restype = i64
    lib.l1_filter_wb.argtypes = [
        i64, ptr, ptr, ptr, ptr, ptr, ptr, i64, i64, ptr, ptr, ptr
    ]
    lib.l2_flags_wb_multi.restype = i64
    lib.l2_flags_wb_multi.argtypes = [
        i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, i64, i64, ptr, ptr, ptr
    ]
    lib.tlb_misses.restype = i64
    lib.tlb_misses.argtypes = [i64, ptr, ptr, ptr, ptr, i64]
    lib.tlb_flags.restype = i64
    lib.tlb_flags.argtypes = [i64, ptr, ptr, ptr, ptr, i64, ptr]
    return lib


def native_available() -> bool:
    """True if the compiled kernels could be built and loaded."""
    return load_native() is not None


def build_error() -> Optional[str]:
    """Why the native build/load fell back (None when it succeeded)."""
    return _build_error


def load_native() -> Optional[ctypes.CDLL]:
    """Build/load the kernel library; returns None when impossible.

    A failed build or load is reported once on stderr (full compiler
    diagnostics included) and remembered in :func:`build_error`; a
    ``vector`` configuration then runs the scalar oracle.
    """
    global _lib, _load_attempted, _build_error
    if _load_attempted:
        return _lib
    _load_attempted = True
    if os.environ.get("REPRO_NO_NATIVE"):
        return None
    try:
        _lib = _load()
    except Exception as exc:
        _build_error = str(exc)
        print(
            "repro.arch.native: compiled kernels unavailable, the vector "
            f"engine runs the scalar oracle: {_build_error}",
            file=sys.stderr,
        )
        _lib = None
    return _lib


class NativeCache:
    """Matrix-backed LRU cache serviced by the compiled batch kernels.

    API-compatible with :class:`repro.arch.cache.SetAssocCache`; see
    the module docstring for the state layout.
    """

    def __init__(self, config: CacheConfig, name: str = "ncache"):
        lib = load_native()
        if lib is None:  # pragma: no cover - guarded by factory
            raise RuntimeError("native kernels unavailable")
        self._lib = lib
        self.config = config
        self.name = name
        self.n_sets = config.n_sets
        self.assoc = config.associativity
        self._set_mask = self.n_sets - 1
        self.tags = np.full(self.n_sets * self.assoc, -1, dtype=np.int64)
        self.dirty = np.zeros(self.n_sets * self.assoc, dtype=np.int8)
        self.age = np.zeros(self.n_sets * self.assoc, dtype=np.int64)
        self._clock = np.zeros(1, dtype=np.int64)
        # {evictions, writebacks, n_wb, dirtied} as reported per batch.
        self._stats_out = np.zeros(4, dtype=np.int64)
        # Occupancy counters, maintained from the kernels' stats so the
        # purge models never scan the matrices.
        self._valid_count = 0
        self._dirty_count = 0
        self.stats = CacheStats()
        # The state buffers are never reallocated (fill() mutates in
        # place), so their raw addresses can be cached once.
        self._state_ptrs = (
            self.tags.ctypes.data, self.dirty.ctypes.data,
            self.age.ctypes.data, self._clock.ctypes.data,
        )
        self._stats_ptr = self._stats_out.ctypes.data
        # Single-event buffers for the scalar access() path, likewise
        # never reallocated: the whole l1_filter argument tail after the
        # event count is built once.
        self._one_line = np.zeros(1, dtype=np.int64)
        self._one_write = np.zeros(1, dtype=np.int8)
        self._one_out = np.zeros(1, dtype=np.int64)
        self._one_args = (
            self._one_line.ctypes.data, self._one_write.ctypes.data,
            *self._state_ptrs, self._set_mask, self.assoc,
            self._one_out.ctypes.data, self._stats_ptr,
        )

    # ------------------------------------------------------------------
    # Batch kernels
    # ------------------------------------------------------------------
    def kernel_filter_misses(self, lines: np.ndarray, writes: np.ndarray) -> np.ndarray:
        """Access a batch; returns the positions (into the batch) that missed."""
        n = len(lines)
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        writes = np.ascontiguousarray(writes, dtype=np.int8)
        miss_pos = np.empty(n, dtype=np.int64)
        n_miss = self._lib.l1_filter(
            n, lines.ctypes.data, writes.ctypes.data,
            *self._state_ptrs, self._set_mask, self.assoc,
            miss_pos.ctypes.data, self._stats_ptr,
        )
        st = self.stats
        st.hits += n - n_miss
        st.misses += n_miss
        self._fold_batch_stats(st, n_miss)
        return miss_pos[:n_miss]

    def _fold_batch_stats(self, st: CacheStats, n_miss: int) -> None:
        """Fold one kernel call's ``stats_out`` into stats + occupancy.

        Every miss fills one way and every eviction frees one, so the
        valid delta is ``n_miss - evictions``; the dirty delta is
        ``dirtied - writebacks`` (see the C source).
        """
        evictions, writebacks, _, dirtied = self._stats_out.tolist()
        st.evictions += evictions
        st.writebacks += writebacks
        self._valid_count += n_miss - evictions
        self._dirty_count += dirtied - writebacks

    def kernel_filter_misses_wb(
        self, lines: np.ndarray, writes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Like :meth:`kernel_filter_misses`, also returning the positions
        of events that caused a dirty-line writeback."""
        n = len(lines)
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        writes = np.ascontiguousarray(writes, dtype=np.int8)
        miss_pos = np.empty(n, dtype=np.int64)
        wb_pos = np.empty(n, dtype=np.int64)
        n_miss = self._lib.l1_filter_wb(
            n, lines.ctypes.data, writes.ctypes.data,
            *self._state_ptrs, self._set_mask, self.assoc,
            miss_pos.ctypes.data, wb_pos.ctypes.data, self._stats_ptr,
        )
        st = self.stats
        st.hits += n - n_miss
        st.misses += n_miss
        self._fold_batch_stats(st, n_miss)
        return miss_pos[:n_miss], wb_pos[: int(self._stats_out[2])]

    # ------------------------------------------------------------------
    # SetAssocCache-compatible scalar API
    # ------------------------------------------------------------------
    def access(self, line_id: int, is_write: bool) -> bool:
        self._one_line[0] = line_id
        self._one_write[0] = 1 if is_write else 0
        n_miss = self._lib.l1_filter(1, *self._one_args)
        st = self.stats
        st.hits += 1 - n_miss
        st.misses += n_miss
        self._fold_batch_stats(st, n_miss)
        return n_miss == 0

    def touch_many(self, line_ids, writes) -> int:
        lines = np.asarray(list(line_ids), dtype=np.int64)
        w = np.asarray(list(writes), dtype=np.int8)
        return len(self.kernel_filter_misses(lines, w))

    def _row(self, set_index: int) -> slice:
        base = set_index * self.assoc
        return slice(base, base + self.assoc)

    def contains(self, line_id: int) -> bool:
        return bool((self.tags[self._row(line_id & self._set_mask)] == line_id).any())

    def probe_latency_class(self, line_id: int) -> bool:
        return self.contains(line_id)

    @property
    def valid_lines(self) -> int:
        """Resident line count (incrementally tracked, O(1))."""
        return self._valid_count

    @property
    def dirty_lines(self) -> int:
        """Modified-line count (incrementally tracked, O(1))."""
        return self._dirty_count

    def resident_lines(self) -> List[int]:
        """All line ids currently cached, per set MRU-first."""
        out: List[int] = []
        for s in range(self.n_sets):
            out.extend(tag for tag, _ in self.set_entries(s))
        return out

    def invalidate_all(self) -> Tuple[int, int]:
        """Flush-and-invalidate; returns (valid, dirty) line counts.

        Counts come from the occupancy counters; an already-empty cache
        skips the matrix resets entirely.
        """
        valid = self._valid_count
        dirty = self._dirty_count
        if valid:
            self.tags.fill(-1)
            self.dirty.fill(0)
            self.age.fill(0)
        self._valid_count = 0
        self._dirty_count = 0
        self.stats.invalidations += valid
        self.stats.flushes += 1
        self.stats.writebacks += dirty
        return valid, dirty

    def clean_all(self) -> int:
        """Write back all dirty lines without invalidating; returns count.

        A clean cache returns immediately off the occupancy counter.
        """
        dirty = self._dirty_count
        if dirty:
            self.dirty.fill(0)
            self._dirty_count = 0
        self.stats.writebacks += dirty
        return dirty

    def evict_line(self, line_id: int) -> bool:
        row = self._row(line_id & self._set_mask)
        ways = np.nonzero(self.tags[row] == line_id)[0]
        if not len(ways):
            return False
        way = (line_id & self._set_mask) * self.assoc + int(ways[0])
        if self.dirty[way]:
            self.stats.writebacks += 1
            self._dirty_count -= 1
        self.tags[way] = -1
        self.dirty[way] = 0
        self.age[way] = 0
        self.stats.evictions += 1
        self._valid_count -= 1
        return True

    def evict_line_range(self, base_line: int, count: int) -> int:
        """Evict every resident line in ``[base_line, base_line+count)``.

        Vectorized over the range's sets — one gather/compare instead
        of a Python loop with one :meth:`evict_line` lookup per line;
        identical stats, occupancy and final contents.  Used by the
        page re-homing / migration path (one frame per call).
        """
        if self._valid_count == 0:
            return 0
        lines = np.arange(base_line, base_line + count, dtype=np.int64)
        sets = lines & self._set_mask
        flat = (sets * self.assoc)[:, None] + np.arange(self.assoc)
        hit = self.tags[flat] == lines[:, None]
        idx = flat[hit]
        evicted = int(len(idx))
        if not evicted:
            return 0
        wbs = int(np.count_nonzero(self.dirty[idx]))
        self.tags[idx] = -1
        self.dirty[idx] = 0
        self.age[idx] = 0
        self.stats.evictions += evicted
        self.stats.writebacks += wbs
        self._valid_count -= evicted
        self._dirty_count -= wbs
        return evicted

    def fill_set(self, set_index: int, tag_base: int) -> List[int]:
        primed = primed_lines_for_set(self.n_sets, self.assoc, set_index, tag_base)
        for line_id in primed:
            self.access(line_id, False)
        return primed

    def set_entries(self, set_index: int) -> List[List[int]]:
        """Set contents as ``[tag, dirty]`` pairs, MRU-first."""
        row = self._row(set_index)
        tags = self.tags[row]
        valid = np.nonzero(tags != -1)[0]
        order = valid[np.argsort(-self.age[row][valid], kind="stable")]
        base = set_index * self.assoc
        return [
            [int(self.tags[base + w]), int(self.dirty[base + w])] for w in order
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NativeCache({self.name}, {self.config.size_bytes}B, "
            f"{self.assoc}-way, {self.valid_lines} valid)"
        )


def multi_slice_flags_wb(
    caches: list,
    bounds: "list[int]",
    lines_sorted: np.ndarray,
    writes_sorted: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One ``l2_flags_wb_multi`` kernel call over a home-sorted stream.

    ``caches[p]`` services stream positions ``[bounds[p], bounds[p+1])``
    (all caches must share one geometry).  Folds each part's stats and
    occupancy deltas into its cache and returns
    ``(hit_flags, wb_positions, stats4)``, the last being the raw
    per-part ``{evictions, writebacks, hits, dirtied}`` counters for
    callers that aggregate per-window numbers themselves.  This is the
    single shared dispatch for the batch replayer's epochs and the
    calibration planner's probe windows.
    """
    n = len(lines_sorted)
    n_parts = len(caches)
    first = caches[0]
    ptrs = [c._state_ptrs for c in caches]
    tags_ptrs = np.fromiter((p[0] for p in ptrs), dtype=np.int64, count=n_parts)
    dirty_ptrs = np.fromiter((p[1] for p in ptrs), dtype=np.int64, count=n_parts)
    age_ptrs = np.fromiter((p[2] for p in ptrs), dtype=np.int64, count=n_parts)
    clock_ptrs = np.fromiter((p[3] for p in ptrs), dtype=np.int64, count=n_parts)
    bounds_arr = np.asarray(bounds, dtype=np.int64)
    lines_sorted = np.ascontiguousarray(lines_sorted, dtype=np.int64)
    writes_sorted = np.ascontiguousarray(writes_sorted, dtype=np.int8)
    flags = np.empty(n, dtype=np.int8)
    wb_pos = np.empty(n, dtype=np.int64)
    stats4 = np.empty(4 * n_parts, dtype=np.int64)
    n_wb = first._lib.l2_flags_wb_multi(
        n_parts, bounds_arr.ctypes.data,
        tags_ptrs.ctypes.data, dirty_ptrs.ctypes.data,
        age_ptrs.ctypes.data, clock_ptrs.ctypes.data,
        lines_sorted.ctypes.data, writes_sorted.ctypes.data,
        first._set_mask, first.assoc,
        flags.ctypes.data, wb_pos.ctypes.data, stats4.ctypes.data,
    )
    for p, cache in enumerate(caches):
        st = cache.stats
        hits = int(stats4[4 * p + 2])
        n_p = int(bounds_arr[p + 1] - bounds_arr[p])
        evictions = int(stats4[4 * p])
        writebacks = int(stats4[4 * p + 1])
        st.hits += hits
        st.misses += n_p - hits
        st.evictions += evictions
        st.writebacks += writebacks
        cache._valid_count += (n_p - hits) - evictions
        cache._dirty_count += int(stats4[4 * p + 3]) - writebacks
    return flags, wb_pos[:n_wb], stats4


class NativeTlb:
    """Matrix-backed fully-associative LRU TLB (compiled kernel).

    Mirrors :class:`repro.arch.tlb.Tlb` — same hit/miss behaviour, same
    stats — with entry/age arrays instead of an OrderedDict so the batch
    replay path can classify a whole page-change stream in one call.
    """

    def __init__(self, config, name: str = "ntlb"):
        from repro.arch.tlb import TlbStats

        lib = load_native()
        if lib is None:  # pragma: no cover - guarded by factory
            raise RuntimeError("native kernels unavailable")
        self._lib = lib
        self.config = config
        self.name = name
        self.entries = np.full(config.entries, -1, dtype=np.int64)
        self.age = np.zeros(config.entries, dtype=np.int64)
        self._clock = np.zeros(1, dtype=np.int64)
        self._ptrs = (
            self.entries.ctypes.data, self.age.ctypes.data,
            self._clock.ctypes.data,
        )
        self._one = np.zeros(1, dtype=np.int64)
        # Argument tail of the single-page access() call, built once.
        self._one_args = (self._one.ctypes.data, *self._ptrs, config.entries)
        self.stats = TlbStats()

    def access_batch(self, vpages: np.ndarray) -> int:
        """Look up a batch of pages; returns the number of misses."""
        vpages = np.ascontiguousarray(vpages, dtype=np.int64)
        n = len(vpages)
        misses = self._lib.tlb_misses(
            n, vpages.ctypes.data, *self._ptrs, self.config.entries
        )
        self.stats.hits += n - misses
        self.stats.misses += misses
        return misses

    def access_batch_flags(self, vpages: np.ndarray) -> np.ndarray:
        """Look up a batch of pages; returns a per-event 1/0 miss flag."""
        vpages = np.ascontiguousarray(vpages, dtype=np.int64)
        n = len(vpages)
        flags = np.empty(n, dtype=np.int8)
        misses = self._lib.tlb_flags(
            n, vpages.ctypes.data, *self._ptrs, self.config.entries,
            flags.ctypes.data,
        )
        self.stats.hits += n - misses
        self.stats.misses += misses
        return flags

    def access(self, vpage: int) -> bool:
        """Look up a virtual page; returns True on hit."""
        self._one[0] = vpage
        misses = self._lib.tlb_misses(1, *self._one_args)
        self.stats.hits += 1 - misses
        self.stats.misses += misses
        return misses == 0

    def invalidate_all(self) -> int:
        """Flush the TLB; returns the number of entries dropped."""
        dropped = int((self.entries != -1).sum())
        self.entries.fill(-1)
        self.age.fill(0)
        self.stats.flushes += 1
        return dropped

    def invalidate_page(self, vpage: int) -> bool:
        """Drop one translation (page re-homing support)."""
        idx = np.nonzero(self.entries == vpage)[0]
        if not len(idx):
            return False
        self.entries[idx[0]] = -1
        self.age[idx[0]] = 0
        return True

    def lru_entries(self) -> List[int]:
        """Resident pages ordered least- to most-recently used."""
        valid = np.nonzero(self.entries != -1)[0]
        order = valid[np.argsort(self.age[valid], kind="stable")]
        return [int(p) for p in self.entries[order]]

    @property
    def occupancy(self) -> int:
        return int((self.entries != -1).sum())

    def __contains__(self, vpage: int) -> bool:
        return bool((self.entries == vpage).any())
