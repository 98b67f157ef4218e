"""Optional compiled kernels for the vector replay engine.

The replay engine's inner loops — LRU set-associative cache walks
over per-set tag/dirty/age matrices — are branchy and sequential, which
caps a pure-Python implementation at a few hundred nanoseconds per
event.  When a C compiler is available this module builds (once, cached
under ``.cache/native`` next to the repository sources) a small shared
library.  Its main entry point, :func:`replay_events`, replays a whole
epoch of segments — TLB, L1, home-slice L2, cost and replica accounting
— in one call; :func:`first_touch` deduplicates pages for the planner.

All cache and TLB state of a vector hierarchy lives in one
:class:`StateArena`, allocated when the hierarchy is built: one slot
per L1, L2 slice and TLB, each with its stretch of the shared blocks

``tags``
    int64 resident line ids, a cache's ``(n_sets, assoc)`` matrix
    flattened (-1 empty); a TLB keeps its page entries here.
``dirty``
    int8 modified flags, in the same layout.
``age``
    int64 recency stamps from a monotonically increasing per-slot
    ``clock``; the eviction victim is the valid way with the smallest
    stamp, which is exactly the tail of the reference implementation's
    MRU-first list.

plus a stats row per slot: hits, misses, evictions, writebacks,
invalidations, flushes, and the valid and dirty line counts.  The
kernels update the rows of the slots they touch in place, so a kernel
call neither creates nor resumes anything on the Python side.

``replay_events`` is the vector engine's only per-event cache and TLB
rule: bit for bit the scalar oracle's :class:`repro.arch.cache.SetAssocCache`
and :class:`repro.arch.tlb.Tlb` access (hit/miss, LRU victim choice,
dirty propagation, eviction/writeback counting).  :class:`NativeCache`
and :class:`NativeTlb` are views of one arena slot each, with the
maintenance and read surface both engines share: the purge paths'
flush, clean and range eviction, and the contents, occupancy and stats
reads the equivalence suite compares.

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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.cache import CacheStats
from repro.arch.tlb import TlbStats
from repro.config import CacheConfig

_C_SOURCE = r"""
#include <stdint.h>

typedef int64_t i64;
typedef int32_t i32;
typedef int8_t  i8;
typedef uint64_t u64;

/* Per-slot stats rows.  Row c of a state arena is stats[8c..8c+7] =
 * {hits, misses, evictions, writebacks, invalidations, flushes, valid
 * lines, dirty lines}.  The kernels add their hits, misses, evictions
 * and writebacks to the row of every cache and TLB they touch and keep
 * its occupancy current: every miss fills one way and every eviction
 * frees one, and `dirtied` counts clean->dirty transitions plus dirty
 * fills, so the purge models never have to scan the matrices.  A TLB
 * row uses only the hit and miss columns (and flushes, kept by Python). */

static inline void add_stats(i64 *stats, i64 c, i64 hits, i64 misses,
                             i64 evictions, i64 writebacks, i64 dirtied)
{
    stats[8 * c + 0] += hits;
    stats[8 * c + 1] += misses;
    stats[8 * c + 2] += evictions;
    stats[8 * c + 3] += writebacks;
    stats[8 * c + 6] += misses - evictions;
    stats[8 * c + 7] += dirtied - writebacks;
}

static inline void add_tlb_stats(i64 *stats, i64 c, i64 lookups, i64 misses)
{
    stats[8 * c + 0] += lookups - misses;
    stats[8 * c + 1] += misses;
}

/* LRU set-associative cache access over tag/dirty/age matrices.
 * tags[set*assoc + way] == -1 marks an empty way.  On a hit the age is
 * restamped; on a miss the first empty way (or the minimum-age victim)
 * is (re)filled.  Returns 1 on a hit. */

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

/* l2_flags_multi: one call services a home-sorted access stream.
 * Part p covers stream positions [bounds[p], bounds[p+1]) and replays
 * through the slice whose state buffers are at tags_ptrs[p]/
 * dirty_ptrs[p]/age_ptrs[p]/clock_ptrs[p] and whose stats row is at
 * stats_ptrs[p] (raw addresses, one entry per part).  flags[k] is 1 on
 * a hit. */

void l2_flags_multi(i64 n_parts, const i64 *bounds,
                    const i64 *tags_ptrs, const i64 *dirty_ptrs,
                    const i64 *age_ptrs, const i64 *clock_ptrs,
                    const i64 *lines, const i8 *writes,
                    i64 set_mask, i64 assoc, i8 *flags, const i64 *stats_ptrs)
{
    for (i64 p = 0; p < n_parts; p++) {
        i64 *clock_io = (i64 *)clock_ptrs[p];
        i64 clock = *clock_io;
        i64 hits = 0, evictions = 0, writebacks = 0, dirtied = 0;
        for (i64 k = bounds[p]; k < bounds[p + 1]; k++) {
            flags[k] = (i8)do_access(lines[k], writes[k], (i64 *)tags_ptrs[p],
                                     (i8 *)dirty_ptrs[p], (i64 *)age_ptrs[p],
                                     &clock, set_mask, assoc, &evictions,
                                     &writebacks, &dirtied);
            hits += flags[k];
        }
        *clock_io = clock;
        add_stats((i64 *)stats_ptrs[p], 0, hits, bounds[p + 1] - bounds[p] - hits,
                  evictions, writebacks, dirtied);
    }
}

/* Fully-associative LRU TLB lookup.  entries/age are capacity-sized
 * arrays (-1 = empty).  Returns 1 on a miss. */
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

/* Open addressing over power-of-two tables of -1-initialised slots. */
static inline i64 mix(i64 a, i64 b)
{
    u64 x = (u64)a * 0x9E3779B97F4A7C15ull + (u64)b * 0xC2B2AE3D27D4EB4Full;
    return (i64)(x ^ (x >> 31));
}

/* Inserts key; returns 1 if it was already present. */
static inline i64 set_insert(i64 *table, i64 mask, i64 key)
{
    for (i64 h = mix(key, 0) & mask;; h = (h + 1) & mask) {
        if (table[h] == key) return 1;
        if (table[h] == -1) { table[h] = key; return 0; }
    }
}

/* set_fill: seeds a key set with n non-negative keys. */
void set_fill(i64 n, const i64 *keys, i64 *table, i64 mask)
{
    for (i64 k = 0; k < n; k++)
        set_insert(table, mask, keys[k]);
}

/* first_touch: one pass over the (keys[i], pages[i]) pairs in order.
 * Each distinct pair gets an id in order of first appearance:
 * inverse[i] is the id of pair i and first[id] the index where it
 * first appears.  table (power of two, >= 2n slots, all -1) maps a
 * hash slot to an id.  Returns the number of distinct pairs. */
i64 first_touch(i64 n, const i64 *keys, const i64 *pages,
                i64 *table, i64 mask, i64 *inverse, i64 *first)
{
    i64 n_uniq = 0, last_key = -1, last_page = -1, last_id = -1;
    for (i64 i = 0; i < n; i++) {
        i64 key = keys[i], page = pages[i];
        if (page == last_page && key == last_key) {
            inverse[i] = last_id;
            continue;
        }
        i64 h = mix(page, key) & mask, id;
        for (;; h = (h + 1) & mask) {
            id = table[h];
            if (id == -1) {
                id = n_uniq++;
                table[h] = id;
                first[id] = i;
                break;
            }
            if (pages[first[id]] == page && keys[first[id]] == key) break;
        }
        inverse[i] = last_id = id;
        last_key = key;
        last_page = page;
    }
    return n_uniq;
}

/* replay_events: the scalar oracle's per-event rule over the segments
 * of an epoch.  Segment s covers events [seg_ev[s], seg_ev[s+1]) and
 * replays through the private L1 and TLB of core seg_info[2s] under
 * context group seg_info[2s+1].  Per event: the TLB on a page change
 * (the current page resets at each segment start), the core's L1, on an
 * L1 miss the home slice's L2, then the cost and replica first-touch
 * rule.
 *
 * All cache and TLB state lives in one state arena of 3 n_tiles slots:
 * slot `core` is a core's L1, slot n_tiles + tile an L2 slice and slot
 * 2 n_tiles + core a core's TLB.  cache_tab[4c..4c+3] = {tags, dirty,
 * age, clock} addresses of slot c (a TLB's entries are its tags), and
 * the kernel updates the slot's stats row (see add_stats) in place.
 * geom = {l1 set mask, l1 assoc, l2 set mask, l2 assoc, tlb entries,
 * n_tiles, n_mc}.  group_tab[3g..] = {cluster-average core distance per
 * tile (double*), controller distance per (tile, controller) (double*),
 * replica table or -1}; rep_tab[2r..] = {key set (i64*), mask}.  lat =
 * {2 * hop, L2 hit latency, DRAM + controller latency, TLB walk}.
 *
 * Outputs accumulate: seg_out[6s..] = {tlb misses, l1 misses, l1
 * writebacks, l2 hits, l2 misses, l2 writebacks}, mem_out[s] in cycles,
 * mc_out[n_mc s + mc] requests.  new_lines[2k..] = {replica table, line}
 * for each line newly replicated; returns how many there were. */

i64 replay_events(i64 n_seg, const i64 *seg_ev, const i64 *seg_info,
                  const i64 *vpages, const i8 *writes, const i64 *plines,
                  const i32 *homes, const i32 *mcs,
                  const i64 *cache_tab, i64 *stats, const i64 *geom,
                  const i64 *group_tab, const i64 *rep_tab,
                  const double *lat,
                  i64 *seg_out, double *mem_out, i64 *mc_out,
                  i64 *new_lines)
{
    const i64 l1_mask = geom[0], l1_assoc = geom[1];
    const i64 l2_mask = geom[2], l2_assoc = geom[3];
    const i64 tlb_cap = geom[4], n_tiles = geom[5], n_mc = geom[6];
    const double hop2 = lat[0], l2_lat = lat[1], dram_lat = lat[2];
    const double walk = lat[3], replica_cost = hop2 + l2_lat;
    i64 n_new = 0;

    for (i64 s = 0; s < n_seg; s++) {
        const i64 e_end = seg_ev[s + 1];
        if (seg_ev[s] == e_end)
            continue;
        const i64 core = seg_info[2 * s], g = seg_info[2 * s + 1];
        const i64 tlb_slot = 2 * n_tiles + core;
        const i64 *l1 = cache_tab + 4 * core;
        i64 *l1_tags = (i64 *)l1[0], *l1_age = (i64 *)l1[2];
        i8 *l1_dirty = (i8 *)l1[1];
        i64 *l1_clock_io = (i64 *)l1[3], l1_clock = *l1_clock_io;
        const i64 *tlb = cache_tab + 4 * tlb_slot;
        i64 *tlb_entries = (i64 *)tlb[0], *tlb_age = (i64 *)tlb[2];
        i64 *tlb_clock_io = (i64 *)tlb[3], tlb_clock = *tlb_clock_io;
        const double *d_core = (const double *)group_tab[3 * g];
        const double *d_mc = (const double *)group_tab[3 * g + 1];
        const i64 rep = group_tab[3 * g + 2];
        i64 *rep_keys = rep >= 0 ? (i64 *)rep_tab[2 * rep] : 0;
        const i64 rep_mask = rep >= 0 ? rep_tab[2 * rep + 1] : 0;
        i64 tlb_look = 0, tlb_miss = 0, l1_hit = 0, l1_miss = 0;
        i64 l1_ev = 0, l1_wb = 0, l1_dirtied = 0;
        i64 l2_hit = 0, l2_miss = 0, l2_wb = 0, cur_page = -1;
        double mem = 0.0;

        for (i64 e = seg_ev[s]; e < e_end; e++) {
            const i64 line = plines[e];
            const i8 w = writes[e];
            if (vpages[e] != cur_page) {
                cur_page = vpages[e];
                tlb_look++;
                if (tlb_one(cur_page, tlb_entries, tlb_age, &tlb_clock,
                            tlb_cap)) {
                    tlb_miss++;
                    mem += walk;
                }
            }
            if (do_access(line, w, l1_tags, l1_dirty, l1_age, &l1_clock,
                          l1_mask, l1_assoc, &l1_ev, &l1_wb, &l1_dirtied)) {
                l1_hit++;
                continue;
            }
            l1_miss++;
            const i64 home = homes[e];
            const i64 *l2 = cache_tab + 4 * (n_tiles + home);
            i64 ev = 0, wb = 0, dirtied = 0;
            const i64 hit = do_access(line, w, (i64 *)l2[0], (i8 *)l2[1],
                                      (i64 *)l2[2], (i64 *)l2[3],
                                      l2_mask, l2_assoc,
                                      &ev, &wb, &dirtied);
            add_stats(stats, n_tiles + home, hit, 1 - hit, ev, wb, dirtied);
            l2_wb += wb;
            const double request = hop2 * d_core[home] + l2_lat;
            if (hit) {
                l2_hit++;
                if (!rep_keys) {
                    mem += request;
                } else if (set_insert(rep_keys, rep_mask, line)) {
                    mem += replica_cost;
                } else {
                    new_lines[2 * n_new] = rep;
                    new_lines[2 * n_new + 1] = line;
                    n_new++;
                    mem += request;
                }
            } else {
                const i64 mc = mcs[e];
                l2_miss++;
                mem += request;
                mem += hop2 * d_mc[home * n_mc + mc] + dram_lat;
                mc_out[n_mc * s + mc]++;
            }
        }

        seg_out[6 * s + 0] += tlb_miss;
        seg_out[6 * s + 1] += l1_miss;
        seg_out[6 * s + 2] += l1_wb;
        seg_out[6 * s + 3] += l2_hit;
        seg_out[6 * s + 4] += l2_miss;
        seg_out[6 * s + 5] += l2_wb;
        mem_out[s] += mem;
        add_stats(stats, core, l1_hit, l1_miss, l1_ev, l1_wb, l1_dirtied);
        add_tlb_stats(stats, tlb_slot, tlb_look, tlb_miss);
        *l1_clock_io = l1_clock;
        *tlb_clock_io = tlb_clock;
    }
    return n_new;
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
    lib.l2_flags_multi.restype = None
    lib.l2_flags_multi.argtypes = [
        i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, i64, i64, ptr, ptr
    ]
    lib.set_fill.restype = None
    lib.set_fill.argtypes = [i64, ptr, ptr, i64]
    lib.first_touch.restype = i64
    lib.first_touch.argtypes = [i64, ptr, ptr, ptr, i64, ptr, ptr]
    lib.replay_events.restype = i64
    lib.replay_events.argtypes = [
        i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
        ptr, ptr, ptr, ptr, ptr,
    ]
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


#: Columns of a slot's stats row (see ``add_stats`` in the C source).
HITS, MISSES, EVICTIONS, WRITEBACKS, INVALIDATIONS, FLUSHES, VALID, DIRTY = range(8)


class StateArena:
    """The replay state of a fixed set of caches and TLBs.

    Slot ``c`` owns entries ``[offsets[c], offsets[c+1])`` of ``tags``,
    ``dirty`` and ``age`` — a cache's flattened ``(n_sets, assoc)``
    matrices, or a TLB's entries and stamps (a TLB leaves its ``dirty``
    range unused) — plus ``clock[c]`` and the stats row ``stats[c]``
    (columns :data:`HITS` .. :data:`DIRTY`).  ``cache_tab[4c..4c+3]``
    holds slot ``c``'s {tags, dirty, age, clock} addresses.  Everything
    is allocated once, so the addresses never change and the kernels
    update the rows in place.
    """

    def __init__(self, ways: Sequence[int]):
        n_slots = len(ways)
        offsets = np.zeros(n_slots + 1, dtype=np.int64)
        np.cumsum(ways, out=offsets[1:])
        self.offsets = offsets.tolist()
        total = self.offsets[-1]
        self.tags = np.full(total, -1, dtype=np.int64)
        self.dirty = np.zeros(total, dtype=np.int8)
        self.age = np.zeros(total, dtype=np.int64)
        self.clock = np.zeros(n_slots, dtype=np.int64)
        stats = np.zeros(8 * n_slots, dtype=np.int64)
        self.stats = stats.reshape(-1, 8)
        self.stats_ptr = stats.ctypes.data
        first = offsets[:-1]
        self.cache_tab = np.stack([
            self.tags.ctypes.data + 8 * first, self.dirty.ctypes.data + first,
            self.age.ctypes.data + 8 * first,
            self.clock.ctypes.data + 8 * np.arange(n_slots, dtype=np.int64),
        ], axis=1).ravel()
        self.tab_ptr = self.cache_tab.ctypes.data

    def slot(self, c: int, ways: int) -> slice:
        """Slot ``c``'s entry range, checked to hold ``ways`` entries."""
        a, b = self.offsets[c], self.offsets[c + 1]
        if b - a != ways:
            raise ValueError(f"arena slot {c} holds {b - a} entries, not {ways}")
        return slice(a, b)


class NativeCache:
    """One cache slot of a :class:`StateArena`.

    The fused ``replay_events`` kernel is the vector engine's per-event
    rule; the view is the maintenance and read surface it shares with
    :class:`repro.arch.cache.SetAssocCache`: flush, clean and range
    eviction, which write the slot's matrices and stats row directly,
    and ``contains``, ``set_entries``, the occupancy counters and a
    ``stats`` snapshot of the row.  See the module docstring for the
    layout.
    """

    def __init__(self, config: CacheConfig, name: str, arena: StateArena, slot: int):
        self.config = config
        self.name = name
        self.n_sets = config.n_sets
        self.assoc = config.associativity
        self._set_mask = self.n_sets - 1
        self._arena = arena
        self._slot = slot
        span = arena.slot(slot, self.n_sets * self.assoc)
        self.tags = arena.tags[span]
        self.dirty = arena.dirty[span]
        self.age = arena.age[span]
        # The stats row as a memoryview: its items read and write as
        # Python ints, several times faster than NumPy scalars.
        self._st = memoryview(arena.stats[slot])

    @property
    def stats(self) -> CacheStats:
        """A snapshot of the slot's counters."""
        return CacheStats(*self._st[:6])

    def _row(self, set_index: int) -> slice:
        base = set_index * self.assoc
        return slice(base, base + self.assoc)

    def contains(self, line_id: int) -> bool:
        return bool((self.tags[self._row(line_id & self._set_mask)] == line_id).any())

    @property
    def valid_lines(self) -> int:
        """Resident line count (kept in the stats row, O(1))."""
        return self._st[VALID]

    @property
    def dirty_lines(self) -> int:
        """Modified-line count (kept in the stats row, O(1))."""
        return self._st[DIRTY]

    def invalidate_all(self) -> Tuple[int, int]:
        """Flush-and-invalidate; returns (valid, dirty) line counts.

        Counts come from the occupancy columns; an already-empty cache
        skips the matrix resets entirely.
        """
        st = self._st
        valid, dirty = st[VALID], st[DIRTY]
        if valid:
            self.tags.fill(-1)
            self.dirty.fill(0)
            self.age.fill(0)
        st[WRITEBACKS] += dirty
        st[INVALIDATIONS] += valid
        st[FLUSHES] += 1
        st[VALID] = st[DIRTY] = 0
        return valid, dirty

    def clean_all(self) -> int:
        """Write back all dirty lines without invalidating; returns count.

        A clean cache returns immediately off the occupancy column.
        """
        st = self._st
        dirty = st[DIRTY]
        if dirty:
            self.dirty.fill(0)
            st[DIRTY] = 0
            st[WRITEBACKS] += dirty
        return dirty

    def evict_line_range(self, base_line: int, count: int) -> int:
        """Evict every resident line in ``[base_line, base_line+count)``.

        Vectorized over the range's sets — one gather/compare for the
        whole range; stats, occupancy and final contents are those of
        the reference's per-line eviction.  Used by the page re-homing
        / migration path (one frame per call).
        """
        st = self._st
        if not st[VALID]:
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
        st[EVICTIONS] += evicted
        st[WRITEBACKS] += wbs
        st[VALID] -= evicted
        st[DIRTY] -= wbs
        return evicted

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


class NativeTlb:
    """One TLB slot of a :class:`StateArena`.

    Like :class:`NativeCache`, the maintenance and read surface of a
    slot the ``replay_events`` kernel fills: the reference
    :class:`repro.arch.tlb.Tlb`'s flush, LRU order and ``stats``, over
    entry/age arrays instead of an OrderedDict.
    """

    def __init__(self, config, name: str, arena: StateArena, slot: int):
        self.config = config
        self.name = name
        span = arena.slot(slot, config.entries)
        self.entries = arena.tags[span]
        self.age = arena.age[span]
        self._st = memoryview(arena.stats[slot])

    @property
    def stats(self) -> TlbStats:
        """A snapshot of the slot's counters."""
        st = self._st
        return TlbStats(st[HITS], st[MISSES], st[FLUSHES])

    def invalidate_all(self) -> int:
        """Flush the TLB; returns the number of entries dropped."""
        dropped = int((self.entries != -1).sum())
        self.entries.fill(-1)
        self.age.fill(0)
        self._st[FLUSHES] += 1
        return dropped

    def lru_entries(self) -> List[int]:
        """Resident pages ordered least- to most-recently used."""
        valid = np.nonzero(self.entries != -1)[0]
        order = valid[np.argsort(self.age[valid], kind="stable")]
        return [int(p) for p in self.entries[order]]


def multi_slice_flags_wb(
    caches: list,
    bounds: "list[int]",
    lines_sorted: np.ndarray,
    writes_sorted: np.ndarray,
) -> np.ndarray:
    """One ``l2_flags_multi`` kernel call over a home-sorted stream.

    ``caches[p]`` services stream positions ``[bounds[p], bounds[p+1])``
    (all caches must share one geometry); the kernel updates each
    cache's stats row.  Returns the per-position hit flags.  No replay
    path calls it; it stays because the perfbench tracer looks it up by
    name when it installs.
    """
    first = caches[0]
    ptrs = np.stack(
        [c._arena.cache_tab[4 * c._slot:4 * c._slot + 4] for c in caches], axis=1
    )
    stats_ptrs = np.asarray(
        [c._arena.stats_ptr + 64 * c._slot for c in caches], dtype=np.int64
    )
    bounds_arr = np.asarray(bounds, dtype=np.int64)
    lines_sorted = np.ascontiguousarray(lines_sorted, dtype=np.int64)
    writes_sorted = np.ascontiguousarray(writes_sorted, dtype=np.int8)
    flags = np.empty(len(lines_sorted), dtype=np.int8)
    load_native().l2_flags_multi(
        len(caches), bounds_arr.ctypes.data, *(row.ctypes.data for row in ptrs),
        lines_sorted.ctypes.data, writes_sorted.ctypes.data,
        first._set_mask, first.assoc, flags.ctypes.data, stats_ptrs.ctypes.data,
    )
    return flags


def _key_table(n: int) -> np.ndarray:
    """An empty open-addressing table (-1 slots) with room for ``n`` keys."""
    return np.full(1 << max(4, (2 * n).bit_length()), -1, dtype=np.int64)


def first_touch(keys: np.ndarray, pages: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct ``(key, page)`` pairs in order of first appearance.

    Returns ``(inverse, first)``: ``inverse[i]`` is the id of pair
    ``i`` and ``first[id]`` the index where that pair first appears.
    One O(n) pass; unlike ``np.unique`` it sorts nothing.
    """
    n = len(pages)
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    pages = np.ascontiguousarray(pages, dtype=np.int64)
    table = _key_table(n)
    inverse = np.empty(n, dtype=np.int64)
    first = np.empty(n, dtype=np.int64)
    n_uniq = load_native().first_touch(
        n, keys.ctypes.data, pages.ctypes.data, table.ctypes.data,
        len(table) - 1, inverse.ctypes.data, first.ctypes.data,
    )
    return inverse, first[:n_uniq]


def replay_events(
    seg_ev: np.ndarray,
    seg_info: np.ndarray,
    events: Tuple[np.ndarray, ...],
    tables: Tuple[object, np.ndarray, np.ndarray],
    group_tab: np.ndarray,
    rep_sets: "list[set]",
) -> Tuple[np.ndarray, ...]:
    """Replay segments through the fused ``replay_events`` kernel.

    The arguments are those of the C kernel (see its comment), with
    ``events`` = ``(vpages, writes, plines, homes, mcs)``, ``tables`` =
    the hierarchy's ``(arena, geom, lat)`` — a :class:`StateArena` of
    ``3 * n_tiles`` slots whose stats rows the kernel updates — and
    ``rep_sets`` the replica sets that ``group_tab`` rows index; the
    lines the call newly replicates are added to them.  Returns
    ``(seg_out, mem_out, mc_out)``, strided outputs as rows.
    """
    lib = load_native()
    arena, geom, lat = tables
    seg_ev, seg_info, vpages, writes, plines, homes, mcs = (
        np.ascontiguousarray(a, dtype=t) for a, t in zip(
            (seg_ev, seg_info, *events),
            (np.int64, np.int64, np.int64, np.int8, np.int64, np.int32, np.int32),
        )
    )
    n_seg = len(seg_ev) - 1
    if len(seg_info) != 2 * n_seg or min(map(len, events)) < seg_ev[-1]:
        raise ValueError("seg_info or the event arrays do not cover seg_ev")
    n_events = int(seg_ev[-1] - seg_ev[0])
    n_tiles, n_mc = int(geom[5]), int(geom[6])
    if len(arena.clock) != 3 * n_tiles:
        raise ValueError(f"the arena does not hold 3 x {n_tiles} slots")
    # A key table only answers membership, so a set's iteration order
    # cannot reach a result.
    rep_keys = []
    for replicated in rep_sets:
        keys = np.fromiter(replicated, dtype=np.int64, count=len(replicated))
        table = _key_table(len(keys) + n_events)
        lib.set_fill(len(keys), keys.ctypes.data, table.ctypes.data, len(table) - 1)
        rep_keys.append(table)
    rep_tab = np.asarray(
        [v for t in rep_keys for v in (t.ctypes.data, len(t) - 1)] or [0],
        dtype=np.int64,
    )
    seg_out = np.zeros(6 * n_seg, dtype=np.int64)
    mem_out = np.zeros(n_seg, dtype=np.float64)
    mc_out = np.zeros(n_seg * n_mc, dtype=np.int64)
    new_lines = np.empty(2 * (n_events if rep_sets else 1), dtype=np.int64)
    n_new = lib.replay_events(
        n_seg, seg_ev.ctypes.data, seg_info.ctypes.data,
        vpages.ctypes.data, writes.ctypes.data, plines.ctypes.data,
        homes.ctypes.data, mcs.ctypes.data,
        arena.tab_ptr, arena.stats_ptr, geom.ctypes.data,
        group_tab.ctypes.data, rep_tab.ctypes.data, lat.ctypes.data,
        seg_out.ctypes.data, mem_out.ctypes.data, mc_out.ctypes.data,
        new_lines.ctypes.data,
    )
    new_lines = new_lines[: 2 * n_new].reshape(-1, 2)
    for r, replicated in enumerate(rep_sets):
        replicated.update(new_lines[new_lines[:, 0] == r, 1].tolist())
    return seg_out.reshape(-1, 6), mem_out, mc_out.reshape(-1, n_mc)
