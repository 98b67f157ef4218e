"""Content-addressed, disk-persisted experiment result store.

Machine runs are deterministic given the app, machine, system
configuration, interaction counts and seed, so completed runs can be
memoized and shared — not just within one process (the old
``_RESULT_CACHE`` dict) but across processes and invocations via a
cache directory:

* **Keys** are plain tuples of strings/numbers (built by the sweep
  scheduler from the work unit plus the :meth:`SystemConfig.config_hash`
  digest, interaction counts and seed).  Each key is canonically
  JSON-encoded and SHA-256 hashed; the digest names the cache file, so
  the store is content-addressed and needs no index.
* **Values** are either :class:`~repro.sim.stats.RunResult` objects or
  plain JSON data (ablation summaries, IRONHIDE calibration probe
  curves as :meth:`~repro.arch.hierarchy.TraceResult.as_payload`
  dicts).  Both are serialized to JSON; floats survive bit-exactly
  because JSON round-trips the shortest ``repr`` of a double.
* **Validation.**  Every file carries ``schema`` (the serialization
  layout version) and ``model`` (the performance-model fingerprint,
  bumped on intentional model changes) plus the encoded key.  Any
  mismatch — including a hash collision or a torn/corrupted file — is
  treated as a miss and the result is recomputed.
* **Concurrency.**  Writes go to a unique temporary file in the cache
  directory and are published with an atomic ``os.replace``, so two
  pool workers racing on the same key leave exactly one valid file.

A memory layer fronts the disk: in-process repeat lookups never touch
the filesystem, and a disk hit is promoted into memory.  Stores are
interned per cache directory via :func:`get_store` so every caller in a
process shares one memory layer per directory.
"""

from __future__ import annotations

import copy
import errno
import hashlib
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro import faults as _faults
from repro.sim.stats import Breakdown, ProcessStats, RunResult

#: Bump when the on-disk payload layout changes.
#: v2: entries embed a canonical SHA-256 ``digest`` of the encoded value
#: so torn or bit-flipped payloads are detected (and quarantined) even
#: when they still parse as JSON.
#: v3: every (app, machine) run is one ``run`` unit kind, with trace
#: scale and session length in its params, so every run key changed.
SCHEMA_VERSION = 3

#: Write failures that degrade the store to memory-only instead of
#: crashing the sweep: disk/quota full, permissions, read-only mounts.
_DEGRADE_ERRNOS = frozenset(
    {errno.ENOSPC, errno.EDQUOT, errno.EACCES, errno.EPERM, errno.EROFS}
)

#: Orphaned ``*.tmp`` files older than this are reaped opportunistically
#: (a worker died mid-``put``).  Young tmp files are left alone — they
#: may belong to a live concurrent writer about to publish.
TMP_REAP_AGE_S = 300.0

#: Fingerprint of the performance model.  Bump on any intentional change
#: to the timing/cache model that alters results, then refresh the
#: golden numbers (``tools/update_goldens.py``); stored results written
#: under the old fingerprint are invalidated automatically.
#: model-3: canonical bundle-based trace materialization (per-process
#: seeded streams replace the interleaved per-interaction RNG) and
#: access-weighted ``Trace.concat`` instruction accounting.
MODEL_VERSION = "ironhide-model-3"

_MISS = object()


def key_digest(key: Tuple) -> str:
    """Canonical content digest of a cache key tuple."""
    encoded = json.dumps(_encode_key(key), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def payload_digest(encoded_value: Dict) -> str:
    """Canonical content digest of an encoded value payload.

    Dumped with sorted keys and tight separators so the digest is
    byte-stable across the write side (where NumPy scalars may still be
    present — ``_json_default`` folds them to their exact Python values,
    which re-serialize identically after a JSON round-trip) and the
    verify side (plain JSON types only).
    """
    text = json.dumps(
        encoded_value,
        sort_keys=True,
        separators=(",", ":"),
        default=_json_default,
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _encode_key(key):
    """Key tuples -> JSON-stable nested lists."""
    if isinstance(key, (tuple, list)):
        return [_encode_key(k) for k in key]
    if key is None or isinstance(key, (str, bool, int, float)):
        return key
    raise TypeError(f"unsupported key component {key!r}")


def _json_default(obj):
    """Tolerate NumPy scalars that leak into counters (value-exact)."""
    for attr in ("item",):
        if hasattr(obj, attr):
            return obj.item()
    raise TypeError(f"not JSON-serializable: {obj!r}")


def _result_to_payload(result: RunResult) -> Dict:
    return {
        "machine": result.machine,
        "app": result.app,
        "interactions": result.interactions,
        "breakdown": result.breakdown.as_dict(),
        "secure": result.secure.as_dict(),
        "insecure": result.insecure.as_dict(),
        "secure_cores": result.secure_cores,
        "insecure_cores": result.insecure_cores,
        "predictor_evals": result.predictor_evals,
    }


def _result_from_payload(data: Dict) -> RunResult:
    return RunResult(
        machine=data["machine"],
        app=data["app"],
        interactions=data["interactions"],
        breakdown=Breakdown(**data["breakdown"]),
        secure=ProcessStats(**data["secure"]),
        insecure=ProcessStats(**data["insecure"]),
        secure_cores=data["secure_cores"],
        insecure_cores=data["insecure_cores"],
        predictor_evals=data["predictor_evals"],
    )


def encode_value(value) -> Dict:
    """Tag a stored value so loads can rebuild the right type."""
    if isinstance(value, RunResult):
        return {"kind": "run_result", "data": _result_to_payload(value)}
    return {"kind": "data", "data": value}


def decode_value(encoded: Dict):
    """Rebuild a stored value tagged by :func:`encode_value`."""
    if encoded["kind"] == "run_result":
        return _result_from_payload(encoded["data"])
    return encoded["data"]


@dataclass
class StoreStats:
    """Hit/miss accounting for one store (reported by tools/CLI)."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    writes: int = 0
    invalid: int = 0  # schema/model/key/digest mismatches and corrupt files
    quarantined: int = 0  # invalid entries preserved under quarantine/
    write_failures: int = 0  # persists dropped (degraded store, torn write)

    @property
    def hits(self) -> int:
        """Total hits across both layers."""
        return self.memory_hits + self.disk_hits

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dict (benchmark/CLI reporting)."""
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "writes": self.writes,
            "invalid": self.invalid,
            "quarantined": self.quarantined,
            "write_failures": self.write_failures,
        }

    def merge(self, other: Dict[str, int]) -> None:
        """Fold another store's counters in.

        Chunk workers run with their own store instance in a separate
        process and ship its counters home, so the parent's stats keep
        describing the whole sweep.
        """
        for name, value in other.items():
            setattr(self, name, getattr(self, name) + value)


class ResultStore:
    """Two-layer (memory over optional disk) memoization of runs.

    ``max_bytes`` caps the on-disk footprint: after every write the
    store garbage-collects least-recently-used entries (by file mtime —
    disk hits refresh it, so reads keep entries warm) until the total
    size fits.  ``None`` means unbounded.
    """

    def __init__(
        self,
        cache_dir: Optional[os.PathLike] = None,
        max_bytes: Optional[int] = None,
    ):
        self.cache_dir = Path(cache_dir).expanduser() if cache_dir else None
        self.max_bytes = max_bytes
        self._memory: Dict[Tuple, object] = {}
        self.stats = StoreStats()
        #: Set after an ENOSPC/permission write failure: the store keeps
        #: serving reads and memory-layer memoization but stops touching
        #: the disk for the remainder of the run.
        self.degraded = False

    @property
    def quarantine_dir(self) -> Optional[Path]:
        """Sibling directory holding invalid entries (never GC'd/read)."""
        if self.cache_dir is None:
            return None
        return self.cache_dir / "quarantine"

    # -- lookup ------------------------------------------------------

    def get(self, key: Tuple, *, copy_result: bool = True):
        """Stored value for ``key`` or ``None``.

        ``copy_result=False`` returns the stored object itself — valid
        only for read-only callers (figure drivers that never mutate
        results); mutating it would poison every later hit.
        """
        value = self._memory.get(key, _MISS)
        if value is _MISS and self.cache_dir is not None:
            value = self._load(key)
            if value is not _MISS:
                self._memory[key] = value
                self.stats.disk_hits += 1
        elif value is not _MISS:
            self.stats.memory_hits += 1
        if value is _MISS:
            self.stats.misses += 1
            return None
        return copy.deepcopy(value) if copy_result else value

    def _load(self, key: Tuple):
        path = self.path_for(key)
        # The existence pre-check keeps count-capped corrupt-read
        # budgets from being spent on cold misses where there is
        # nothing to corrupt (and costs nothing when no plan is armed).
        if (
            _faults.active_plan() is not None
            and path.exists()
            and _faults.should_inject("store_read_corrupt", path.stem)
        ):
            _corrupt_on_disk(path)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError:
            # Includes a sibling process evicting the entry between
            # path_for and the read — a plain miss, never an exception.
            if path.exists():
                self.stats.invalid += 1
            return _MISS
        except ValueError:
            # Parses no longer fail silently: the torn/garbled bytes are
            # preserved for post-mortem and the slot freed for recompute.
            self.stats.invalid += 1
            self._quarantine(path)
            return _MISS
        try:
            if payload["schema"] != SCHEMA_VERSION:
                raise ValueError("schema version mismatch")
            if payload["model"] != MODEL_VERSION:
                raise ValueError("model fingerprint mismatch")
            if payload["key"] != _encode_key(key):
                raise ValueError("key mismatch (collision or tampering)")
            if payload.get("digest") != payload_digest(payload["value"]):
                raise ValueError("payload digest mismatch (corruption)")
            value = decode_value(payload["value"])
        except (KeyError, TypeError, ValueError):
            self.stats.invalid += 1
            self._quarantine(path)
            return _MISS
        try:
            # Refresh the LRU clock so reads protect entries from GC.
            os.utime(path)
        except OSError:
            pass
        return value

    def _quarantine(self, path: Path) -> None:
        """Move an invalid entry aside (never silently deleted).

        Best-effort: a concurrent writer may have already replaced the
        file with a fresh valid entry, in which case losing the race is
        fine — the evidence was superseded, not destroyed.
        """
        qdir = self.quarantine_dir
        if qdir is None:
            return
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            target = qdir / path.name
            n = 0
            while target.exists():
                n += 1
                target = qdir / f"{path.stem}.{n}{path.suffix}"
            os.replace(path, target)
        except OSError:
            return
        self.stats.quarantined += 1

    # -- store -------------------------------------------------------

    def put(self, key: Tuple, value, persist: bool = True) -> bool:
        """Memoize ``value``; persist it when a cache dir is configured.

        The store keeps its own deep copy so later caller-side mutation
        cannot corrupt cached entries.  ``persist=False`` skips the disk
        write (memory-layer memoization only): the chunked sweep
        scheduler uses it when a pool worker already published the entry
        through the shared cache directory, so the parent does not
        duplicate the write (or its ``writes`` accounting).

        Returns ``True`` when the entry is durable to the configured
        layer (memory-only stores always are), ``False`` when a
        requested disk persist was dropped — the store degraded to
        memory-only after an earlier ``ENOSPC``/permission failure, or
        this write itself failed that way.  Callers that need the entry
        shared across processes (the chunked sweep) re-persist
        ``False`` entries from the parent.
        """
        self._memory[key] = copy.deepcopy(value)
        if self.cache_dir is None:
            self.stats.writes += 1
            return True
        if not persist:
            return True
        if self.degraded:
            self.stats.write_failures += 1
            return False
        encoded_value = encode_value(value)
        payload = {
            "schema": SCHEMA_VERSION,
            "model": MODEL_VERSION,
            "key": _encode_key(key),
            "digest": payload_digest(encoded_value),
            "value": encoded_value,
        }
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            if _faults.should_inject("store_write_enospc", path.stem):
                raise OSError(errno.ENOSPC, "injected: no space left on device")
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=path.name, suffix=".tmp"
            )
            try:
                text = json.dumps(payload, default=_json_default)
                if _faults.should_inject("store_write_partial", path.stem):
                    # Kill-point: the writer "dies" after flushing half
                    # the payload, before the publishing rename.  The
                    # torn tmp file is left behind exactly as a real
                    # crash would leave it.
                    with os.fdopen(fd, "w", encoding="utf-8") as fh:
                        fh.write(text[: len(text) // 2])
                    self.stats.write_failures += 1
                    return False
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(text)
                os.replace(tmp, path)  # atomic publish: racers leave one valid file
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            if exc.errno in _DEGRADE_ERRNOS:
                self._degrade(exc)
                return False
            raise
        self.stats.writes += 1
        _reap_stale_tmp(path.parent)
        if self.max_bytes is not None:
            self.gc(keep=path)
        return True

    def _degrade(self, exc: OSError) -> None:
        """Fall back to memory-only persistence for the rest of the run.

        A full disk or revoked permissions should cost the sweep its
        cross-process cache, not the results: one warning, then every
        later ``put`` keeps the memory layer and skips the disk.
        """
        self.stats.write_failures += 1
        if not self.degraded:
            self.degraded = True
            print(
                f"[store] write-through failed ({exc.strerror or exc}); "
                f"degrading {self.cache_dir} to memory-only for this run",
                file=sys.stderr,
            )

    # -- maintenance -------------------------------------------------

    def _is_quarantined(self, path: Path) -> bool:
        qdir = self.quarantine_dir
        return qdir is not None and qdir in path.parents

    def disk_bytes(self) -> int:
        """Total size of the on-disk entries (0 without a cache dir).

        Quarantined evidence is excluded — it never counts against
        ``max_bytes`` and is never GC'd.  Entries vanishing mid-scan
        (a sibling process's eviction) are skipped, not raised.
        """
        if self.cache_dir is None or not self.cache_dir.exists():
            return 0
        total = 0
        for p in self.cache_dir.rglob("*.json"):
            if self._is_quarantined(p):
                continue
            try:
                total += p.stat().st_size
            except OSError:
                continue
        return total

    def gc(self, keep: Optional[Path] = None) -> int:
        """Evict least-recently-used entries down to ``max_bytes``.

        ``keep`` protects one path (the entry just written) from
        eviction even if the cap is smaller than a single entry.
        Returns the number of files removed.  mtime is the LRU clock:
        writes create it, disk hits refresh it.  Quarantined entries
        are never eviction candidates; stale orphaned tmp files are
        reaped while we are scanning anyway.
        """
        if self.cache_dir is None or self.max_bytes is None:
            return 0
        entries = []
        total = 0
        for p in self.cache_dir.rglob("*.json"):
            if self._is_quarantined(p):
                continue
            try:
                st = p.stat()
            except OSError:
                continue
            entries.append((st.st_mtime_ns, st.st_size, p))
            total += st.st_size
        removed = 0
        entries.sort()  # oldest mtime first
        for mtime, size, p in entries:
            if total <= self.max_bytes:
                break
            if keep is not None and p == keep:
                continue
            try:
                p.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
        for d in {p.parent for _, _, p in entries}:
            _reap_stale_tmp(d)
        return removed

    def verify(self) -> Dict[str, int]:
        """Read-only integrity audit of the on-disk layer.

        Counts live entries, entries failing schema/model/digest or
        filename-vs-key checks (``invalid``), quarantined files, and
        orphaned tmp files.  A clean store after a soak run reports
        ``invalid == 0`` and ``tmp == 0``.
        """
        report = {"entries": 0, "invalid": 0, "quarantined": 0, "tmp": 0}
        if self.cache_dir is None or not self.cache_dir.exists():
            return report
        report["tmp"] = sum(1 for _ in self.cache_dir.rglob("*.tmp"))
        for p in self.cache_dir.rglob("*.json"):
            if self._is_quarantined(p):
                report["quarantined"] += 1
                continue
            report["entries"] += 1
            try:
                with open(p, "r", encoding="utf-8") as fh:
                    payload = json.load(fh)
                if payload["schema"] != SCHEMA_VERSION:
                    raise ValueError("schema version mismatch")
                if payload["model"] != MODEL_VERSION:
                    raise ValueError("model fingerprint mismatch")
                if payload.get("digest") != payload_digest(payload["value"]):
                    raise ValueError("payload digest mismatch")
                if key_digest(payload["key"]) != p.stem:
                    raise ValueError("filename does not match embedded key")
            except (OSError, KeyError, TypeError, ValueError):
                report["invalid"] += 1
        return report

    def path_for(self, key: Tuple) -> Path:
        """Cache file for ``key`` (two-level fan-out by digest prefix)."""
        if self.cache_dir is None:
            raise ValueError("store has no cache directory")
        digest = key_digest(key)
        return self.cache_dir / digest[:2] / f"{digest}.json"

    def clear_memory(self) -> None:
        """Drop the in-process layer (disk entries survive)."""
        self._memory.clear()

    def __len__(self) -> int:
        return len(self._memory)


def _corrupt_on_disk(path: Path) -> None:
    """Fault-injection helper: truncate an entry to half its bytes.

    The torn file then flows through the *normal* read path — parse or
    digest failure, quarantine, recompute — so chaos runs exercise the
    same machinery a real bit-flip would.
    """
    try:
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(max(1, size // 2))
    except OSError:
        pass


def _reap_stale_tmp(directory: Path) -> int:
    """Delete orphaned ``*.tmp`` files older than :data:`TMP_REAP_AGE_S`.

    A worker that dies between ``mkstemp`` and ``os.replace`` leaks its
    tmp file; age-gating keeps live concurrent writers (whose tmp files
    are seconds old) safe from the reaper.
    """
    now = time.time()  # repro: allow[determinism.banned-call]
    reaped = 0
    try:
        candidates = list(directory.glob("*.tmp"))
    except OSError:
        return 0
    for tmp in candidates:
        try:
            if now - tmp.stat().st_mtime < TMP_REAP_AGE_S:
                continue
            tmp.unlink()
        except OSError:
            continue
        reaped += 1
    return reaped


# One store per cache directory per process, so every experiment driver
# shares a memory layer (and a stats counter) per directory.
_STORES: Dict[Optional[str], ResultStore] = {}


def get_store(
    cache_dir: Optional[os.PathLike] = None,
    max_bytes: Optional[int] = None,
) -> ResultStore:
    """The interned store for ``cache_dir``.

    ``max_bytes`` (when given) installs or updates the store's disk
    size cap; omitting it leaves an existing cap in place.
    """
    ident = str(Path(cache_dir).expanduser().resolve()) if cache_dir else None
    store = _STORES.get(ident)
    if store is None:
        # Per-process interning: a worker that lands here builds its own
        # store over the same directory; the disk layer (atomic
        # write-then-rename, content-addressed keys) is the shared truth.
        store = _STORES[ident] = ResultStore(cache_dir, max_bytes=max_bytes)  # repro: allow[mp.global-write]
    elif max_bytes is not None:
        store.max_bytes = max_bytes
    return store


def clear_memory_caches() -> None:
    """Drop every store's memory layer (tests, long-lived sessions)."""
    for store in _STORES.values():
        store.clear_memory()


def reset_stores() -> None:
    """Forget every interned store (tests that need cold stats)."""
    # Explicit test-only invalidation of the per-process intern table.
    _STORES.clear()  # repro: allow[mp.global-write]
