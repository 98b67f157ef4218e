#!/usr/bin/env python
"""Run the repo's test tiers with a summary table.

Tier-1 is the full suite (``pytest -x -q``) — the bar every PR must
hold.  The ``golden`` and ``equivalence`` markers are then run on
their own so a regression in either regression suite is reported by
name even though both already ran inside tier-1.

A ``static`` phase runs first: ``tools/check_static.py`` — the
repo-native static analysis suite (determinism and hygiene lint,
kernel ABI parity, cache-key completeness and the model-version audit,
multiprocessing safety, dead fault-injection sites, machines missing
from the docs) — must report zero findings.

A ``docs`` phase keeps the prose honest: every repo path named in
``docs/architecture.md``, ``docs/experiments.md``, ``docs/scaling.md``,
``docs/static-analysis.md`` and ``docs/reliability.md`` must exist and
every internal link in ``docs/*.md`` must resolve (see
:func:`check_docs`), and every ``examples/*.py`` script must run to
completion with its default arguments (see :func:`run_examples`).

A ``scale`` smoke phase runs
``python -m repro figscale --quick --jobs 2 --chunk 2 --check-golden``:
the chunked process pool must complete the trace-length sweep and
reproduce the serially-collected golden numbers bit-exactly
(``--skip-scale`` skips it).  An ``attack`` smoke phase does the same
for the attack-channel grid
(``python -m repro figattack --quick --jobs 2 --chunk 2
--check-golden``; ``--skip-attack`` skips it), and a ``pop`` smoke
phase for the served-population percentile sweep
(``python -m repro figpop --quick --jobs 2 --chunk 2
--check-golden``; ``--skip-pop`` skips it).

A ``soak`` phase (``--skip-soak`` skips it) runs
``tools/soak_sweep.py``: repeated quick figscale sweeps over one
shared store directory under an active fault-injection plan (worker
crashes, injected unit exceptions, corrupted reads, one ENOSPC) must
converge to payloads and store contents bit-identical to a fault-free
serial baseline, with the corrupt entries quarantined and a clean
final store audit — followed by the steady-state service loop
(population batches on one LRU-capped store; hit-rate plateau,
bounded RSS, clean audit).

Perf is guarded too: unless ``--skip-bench-check`` is given, a final
phase runs ``bench_replay.py --check``, which fails if replay
throughput or the cold ``fig6``/``figscale`` ``--quick`` end-to-end
times regressed >25% against the checked-in ``BENCH_replay.json``, or
if the fault-free retry-bookkeeping overhead of ``run_units`` exceeds
2% of the cold quick fig6 e2e time.  With ``--bench`` the benchmark
instead records a fresh ``BENCH_replay.json`` snapshot of every
section (``bench_replay.py --all``) and appends a timestamped line to
``BENCH_history.jsonl``, so the per-PR perf trajectory accumulates.
Cold ``figattack`` and ``figpop`` times belong to the repo benchmark
(``perfbench/run.py``).

With ``--sanitize``, an opt-in phase re-runs the equivalence suite
over sanitizer-instrumented native kernels
(``REPRO_NATIVE_SANITIZE=1`` + a preloaded ASan runtime): the batch
kernels must stay bit-identical to the scalar oracle while ASan/UBSan
watch every memory access.  The phase skips gracefully when the
toolchain lacks working sanitizers.

Usage:
    python tools/run_tiers.py [--bench] [--sanitize] [--skip-tier1]
                              [--skip-scale] [--skip-attack] [--skip-pop]
                              [--skip-soak] [--skip-bench-check]
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

TIERS = [
    ("tier-1", ["-m", "pytest", "-x", "-q"]),
    ("golden", ["-m", "pytest", "-q", "-m", "golden"]),
    ("equivalence", ["-m", "pytest", "-q", "-m", "equivalence"]),
]

#: Inline-code spans that look like repo paths (checked for existence).
_PATH_SPAN = re.compile(r"`((?:src|tools|tests|docs)/[^`*]+)`")
#: Markdown links ``[text](target)``.
_LINK = re.compile(r"\[[^\]]+\]\(([^)]+)\)")

#: Docs whose backtick-quoted repo paths are existence-checked (the
#: architecture map plus the user-facing experiment/scaling guides).
PATH_CHECKED_DOCS = (
    "architecture.md", "experiments.md", "scaling.md", "static-analysis.md",
    "reliability.md",
)


def _heading_anchors(text: str) -> set:
    """GitHub-style anchor slugs for every heading in a document.

    Skips fenced code blocks (a ``# comment`` inside one is not a
    heading) and applies GitHub's ``-1``/``-2`` suffixing for
    duplicate headings.
    """
    anchors = set()
    counts: dict = {}
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence or not line.startswith("#"):
            continue
        title = line.lstrip("#").strip().lower()
        slug = re.sub(r"[^\w\- ]", "", title).replace(" ", "-")
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def check_docs(repo: Path = REPO) -> "list[str]":
    """Validate docs/: named modules exist, internal links resolve.

    Returns human-readable failure strings (empty = pass).  Two rules:

    * every backtick-quoted ``src/...``-style path in a
      :data:`PATH_CHECKED_DOCS` document (the architecture map and the
      experiments/scaling guides) must exist in the repository, so the
      prose can never name a module that was moved or deleted;
    * every relative markdown link in any ``docs/*.md`` must point at
      an existing file (and, for ``#fragment`` links, at an existing
      heading).
    """
    failures = []
    docs = sorted((repo / "docs").glob("*.md"))
    if not docs:
        return ["docs/ contains no markdown files"]
    arch = repo / "docs" / "architecture.md"
    if not arch.exists():
        failures.append("docs/architecture.md is missing")
    for doc in docs:
        text = doc.read_text(encoding="utf-8")
        if doc.name in PATH_CHECKED_DOCS:
            for span in _PATH_SPAN.findall(text):
                path = span.split("#")[0].strip()
                if not (repo / path).exists():
                    failures.append(f"{doc.name}: named path {path!r} does not exist")
        for target in _LINK.findall(text):
            target = target.strip()
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if target.startswith("#"):
                if target[1:] not in _heading_anchors(text):
                    failures.append(f"{doc.name}: broken anchor {target!r}")
                continue
            rel, _, frag = target.partition("#")
            dest = (doc.parent / rel).resolve()
            if not dest.exists():
                failures.append(f"{doc.name}: broken link {target!r}")
            elif frag and dest.suffix == ".md":
                if frag not in _heading_anchors(dest.read_text(encoding="utf-8")):
                    failures.append(
                        f"{doc.name}: broken anchor {target!r} into {rel}"
                    )
    return failures


def _src_env(extra_env=None) -> dict:
    """The caller's environment with ``src/`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if extra_env:
        env.update(extra_env)
    return env


def run_examples(repo: Path = REPO) -> "list[str]":
    """Run every ``examples/*.py`` script; returns failure strings.

    Each script runs with its default arguments; its output is shown
    only when it exits non-zero, so the documented entry points can
    never rot silently.
    """
    failures = []
    for script in sorted((repo / "examples").glob("*.py")):
        proc = subprocess.run(
            [sys.executable, str(script)], cwd=repo, env=_src_env(),
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            failures.append(
                f"examples/{script.name} exited with {proc.returncode}"
            )
    return failures


def run_docs_phase() -> dict:
    start = time.perf_counter()
    failures = check_docs() + run_examples()
    for failure in failures:
        print(f"DOCS: {failure}", file=sys.stderr)
    if not failures:
        print("docs OK: architecture map paths exist, internal links "
              "resolve, examples run")
    return {
        "phase": "docs",
        "status": "ok" if not failures else f"FAIL ({len(failures)})",
        "seconds": time.perf_counter() - start,
        "ok": not failures,
    }


def run_phase(name: str, argv, extra_env=None) -> dict:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable] + argv, cwd=REPO, env=_src_env(extra_env))
    return {
        "phase": name,
        "status": "ok" if proc.returncode == 0 else f"FAIL ({proc.returncode})",
        "seconds": time.perf_counter() - start,
        "ok": proc.returncode == 0,
    }


def sanitizer_env() -> "dict | None":
    """Environment for the sanitized-equivalence phase (None = skip).

    The native kernels are rebuilt with ASan+UBSan
    (``REPRO_NATIVE_SANITIZE=1``) and dlopened into a non-ASan
    interpreter, which requires the ASan runtime first in the library
    list — hence the ``LD_PRELOAD``.  Leak checking is disabled:
    CPython itself holds allocations for the process lifetime, and the
    kernels never allocate.
    """
    cc = shutil.which("cc")
    if cc is None:
        return None
    try:
        libasan = subprocess.run(
            [cc, "-print-file-name=libasan.so"],
            capture_output=True, text=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    if not libasan or not os.path.isabs(libasan) or not os.path.exists(libasan):
        return None
    return {
        "REPRO_NATIVE_SANITIZE": "1",
        "LD_PRELOAD": libasan,
        "ASAN_OPTIONS": "detect_leaks=0",
    }


def run_sanitize_phase() -> dict:
    """Equivalence suite over sanitizer-instrumented native kernels.

    A preflight asserts the instrumented library actually builds and
    loads — otherwise the vector engine would silently run the scalar
    oracle, the equivalence suite would compare it with itself, and the
    phase would prove nothing.
    """
    start = time.perf_counter()
    env = sanitizer_env()

    def result(status: str, ok: bool) -> dict:
        return {
            "phase": "sanitize-equivalence",
            "status": status,
            "seconds": time.perf_counter() - start,
            "ok": ok,
        }

    if env is None:
        print("sanitize: no working ASan toolchain found; skipping")
        return result("skipped (no sanitizer)", True)
    preflight = run_phase(
        "sanitize-preflight",
        ["-c",
         "from repro.arch.native import native_available, build_error; "
         "import sys; ok = native_available(); "
         "print(build_error() or 'sanitized kernels loaded'); "
         "sys.exit(0 if ok else 3)"],
        extra_env=env,
    )
    if not preflight["ok"]:
        # A present-but-broken sanitizer toolchain must fail loudly,
        # not skip: the build error was printed by the preflight.
        return result("FAIL (sanitized build/load)", False)
    phase = run_phase(
        "sanitize-equivalence", ["-m", "pytest", "-q", "-m", "equivalence"],
        extra_env=env,
    )
    phase["seconds"] = time.perf_counter() - start
    return phase


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", action="store_true",
                        help="record fresh BENCH_replay.json + history snapshots")
    parser.add_argument("--sanitize", action="store_true",
                        help="re-run the equivalence suite over "
                             "ASan/UBSan-instrumented native kernels")
    parser.add_argument("--skip-tier1", action="store_true",
                        help="run only the marker suites (fast re-check)")
    parser.add_argument("--skip-scale", action="store_true",
                        help="skip the chunked-pool figscale smoke phase")
    parser.add_argument("--skip-attack", action="store_true",
                        help="skip the chunked-pool figattack smoke phase")
    parser.add_argument("--skip-pop", action="store_true",
                        help="skip the chunked-pool figpop smoke phase")
    parser.add_argument("--skip-soak", action="store_true",
                        help="skip the fault-injection soak phase")
    parser.add_argument("--skip-bench-check", action="store_true",
                        help="skip the perf-regression gate")
    args = parser.parse_args(argv)

    phases = []
    print("\n=== static ===")
    phases.append(
        run_phase("static", [str(REPO / "tools" / "check_static.py")])
    )
    for name, tier_argv in TIERS:
        if args.skip_tier1 and name == "tier-1":
            continue
        print(f"\n=== {name} ===")
        phases.append(run_phase(name, tier_argv))
    if args.sanitize:
        print("\n=== sanitize-equivalence ===")
        phases.append(run_sanitize_phase())
    print("\n=== docs ===")
    phases.append(run_docs_phase())
    if not args.skip_scale:
        # Chunked-pool smoke: the trace-length sweep must complete over
        # a 2-worker pool with 2-unit chunks and match the golden file.
        print("\n=== scale ===")
        phases.append(
            run_phase(
                "scale",
                ["-m", "repro", "figscale", "--quick", "--jobs", "2",
                 "--chunk", "2", "--check-golden"],
            )
        )
    if not args.skip_attack:
        # Attack smoke: the whole attack grid must complete over the
        # same chunked pool and match its golden section bit-exactly.
        print("\n=== attack ===")
        phases.append(
            run_phase(
                "attack",
                ["-m", "repro", "figattack", "--quick", "--jobs", "2",
                 "--chunk", "2", "--check-golden"],
            )
        )
    if not args.skip_pop:
        # Population smoke: the served-population percentile sweep must
        # complete over the same chunked pool and match its golden
        # section bit-exactly.
        print("\n=== pop ===")
        phases.append(
            run_phase(
                "pop",
                ["-m", "repro", "figpop", "--quick", "--jobs", "2",
                 "--chunk", "2", "--check-golden"],
            )
        )
    if not args.skip_soak:
        # Fault-injection soak: repeated faulted sweeps on one shared
        # store must converge bit-identically to a fault-free baseline
        # (CI-sized: two iterations).
        print("\n=== soak ===")
        phases.append(
            run_phase(
                "soak",
                [str(REPO / "tools" / "soak_sweep.py"), "--iterations", "2"],
            )
        )
    if args.bench:
        print("\n=== bench ===")
        phases.append(
            run_phase(
                "bench",
                [str(REPO / "tools" / "bench_replay.py"), "--all",
                 "--json", str(REPO / "BENCH_replay.json"),
                 "--history", str(REPO / "BENCH_history.jsonl")],
            )
        )
    elif not args.skip_bench_check:
        print("\n=== bench-check ===")
        phases.append(
            run_phase(
                "bench-check",
                [str(REPO / "tools" / "bench_replay.py"), "--check"],
            )
        )

    # Local import so the summary renders even if src/ is broken enough
    # that collection failed above (the table is the whole point).
    sys.path.insert(0, str(REPO / "src"))
    from repro.experiments.reporting import format_table

    print("\n== Tier summary ==")
    print(format_table(
        ["phase", "status", "seconds"],
        [[p["phase"], p["status"], p["seconds"]] for p in phases],
        precision=1,
    ))
    return 0 if all(p["ok"] for p in phases) else 1


if __name__ == "__main__":
    sys.exit(main())
