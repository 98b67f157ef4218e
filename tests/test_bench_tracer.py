"""The benchmark's span tracer installs over the current source tree.

``perfbench/tracer.py`` looks up every entry point it wraps by name
when it installs, so deleting or renaming one crashes every traced
benchmark run.  This loads the tracer unmodified, installs and
uninstalls it, and checks that every patched attribute is restored.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_resolves_and_uninstall_restores():
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        patched = list(tracer._restore)
    finally:
        tracer.uninstall()
    assert patched
    assert tracer._restore == []
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
