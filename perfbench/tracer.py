"""In-memory span tracer over the public entry points of the repro layers.

The tracer lives entirely in the benchmark: :meth:`Tracer.install`
wraps each entry point in :data:`TARGETS` where callers look it up
(the defining module, every ``repro.*`` module that imported the
function by name, and every subclass override of a method), and
:meth:`Tracer.uninstall` puts the originals back.  Wrappers pass
arguments and results through untouched, so tracing never changes a
result.

Each call records one span ``(name, start, end, parent, run)``.  Self
time is a span's duration minus the time its child spans cover; it is
accumulated per layer while the spans are kept in memory and written
out at the end by :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _run_units_pre(tracer, args, kwargs):
    tracer.counts["sweep.units"] += len(args[0] if args else kwargs["units"])


def _store_get_pre(tracer, args, kwargs):
    return args[0].stats.disk_hits


def _store_get_post(tracer, args, kwargs, before):
    tracer.counts["store.get.disk_hits"] += args[0].stats.disk_hits - before


def _bundle_pre(tracer, args, kwargs):
    return tracer.calls["bundle.batch_traces"]


def _bundle_post(tracer, args, kwargs, before):
    if tracer.calls["bundle.batch_traces"] != before:
        tracer.counts["bundle.builds"] += 1


def _epoch_pre(tracer, args, kwargs):
    replayer, seg_a, seg_b = args[0], args[1], args[2]
    tracer.counts["replay.accesses"] += int(replayer.seg_lens[seg_a:seg_b].sum())


def _run_trace_pre(tracer, args, kwargs):
    addrs = args[2] if len(args) > 2 else kwargs["addrs"]
    tracer.counts["run_trace.accesses"] += len(addrs)


#: ``(span name, layer, module, attribute path, pre hook, post hook)``.
#: ``layer`` is the per-layer metric prefix the span's self time feeds;
#: a pre hook may return a token that the post hook receives.
TARGETS = (
    ("reduce.run_figpop", "reduce", "repro.experiments.figpop", "run_figpop", None, None),
    ("reduce.run_figattack", "reduce", "repro.experiments.figattack", "run_figattack", None, None),
    ("sweep.run_units", "sweep", "repro.experiments.sweep", "run_units", _run_units_pre, None),
    ("sweep.execute_unit", "sweep", "repro.experiments.sweep", "execute_unit", None, None),
    ("store.get", "store.get", "repro.experiments.store", "ResultStore.get",
     _store_get_pre, _store_get_post),
    ("store.put", "store.put", "repro.experiments.store", "ResultStore.put", None, None),
    ("machine.build", "machine.build", "repro.machines", "build_machine", None, None),
    ("machine.run", "machine.run", "repro.machines.base", "Machine.run", None, None),
    ("bundle.interaction_bundle", "bundle", "repro.sim.bundle", "interaction_bundle",
     _bundle_pre, _bundle_post),
    ("bundle.batch_traces", "bundle", "repro.workloads.base",
     "WorkloadProcess.batch_traces", None, None),
    ("plan", "plan", "repro.arch.batch_replay", "BatchReplayer.__init__", None, None),
    ("epoch", "epoch", "repro.arch.batch_replay", "BatchReplayer.run_epoch", _epoch_pre, None),
    ("kernel.l1", "kernel.l1", "repro.arch.native",
     "NativeCache.kernel_filter_misses_wb", None, None),
    ("kernel.l2.slice", "kernel.l2", "repro.arch.native",
     "NativeCache.kernel_hit_flags_wb", None, None),
    ("kernel.l2.multi", "kernel.l2", "repro.arch.native", "multi_slice_flags_wb", None, None),
    ("kernel.tlb", "kernel.tlb", "repro.arch.native", "NativeTlb.access_batch_flags", None, None),
    ("run_trace", "run_trace", "repro.arch.hierarchy", "MemoryHierarchy.run_trace",
     _run_trace_pre, None),
    ("calibrate", "calibrate", "repro.model.perf_model", "calibrate_l2_curve", None, None),
    ("purge", "purge", "repro.secure.purge", "PurgeModel.flush", None, None),
    ("ipc.plan_send", "ipc", "repro.secure.ipc", "SharedIpcBuffer.plan_send", None, None),
    ("ipc.plan_recv", "ipc", "repro.secure.ipc", "SharedIpcBuffer.plan_recv", None, None),
    ("ipc.finish", "ipc", "repro.secure.ipc", "SharedIpcBuffer.finish", None, None),
    ("attack.env", "attack.env", "repro.attacks.environment", "AttackEnvironment.build",
     None, None),
    ("attack.evset", "attack.evset", "repro.attacks.prime_probe",
     "PrimeProbeAttack.build_eviction_sets", None, None),
    ("attack.scenario", "attack.scenario", "repro.attacks.scenarios", "run_attack_scenario",
     None, None),
)

#: Every layer a span's self time can be charged to, in report order.
LAYERS = tuple(dict.fromkeys(t[1] for t in TARGETS))


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


class Tracer:
    """Records spans and counts at the wrapped entry points."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.layer_of = {t[0]: t[1] for t in TARGETS}
        self.spans = []  # [name index, start, end, parent span id, run id]
        self.run_id = 0
        self._stack = []  # [span id, time covered by child spans]
        self._restore = []
        self.reset()

    def reset(self) -> None:
        """Zero the per-run aggregates (spans are kept)."""
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = Counter()
        self.unit_ms = []

    # -- installation ------------------------------------------------

    def install(self) -> None:
        for index, (name, _, module, path, pre, post) in enumerate(TARGETS):
            mod = importlib.import_module(module)
            if "." not in path:
                original = getattr(mod, path)
                wrapper = self._wrap(index, original, pre, post)
                for other in list(sys.modules.values()):
                    mod_name = getattr(other, "__name__", "")
                    if mod_name != "repro" and not mod_name.startswith("repro."):
                        continue
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, attr, original, wrapper)
                continue
            cls_name, meth = path.split(".")
            for cls in _subclasses(getattr(mod, cls_name)):
                raw = cls.__dict__.get(meth)
                if raw is None:
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapper = type(raw)(self._wrap(index, raw.__func__, pre, post))
                else:
                    wrapper = self._wrap(index, raw, pre, post)
                self._patch(cls, meth, raw, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, index, fn, pre, post):
        tracer = self
        name = self.names[index]
        layer = self.layer_of[name]
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = pre(tracer, args, kwargs) if pre is not None else None
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans[sid] = (index, start, end, parent, tracer.run_id)
                tracer.calls[name] += 1
                tracer.self_s[layer] += dur - frame[1]
                tracer.incl_s[name] += dur
                if name == "sweep.execute_unit":
                    tracer.unit_ms.append(dur * 1e3)
                if post is not None:
                    post(tracer, args, kwargs, token)

        return wrapper

    # -- output ------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write every recorded span as gzipped JSON lines; returns the count."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for sid, span in enumerate(self.spans):
                if span is None:  # still open: the run raised mid-call
                    continue
                index, start, end, parent, run = span
                fh.write(f"[{sid},{index},{start:.9f},{end:.9f},{parent},{run}]\n")
        return len(self.spans)
