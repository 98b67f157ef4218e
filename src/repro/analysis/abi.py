"""Kernel ABI parity: C prototypes vs ctypes declarations vs references.

``src/repro/arch/native.py`` embeds ~300 lines of C (``_C_SOURCE``)
and declares each exported kernel's ``argtypes``/``restype`` by hand.
Nothing at runtime checks the two against each other: an arity slip or
a pointer passed as ``c_int64`` truncates addresses to 32 bits and
corrupts memory silently (ctypes' default int marshalling).  This
module makes the contract static:

``abi.missing-decl`` / ``abi.extra-decl``
    Every non-``static`` C function must have a ctypes declaration in
    ``_load()`` and vice versa.

``abi.arity-mismatch`` / ``abi.argtype-mismatch`` / ``abi.restype-mismatch``
    Per exported kernel, the declared ``argtypes`` must match the C
    parameter list position-by-position — pointers map to ``c_void_p``
    (raw ``ndarray.ctypes.data`` addresses), integer scalars to
    ``c_int64`` — and the ``restype`` must match the C return type.

``abi.stats-layout``
    The C kernels report per-batch counters through ``stats_out[k]``
    (and the multi-slice kernel through ``stats4[4p + k]``).  The
    highest index written in C fixes the buffer contract; the Python
    side's ``np.zeros(N)`` allocation, every ``_stats_out[k]`` read and
    the ``stats4`` stride must agree with it.

``abi.backend-parity``
    The two cache backends (`SetAssocCache` — the scalar oracle — and
    `NativeCache`) and the two TLBs (`Tlb`, `NativeTlb`) are
    interchangeable inside the replay engines, so the native classes
    must expose every public method of their pure-Python contract with
    identical positional parameter names, and matching property-ness.
    (The equivalence suite proves value equality at runtime; this rule
    proves the *call surface* cannot drift.)

The comparison helpers take explicit source text/trees so the test
suite can inject deliberate mismatches without touching the real
``native.py``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.core import (
    Finding,
    RepoContext,
    SourceFile,
    checker,
    constant_str_assign,
    dotted_name,
)

_NATIVE_REL = "src/repro/arch/native.py"

#: ((reference file, reference class), native class) per contract.
_BACKEND_CONTRACTS = (
    (("src/repro/arch/cache.py", "SetAssocCache"), "NativeCache"),
    (("src/repro/arch/tlb.py", "Tlb"), "NativeTlb"),
)

#: Dunders that are part of the backend contract when the reference
#: class defines them.
_CONTRACT_DUNDERS = {"__contains__", "__len__"}

_C_COMMENT = re.compile(r"/\*.*?\*/", re.S)
_C_FUNC = re.compile(
    r"(?P<static>\bstatic\b[^;{]*?)?"
    r"\b(?P<ret>i64|i8|int64_t|int8_t|void)\s+"
    r"(?P<name>\w+)\s*\((?P<params>[^)]*)\)\s*\{",
    re.S,
)


@dataclass(frozen=True)
class CPrototype:
    """One C function's marshalling-relevant shape."""

    name: str
    arg_kinds: Tuple[str, ...]  # "ptr" | "scalar" per parameter
    ret: str  # "scalar" | "void"
    exported: bool


def parse_c_prototypes(c_source: str) -> Dict[str, CPrototype]:
    """Extract every function prototype from the embedded C source."""
    text = _C_COMMENT.sub("", c_source)
    protos: Dict[str, CPrototype] = {}
    for m in _C_FUNC.finditer(text):
        params = m.group("params").strip()
        kinds: List[str] = []
        if params and params != "void":
            for raw in params.split(","):
                kinds.append("ptr" if "*" in raw else "scalar")
        protos[m.group("name")] = CPrototype(
            name=m.group("name"),
            arg_kinds=tuple(kinds),
            ret="void" if m.group("ret") == "void" else "scalar",
            exported=m.group("static") is None,
        )
    return protos


def _ctype_kind(node: ast.AST, aliases: Dict[str, str]) -> str:
    """Classify one argtypes entry as ``ptr``/``scalar``/unknown."""
    name = dotted_name(node)
    if name is None:
        return "?"
    if name in aliases:
        name = aliases[name]
    short = name.split(".")[-1]
    if short == "c_void_p" or short.startswith("POINTER"):
        return "ptr"
    if short in {"c_int64", "c_int32", "c_int", "c_long", "c_longlong",
                 "c_size_t", "c_int8", "c_uint64"}:
        return "scalar:" + short
    return "?:" + short


@dataclass
class CtypesDecl:
    """The argtypes/restype declared for one kernel, with source lines."""

    name: str
    argtypes: Optional[Tuple[str, ...]] = None
    restype: Optional[str] = None
    line: int = 0


def parse_ctypes_decls(native_tree: ast.Module) -> Dict[str, CtypesDecl]:
    """Interpret ``_load()``'s declaration statements.

    Handles the two shapes the module uses: direct
    ``lib.<kernel>.argtypes = [...]`` assignments and
    ``for fn in (lib.a, lib.b): fn.argtypes = [...]`` sharing loops,
    plus ``ptr = ctypes.c_void_p``-style aliases.
    """
    load_fn = None
    for node in ast.walk(native_tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_load":
            load_fn = node
            break
    decls: Dict[str, CtypesDecl] = {}
    if load_fn is None:
        return decls
    aliases: Dict[str, str] = {}

    def decl_for(kernel: str, line: int) -> CtypesDecl:
        if kernel not in decls:
            decls[kernel] = CtypesDecl(kernel, line=line)
        return decls[kernel]

    def record(target: ast.Attribute, value: ast.AST, kernels: List[str]):
        field = target.attr
        for kernel in kernels:
            d = decl_for(kernel, target.lineno)
            if field == "argtypes" and isinstance(value, (ast.List, ast.Tuple)):
                d.argtypes = tuple(
                    _ctype_kind(el, aliases) for el in value.elts
                )
                d.line = target.lineno
            elif field == "restype":
                d.restype = _ctype_kind(value, aliases)

    for stmt in ast.walk(load_fn):
        if isinstance(stmt, ast.Assign):
            value = stmt.value
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    name = dotted_name(value)
                    if name and name.startswith("ctypes."):
                        aliases[target.id] = name
                elif isinstance(target, ast.Attribute) and target.attr in {
                    "argtypes", "restype"
                }:
                    owner = target.value
                    # lib.<kernel>.argtypes = ...
                    if (
                        isinstance(owner, ast.Attribute)
                        and isinstance(owner.value, ast.Name)
                        and owner.value.id == "lib"
                    ):
                        record(target, value, [owner.attr])
        elif isinstance(stmt, ast.For):
            # for fn in (lib.a, lib.b): fn.argtypes = ...
            if not (
                isinstance(stmt.target, ast.Name)
                and isinstance(stmt.iter, (ast.Tuple, ast.List))
            ):
                continue
            loop_var = stmt.target.id
            kernels = []
            for el in stmt.iter.elts:
                if (
                    isinstance(el, ast.Attribute)
                    and isinstance(el.value, ast.Name)
                    and el.value.id == "lib"
                ):
                    kernels.append(el.attr)
            if not kernels:
                continue
            for inner in ast.walk(stmt):
                if isinstance(inner, ast.Assign):
                    for target in inner.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == loop_var
                            and target.attr in {"argtypes", "restype"}
                        ):
                            record(target, inner.value, kernels)
    return decls


def compare_kernel_abi(
    c_source: str, native_tree: ast.Module, rel: str = _NATIVE_REL
) -> List[Finding]:
    """Cross-check the C prototypes against the ctypes declarations."""
    findings: List[Finding] = []
    protos = parse_c_prototypes(c_source)
    decls = parse_ctypes_decls(native_tree)
    exported = {n: p for n, p in protos.items() if p.exported}
    for name, proto in sorted(exported.items()):
        decl = decls.get(name)
        if decl is None or decl.argtypes is None:
            findings.append(Finding(
                "abi.missing-decl", rel, 1,
                f"C kernel {name}() has no ctypes argtypes declaration "
                "in _load()",
            ))
            continue
        if len(decl.argtypes) != len(proto.arg_kinds):
            findings.append(Finding(
                "abi.arity-mismatch", rel, decl.line,
                f"{name}(): C prototype takes {len(proto.arg_kinds)} "
                f"arguments but argtypes declares {len(decl.argtypes)}",
            ))
        else:
            for i, (c_kind, py_kind) in enumerate(
                zip(proto.arg_kinds, decl.argtypes)
            ):
                ok = (
                    (c_kind == "ptr" and py_kind == "ptr")
                    or (c_kind == "scalar"
                        and py_kind in {"scalar:c_int64", "scalar:c_longlong"})
                )
                if not ok:
                    findings.append(Finding(
                        "abi.argtype-mismatch", rel, decl.line,
                        f"{name}() argument {i}: C expects {c_kind} but "
                        f"argtypes declares {py_kind} — pointer/int64 "
                        "confusion corrupts memory silently",
                    ))
        if proto.ret == "scalar" and decl.restype not in {
            "scalar:c_int64", "scalar:c_longlong"
        }:
            findings.append(Finding(
                "abi.restype-mismatch", rel, decl.line,
                f"{name}(): C returns i64 but restype is "
                f"{decl.restype or 'undeclared (defaults to c_int)'}",
            ))
    for name, decl in sorted(decls.items()):
        if name not in protos:
            findings.append(Finding(
                "abi.extra-decl", rel, decl.line,
                f"ctypes declaration for {name}() matches no function in "
                "_C_SOURCE",
            ))
        elif not protos[name].exported:
            findings.append(Finding(
                "abi.extra-decl", rel, decl.line,
                f"ctypes declaration for {name}() targets a static C "
                "function (not exported from the shared object)",
            ))
    return findings


_STATS_WRITE = re.compile(r"\bstats_out\[(\d+)\]\s*=")
_STATS4_WRITE = re.compile(r"\bstats4\[(\d+)\s*\*\s*p\s*\+\s*(\d+)\]\s*=")


def compare_stats_layout(
    c_source: str, native_tree: ast.Module, rel: str = _NATIVE_REL
) -> List[Finding]:
    """Check Python's stats buffers against the C ``stats_out`` contract."""
    findings: List[Finding] = []
    text = _C_COMMENT.sub("", c_source)
    writes = [int(m.group(1)) for m in _STATS_WRITE.finditer(text)]
    if not writes:
        return [Finding(
            "abi.stats-layout", rel, 1,
            "no stats_out[...] writes found in _C_SOURCE; the stats "
            "contract checker needs updating",
        )]
    c_size = max(writes) + 1

    # Python allocation: self._stats_out = np.zeros(N, ...).
    alloc_size = None
    alloc_line = 1
    max_read = -1
    max_read_line = 1
    stats4_stride_py = None
    stats4_line = 1
    for node in ast.walk(native_tree):
        if isinstance(node, ast.Assign):
            name = dotted_name(node.targets[0]) if node.targets else None
            if name and name.endswith("_stats_out") and isinstance(
                node.value, ast.Call
            ):
                fn = dotted_name(node.value.func) or ""
                if fn.endswith("zeros") and node.value.args and isinstance(
                    node.value.args[0], ast.Constant
                ):
                    alloc_size = int(node.value.args[0].value)
                    alloc_line = node.lineno
        if isinstance(node, ast.Subscript):
            owner = dotted_name(node.value)
            if owner and owner.endswith("_stats_out"):
                idx = node.slice
                if isinstance(idx, ast.Constant) and isinstance(
                    idx.value, int
                ):
                    if idx.value > max_read:
                        max_read = idx.value
                        max_read_line = node.lineno
        if isinstance(node, ast.Call):
            fn = dotted_name(node.func) or ""
            if fn.endswith("empty") and node.args:
                arg = node.args[0]
                if (
                    isinstance(arg, ast.BinOp)
                    and isinstance(arg.op, ast.Mult)
                    and isinstance(arg.left, ast.Constant)
                    and isinstance(arg.right, ast.Name)
                    and arg.right.id == "n_parts"
                ):
                    stats4_stride_py = int(arg.left.value)
                    stats4_line = node.lineno
    if alloc_size is not None and alloc_size != c_size:
        findings.append(Finding(
            "abi.stats-layout", rel, alloc_line,
            f"_stats_out allocates {alloc_size} slots but the C kernels "
            f"write indices up to {c_size - 1}",
        ))
    if max_read >= c_size:
        findings.append(Finding(
            "abi.stats-layout", rel, max_read_line,
            f"Python reads _stats_out[{max_read}] but the C kernels only "
            f"write {c_size} slots",
        ))
    stats4 = [(int(m.group(1)), int(m.group(2)))
              for m in _STATS4_WRITE.finditer(text)]
    if stats4:
        strides = {s for s, _ in stats4}
        max_off = max(off for _, off in stats4)
        if len(strides) != 1 or max_off >= next(iter(strides)):
            findings.append(Finding(
                "abi.stats-layout", rel, 1,
                f"inconsistent stats4 layout in C: strides {sorted(strides)},"
                f" max offset {max_off}",
            ))
        elif stats4_stride_py is not None and (
            stats4_stride_py != next(iter(strides))
        ):
            findings.append(Finding(
                "abi.stats-layout", rel, stats4_line,
                f"Python allocates stats4 with stride {stats4_stride_py} "
                f"but the C kernel writes stride {next(iter(strides))}",
            ))
    return findings


# ---------------------------------------------------------------------------
# Backend call-surface parity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodSig:
    """One method's contract-relevant shape."""

    params: Tuple[str, ...]
    is_property: bool
    line: int


def class_signatures(tree: ast.Module, class_name: str) -> Dict[str, MethodSig]:
    """Public method signatures (positional params after self) of a class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            sigs: Dict[str, MethodSig] = {}
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                name = item.name
                if name.startswith("_") and name not in _CONTRACT_DUNDERS:
                    continue
                is_prop = any(
                    dotted_name(d) == "property" for d in item.decorator_list
                )
                params = tuple(a.arg for a in item.args.args[1:])
                sigs[name] = MethodSig(params, is_prop, item.lineno)
            return sigs
    return {}


def compare_backends(
    reference: Dict[str, MethodSig],
    implementation: Dict[str, MethodSig],
    ref_label: str,
    impl_label: str,
    impl_rel: str,
    impl_line: int,
) -> List[Finding]:
    """Every reference method must exist identically in the implementation."""
    findings: List[Finding] = []
    for name, ref_sig in sorted(reference.items()):
        impl_sig = implementation.get(name)
        if impl_sig is None:
            findings.append(Finding(
                "abi.backend-parity", impl_rel, impl_line,
                f"{impl_label} is missing {ref_label}.{name}() from the "
                "backend contract",
            ))
            continue
        if impl_sig.is_property != ref_sig.is_property:
            findings.append(Finding(
                "abi.backend-parity", impl_rel, impl_sig.line,
                f"{impl_label}.{name}: property/method mismatch with "
                f"{ref_label}.{name}",
            ))
        if impl_sig.params != ref_sig.params:
            findings.append(Finding(
                "abi.backend-parity", impl_rel, impl_sig.line,
                f"{impl_label}.{name}({', '.join(impl_sig.params)}) does not "
                f"match {ref_label}.{name}({', '.join(ref_sig.params)})",
            ))
    return findings


def _class_line(tree: ast.Module, class_name: str) -> int:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return node.lineno
    return 1


def check_backend_parity(ctx: RepoContext) -> List[Finding]:
    """Cache and TLB backend surfaces must match their references."""
    findings: List[Finding] = []
    impl_src = ctx.file(_NATIVE_REL)
    if impl_src is None or impl_src.tree is None:
        return findings
    for (ref_rel, ref_cls), impl_cls in _BACKEND_CONTRACTS:
        ref_src = ctx.file(ref_rel)
        if ref_src is None or ref_src.tree is None:
            continue
        findings.extend(compare_backends(
            class_signatures(ref_src.tree, ref_cls),
            class_signatures(impl_src.tree, impl_cls),
            ref_cls, impl_cls, _NATIVE_REL,
            _class_line(impl_src.tree, impl_cls),
        ))
    return findings


def check_kernel_abi(
    ctx: RepoContext, native_src: Optional[SourceFile] = None
) -> List[Finding]:
    """ABI rules against the repo's (or an injected) ``native.py``."""
    src = native_src or ctx.file(_NATIVE_REL)
    if src is None or src.tree is None:
        return [Finding(
            "abi.missing-decl", _NATIVE_REL, 1,
            "src/repro/arch/native.py not found or unparsable",
        )]
    c_source = constant_str_assign(src.tree, "_C_SOURCE")
    if c_source is None:
        return [Finding(
            "abi.missing-decl", src.rel, 1,
            "_C_SOURCE string not found in native.py",
        )]
    findings = compare_kernel_abi(c_source, src.tree, src.rel)
    findings.extend(compare_stats_layout(c_source, src.tree, src.rel))
    return findings


@checker
def check_abi(ctx: RepoContext) -> List[Finding]:
    """Run the kernel-ABI and backend-parity rules."""
    findings = check_kernel_abi(ctx)
    findings.extend(check_backend_parity(ctx))
    return findings
