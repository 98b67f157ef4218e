"""Kernel ABI parity: C prototypes vs ctypes declarations vs references.

``src/repro/arch/native.py`` embeds ~300 lines of C (``_C_SOURCE``)
and declares each exported kernel's ``argtypes``/``restype`` by hand.
A kernel with no declaration, or a declaration naming no exported
kernel, crashes or disables the native backend, which the equivalence
suite catches.  These rules guard the slips it can miss:

``abi.arity-mismatch`` / ``abi.argtype-mismatch`` / ``abi.restype-mismatch``
    Per exported kernel, the declared ``argtypes`` must match the C
    parameter list position-by-position — pointers map to ``c_void_p``
    (raw ``ndarray.ctypes.data`` addresses), integer scalars to
    ``c_int64`` — and the ``restype`` must match the C return type.

``abi.stats-layout``
    Strided outputs — C writes ``buf[S * i + k]``, such as
    ``replay_events``' per-segment counters and per-cache stats — fix a
    stride ``S`` per buffer name: every written offset must stay below
    it, ``native.py`` must allocate a buffer of that name as
    ``np.zeros/np.empty(S * n)``, and its reads
    (``buf.reshape(-1, S)``, ``buf[S * i + k]``, ``buf[k::S]``) must use
    the same stride.

``abi.backend-parity``
    The purge paths, the attack probes and the equivalence suite call
    the same maintenance and read surface on both engines' caches
    (`SetAssocCache`, the scalar oracle, and the vector engine's
    `NativeCache` arena views) and TLBs (`Tlb`, `NativeTlb`), so the
    views must expose every public method of their reference class with
    identical positional parameter names — except ``access``, the
    oracle's per-event rule, which the vector engine implements as the
    ``replay_events`` kernel instead.  (The equivalence suite proves
    value equality at runtime, and fails on a property/method mismatch;
    this rule proves the rest of the *call surface* cannot drift.)

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

#: The reference classes' per-event rule, which the vector engine
#: implements as a kernel, not as a view method.
_PER_EVENT_RULE = "access"

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
            # Calling an undeclared kernel crashes the equivalence suite.
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
    return findings


#: ``buf[S * i + k] =`` or ``+=`` (not ``==``) in C.
_STRIDED_WRITE = re.compile(
    r"\b(\w+)\[(\d+)\s*\*\s*\w+\s*\+\s*(\d+)\]\s*\+?=(?!=)"
)


def _const_int(node: Optional[ast.AST]) -> Optional[int]:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    return None


def _mult_stride(node: ast.AST) -> Optional[int]:
    """``S`` of an ``S * x`` expression, else None."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _const_int(node.left)
    return None


def _python_strides(native_tree: ast.Module, name: str) -> List[Tuple[str, int, int, int]]:
    """``(kind, stride, offset, line)`` for each Python use of buffer ``name``.

    Kinds: ``alloc`` (``name = np.zeros/np.empty(S * n)``), ``reshape``
    (``name.reshape(-1, S)``) and ``read`` (``name[S * i + k]`` or
    ``name[k::S]``).  An unrecognised stride reads as -1.
    """
    uses = []
    for node in ast.walk(native_tree):
        if (
            isinstance(node, ast.Assign)
            and dotted_name(node.targets[0]) == name
            and isinstance(node.value, ast.Call)
            and (dotted_name(node.value.func) or "").endswith(("zeros", "empty"))
        ):
            stride = _mult_stride(node.value.args[0]) if node.value.args else None
            uses.append(("alloc", stride or -1, 0, node.lineno))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "reshape"
            and dotted_name(node.func.value) == name
        ):
            uses.append(("reshape", _const_int(node.args[-1]) or -1, 0, node.lineno))
        elif isinstance(node, ast.Subscript) and dotted_name(node.value) == name:
            idx = node.slice
            if isinstance(idx, ast.Slice) and idx.step is not None:
                stride, offset = _const_int(idx.step), _const_int(idx.lower) or 0
            elif isinstance(idx, ast.BinOp) and isinstance(idx.op, ast.Add):
                stride, offset = _mult_stride(idx.left), _const_int(idx.right)
            else:
                continue
            if stride is not None and offset is not None:
                uses.append(("read", stride, offset, node.lineno))
    return uses


def compare_stats_layout(
    c_source: str, native_tree: ast.Module, rel: str = _NATIVE_REL
) -> List[Finding]:
    """C strided output buffers vs their Python allocation and reads."""
    findings: List[Finding] = []
    text = _C_COMMENT.sub("", c_source)
    written: Dict[str, List[Tuple[int, int]]] = {}
    for m in _STRIDED_WRITE.finditer(text):
        written.setdefault(m.group(1), []).append(
            (int(m.group(2)), int(m.group(3)))
        )
    for name, writes in sorted(written.items()):
        strides = {s for s, _ in writes}
        stride = next(iter(strides))
        max_off = max(off for _, off in writes)
        if len(strides) != 1 or max_off >= stride:
            findings.append(Finding(
                "abi.stats-layout", rel, 1,
                f"inconsistent {name} layout in C: strides {sorted(strides)},"
                f" max offset {max_off}",
            ))
            continue
        uses = _python_strides(native_tree, name)
        if not any(kind == "alloc" for kind, *_ in uses):
            findings.append(Finding(
                "abi.stats-layout", rel, 1,
                f"C writes {name}[{stride} * i + k] but native.py never "
                f"allocates a buffer named {name}",
            ))
        for kind, py_stride, offset, line in uses:
            if py_stride != stride or offset >= stride:
                what = {"alloc": "allocates", "reshape": "reshapes",
                        "read": "reads"}[kind]
                findings.append(Finding(
                    "abi.stats-layout", rel, line,
                    f"Python {what} {name} with stride {py_stride}"
                    f"{f' offset {offset}' if kind == 'read' else ''} but "
                    f"the C kernel writes stride {stride}",
                ))
    return findings


# ---------------------------------------------------------------------------
# Backend call-surface parity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodSig:
    """One method's contract-relevant shape."""

    params: Tuple[str, ...]
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
                if name.startswith("_"):
                    continue
                params = tuple(a.arg for a in item.args.args[1:])
                sigs[name] = MethodSig(params, item.lineno)
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
    """Cache and TLB views must match their references, ``access`` aside."""
    findings: List[Finding] = []
    impl_src = ctx.file(_NATIVE_REL)
    if impl_src is None or impl_src.tree is None:
        return findings
    for (ref_rel, ref_cls), impl_cls in _BACKEND_CONTRACTS:
        ref_src = ctx.file(ref_rel)
        if ref_src is None or ref_src.tree is None:
            continue
        reference = class_signatures(ref_src.tree, ref_cls)
        reference.pop(_PER_EVENT_RULE, None)
        findings.extend(compare_backends(
            reference,
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
    c_source = constant_str_assign(src.tree, "_C_SOURCE") if src and src.tree else None
    if c_source is None:
        # No kernels in this context: nothing to cross-check.
        return []
    findings = compare_kernel_abi(c_source, src.tree, src.rel)
    findings.extend(compare_stats_layout(c_source, src.tree, src.rel))
    return findings


@checker
def check_abi(ctx: RepoContext) -> List[Finding]:
    """Run the kernel-ABI and backend-parity rules."""
    findings = check_kernel_abi(ctx)
    findings.extend(check_backend_parity(ctx))
    return findings
