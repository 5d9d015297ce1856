"""Wire rules: picklable-payload safety and protocol exhaustiveness.

``wire-safety`` classifies every expression constructed into a
``SocketComm.send``/``frame.dumps``/``encode_message`` call against the known
wire set -- plain containers and scalars, the exceptions family,
:class:`~repro.graph.taskspec.BlockRef`, ``ShmDescriptor`` -- on a
three-valued lattice (SAFE / UNKNOWN / UNSAFE).  Only provably-UNSAFE
expressions are convicted (constructing a non-wire class, a threading
object, a lambda or generator into a frame); UNKNOWN values (parameters,
attribute loads) pass, because the runtime payloads they carry are
guarded dynamically by the frame codec.  This mirrors the analyzer-wide
bias: miss a finding before inventing one.

``protocol-exhaustive`` checks both directions of the remote-dispatch
message protocol (:class:`RemoteRuntime` and its two subclasses <->
:class:`WorkerSession`): every tag one side sends must have a
matching handler comparison on the other side, and every handler must
correspond to a tag the peer actually sends (dead handlers hide protocol
drift).  Sent tags are the leading string constants of tuples passed to
``.send(...)``; handled tags are string constants compared against a
*tag position* -- ``msg[0]``, a variable assigned from ``X[0]``, or the
head of a tuple-unpacked ``recv()`` -- so ordinary string comparisons in
the same function cannot pollute the handler set.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.verify.report import Finding
from repro.verify.static.callgraph import Program, StaticRule

#: Non-exception classes blessed onto the wire.
WIRE_SAFE_CLASSES = frozenset({"BlockRef", "ShmDescriptor", "Address", "Encoded"})

#: Scalar/container type names that are trivially picklable.
_SAFE_TYPE_NAMES = frozenset(
    {"bytes", "bytearray", "str", "int", "float", "bool", "complex", "NoneType",
     "BaseException", "Exception"}
)

#: Call names whose result is wire-safe by contract (serializers,
#: builtins returning scalars/containers of their scalar inputs).
_SAFE_CALL_NAMES = frozenset(
    {"len", "str", "repr", "bytes", "int", "float", "bool", "abs", "round",
     "min", "max", "sum", "sorted", "dumps", "encode_message", "pack_frame",
     "perf_counter", "process_time", "monotonic", "time", "format", "encode_oob"}
)

#: Constructors that are never picklable -- except through the OOB API
#: (``send_oob``/``dumps_oob``/``encode_oob``), which exists precisely to
#: carry raw buffers: there, ``memoryview``/``PickleBuffer`` are the
#: whole point and classify SAFE.
_UNSAFE_BUILTINS = frozenset({"open", "memoryview", "PickleBuffer"})

#: Buffer constructors legal inside an OOB sink only.
_OOB_ONLY = frozenset({"memoryview", "PickleBuffer"})

#: Sinks that serialize with the protocol-5 out-of-band buffer path.
_OOB_SINKS = frozenset({"send_oob", "dumps_oob", "encode_oob", "encode_message_oob"})

#: Every serializer-call sink (plain and OOB) whose first argument goes
#: onto the wire.
_SERIALIZER_SINKS = frozenset({"dumps", "encode_message"}) | _OOB_SINKS


def _fold(verdicts: list[tuple[str, str]]) -> tuple[str, str]:
    for v in verdicts:
        if v[0] == "unsafe":
            return v
    for v in verdicts:
        if v[0] == "unknown":
            return v
    return ("safe", "")


def _local_assigns(fn) -> dict[str, list[ast.expr]]:
    out: dict[str, list[ast.expr]] = {}
    for node in fn.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            t = node.targets[0]
            if isinstance(t, ast.Name):
                out.setdefault(t.id, []).append(node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                out.setdefault(node.target.id, []).append(node.value)
    return out


class WireSafetyRule(StaticRule):
    """Everything constructed into a frame must be in the wire set."""

    name = "wire-safety"

    def check(self, program: Program) -> list[Finding]:
        findings: list[Finding] = []
        for fn in program.functions:
            assigns = _local_assigns(fn)
            for node in fn.body:
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                arg: ast.expr | None = None
                oob = False
                if (
                    isinstance(f, ast.Attribute)
                    and f.attr in ("send", "send_oob")
                    and len(node.args) == 1
                ):
                    arg = node.args[0]
                    oob = f.attr in _OOB_SINKS
                elif (
                    (
                        isinstance(f, ast.Name)
                        and f.id in _SERIALIZER_SINKS
                    )
                    or (
                        isinstance(f, ast.Attribute)
                        and f.attr in _SERIALIZER_SINKS
                    )
                ) and node.args:
                    arg = node.args[0]
                    name = f.id if isinstance(f, ast.Name) else f.attr
                    oob = name in _OOB_SINKS
                if arg is None:
                    continue
                verdict, why = self._classify(program, fn, assigns, arg, 0, oob)
                if verdict == "unsafe":
                    findings.append(
                        Finding(
                            self.name,
                            fn.module.relpath,
                            node.lineno,
                            f"`{ast.unparse(arg)[:80]}` shipped onto the wire "
                            f"in {fn.qualname} is not wire-safe: {why}",
                        )
                    )
        return findings

    def _safe_type(self, program: Program, relpath: str, tname: str) -> bool:
        if tname in _SAFE_TYPE_NAMES or tname in WIRE_SAFE_CLASSES:
            return True
        c = program.resolve_class(tname, relpath)
        if c is not None and c.exceptionish:
            return True
        return tname.endswith(("Error", "Exception"))

    def _classify(
        self, program: Program, fn, assigns, expr: ast.expr, depth: int,
        oob: bool = False,
    ) -> tuple[str, str]:
        if depth > 6:
            return ("unknown", "")
        relpath = fn.module.relpath
        if isinstance(expr, ast.Constant):
            return ("safe", "")
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            return _fold(
                [
                    self._classify(program, fn, assigns, e, depth + 1, oob)
                    for e in expr.elts
                ]
            )
        if isinstance(expr, ast.Dict):
            parts = [k for k in expr.keys if k is not None] + list(expr.values)
            return _fold(
                [
                    self._classify(program, fn, assigns, e, depth + 1, oob)
                    for e in parts
                ]
            )
        if isinstance(expr, ast.Starred):
            return self._classify(program, fn, assigns, expr.value, depth + 1, oob)
        if isinstance(expr, ast.JoinedStr):
            return ("safe", "")
        if isinstance(expr, ast.IfExp):
            return _fold(
                [
                    self._classify(program, fn, assigns, expr.body, depth + 1, oob),
                    self._classify(program, fn, assigns, expr.orelse, depth + 1, oob),
                ]
            )
        if isinstance(expr, ast.Lambda):
            return ("unsafe", "lambdas do not pickle")
        if isinstance(expr, ast.GeneratorExp):
            return ("unsafe", "generators do not pickle")
        if isinstance(expr, ast.Name):
            values = assigns.get(expr.id)
            if values:
                return _fold(
                    [
                        self._classify(program, fn, assigns, v, depth + 1, oob)
                        for v in values
                    ]
                )
            types = fn.env.get(expr.id, ())
            if types and all(self._safe_type(program, relpath, t) for t in types):
                return ("safe", "")
            for t in types:
                c = program.resolve_class(t, relpath)
                if (
                    c is not None
                    and not c.exceptionish
                    and t not in WIRE_SAFE_CLASSES
                ):
                    return (
                        "unsafe",
                        f"`{expr.id}` is a {t} instance, which is not in the wire set",
                    )
            return ("unknown", "")
        if isinstance(expr, ast.Call):
            return self._classify_call(program, fn, assigns, expr, depth, oob)
        return ("unknown", "")

    def _classify_call(
        self, program: Program, fn, assigns, call: ast.Call, depth: int,
        oob: bool = False,
    ) -> tuple[str, str]:
        relpath = fn.module.relpath
        f = call.func
        if (
            isinstance(f, ast.Attribute)
            and isinstance(f.value, ast.Name)
            and f.value.id == "threading"
        ):
            return ("unsafe", f"threading.{f.attr}() objects do not pickle")
        cname_builtin = None
        if isinstance(f, ast.Name):
            cname_builtin = f.id
        elif (
            isinstance(f, ast.Attribute)
            and isinstance(f.value, ast.Name)
            and f.value.id == "pickle"
            and f.attr == "PickleBuffer"
        ):
            cname_builtin = "PickleBuffer"
        if cname_builtin in _UNSAFE_BUILTINS:
            if oob and cname_builtin in _OOB_ONLY:
                return ("safe", "")
            if cname_builtin in _OOB_ONLY:
                return (
                    "unsafe",
                    f"{cname_builtin}() does not pickle on the plain frame "
                    "path; ship raw buffers through the out-of-band API "
                    "(SocketComm.send_oob / frame.dumps_oob)",
                )
            return ("unsafe", f"{cname_builtin}() objects do not pickle")
        targets = program._resolve_call_targets(
            call, fn.module, fn.env, fn.cls, expand=False
        )
        for tgt in targets:
            if tgt.qualname.endswith("__init__") and tgt.cls is not None:
                cname = tgt.cls.name
                if self._safe_type(program, relpath, cname):
                    return ("safe", "")
                return (
                    "unsafe",
                    f"constructs {cname}, which is not in the wire set "
                    "(exceptions, BlockRef, ShmDescriptor, plain containers)",
                )
            rets = [
                t
                for t in self._return_types(tgt)
                if t not in ("None",)
            ]
            if rets and all(self._safe_type(program, relpath, t) for t in rets):
                return ("safe", "")
        if isinstance(f, ast.Name):
            c = program.resolve_class(f.id, relpath)
            if c is not None:
                if self._safe_type(program, relpath, c.name):
                    return ("safe", "")
                return (
                    "unsafe",
                    f"constructs {c.name}, which is not in the wire set",
                )
            if f.id in _SAFE_CALL_NAMES or f.id in ("tuple", "list", "dict", "set", "frozenset"):
                return ("safe", "")
        if isinstance(f, ast.Attribute) and f.attr in _SAFE_CALL_NAMES:
            return ("safe", "")
        return ("unknown", "")

    def _return_types(self, tgt) -> tuple[str, ...]:
        from repro.verify.static.callgraph import _annotation_names

        return _annotation_names(tgt.node.returns)


# ---------------------------------------------------------------------------
# protocol exhaustiveness


@dataclass(frozen=True)
class ProtocolSide:
    name: str
    classes: tuple[str, ...] = ()
    functions: tuple[str, ...] = ()


@dataclass(frozen=True)
class ProtocolSpec:
    name: str
    modules: tuple[str, ...]
    parent: ProtocolSide
    worker: ProtocolSide


#: The runtime message protocol.  Sides are matched by class (every
#: method) or by module-level function name (nested helpers included),
#: within any of the protocol's modules.  The parent side is the shared
#: :class:`RemoteRuntime` plus whatever its two channel-opening
#: subclasses say themselves (the cluster's dial-time ``ping``).
PROTOCOLS: tuple[ProtocolSpec, ...] = (
    ProtocolSpec(
        name="remote-dispatch",
        modules=(
            "runtime/dispatch.py",
            "runtime/procpool.py",
            "runtime/cluster.py",
            "runtime/worker.py",
        ),
        parent=ProtocolSide(
            "parent", classes=("RemoteRuntime", "ProcessRuntime", "ClusterRuntime")
        ),
        worker=ProtocolSide("worker", classes=("WorkerSession", "WorkerContext")),
    ),
)


class ProtocolExhaustiveRule(StaticRule):
    """Every sent tag has a peer handler; every handler has a sender."""

    name = "protocol-exhaustive"

    def __init__(self, protocols: tuple[ProtocolSpec, ...] = PROTOCOLS) -> None:
        self.protocols = protocols

    def check(self, program: Program) -> list[Finding]:
        findings: list[Finding] = []
        for spec in self.protocols:
            parent_fns = self._side_functions(program, spec.modules, spec.parent)
            worker_fns = self._side_functions(program, spec.modules, spec.worker)
            if not parent_fns or not worker_fns:
                continue  # protocol module absent from this scan
            p_sent = self._sent_tags(program, parent_fns)
            w_sent = self._sent_tags(program, worker_fns)
            p_handled = self._handled_tags(parent_fns)
            w_handled = self._handled_tags(worker_fns)
            findings += self._diff(spec, "parent", "worker", p_sent, w_handled, w_sent)
            findings += self._diff(spec, "worker", "parent", w_sent, p_handled, p_sent)
        return findings

    def _diff(
        self,
        spec: ProtocolSpec,
        sender: str,
        receiver: str,
        sent: dict[str, tuple[str, int]],
        handled: dict[str, tuple[str, int]],
        peer_sent: dict[str, tuple[str, int]],
    ) -> list[Finding]:
        out: list[Finding] = []
        for tag in sorted(set(sent) - set(handled)):
            path, line = sent[tag]
            out.append(
                Finding(
                    self.name, path, line,
                    f"protocol '{spec.name}': tag {tag!r} sent by {sender} "
                    f"has no matching handler branch on {receiver}",
                )
            )
        for tag in sorted(set(handled) - set(peer_sent) - set(sent)):
            path, line = handled[tag]
            out.append(
                Finding(
                    self.name, path, line,
                    f"protocol '{spec.name}': {receiver} handles tag {tag!r} "
                    f"but {sender} never sends it (dead handler / drift)",
                )
            )
        return out

    def _side_functions(self, program: Program, modules: tuple[str, ...], side: ProtocolSide):
        out = []
        for fn in program.functions:
            if fn.module.relpath not in modules:
                continue
            if fn.cls is not None and fn.cls.name in side.classes:
                out.append(fn)
            elif fn.cls is None and fn.qualname.split(".")[0] in side.functions:
                out.append(fn)
        return out

    def _sent_tags(self, program: Program, fns) -> dict[str, tuple[str, int]]:
        """tag -> earliest (path, line) of a ``.send()``/``.send_oob()``
        shipping it."""
        out: dict[str, tuple[str, int]] = {}
        for fn in fns:
            assigns = _local_assigns(fn)
            consts = program.module_consts.get(fn.module.relpath, {})
            for node in fn.body:
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("send", "send_oob")
                    and len(node.args) == 1
                ):
                    continue
                arg = node.args[0]
                tuples: list[ast.Tuple] = []
                if isinstance(arg, ast.Tuple):
                    tuples.append(arg)
                elif isinstance(arg, ast.Name):
                    tuples += [
                        v for v in assigns.get(arg.id, []) if isinstance(v, ast.Tuple)
                    ]
                    mc = consts.get(arg.id)
                    if isinstance(mc, ast.Tuple):
                        tuples.append(mc)
                for t in tuples:
                    if (
                        t.elts
                        and isinstance(t.elts[0], ast.Constant)
                        and isinstance(t.elts[0].value, str)
                    ):
                        tag = t.elts[0].value
                        loc = (fn.module.relpath, node.lineno)
                        if tag not in out or loc < out[tag]:
                            out[tag] = loc
        return out

    def _handled_tags(self, fns) -> dict[str, tuple[str, int]]:
        """tag -> earliest (path, line) of a comparison handling it."""
        out: dict[str, tuple[str, int]] = {}

        def record(tag: str, path: str, line: int) -> None:
            loc = (path, line)
            if tag not in out or loc < out[tag]:
                out[tag] = loc

        for fn in fns:
            tagvars: set[str] = set()
            msgvars: set[str] = set()
            for node in fn.body:
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    t, v = node.targets[0], node.value
                    is_recv = (
                        isinstance(v, ast.Call)
                        and isinstance(v.func, ast.Attribute)
                        and v.func.attr == "recv"
                    )
                    if isinstance(t, ast.Name):
                        if (
                            isinstance(v, ast.Subscript)
                            and isinstance(v.slice, ast.Constant)
                            and v.slice.value == 0
                        ):
                            tagvars.add(t.id)
                        elif is_recv:
                            msgvars.add(t.id)
                    elif isinstance(t, ast.Tuple) and is_recv:
                        if t.elts and isinstance(t.elts[0], ast.Name):
                            tagvars.add(t.elts[0].id)

            def is_tag_side(e: ast.expr) -> bool:
                if (
                    isinstance(e, ast.Subscript)
                    and isinstance(e.slice, ast.Constant)
                    and e.slice.value == 0
                ):
                    return True
                return isinstance(e, ast.Name) and e.id in tagvars

            def is_msg_side(e: ast.expr) -> bool:
                return isinstance(e, ast.Name) and e.id in msgvars

            for node in fn.body:
                if not isinstance(node, ast.Compare):
                    continue
                if not all(
                    isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                    for op in node.ops
                ):
                    continue
                sides = [node.left, *node.comparators]
                if any(is_tag_side(s) for s in sides):
                    for s in sides:
                        if isinstance(s, ast.Constant) and isinstance(s.value, str):
                            record(s.value, fn.module.relpath, node.lineno)
                        elif isinstance(s, ast.Tuple):
                            for e in s.elts:
                                if isinstance(e, ast.Constant) and isinstance(
                                    e.value, str
                                ):
                                    record(e.value, fn.module.relpath, node.lineno)
                elif any(is_msg_side(s) for s in sides):
                    for s in sides:
                        if (
                            isinstance(s, ast.Tuple)
                            and s.elts
                            and isinstance(s.elts[0], ast.Constant)
                            and isinstance(s.elts[0].value, str)
                        ):
                            record(s.elts[0].value, fn.module.relpath, node.lineno)
        return out
