"""Wire rule: protocol exhaustiveness.

``protocol-exhaustive`` checks both directions of the remote-dispatch
message protocol (:class:`RemoteRuntime` and its two subclasses <->
:class:`WorkerSession`): every tag one side sends must have a
matching handler comparison on the other side, and every handler must
correspond to a tag the peer actually sends (dead handlers hide protocol
drift).  Sent tags are the leading string constants of tuples passed to
``.send(...)``; handled tags are string constants compared against a
*tag position* -- ``msg[0]``, a variable assigned from ``X[0]``, or the
head of a tuple-unpacked ``recv()`` -- so ordinary string comparisons in
the same function cannot pollute the handler set.  Nothing at run time
checks this: the parent drops a reply whose tag it does not know, and a
worker answers an unknown tag with a ``fail`` no job claims.

Whether a payload pickles is not a static question here: the frame codec
raises on an unpicklable message at the send site, and every send site
of ``runtime/`` runs in tier-1.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.verify.report import Finding
from repro.verify.static.callgraph import Program, StaticRule


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
