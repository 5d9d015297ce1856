"""Whole-program model: call graph, lock model, light type inference.

:class:`Program` parses every module of the package (the full set is the
*type universe* -- exception classes, ``BlockRef``, ``SocketComm``) and
analyzes the functions of the concurrency-bearing subsystems
(:data:`ANALYZED_PREFIXES`).  For each analyzed function it records,
with the set of locks held at each point:

* lock acquisitions (``with <lock>:``),
* directly blocking operations (sleep, joins, comm/socket I/O, blocking
  queue gets), and
* call sites, resolved to callee functions where the receiver's type can
  be established.

Two fixpoints then propagate facts over the resolved call graph:
``blocking_chain`` (the shortest witness from a function to a blocking
operation it can reach) and ``reachable_locks`` (the locks a call into
the function may acquire, each with its shortest witness).  The rules in
:mod:`repro.verify.static.locks` read these tables; they never re-walk
the AST for interprocedural facts.

Resolution strategy (deliberately under-approximate): a call is resolved
only when its target is unambiguous -- same-module functions, imports of
package modules, ``self.``/``super().`` methods through the class
hierarchy, and receivers typed by parameter/return annotations or by
local constructor assignment.  When a receiver resolves to a base class
(e.g. ``RemoteRuntime._open_channel``), overrides in analyzed subclasses
(``ProcessRuntime``, ``ClusterRuntime``) are included, so a lock
acquired by a concrete runtime is visible at the base's call site.  Anything ambiguous stays unresolved: the
analyzer prefers missing an edge to inventing one, which is what keeps a
clean HEAD meaningful.  Blocking *call names* (``.send``/``.recv``/
``.wait``/``.join``/...) are classified at the call site itself, so an
unresolved receiver cannot hide a blocking operation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from repro.verify.report import Finding, Module

#: The subsystems whose functions are analyzed (every package module is
#: still parsed for the type universe).
ANALYZED_PREFIXES: tuple[str, ...] = ("comm/", "core/", "memory/", "obs/", "runtime/")

#: Scalar annotation names treated as plain (non-class) types.
PRIMITIVES = frozenset(
    {"bytes", "bytearray", "str", "int", "float", "bool", "complex", "None",
     "NoneType", "Any", "object", "Hashable", "Callable"}
)

#: threading constructors that create (R)Lock objects.
_LOCK_CTORS = frozenset({"Lock", "RLock"})


@dataclass(frozen=True)
class LockId:
    """A lock identity: the owning class (or module, or ``?``) plus the
    attribute/name it lives under.  Instance-insensitive by design: two
    records' ``.lock`` attrs are the same :class:`LockId`."""

    owner: str
    attr: str

    def __str__(self) -> str:
        return f"{self.owner}.{self.attr}"


@dataclass(frozen=True)
class Acquire:
    """One ``with <lock>:`` acquisition inside a function."""

    lock: LockId
    line: int
    held: tuple[LockId, ...]
    indexed: bool = False  # acquired through a subscript (striped locks)


@dataclass(frozen=True)
class BlockOp:
    """One directly blocking operation inside a function."""

    line: int
    desc: str
    held: tuple[LockId, ...]


@dataclass(eq=False)
class FunctionInfo:
    """One function or method, plus the facts collected from its body."""

    module: Module
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: "ClassInfo | None" = None
    acquires: list[Acquire] = field(default_factory=list)
    blocking_ops: list[BlockOp] = field(default_factory=list)
    calls: list["CallSite"] = field(default_factory=list)
    env: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.module.relpath}:{self.qualname}"

    @cached_property
    def nodes(self) -> list[ast.AST]:
        """``ast.walk`` of the whole definition, nested bodies included."""
        return list(ast.walk(self.node))

    @cached_property
    def body(self) -> list[ast.AST]:
        """Every node of the body, excluding nested function/class bodies
        (those are analyzed as functions in their own right) and lambda
        bodies (which execute later, elsewhere)."""
        out: list[ast.AST] = []
        stack: list[ast.AST] = list(self.node.body)
        while stack:
            n = stack.pop()
            out.append(n)
            if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                stack.extend(ast.iter_child_nodes(n))
        return out


@dataclass(eq=False)
class CallSite:
    """One call expression, with the locks held when it executes and the
    callee candidates that could unambiguously be resolved."""

    line: int
    held: tuple[LockId, ...]
    targets: tuple[FunctionInfo, ...]
    desc: str


@dataclass(eq=False)
class ClassInfo:
    module: Module
    name: str
    node: ast.ClassDef
    base_names: tuple[str, ...] = ()
    bases: list["ClassInfo"] = field(default_factory=list)
    subclasses: list["ClassInfo"] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    attr_types: dict[str, tuple[str, ...]] = field(default_factory=dict)
    lock_attrs: set[str] = field(default_factory=set)

    def mro(self) -> list["ClassInfo"]:
        seen: set[int] = set()
        out: list[ClassInfo] = []
        stack = [self]
        while stack:
            c = stack.pop(0)
            if id(c) in seen:
                continue
            seen.add(id(c))
            out.append(c)
            stack.extend(c.bases)
        return out

    def mro_method(self, name: str) -> FunctionInfo | None:
        for c in self.mro():
            fn = c.methods.get(name)
            if fn is not None:
                return fn
        return None

    def lock_owner(self, attr: str) -> str | None:
        """The class in the MRO that assigns ``self.<attr>`` a Lock."""
        for c in self.mro():
            if attr in c.lock_attrs:
                return c.name
        return None

    def attr_classnames(self, attr: str) -> tuple[str, ...]:
        for c in self.mro():
            t = c.attr_types.get(attr)
            if t:
                return t
        return ()


# ---------------------------------------------------------------------------
# annotation helpers


def _annotation_names(node: ast.AST | None) -> tuple[str, ...]:
    """Class/primitive names an annotation can denote (``X | None`` and
    ``Optional[X]`` unwrap to ``X``; quoted annotations are parsed)."""
    if node is None:
        return ()
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return ()
    if isinstance(node, ast.Constant) and node.value is None:
        return ()
    if isinstance(node, ast.Name):
        return () if node.id in ("None", "Optional", "Union") else (node.id,)
    if isinstance(node, ast.Attribute):
        return (node.attr,)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return tuple(
            dict.fromkeys(_annotation_names(node.left) + _annotation_names(node.right))
        )
    if isinstance(node, ast.Subscript):
        base = _annotation_names(node.value)
        if base and base[0] in ("Optional", "Union"):
            elts = (
                node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
            )
            out: tuple[str, ...] = ()
            for e in elts:
                out += _annotation_names(e)
            return tuple(dict.fromkeys(out))
        return base  # list[int] -> ("list",): container identity only
    return ()


def _tuple_annotation_elements(node: ast.AST | None) -> list[tuple[str, ...]] | None:
    """Per-element names for a ``tuple[A, B, C]`` annotation, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("tuple", "Tuple")
        and isinstance(node.slice, ast.Tuple)
    ):
        return [_annotation_names(e) for e in node.slice.elts]
    return None


def _contains_lock_ctor(node: ast.AST) -> bool:
    """True if ``node`` constructs a ``threading.Lock``/``RLock`` anywhere
    (covers both ``threading.Lock()`` and striped ``tuple(... for ...)``)."""
    for n in ast.walk(node):
        if (
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and isinstance(n.func.value, ast.Name)
            and n.func.value.id == "threading"
            and n.func.attr in _LOCK_CTORS
        ):
            return True
    return False


def _relpath_of_import(modname: str | None) -> str | None:
    if modname is None:
        return None
    if modname == "repro":
        return "__init__.py"
    if modname.startswith("repro."):
        return modname[len("repro."):].replace(".", "/") + ".py"
    return None


# ---------------------------------------------------------------------------
# blocking-operation classification


def _blocking_desc(call: ast.Call) -> str | None:
    """A human label if this call is intrinsically blocking, else None.

    Name-based by design: comm sends/recvs, socket ops, sleeps, joins and
    event waits block regardless of whether the receiver resolves.  The
    shape rules keep lookalikes out: ``", ".join(xs)`` has a positional
    argument, ``d.get(key)`` has a positional argument, ``poll(0)`` is a
    non-blocking probe.
    """
    f = call.func
    if isinstance(f, ast.Name):
        if f.id == "sleep":
            return "sleep()"
        if f.id == "create_connection":
            return "create_connection()"
        return None
    if not isinstance(f, ast.Attribute):
        return None
    n = f.attr
    if n == "sleep":
        return "sleep()"
    if n in (
        "send", "send_oob", "sendall", "sendmsg", "send_bytes",
        "recv", "recv_bytes", "recv_bytes_into", "recv_into", "accept",
    ):
        return f".{n}() (comm/socket I/O)"
    if n == "select":
        return "select.select()"
    if n == "wait":
        return ".wait()"
    if n == "acquire":
        return ".acquire()"
    if n == "create_connection":
        return "socket.create_connection()"
    if n == "join" and not call.args:
        return ".join()"
    if n == "get" and not call.args:
        return "blocking queue .get()"
    if n == "poll" and call.args:
        a = call.args[0]
        if not (isinstance(a, ast.Constant) and a.value in (0, 0.0, False)):
            return ".poll(timeout)"
    return None


class StaticRule:
    """A rule over a built :class:`Program`.  Whole-program rules read its
    call and lock tables; per-module rules iterate ``program.modules`` and
    scope themselves by relpath."""

    name: str = ""

    @property
    def names(self) -> tuple[str, ...]:
        """Every rule name this rule's findings can carry."""
        return (self.name,)

    def check(self, program: "Program") -> list[Finding]:  # pragma: no cover
        raise NotImplementedError


# ---------------------------------------------------------------------------
# the program model


class Program:
    """Parsed package + analyzed facts; built once per analyzer run."""

    def __init__(self, modules: Sequence[Module], prefixes: Iterable[str]) -> None:
        self.modules = list(modules)
        self.prefixes = tuple(prefixes)
        self.by_path: dict[str, Module] = {m.relpath: m for m in self.modules}
        self.classes: dict[str, list[ClassInfo]] = {}
        self.module_scope: dict[str, dict[str, object]] = {}
        self.module_locks: dict[str, set[str]] = {}
        self.module_consts: dict[str, dict[str, ast.expr]] = {}
        self.functions: list[FunctionInfo] = []  # analyzed (in-prefix) only
        self.indexed_locks: set[LockId] = set()
        self.blocking_chains: dict[FunctionInfo, tuple[str, ...]] = {}
        self.reachable_locks: dict[FunctionInfo, dict[LockId, tuple[str, ...]]] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls, modules: Sequence[Module], prefixes: Iterable[str] = ANALYZED_PREFIXES
    ) -> "Program":
        self = cls(modules, prefixes)
        for m in self.modules:
            self._collect_definitions(m)
        for m in self.modules:
            self._collect_imports(m)
        self._link_classes()
        for m in self.modules:
            self._collect_class_details(m)
        for fn in self.functions:
            self._build_env(fn)
        for fn in self.functions:
            _FactWalker(self, fn).run()
        self._fixpoint_blocking()
        self._fixpoint_locks()
        return self

    def analyzed(self, relpath: str) -> bool:
        return relpath.startswith(self.prefixes)

    def _collect_definitions(self, module: Module) -> None:
        scope: dict[str, object] = {}
        locks: set[str] = set()
        consts: dict[str, ast.expr] = {}
        self.module_scope[module.relpath] = scope
        self.module_locks[module.relpath] = locks
        self.module_consts[module.relpath] = consts
        analyzed = self.analyzed(module.relpath)

        def add_function(node, qualname, ci):
            fn = FunctionInfo(module=module, qualname=qualname, node=node, cls=ci)
            if analyzed:
                self.functions.append(fn)
                self._collect_nested(fn)
            return fn

        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                ci = ClassInfo(module=module, name=node.name, node=node)
                ci.base_names = tuple(
                    b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
                    for b in node.bases
                )
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        ci.methods[stmt.name] = add_function(stmt, f"{node.name}.{stmt.name}", ci)
                self.classes.setdefault(node.name, []).append(ci)
                scope[node.name] = ci
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope[node.name] = add_function(node, node.name, None)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                t = node.targets[0]
                if isinstance(t, ast.Name):
                    consts[t.id] = node.value
                    if _contains_lock_ctor(node.value):
                        locks.add(t.id)

    def _collect_nested(self, parent: FunctionInfo) -> None:
        """Collect function defs nested anywhere in ``parent`` (loop and
        conditional bodies included) as independently-analyzed functions:
        their bodies run later, on some other thread, never with the
        definer's locks held."""
        for child in parent.nodes:
            if child is not parent.node and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                self.functions.append(FunctionInfo(
                    module=parent.module,
                    qualname=f"{parent.qualname}.{child.name}",
                    node=child,
                    cls=parent.cls,
                ))

    def _collect_imports(self, module: Module) -> None:
        scope = self.module_scope[module.relpath]
        for node in module.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    rel = _relpath_of_import(alias.name)
                    if rel and rel in self.by_path:
                        scope[alias.asname or alias.name.rsplit(".", 1)[-1]] = (
                            "module", rel,
                        )
            elif isinstance(node, ast.ImportFrom):
                rel = _relpath_of_import(node.module)
                if rel is None:
                    continue
                pkg_dir = rel[: -len(".py")] if rel.endswith(".py") else rel
                for alias in node.names:
                    bound = alias.asname or alias.name
                    # `from repro.comm import frame` -> submodule binding
                    sub = f"{pkg_dir.removesuffix('/__init__')}/{alias.name}.py"
                    if rel.endswith("__init__.py") and sub in self.by_path:
                        scope[bound] = ("module", sub)
                        continue
                    target = self.module_scope.get(rel, {}).get(alias.name)
                    if isinstance(target, (ClassInfo, FunctionInfo)):
                        scope[bound] = target

    def _link_classes(self) -> None:
        for cands in self.classes.values():
            for ci in cands:
                for bname in ci.base_names:
                    base = self.resolve_class(bname, ci.module.relpath)
                    if base is not None and base is not ci:
                        ci.bases.append(base)
                        base.subclasses.append(ci)

    def _collect_class_details(self, module: Module) -> None:
        """Lock attributes and attribute types, from ``self.X = ...`` in
        every method (param annotations provide the typing context)."""
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            cands = self.classes.get(node.name, [])
            ci = next((c for c in cands if c.node is node), None)
            if ci is None:
                continue
            for meth in ci.methods.values():
                env = self._param_env(meth)
                for stmt in meth.nodes:
                    target = None
                    value = None
                    ann = None
                    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                        target, value = stmt.targets[0], stmt.value
                    elif isinstance(stmt, ast.AnnAssign):
                        target, value, ann = stmt.target, stmt.value, stmt.annotation
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    attr = target.attr
                    if value is not None and _contains_lock_ctor(value):
                        ci.lock_attrs.add(attr)
                        continue
                    names: tuple[str, ...] = ()
                    if ann is not None:
                        names = _annotation_names(ann)
                    elif value is not None:
                        names = self._infer_expr(value, module, env, ci)
                    if names and attr not in ci.attr_types:
                        ci.attr_types[attr] = names

    # -- typing -------------------------------------------------------------

    def resolve_class(self, name: str, relpath: str) -> ClassInfo | None:
        cands = self.classes.get(name, [])
        if not cands:
            return None
        for c in cands:
            if c.module.relpath == relpath:
                return c
        bind = self.module_scope.get(relpath, {}).get(name)
        if isinstance(bind, ClassInfo):
            return bind
        if len(cands) == 1:
            return cands[0]
        return None

    def _param_env(self, fn: FunctionInfo) -> dict[str, tuple[str, ...]]:
        env: dict[str, tuple[str, ...]] = {}
        a = fn.node.args
        for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs]:
            names = _annotation_names(arg.annotation)
            if names:
                env[arg.arg] = names
        return env

    def _build_env(self, fn: FunctionInfo) -> None:
        """Local name -> type names, from annotations and assignments.
        Two sweeps so one level of assignment chaining resolves."""
        env = self._param_env(fn)
        module = fn.module
        for _ in range(2):
            for stmt in fn.nodes:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    names = _annotation_names(stmt.annotation)
                    if names:
                        env[stmt.target.id] = names
                elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    t = stmt.targets[0]
                    if isinstance(t, ast.Name):
                        names = self._infer_expr(stmt.value, module, env, fn.cls)
                        if names:
                            env.setdefault(t.id, names)
                    elif isinstance(t, ast.Tuple) and isinstance(stmt.value, ast.Call):
                        rets = self._call_return_annotation(stmt.value, module, env, fn.cls)
                        elems = _tuple_annotation_elements(rets)
                        if elems and len(elems) == len(t.elts):
                            for el, names in zip(t.elts, elems):
                                if isinstance(el, ast.Name) and names:
                                    env.setdefault(el.id, names)
        fn.env = env

    def _call_return_annotation(
        self,
        call: ast.Call,
        module: Module,
        env: dict[str, tuple[str, ...]],
        cls: ClassInfo | None,
    ) -> ast.AST | None:
        for tgt in self._resolve_call_targets(call, module, env, cls, expand=False):
            if tgt.node.returns is not None:
                return tgt.node.returns
        return None

    def _infer_expr(
        self,
        expr: ast.AST,
        module: Module,
        env: dict[str, tuple[str, ...]],
        cls: ClassInfo | None,
        depth: int = 0,
    ) -> tuple[str, ...]:
        if depth > 4:
            return ()
        if isinstance(expr, ast.Name):
            return env.get(expr.id, ())
        if isinstance(expr, ast.Attribute):
            recv = expr.value
            if isinstance(recv, ast.Name) and recv.id == "self" and cls is not None:
                return cls.attr_classnames(expr.attr)
            for tname in self._infer_expr(recv, module, env, cls, depth + 1):
                c = self.resolve_class(tname, module.relpath)
                if c is not None:
                    names = c.attr_classnames(expr.attr)
                    if names:
                        return names
            return ()
        if isinstance(expr, ast.Call):
            targets = self._resolve_call_targets(expr, module, env, cls, expand=False)
            out: tuple[str, ...] = ()
            for tgt in targets:
                if tgt.qualname.endswith("__init__") and tgt.cls is not None:
                    out += (tgt.cls.name,)
                else:
                    out += _annotation_names(tgt.node.returns)
            if out:
                return tuple(dict.fromkeys(out))
            # a bare constructor call of a method-less class
            f = expr.func
            if isinstance(f, ast.Name):
                c = self.resolve_class(f.id, module.relpath)
                if c is not None:
                    return (c.name,)
            return ()
        if isinstance(expr, ast.IfExp):
            return tuple(
                dict.fromkeys(
                    self._infer_expr(expr.body, module, env, cls, depth + 1)
                    + self._infer_expr(expr.orelse, module, env, cls, depth + 1)
                )
            )
        if isinstance(expr, ast.Constant):
            return (type(expr.value).__name__,)
        return ()

    # -- call resolution ----------------------------------------------------

    def _overrides(self, cls: ClassInfo, name: str) -> list[FunctionInfo]:
        out: list[FunctionInfo] = []
        stack = list(cls.subclasses)
        seen: set[int] = set()
        while stack:
            c = stack.pop(0)
            if id(c) in seen:
                continue
            seen.add(id(c))
            if name in c.methods:
                out.append(c.methods[name])
            stack.extend(c.subclasses)
        return out

    def _resolve_call_targets(
        self,
        call: ast.Call,
        module: Module,
        env: dict[str, tuple[str, ...]],
        cls: ClassInfo | None,
        expand: bool = True,
    ) -> tuple[FunctionInfo, ...]:
        f = call.func
        scope = self.module_scope.get(module.relpath, {})
        out: list[FunctionInfo] = []
        if isinstance(f, ast.Name):
            bind = scope.get(f.id)
            if isinstance(bind, FunctionInfo):
                out.append(bind)
            elif isinstance(bind, ClassInfo):
                init = bind.mro_method("__init__")
                if init is not None:
                    out.append(init)
        elif isinstance(f, ast.Attribute):
            recv = f.value
            if isinstance(recv, ast.Name) and recv.id == "self" and cls is not None:
                m = cls.mro_method(f.attr)
                if m is not None:
                    out.append(m)
                if expand:
                    out.extend(self._overrides(cls, f.attr))
            elif (
                isinstance(recv, ast.Call)
                and isinstance(recv.func, ast.Name)
                and recv.func.id == "super"
                and cls is not None
            ):
                for base in cls.bases:
                    m = base.mro_method(f.attr)
                    if m is not None:
                        out.append(m)
                        break
            else:
                if isinstance(recv, ast.Name):
                    bind = scope.get(recv.id)
                    if isinstance(bind, tuple) and bind[0] == "module":
                        target = self.module_scope.get(bind[1], {}).get(f.attr)
                        if isinstance(target, FunctionInfo):
                            out.append(target)
                        elif isinstance(target, ClassInfo):
                            init = target.mro_method("__init__")
                            if init is not None:
                                out.append(init)
                if not out:
                    for tname in self._infer_expr(recv, module, env, cls):
                        c = self.resolve_class(tname, module.relpath)
                        if c is None:
                            continue
                        m = c.mro_method(f.attr)
                        if m is not None:
                            out.append(m)
                        if expand:
                            out.extend(self._overrides(c, f.attr))
        return tuple(dict.fromkeys(out))

    # -- lock identification ------------------------------------------------

    def lock_of(self, expr: ast.AST, fn: FunctionInfo) -> tuple[LockId, bool] | None:
        """The :class:`LockId` a ``with`` context expression acquires, plus
        whether it was reached through a subscript (striped)."""
        indexed = False
        e = expr
        if isinstance(e, ast.Subscript):
            e, indexed = e.value, True
        if isinstance(e, ast.Name):
            if e.id in self.module_locks.get(fn.module.relpath, ()):
                return LockId(fn.module.relpath, e.id), indexed
            return None
        if not isinstance(e, ast.Attribute):
            return None
        attr = e.attr
        recv = e.value
        lockish = "lock" in attr.lower()
        if isinstance(recv, ast.Name) and recv.id == "self" and fn.cls is not None:
            owner = fn.cls.lock_owner(attr)
            if owner is not None:
                return LockId(owner, attr), indexed
            if lockish:
                return LockId(fn.cls.name, attr), indexed
            return None
        for tname in self._infer_expr(recv, fn.module, fn.env, fn.cls):
            c = self.resolve_class(tname, fn.module.relpath)
            if c is not None:
                owner = c.lock_owner(attr)
                if owner is not None:
                    return LockId(owner, attr), indexed
                if lockish:
                    return LockId(c.name, attr), indexed
        if lockish:
            return LockId("?", attr), indexed
        return None

    # -- fixpoints ----------------------------------------------------------

    def _fixpoint_blocking(self) -> None:
        chains: dict[FunctionInfo, tuple[str, ...]] = {}
        for fn in self.functions:
            if fn.blocking_ops:
                op = min(fn.blocking_ops, key=lambda o: (o.line, o.desc))
                chains[fn] = (f"{fn.label}:{op.line} {op.desc}",)
        changed = True
        while changed:
            changed = False
            for fn in self.functions:
                for cs in fn.calls:
                    for tgt in cs.targets:
                        sub = chains.get(tgt)
                        if sub is None:
                            continue
                        cand = (f"{fn.label}:{cs.line}",) + sub
                        cur = chains.get(fn)
                        if cur is None or (len(cand), cand) < (len(cur), cur):
                            chains[fn] = cand
                            changed = True
        self.blocking_chains = chains

    def _fixpoint_locks(self) -> None:
        reach: dict[FunctionInfo, dict[LockId, tuple[str, ...]]] = {
            fn: {} for fn in self.functions
        }
        for fn in self.functions:
            for acq in fn.acquires:
                cand = (f"{fn.label}:{acq.line} acquires {acq.lock}",)
                cur = reach[fn].get(acq.lock)
                if cur is None or (len(cand), cand) < (len(cur), cur):
                    reach[fn][acq.lock] = cand
        changed = True
        while changed:
            changed = False
            for fn in self.functions:
                for cs in fn.calls:
                    for tgt in cs.targets:
                        for lock, sub in reach.get(tgt, {}).items():
                            cand = (f"{fn.label}:{cs.line}",) + sub
                            cur = reach[fn].get(lock)
                            if cur is None or (len(cand), cand) < (len(cur), cur):
                                reach[fn][lock] = cand
                                changed = True
        self.reachable_locks = reach


# ---------------------------------------------------------------------------
# per-function fact collection


class _FactWalker:
    """Walks one function body tracking the held-lock set structurally:
    ``with`` bodies extend it, everything else inherits it.  Lambda bodies
    and nested defs are skipped (they execute later, without these locks);
    comprehension bodies are walked inline (they execute eagerly)."""

    def __init__(self, program: Program, fn: FunctionInfo) -> None:
        self.program = program
        self.fn = fn

    def run(self) -> None:
        for stmt in self.fn.node.body:
            self._walk(stmt, ())

    def _walk(self, node: ast.AST, held: tuple[LockId, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # collected separately; runs without these locks
        if isinstance(node, ast.Lambda):
            return  # executes later, elsewhere
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held
            for item in node.items:
                self._walk(item.context_expr, inner)
                got = self.program.lock_of(item.context_expr, self.fn)
                if got is not None:
                    lock, indexed = got
                    self.fn.acquires.append(
                        Acquire(lock, item.context_expr.lineno, inner, indexed)
                    )
                    if indexed:
                        self.program.indexed_locks.add(lock)
                    inner = inner + (lock,)
            for stmt in node.body:
                self._walk(stmt, inner)
            return
        if isinstance(node, ast.Call):
            desc = _blocking_desc(node)
            if desc is not None:
                self.fn.blocking_ops.append(BlockOp(node.lineno, desc, held))
            targets = self.program._resolve_call_targets(
                node, self.fn.module, self.fn.env, self.fn.cls
            )
            if targets:
                self.fn.calls.append(
                    CallSite(node.lineno, held, targets, ast.unparse(node.func))
                )
            for child in ast.iter_child_nodes(node):
                self._walk(child, held)
            return
        for child in ast.iter_child_nodes(node):
            self._walk(child, held)
