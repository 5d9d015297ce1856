"""Per-module rules: the concurrency and telemetry disciplines one
source file at a time.

Each rule is a :class:`~repro.verify.static.callgraph.StaticRule` that
iterates ``program.modules`` and scopes itself by relpath with a class
constant; waivers are applied centrally by
:func:`~repro.verify.static.run_static`.  Each rule is documented once,
on its class.
"""

from __future__ import annotations

import ast
import dataclasses
from dataclasses import dataclass
from typing import Iterator

from repro.obs.events import Event
from repro.verify.report import Finding
from repro.verify.static.callgraph import Program, StaticRule, _relpath_of_import

# ---------------------------------------------------------------------------
# lock-discipline


def _lock_names(with_node: ast.With) -> list[str]:
    """Names ``X`` for context managers of the form ``X.lock``."""
    out = []
    for item in with_node.items:
        cm = item.context_expr
        if isinstance(cm, ast.Attribute) and cm.attr == "lock" and isinstance(cm.value, ast.Name):
            out.append(cm.value.id)
    return out


class LockDisciplineRule(StaticRule):
    """Mutable :class:`~repro.core.records.TaskRecord` state only under
    ``with <record>.lock``.

    In the two schedulers, the fields ``join``, ``bit_vector``,
    ``notify_array`` and ``status`` and the methods that mutate them
    (``try_unset_bit``, ``reset_for_reuse``) may only be touched inside
    ``with <record>.lock``.  On CPython the record lock stands in for the
    paper's atomics; an unlocked access is a lost-update bug waiting for
    the threaded runtime.  ``corrupted`` is excluded deliberately: it is a
    monotonic one-way flag, set by injectors and read by ``check()``
    without a lock *by design* -- the paper's "a flag is set ... observed
    by a thread accessing that task".
    """

    name = "lock-discipline"
    #: The schedulers -- everywhere else records are opaque handles.
    PATHS = frozenset({"core/ft.py", "core/nabbit.py"})
    FIELDS = frozenset({"join", "bit_vector", "notify_array", "status"})
    MUTATORS = frozenset({"try_unset_bit", "reset_for_reuse"})

    def check(self, program: Program) -> list[Finding]:
        findings: list[Finding] = []
        for m in program.modules:
            if m.relpath in self.PATHS:
                self._walk(m.relpath, m.tree, frozenset(), findings)
        return findings

    def _walk(
        self, path: str, node: ast.AST, held: frozenset[str], findings: list[Finding]
    ) -> None:
        if isinstance(node, ast.With):
            held = held | frozenset(_lock_names(node))
        elif isinstance(node, ast.Attribute):
            obj = node.value
            if (
                isinstance(obj, ast.Name)
                and obj.id != "self"
                and node.attr in self.FIELDS
                and obj.id not in held
            ):
                findings.append(Finding(
                    self.name, path, node.lineno,
                    f"`{obj.id}.{node.attr}` accessed outside `with {obj.id}.lock`",
                ))
        elif isinstance(node, ast.Call):
            fn = node.func
            if (
                isinstance(fn, ast.Attribute)
                and fn.attr in self.MUTATORS
                and isinstance(fn.value, ast.Name)
                and fn.value.id != "self"
                and fn.value.id not in held
            ):
                findings.append(Finding(
                    self.name, path, node.lineno,
                    f"`{fn.value.id}.{fn.attr}()` mutates record state outside "
                    f"`with {fn.value.id}.lock`",
                ))
        for child in ast.iter_child_nodes(node):
            self._walk(path, child, held, findings)


# ---------------------------------------------------------------------------
# raw-threading / raw-multiprocessing / raw-socket


@dataclass(frozen=True)
class Confinement:
    """One row of :class:`ConfinementRule`'s table: dotted names only the
    ``home`` layers may reference."""

    name: str
    #: An import of a banned name or anything under it is a finding; an
    #: attribute ``mod.X`` only when it names a banned object exactly
    #: (the import of a banned module is already the finding).
    banned: tuple[str, ...]
    home: tuple[str, ...]
    exempt: tuple[str, ...] = ()
    #: Bare method calls also banned outside ``home``.
    calls: tuple[str, ...] = ()

    def at_home(self, relpath: str) -> bool:
        return relpath.startswith(self.home)

    def bans(self, dotted: str) -> bool:
        def under(names: tuple[str, ...]) -> bool:
            return any(dotted == n or dotted.startswith(n + ".") for n in names)

        return under(self.banned) and not under(self.exempt)


def _references(node: ast.AST) -> Iterator[tuple[str, str, bool]]:
    """``(dotted name, source text, exact)`` for each module-level name an
    import statement or a ``mod.X`` attribute refers to."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name, f"import {alias.name}", False
    elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
        for alias in node.names:
            yield f"{node.module}.{alias.name}", f"from {node.module} import {alias.name}", False
    elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        dotted = f"{node.value.id}.{node.attr}"
        yield dotted, dotted, True


class ConfinementRule(StaticRule):
    """Primitives that block, spawn or cross a machine boundary stay in
    the layer whose contract covers them; each row of :attr:`TABLE` is
    reported under its own name.

    * ``raw-threading`` -- outside ``runtime/`` and ``comm/``, code may
      create ``threading.Lock`` objects (the blessed stand-in for the
      paper's atomics) but nothing that can block, signal or spawn, and
      never calls ``.acquire()`` / ``.release()`` directly: all lock use
      goes through ``with`` so no exception path can leak a held lock.
    * ``raw-multiprocessing`` -- outside ``runtime/``, no
      :mod:`multiprocessing` or :mod:`concurrent.futures`.  Process
      lifecycle -- fork timing, crash surfacing -- is the runtime
      layer's contract; a stray pool elsewhere would bypass the fault
      model entirely, and ``comm/`` moves bytes over sockets, never
      through ``multiprocessing``'s own wire format.
      ``multiprocessing.shared_memory`` is exempt: the memory layer owns
      segments but never processes.
    * ``raw-socket`` -- only ``comm/`` touches :mod:`socket`,
      :mod:`select` or :mod:`selectors`.  Every byte that crosses a
      process or machine boundary rides a :class:`~repro.comm.tcp.SocketComm`,
      so peer loss always surfaces as ``CommClosedError`` and flows
      through the ``WORKER_DOWN`` recovery path; a raw socket elsewhere is
      a second failure domain the fault model cannot see.  (HTTP helpers
      built on the stdlib's server/client classes are fine: the row bans
      the *primitive* modules, where hand-rolled wire protocols start.)
    """

    TABLE: tuple[Confinement, ...] = (
        Confinement(
            "raw-threading",
            banned=tuple(
                f"threading.{n}"
                for n in ("Thread", "Event", "Condition", "Semaphore",
                          "BoundedSemaphore", "Barrier", "Timer")
            ),
            home=("runtime/", "comm/"),
            calls=("acquire", "release"),
        ),
        Confinement(
            "raw-multiprocessing",
            banned=("multiprocessing", "concurrent.futures"),
            home=("runtime/",),
            exempt=("multiprocessing.shared_memory",),
        ),
        Confinement("raw-socket", banned=("socket", "select", "selectors"), home=("comm/",)),
    )

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(row.name for row in self.TABLE)

    def check(self, program: Program) -> list[Finding]:
        findings: list[Finding] = []
        for m in program.modules:
            rows = [row for row in self.TABLE if not row.at_home(m.relpath)]
            if not rows:
                continue
            for node in m.nodes:
                for dotted, text, exact in _references(node):
                    for row in rows:
                        if (dotted in row.banned) if exact else row.bans(dotted):
                            findings.append(Finding(
                                row.name, m.relpath, node.lineno,
                                f"`{text}` outside {' and '.join(row.home)}",
                            ))
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    for row in rows:
                        if node.func.attr in row.calls:
                            findings.append(Finding(
                                row.name, m.relpath, node.lineno,
                                f"direct `.{node.func.attr}()` call -- use `with <lock>:` "
                                "so exception paths cannot leak a held lock",
                            ))
        return findings


# ---------------------------------------------------------------------------
# emit-guard


def _is_log_check(node: ast.AST) -> bool:
    """True iff ``node`` is ``<x> is not None`` with ``<x>`` a bare name
    or an attribute called ``log`` or ``_log``: the event log's own
    liveness test (off is ``None``)."""
    if not (
        isinstance(node, ast.Compare)
        and len(node.ops) == 1
        and isinstance(node.ops[0], ast.IsNot)
        and isinstance(node.comparators[0], ast.Constant)
        and node.comparators[0].value is None
    ):
        return False
    left = node.left
    name = left.id if isinstance(left, ast.Name) else getattr(left, "attr", None)
    return name in ("log", "_log")


def _is_obs_guard(test: ast.AST) -> bool:
    """True iff ``test`` (an ``if`` condition) establishes that telemetry
    is live: it references a cached ``_obs`` / ``_mx`` flag or tests the
    log against ``None`` anywhere in the expression."""
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute) and node.attr in ("_obs", "_mx"):
            return True
        if isinstance(node, ast.Name) and node.id in ("_obs", "obs", "_mx", "mx"):
            return True
        if _is_log_check(node):
            return True
    return False


def _is_rec_put(call: ast.Call) -> bool:
    """True iff ``call`` is ``….rec.put(...)``: a record written straight
    through an :class:`~repro.obs.events.EventLog`'s recorder."""
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "put"
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "rec"
    )


#: A task record's stamp and source slots (:class:`~repro.core.records.TaskRecord`).
_STAMP_SLOTS = frozenset({"created_at", "begin_at", "end_at", "computed_at", "srcs"})


def _stamp_write(node: ast.AST) -> str | None:
    """What ``node`` does to stamp a task record, if anything: calls a
    bound stamp (``next(…._seq)``, ``…._now()``, ``…._wid()``) or stores
    anything but ``None`` or ``()`` into a stamp or source slot."""
    if isinstance(node, ast.Call):
        fn, args = node.func, node.args
        if isinstance(fn, ast.Attribute) and fn.attr in ("_now", "_wid"):
            return f"{fn.attr}()"
        if getattr(fn, "id", None) == "next" and args and getattr(args[0], "attr", None) == "_seq":
            return "next(_seq)"
        return None
    if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        return None
    value = node.value
    if isinstance(value, ast.Constant) and value.value is None or (
        isinstance(value, ast.Tuple) and not value.elts
    ):
        return None
    for target in getattr(node, "targets", [getattr(node, "target", None)]):
        if isinstance(target, ast.Attribute) and target.attr in _STAMP_SLOTS:
            return f".{target.attr} ="
    return None


class EmitGuardRule(StaticRule):
    """Every telemetry publication in the audited modules sits under a
    cached liveness guard.

    The schedulers' fault-free hot path must cost one cached boolean test
    per would-be event or sample, not an attribute chain plus a no-op
    method call: every ``.emit()``/``.emit_at()``/``.put_part()``/
    ``.rec.put()`` (event log), every stamp a ``core/`` module writes on a
    task record (a call to the bound ``_seq``/``_now``/``_wid``, or a
    store to a stamp or source slot) and every ``.inc()``/``.observe()``
    (push metrics) must be inside an ``if``
    whose condition references a cached ``_obs`` / ``_mx`` flag (derived
    from a ``log is not None`` / ``metrics is not None`` test) or tests
    a ``log`` / ``_log`` against ``None`` directly.  An unguarded
    publication is a silent per-task slowdown
    that no test fails on.  ``.set()`` is deliberately not audited:
    gauges are set at registration time (cold) and the name is too
    generic (``threading.Event.set``) to audit without drowning in
    waivers.
    """

    name = "emit-guard"
    #: The schedulers plus the runtime modules whose worker loops publish
    #: per idle episode or dispatch.
    PREFIXES = (
        "core/",
        "runtime/threadpool.py",
        "runtime/dispatch.py",
        "runtime/procpool.py",
        "runtime/cluster.py",
    )
    CALLS = frozenset({"emit", "emit_at", "put_part", "inc", "observe"})
    STAMPED = "core/"

    def check(self, program: Program) -> list[Finding]:
        findings: list[Finding] = []
        for m in program.modules:
            if m.relpath.startswith(self.PREFIXES):
                self._walk(m.relpath, m.tree, False, findings)
        return findings

    def _walk(self, path: str, node: ast.AST, guarded: bool, findings: list[Finding]) -> None:
        if isinstance(node, ast.If) and _is_obs_guard(node.test):
            self._walk(path, node.test, guarded, findings)
            for child in node.body:
                self._walk(path, child, True, findings)
            for child in node.orelse:
                self._walk(path, child, guarded, findings)
            return
        if (
            not guarded
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and (node.func.attr in self.CALLS or _is_rec_put(node))
        ):
            call = "rec.put" if _is_rec_put(node) else node.func.attr
            findings.append(Finding(
                self.name, path, node.lineno,
                f"`.{call}()` not guarded by a cached `_obs`/`_mx` "
                "flag or a `log is not None` check -- "
                "unconditional per-publication overhead on the "
                "telemetry-off hot path",
            ))
        stamp = None if guarded or not path.startswith(self.STAMPED) else _stamp_write(node)
        if stamp is not None:
            findings.append(Finding(
                self.name, path, node.lineno,
                f"task-record stamp `{stamp}` not guarded by a cached `_obs` "
                "flag -- a lifecycle stamp on the telemetry-off hot path",
            ))
        for child in ast.iter_child_nodes(node):
            self._walk(path, child, guarded, findings)


# ---------------------------------------------------------------------------
# eventkind-coverage


def _eventkind_member(node: ast.AST) -> str | None:
    """``X`` if ``node`` is ``EventKind.X``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "EventKind"
    ):
        return node.attr
    return None


def _eventkind_attrs(node: ast.AST, consts: dict[str, str]) -> set[str]:
    """EventKind member names referenced anywhere under ``node``, directly
    or through a module constant in ``consts``."""
    names: set[str] = set()
    for n in ast.walk(node):
        name = _eventkind_member(n) or (consts.get(n.id) if isinstance(n, ast.Name) else None)
        if name:
            names.add(name)
    return names


def _eventkind_constants(program: Program) -> dict[str, dict[str, str]]:
    """Per module, the globals bound to one EventKind member -- the
    hot-path idiom ``_NOTIFY = EventKind.NOTIFY`` (tuple unpacking
    included) -- plus those imported by name from another module's."""
    consts: dict[str, dict[str, str]] = {}
    for m in program.modules:
        table = consts[m.relpath] = {}
        for stmt in m.tree.body:
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                pairs = [(target, stmt.value)]
                if isinstance(target, ast.Tuple) and isinstance(stmt.value, ast.Tuple):
                    pairs = list(zip(target.elts, stmt.value.elts))
                for name, value in pairs:
                    member = _eventkind_member(value)
                    if member and isinstance(name, ast.Name):
                        table[name.id] = member
    for m in program.modules:
        for node in m.nodes:
            if isinstance(node, ast.ImportFrom):
                source = consts.get(_relpath_of_import(node.module) or "", {})
                for alias in node.names:
                    if alias.name in source:
                        consts[m.relpath][alias.asname or alias.name] = source[alias.name]
    return consts


class EventKindCoverageRule(StaticRule):
    """Every :class:`~repro.obs.events.EventKind` member is emitted
    somewhere in the package -- by ``.emit()``/``.emit_at()``, through
    :func:`~repro.runtime.tracing.note_and_emit`, as a record written
    through ``.rec.put()``, or as an ``Event`` the log's decoder expands
    a task record into -- named as ``EventKind.X`` or as a module
    constant bound to it: a member nothing emits
    is a promise the event log never keeps.  (Replay needs no such
    check: a trace counts every kind it is handed.)"""

    name = "eventkind-coverage"
    EVENTS_MODULE = "obs/events.py"
    EMITTERS = frozenset({"emit", "emit_at", "note_and_emit"})

    def check(self, program: Program) -> list[Finding]:
        events_mod = program.by_path.get(self.EVENTS_MODULE)
        if events_mod is None:
            return [Finding(self.name, self.EVENTS_MODULE, 0,
                            "module missing from the scan; cannot check event coverage")]
        members: set[str] = set()
        for node in events_mod.nodes:
            if isinstance(node, ast.ClassDef) and node.name == "EventKind":
                members = {
                    t.id
                    for stmt in node.body if isinstance(stmt, ast.Assign)
                    for t in stmt.targets if isinstance(t, ast.Name)
                }
                break
        emitted: set[str] = set()
        constants = _eventkind_constants(program)
        for m in program.modules:
            decoder = m is events_mod
            for node in m.nodes:
                if isinstance(node, ast.Call) and (
                    (getattr(node.func, "attr", None) or getattr(node.func, "id", None))
                    in self.EMITTERS
                    or _is_rec_put(node)
                    or (decoder and getattr(node.func, "id", None) == "Event")
                ):
                    for arg in node.args:
                        emitted |= _eventkind_attrs(arg, constants[m.relpath])
        return [
            Finding(self.name, self.EVENTS_MODULE, 0,
                    f"EventKind.{name} is never emitted anywhere in the package")
            for name in sorted(members - emitted)
        ]


# ---------------------------------------------------------------------------
# event-immutable

_DICT_MUTATORS = frozenset({"update", "pop", "popitem", "setdefault", "clear"})
_DATA = frozenset({"data"})


def _foreign_attr(node: ast.AST, names: frozenset[str]) -> str | None:
    """``"x.attr"`` if ``node`` is ``x.attr`` with ``attr`` in ``names`` on
    a receiver other than ``self``/``cls`` (an object's own fields are
    its own business), else ``None``."""
    if not (isinstance(node, ast.Attribute) and node.attr in names):
        return None
    if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
        return None
    return f"{ast.unparse(node.value)}.{node.attr}"


class EventImmutableRule(StaticRule):
    """Event consumers never write to an event.

    :class:`~repro.obs.events.Event` is built on the log's read path with
    plain slot stores (a frozen dataclass cost more to construct than the
    rest of an emission), so nothing in the language stops a consumer
    from editing one.  In the modules that consume events no statement
    may assign to, augment or delete an ``Event`` field on anything but
    ``self``, nor store into or call a mutator on a ``.data`` mapping:
    every reader of a log shares the same decoded objects.
    """

    name = "event-immutable"
    #: Modules that read decoded events and so share them with every
    #: other reader; ``obs/events.py`` itself builds them.
    PREFIXES = ("obs/", "verify/", "harness/")
    FIELDS = frozenset(f.name for f in dataclasses.fields(Event))

    def check(self, program: Program) -> list[Finding]:
        findings: list[Finding] = []
        for m in program.modules:
            if not m.relpath.startswith(self.PREFIXES) or m.relpath == "obs/events.py":
                continue
            for node in m.nodes:
                hit = None
                if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
                    hit = _foreign_attr(node, self.FIELDS)
                elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                    hit = _foreign_attr(node.value, _DATA)
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _DICT_MUTATORS
                ):
                    hit = _foreign_attr(node.func.value, _DATA)
                if hit is not None:
                    findings.append(Finding(
                        self.name, m.relpath, node.lineno,
                        f"`{hit}` is written: Event fields and their `data` "
                        "are read-only outside obs/events.py",
                    ))
        return findings
