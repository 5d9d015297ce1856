"""Concurrency lints: AST rules the scheduler sources must obey.

These are not style checks -- each rule encodes an invariant the
implementation *relies on* but which no test can establish exhaustively:

* ``lock-discipline`` -- the mutable :class:`~repro.core.records.TaskRecord`
  fields (``join``, ``bit_vector``, ``notify_array``, ``status``) and the
  methods that mutate them (``try_unset_bit``, ``reset_for_reuse``) may
  only be touched inside ``with <record>.lock`` in the scheduler modules.
  On CPython the record lock stands in for the paper's atomics; an
  unlocked access is a lost-update bug waiting for the threaded runtime.
* ``charge-discipline`` -- every ``with X.lock`` in ``core/`` must be
  preceded (in the same function) by a ``runtime.charge(...)`` call, so
  the virtual-time cost model never silently under-counts a lock
  acquisition and the simulator's makespans stay honest.
* ``raw-threading`` -- outside ``runtime/``, code may create
  ``threading.Lock`` objects (the blessed atomic stand-in) but nothing
  else from :mod:`threading`, and may never call ``.acquire()`` /
  ``.release()`` directly: all lock use goes through ``with`` so no
  exception path can leak a held lock.
* ``emit-guard`` -- every telemetry publication in ``core/`` and the
  hot-path runtime modules (``runtime/threadpool.py``,
  ``runtime/dispatch.py``) -- ``.emit()`` / ``.emit_at()`` on the event
  log, ``.inc()`` / ``.observe()`` on push metric instruments -- must
  sit inside an ``if`` guarded by a cached ``_obs`` / ``_mx`` flag or a
  direct ``log is (not) NULL_LOG`` / ``metrics is (not) NULL_METRICS``
  identity check, so the telemetry-off hot path pays one boolean test
  per would-be publication instead of an attribute chain plus a no-op
  call.
* ``raw-multiprocessing`` -- outside ``runtime/`` and ``comm/``, no
  module may import :mod:`multiprocessing` or :mod:`concurrent.futures`
  (``multiprocessing.shared_memory`` is exempt: the memory layer owns
  segments but never processes).  Process lifecycle -- fork timing,
  pipe protocol, crash surfacing -- is the runtime layer's contract;
  a stray pool elsewhere would bypass the fault model entirely.
* ``raw-socket`` -- only ``comm/`` may import :mod:`socket`,
  :mod:`select`, or :mod:`selectors`.  Every byte that crosses a
  process or machine boundary must ride a :class:`~repro.comm.core.Comm`
  so peer loss always surfaces as ``CommClosedError`` and flows through
  the ``WORKER_DOWN`` recovery path; a stray socket elsewhere would be
  a second, unmodeled failure domain.
* ``eventkind-coverage`` -- every :class:`~repro.obs.events.EventKind`
  member is emitted somewhere in the package and is either replayed into
  an :class:`~repro.runtime.tracing.ExecutionTrace` counter or explicitly
  listed in ``repro.obs.replay.REPLAY_IGNORED``; scalar replay targets
  must be real ``ExecutionTrace`` counters.  This keeps the event log,
  the counters, and the replay derivation from drifting apart (the
  "one source of truth" contract of :mod:`repro.obs`).
* ``event-immutable`` -- :class:`~repro.obs.events.Event` is built on the
  log's read path with plain slot stores (a frozen dataclass cost more
  to construct than the rest of an emission), so nothing in the language
  stops a consumer from editing one.  In the modules that consume events
  (``obs/``, ``verify/``, ``harness/``) no statement may assign to,
  augment or delete an ``Event`` field on anything but ``self``, nor
  store into or call a mutator on a ``.data`` mapping: every reader of
  a log shares the same decoded objects.

A finding can be waived line-by-line with an inline pragma naming the
rule, e.g. ``x = rec.status  # verify: ok=lock-discipline (reason)``;
waivers are for provably-quiescent accesses only and should carry the
proof in the comment.

Run via :func:`run_lint`, ``python -m repro verify lint``, or the CI lint
job.  Every rule has a seeded-violation fixture in
``tests/verify/test_lint.py`` proving it actually fires.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Iterable, Sequence

from repro.obs.events import Event
from repro.verify.report import (  # noqa: F401 - re-exported for compat
    PRAGMA as _PRAGMA,
    Finding,
    Module,
    load_modules,
    package_root,
    sort_findings,
)

#: TaskRecord fields mutated during execution (``corrupted`` is excluded
#: deliberately: it is a monotonic one-way flag, set by injectors and read
#: by ``check()`` without a lock *by design* -- the paper's "a flag is
#: set ... observed by a thread accessing that task").
MUTABLE_RECORD_FIELDS = frozenset({"join", "bit_vector", "notify_array", "status"})

#: TaskRecord methods that mutate the fields above on the caller's behalf.
MUTATING_RECORD_METHODS = frozenset({"try_unset_bit", "reset_for_reuse"})

#: Modules whose record accesses the lock-discipline rule audits (the two
#: schedulers -- everywhere else records are opaque handles).
SCHEDULER_MODULES = frozenset({"core/ft.py", "core/nabbit.py"})

#: threading attributes banned outside ``runtime/``.  ``Lock`` is allowed
#: (the blessed stand-in for the paper's atomics); everything that can
#: block, signal, or spawn belongs to the runtime layer.
BANNED_THREADING = frozenset(
    {"Thread", "Event", "Condition", "Semaphore", "BoundedSemaphore", "Barrier", "Timer"}
)

class Rule:
    """A per-module lint rule."""

    name: str = ""
    description: str = ""

    def check(self, module: Module) -> list[Finding]:  # pragma: no cover - interface
        raise NotImplementedError

    def _finding(self, module: Module, node: ast.AST, message: str) -> list[Finding]:
        line = getattr(node, "lineno", 0)
        if module.waived(line, self.name):
            return []
        return [Finding(self.name, module.relpath, line, message)]


class ProjectRule(Rule):
    """A rule that needs to see several modules at once."""

    def check(self, module: Module) -> list[Finding]:
        return []

    def check_project(self, modules: Sequence[Module]) -> list[Finding]:  # pragma: no cover
        raise NotImplementedError


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


class LockDisciplineRule(Rule):
    """Mutable TaskRecord state only under ``with <record>.lock``."""

    name = "lock-discipline"
    description = (
        "mutable TaskRecord fields (join/bit_vector/notify_array/status) and "
        "mutating record methods accessed only inside `with record.lock`"
    )

    def __init__(self, paths: frozenset[str] = SCHEDULER_MODULES) -> None:
        self.paths = paths

    def check(self, module: Module) -> list[Finding]:
        if module.relpath not in self.paths:
            return []
        findings: list[Finding] = []
        self._walk(module, module.tree, frozenset(), findings)
        return findings

    def _walk(
        self, module: Module, node: ast.AST, held: frozenset[str], findings: list[Finding]
    ) -> None:
        if isinstance(node, ast.With):
            held = held | frozenset(_lock_names(node))
        elif isinstance(node, ast.Attribute):
            obj = node.value
            if (
                isinstance(obj, ast.Name)
                and obj.id != "self"
                and node.attr in MUTABLE_RECORD_FIELDS
                and obj.id not in held
            ):
                findings.extend(
                    self._finding(
                        module,
                        node,
                        f"`{obj.id}.{node.attr}` accessed outside `with {obj.id}.lock`",
                    )
                )
        elif isinstance(node, ast.Call):
            fn = node.func
            if (
                isinstance(fn, ast.Attribute)
                and fn.attr in MUTATING_RECORD_METHODS
                and isinstance(fn.value, ast.Name)
                and fn.value.id != "self"
                and fn.value.id not in held
            ):
                findings.extend(
                    self._finding(
                        module,
                        node,
                        f"`{fn.value.id}.{fn.attr}()` mutates record state outside "
                        f"`with {fn.value.id}.lock`",
                    )
                )
        for child in ast.iter_child_nodes(node):
            self._walk(module, child, held, findings)


# ---------------------------------------------------------------------------
# charge-discipline


def _is_charge_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "charge"
    )


class ChargeDisciplineRule(Rule):
    """Every ``with X.lock`` in core/ has an earlier ``*.charge(...)``."""

    name = "charge-discipline"
    description = (
        "in core/, every `with X.lock` is preceded in the same function by a "
        "runtime.charge(...) call (lock acquisitions are cost-model events)"
    )

    def __init__(self, prefix: str = "core/") -> None:
        self.prefix = prefix

    def check(self, module: Module) -> list[Finding]:
        if not module.relpath.startswith(self.prefix):
            return []
        findings: list[Finding] = []
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            charge_lines = [n.lineno for n in ast.walk(fn) if _is_charge_call(n)]
            first_charge = min(charge_lines, default=None)
            for node in ast.walk(fn):
                if isinstance(node, ast.With) and _lock_names(node):
                    if first_charge is None or first_charge > node.lineno:
                        findings.extend(
                            self._finding(
                                module,
                                node,
                                f"`with {_lock_names(node)[0]}.lock` in "
                                f"{fn.name}() has no preceding runtime.charge() "
                                "-- unaccounted lock acquisition",
                            )
                        )
        return findings


# ---------------------------------------------------------------------------
# raw-threading


class RawThreadingRule(Rule):
    """Only runtime/ and comm/ may use threading beyond ``Lock``; no bare
    acquire/release anywhere."""

    name = "raw-threading"
    description = (
        "outside runtime/ and comm/, only threading.Lock is allowed (no "
        "Thread/Event/Condition/Semaphore/Barrier/Timer, no direct "
        ".acquire()/.release())"
    )

    def __init__(self, allowed_prefix: str | tuple[str, ...] = ("runtime/", "comm/")) -> None:
        self.allowed_prefix = allowed_prefix

    def check(self, module: Module) -> list[Finding]:
        if module.relpath.startswith(self.allowed_prefix):
            return []
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "threading":
                for alias in node.names:
                    if alias.name in BANNED_THREADING:
                        findings.extend(
                            self._finding(
                                module,
                                node,
                                f"`from threading import {alias.name}` outside runtime/",
                            )
                        )
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "threading"
                and node.attr in BANNED_THREADING
            ):
                findings.extend(
                    self._finding(
                        module, node, f"`threading.{node.attr}` outside runtime/"
                    )
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("acquire", "release")
            ):
                findings.extend(
                    self._finding(
                        module,
                        node,
                        f"direct `.{node.func.attr}()` call -- use `with <lock>:` so "
                        "exception paths cannot leak a held lock",
                    )
                )
        return findings


# ---------------------------------------------------------------------------
# raw-multiprocessing


class RawMultiprocessingRule(Rule):
    """Only runtime/ and comm/ may import multiprocessing or
    concurrent.futures; ``multiprocessing.shared_memory`` is exempt
    (segment ownership is a memory-layer concern, process lifecycle is
    not)."""

    name = "raw-multiprocessing"
    description = (
        "outside runtime/ and comm/, no `import multiprocessing` or "
        "`concurrent.futures` (process lifecycle belongs to the runtime "
        "layer); `multiprocessing.shared_memory` is allowed everywhere"
    )

    #: The one multiprocessing submodule any layer may import.
    EXEMPT = "multiprocessing.shared_memory"

    def __init__(self, allowed_prefix: str | tuple[str, ...] = ("runtime/", "comm/")) -> None:
        self.allowed_prefix = allowed_prefix

    def _banned_module(self, name: str | None) -> bool:
        if name is None:
            return False
        if name == self.EXEMPT or name.startswith(self.EXEMPT + "."):
            return False
        return name == "multiprocessing" or name.startswith(
            ("multiprocessing.", "concurrent.futures")
        )

    def check(self, module: Module) -> list[Finding]:
        if module.relpath.startswith(self.allowed_prefix):
            return []
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if self._banned_module(alias.name):
                        findings.extend(
                            self._finding(
                                module, node, f"`import {alias.name}` outside runtime/"
                            )
                        )
            elif isinstance(node, ast.ImportFrom) and self._banned_module(node.module):
                for alias in node.names:
                    # `from multiprocessing import shared_memory` is the
                    # exempt submodule spelled differently.
                    if f"{node.module}.{alias.name}" == self.EXEMPT:
                        continue
                    findings.extend(
                        self._finding(
                            module,
                            node,
                            f"`from {node.module} import {alias.name}` outside runtime/",
                        )
                    )
        return findings


# ---------------------------------------------------------------------------
# raw-socket


class RawSocketRule(Rule):
    """Only comm/ may import :mod:`socket`, :mod:`select`, or
    :mod:`selectors`.

    The comm layer's whole contract is that peer loss -- on any
    transport -- collapses into ``CommClosedError`` and therefore into
    the ``WORKER_DOWN`` → recovery path.  A raw socket opened anywhere
    else is a second failure domain the fault model cannot see: its
    errors would surface as bare ``OSError`` at arbitrary call sites
    instead of as detected compute-phase faults.  (HTTP helpers built on
    the stdlib's server/client classes are fine -- this rule bans the
    *primitive* modules, which is where hand-rolled wire protocols
    start.)
    """

    name = "raw-socket"
    description = (
        "outside comm/, no `import socket`, `select`, or `selectors` "
        "(every wire crossing rides a Comm so peer loss always becomes "
        "CommClosedError -> WORKER_DOWN -> recovery)"
    )

    #: The primitive modules whose import this rule confines.
    BANNED_MODULES = frozenset({"socket", "select", "selectors"})

    def __init__(self, allowed_prefix: str | tuple[str, ...] = ("comm/",)) -> None:
        self.allowed_prefix = allowed_prefix

    def _banned(self, name: str | None) -> bool:
        return name is not None and name.split(".", 1)[0] in self.BANNED_MODULES

    def check(self, module: Module) -> list[Finding]:
        if module.relpath.startswith(tuple(self.allowed_prefix)):
            return []
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if self._banned(alias.name):
                        findings.extend(
                            self._finding(
                                module, node, f"`import {alias.name}` outside comm/"
                            )
                        )
            elif isinstance(node, ast.ImportFrom) and self._banned(node.module):
                findings.extend(
                    self._finding(
                        module,
                        node,
                        f"`from {node.module} import ...` outside comm/",
                    )
                )
        return findings


# ---------------------------------------------------------------------------
# emit-guard


#: Cached-flag names that prove telemetry is live: ``_obs``/``obs`` for
#: the event log, ``_mx``/``mx`` for the metrics registry.
_TELEMETRY_FLAGS = frozenset({"_obs", "obs", "_mx", "mx"})

#: Sentinel names whose identity comparison is itself a valid guard.
_TELEMETRY_SENTINELS = frozenset({"NULL_LOG", "NULL_METRICS"})


def _is_obs_guard(test: ast.AST) -> bool:
    """True iff ``test`` (an ``if`` condition) establishes that telemetry
    is live: it references a cached ``_obs`` / ``_mx`` flag or performs a
    ``NULL_LOG`` / ``NULL_METRICS`` identity comparison anywhere in the
    expression."""
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute) and node.attr in ("_obs", "_mx"):
            return True
        if isinstance(node, ast.Name) and node.id in _TELEMETRY_FLAGS:
            return True
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
        ):
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            if names & _TELEMETRY_SENTINELS:
                return True
    return False


#: Modules the emit-guard rule audits: the schedulers plus the runtime
#: modules whose worker loops emit events per idle episode / dispatch.
EMIT_GUARD_PREFIXES: tuple[str, ...] = (
    "core/",
    "runtime/threadpool.py",
    "runtime/dispatch.py",
    "runtime/procpool.py",
    "runtime/cluster.py",
)


#: Publication call names the emit-guard rule audits.  Event emission
#: (``emit``/``emit_at``) and the *push* metric instruments (``inc`` on
#: counters, ``observe`` on histograms) -- each is a per-task cost when
#: unguarded.  ``set`` is deliberately absent: gauges are set at
#: registration time (cold) and ``.set()`` is too generic a name
#: (``threading.Event.set``) to audit without drowning in waivers.
PUBLISH_CALLS = frozenset({"emit", "emit_at", "inc", "observe"})


class EmitGuardRule(Rule):
    """Every telemetry publication in the audited modules sits under a
    cached liveness guard.

    The schedulers' fault-free hot path must cost one cached boolean test
    per would-be event or sample, not an attribute chain plus a no-op
    method call: every ``.emit()``/``.emit_at()`` (event log) and every
    ``.inc()``/``.observe()`` (push metrics) must be inside an ``if``
    whose condition references a cached ``_obs`` / ``_mx`` flag (each
    derived from a ``log is not NULL_LOG`` / ``metrics is not
    NULL_METRICS`` identity check) or performs the identity check
    directly.  An unguarded publication is a silent per-task slowdown
    that no test fails on.
    """

    name = "emit-guard"
    description = (
        "in core/ and the hot-path runtime modules, every EventLog "
        ".emit()/.emit_at() and every metric .inc()/.observe() call is "
        "inside an `if` guarded by the cached _obs/_mx flag or a "
        "NULL_LOG/NULL_METRICS identity check (unguarded publication "
        "re-pays the disabled-telemetry overhead per task)"
    )

    def __init__(self, prefixes: tuple[str, ...] = EMIT_GUARD_PREFIXES) -> None:
        self.prefixes = prefixes

    def check(self, module: Module) -> list[Finding]:
        if not module.relpath.startswith(self.prefixes):
            return []
        findings: list[Finding] = []
        self._walk(module, module.tree, False, findings)
        return findings

    def _walk(
        self, module: Module, node: ast.AST, guarded: bool, findings: list[Finding]
    ) -> None:
        if isinstance(node, ast.If) and _is_obs_guard(node.test):
            self._walk(module, node.test, guarded, findings)
            for child in node.body:
                self._walk(module, child, True, findings)
            for child in node.orelse:
                self._walk(module, child, guarded, findings)
            return
        if (
            not guarded
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in PUBLISH_CALLS
        ):
            findings.extend(
                self._finding(
                    module,
                    node,
                    f"`.{node.func.attr}()` not guarded by a cached `_obs`/`_mx` "
                    "flag or NULL_LOG/NULL_METRICS identity check -- "
                    "unconditional per-publication overhead on the "
                    "telemetry-off hot path",
                )
            )
        for child in ast.iter_child_nodes(node):
            self._walk(module, child, guarded, findings)


# ---------------------------------------------------------------------------
# eventkind-coverage


def _eventkind_attrs(node: ast.AST) -> set[str]:
    """EventKind member names referenced anywhere under ``node``."""
    return {
        n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute)
        and isinstance(n.value, ast.Name)
        and n.value.id == "EventKind"
    }


def _string_constants(node: ast.AST) -> set[str]:
    return {
        n.value
        for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


class EventKindCoverageRule(ProjectRule):
    """EventKind members are emitted and replayed (or explicitly ignored)."""

    name = "eventkind-coverage"
    description = (
        "every EventKind member is emitted somewhere and is handled by "
        "obs.replay (counter or explicit REPLAY_IGNORED entry); replay's "
        "scalar targets exist in ExecutionTrace.SCALAR_COUNTERS"
    )

    EVENTS_MODULE = "obs/events.py"
    REPLAY_MODULE = "obs/replay.py"
    TRACING_MODULE = "runtime/tracing.py"

    def check_project(self, modules: Sequence[Module]) -> list[Finding]:
        by_path = {m.relpath: m for m in modules}
        events_mod = by_path.get(self.EVENTS_MODULE)
        replay_mod = by_path.get(self.REPLAY_MODULE)
        if events_mod is None or replay_mod is None:
            return [
                Finding(
                    self.name,
                    self.EVENTS_MODULE if events_mod is None else self.REPLAY_MODULE,
                    0,
                    "module missing from lint scan; cannot check event coverage",
                )
            ]

        members = self._members(events_mod)
        scalar_keys, handled, ignored = self._replay_sets(replay_mod)
        emitted = set()
        for m in modules:
            emitted |= self._emitted(m)

        findings: list[Finding] = []

        def flag(module: Module, message: str) -> None:
            findings.append(Finding(self.name, module.relpath, 0, message))

        for name in sorted(members):
            if name not in emitted:
                flag(events_mod, f"EventKind.{name} is never emitted anywhere in the package")
            if name not in handled and name not in ignored:
                flag(
                    replay_mod,
                    f"EventKind.{name} neither replayed into a counter nor listed "
                    "in REPLAY_IGNORED (counter drift)",
                )
            if name in handled and name in ignored:
                flag(replay_mod, f"EventKind.{name} both replayed and REPLAY_IGNORED")
        for name in sorted((handled | ignored) - members):
            flag(replay_mod, f"obs.replay references unknown EventKind.{name}")

        tracing_mod = by_path.get(self.TRACING_MODULE)
        if tracing_mod is not None:
            counters = self._scalar_counters(tracing_mod)
            for key in sorted(scalar_keys - counters):
                flag(
                    replay_mod,
                    f"_SCALAR_KINDS target {key!r} is not an "
                    "ExecutionTrace.SCALAR_COUNTERS member",
                )
        return findings

    def _members(self, events_mod: Module) -> set[str]:
        for node in ast.walk(events_mod.tree):
            if isinstance(node, ast.ClassDef) and node.name == "EventKind":
                return {
                    t.id
                    for stmt in node.body
                    if isinstance(stmt, ast.Assign)
                    for t in stmt.targets
                    if isinstance(t, ast.Name)
                }
        return set()

    def _replay_sets(self, replay_mod: Module) -> tuple[set[str], set[str], set[str]]:
        scalar_keys: set[str] = set()
        handled: set[str] = set()
        ignored: set[str] = set()
        for node in replay_mod.tree.body:
            targets: list[str] = []
            if isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            if not targets or node.value is None:
                continue
            name = targets[0]
            if name == "_SCALAR_KINDS":
                scalar_keys |= _string_constants(node.value)
                handled |= _eventkind_attrs(node.value)
            elif name in ("_PER_KEY_KINDS", "REPLAY_HANDLED"):
                handled |= _eventkind_attrs(node.value)
            elif name == "REPLAY_IGNORED":
                ignored |= _eventkind_attrs(node.value)
        return scalar_keys, handled, ignored

    def _emitted(self, module: Module) -> set[str]:
        out: set[str] = set()
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("emit", "emit_at")
            ):
                for arg in node.args:
                    out |= _eventkind_attrs(arg)
        return out

    def _scalar_counters(self, tracing_mod: Module) -> set[str]:
        for node in ast.walk(tracing_mod.tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SCALAR_COUNTERS" for t in node.targets
            ):
                return _string_constants(node.value)
        return set()


# ---------------------------------------------------------------------------
# event-immutable

EVENT_FIELDS = frozenset(f.name for f in dataclasses.fields(Event))

#: Modules that read decoded events and so share them with every other reader.
EVENT_CONSUMER_PREFIXES: tuple[str, ...] = ("obs/", "verify/", "harness/")

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


class EventImmutableRule(Rule):
    """Event consumers never write to an event."""

    name = "event-immutable"
    description = (
        "in obs/, verify/ and harness/, no assignment to / deletion of an "
        "Event field (seq, t, worker, kind, key, life, data) on a non-self "
        "receiver and no mutation of a `.data` mapping -- decoded events "
        "are shared by every reader of the log"
    )

    def __init__(self, prefixes: tuple[str, ...] = EVENT_CONSUMER_PREFIXES) -> None:
        self.prefixes = prefixes

    def check(self, module: Module) -> list[Finding]:
        if not module.relpath.startswith(self.prefixes) or module.relpath == "obs/events.py":
            return []
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            hit = None
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
                hit = _foreign_attr(node, EVENT_FIELDS)
            elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                hit = _foreign_attr(node.value, _DATA)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _DICT_MUTATORS
            ):
                hit = _foreign_attr(node.func.value, _DATA)
            if hit is not None:
                findings.extend(
                    self._finding(
                        module,
                        node,
                        f"`{hit}` is written: Event fields and their `data` "
                        "are read-only outside obs/events.py",
                    )
                )
        return findings


# ---------------------------------------------------------------------------
# driver

ALL_RULES: tuple[Rule, ...] = (
    LockDisciplineRule(),
    ChargeDisciplineRule(),
    RawThreadingRule(),
    RawMultiprocessingRule(),
    RawSocketRule(),
    EmitGuardRule(),
    EventKindCoverageRule(),
    EventImmutableRule(),
)


def run_lint(
    root: Path | None = None,
    rules: Iterable[Rule] = ALL_RULES,
    modules: Sequence[Module] | None = None,
) -> list[Finding]:
    """Run ``rules`` over the package (or an explicit module list) and
    return all findings, sorted by location."""
    if modules is None:
        modules = load_modules(root)
    findings: list[Finding] = []
    for rule in rules:
        if isinstance(rule, ProjectRule):
            findings.extend(rule.check_project(modules))
        else:
            for module in modules:
                findings.extend(rule.check(module))
    return sort_findings(findings)
