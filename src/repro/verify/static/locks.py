"""Lock-graph rules: deadlock cycles, blocking under a held lock, and
lock/resource leaks on exception paths.

All three rules read the tables :class:`~repro.verify.static.callgraph.Program`
computed -- per-function acquisitions, blocking operations and resolved
call sites (each tagged with the locks held at that point), plus the two
interprocedural fixpoints (shortest blocking chain, reachable locks).
Findings are anchored at the *call site where the lock is held*, not
deep inside the callee, so a waiver sits next to the decision it
justifies.
"""

from __future__ import annotations

import ast

from repro.verify.report import Finding
from repro.verify.static.callgraph import LockId, Program, StaticRule


def _fmt_held(held: tuple[LockId, ...]) -> str:
    return ", ".join(str(h) for h in held)


class BlockingUnderLockRule(StaticRule):
    """No blocking operation -- comm/socket I/O, sleeps, joins, event
    waits, blocking queue gets -- may be reachable while a lock is held.

    A blocked lock holder stalls every thread that needs the lock; if
    the blocking operation itself waits on one of those threads (a comm
    round trip served by a peer that is dialing us back, a join on a
    worker that needs the pool lock) the system wedges.  Direct
    operations are flagged at their own line; operations reached through
    calls are flagged at the call site, with the shortest witness chain
    down to the primitive that blocks.
    """

    name = "blocking-under-lock"

    def check(self, program: Program) -> list[Finding]:
        findings: list[Finding] = []
        for fn in program.functions:
            for op in fn.blocking_ops:
                if op.held:
                    findings.append(
                        Finding(
                            self.name,
                            fn.module.relpath,
                            op.line,
                            f"{op.desc} in {fn.qualname} while holding "
                            f"{_fmt_held(op.held)}",
                        )
                    )
            for cs in fn.calls:
                if not cs.held:
                    continue
                best: tuple[str, ...] | None = None
                for tgt in cs.targets:
                    sub = program.blocking_chains.get(tgt)
                    if sub is not None and (
                        best is None or (len(sub), sub) < (len(best), best)
                    ):
                        best = sub
                if best is not None:
                    findings.append(
                        Finding(
                            self.name,
                            fn.module.relpath,
                            cs.line,
                            f"`{cs.desc}(...)` can block while holding "
                            f"{_fmt_held(cs.held)}: {' -> '.join(best)}",
                        )
                    )
        return findings


class DeadlockCycleRule(StaticRule):
    """The lock-acquisition-order graph must be acycle-free.

    An edge ``A -> B`` means some execution path acquires ``B`` while
    holding ``A`` (directly, or through a chain of resolved calls).  Any
    cycle is a potential deadlock: two threads entering the cycle at
    different points can each hold the lock the other needs.  Every edge
    participating in a cycle is reported with its own witness chain, so
    both directions of a 2-cycle are visible.  Lock identity is
    class-scoped (``Owner.attr``) and instance-insensitive; self-edges
    on striped (subscripted) lock tuples are suppressed because distinct
    stripes are distinct locks.
    """

    name = "deadlock-cycle"

    def check(self, program: Program) -> list[Finding]:
        edges: dict[tuple[LockId, LockId], tuple[str, int, str]] = {}

        def add(a: LockId, b: LockId, path: str, line: int, text: str) -> None:
            key = (a, b)
            cand = (path, line, text)
            cur = edges.get(key)
            if cur is None or cand < cur:
                edges[key] = cand

        for fn in program.functions:
            for acq in fn.acquires:
                for h in acq.held:
                    add(
                        h, acq.lock, fn.module.relpath, acq.line,
                        f"{fn.label}:{acq.line} acquires {acq.lock} "
                        f"while holding {h}",
                    )
            for cs in fn.calls:
                if not cs.held:
                    continue
                for tgt in cs.targets:
                    for lock, sub in program.reachable_locks.get(tgt, {}).items():
                        for h in cs.held:
                            add(
                                h, lock, fn.module.relpath, cs.line,
                                f"{fn.label}:{cs.line} (holding {h}) -> "
                                + " -> ".join(sub),
                            )

        adj: dict[LockId, set[LockId]] = {}
        for a, b in edges:
            adj.setdefault(a, set()).add(b)

        def reachable(src: LockId, dst: LockId) -> bool:
            seen: set[LockId] = set()
            stack = [src]
            while stack:
                n = stack.pop()
                if n == dst:
                    return True
                if n in seen:
                    continue
                seen.add(n)
                stack.extend(adj.get(n, ()))
            return False

        findings: list[Finding] = []
        for (a, b), (path, line, text) in sorted(
            edges.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
        ):
            if a == b:
                if a in program.indexed_locks:
                    continue  # distinct stripes of a lock tuple
                findings.append(
                    Finding(
                        self.name, path, line,
                        f"lock {a} re-acquired while already held "
                        f"(non-reentrant self-deadlock): {text}",
                    )
                )
            elif reachable(b, a):
                findings.append(
                    Finding(
                        self.name, path, line,
                        f"lock-order cycle between {a} and {b}: {text} "
                        f"[reverse path {b} -> {a} also exists]",
                    )
                )
        return findings


#: Callables that open a comm/socket resource needing deterministic close.
_OPEN_CALLS = frozenset(
    {"connect", "connect_with_retry", "listen", "pipe_pair", "create_connection"}
)


def _is_open_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    if isinstance(f, ast.Name):
        return f.id in _OPEN_CALLS
    if isinstance(f, ast.Attribute):
        if f.attr in ("connect_with_retry", "create_connection", "pipe_pair"):
            return True
        # socket.socket(...) but not obj.connect(...) (too generic a name)
        if f.attr == "socket" and isinstance(f.value, ast.Name) and f.value.id == "socket":
            return True
    return False


class LockLeakRule(StaticRule):
    """No lock or comm resource may leak on an exception path.

    Two shapes are convicted: a bare ``.acquire()`` whose receiver is not
    ``.release()``d inside a ``finally`` block of the same function (use
    ``with``), and a comm/socket open (``connect``, ``listen``,
    ``pipe_pair``, ...) bound to a local that neither escapes the
    function (returned, stored on an attribute, passed as an argument)
    nor is closed under ``with``/``finally``.  An escaping resource is
    some other owner's to close; a non-escaping one that relies on
    straight-line ``.close()`` leaks exactly when the code in between
    raises -- which for comm code is the *expected* path (peer loss).
    """

    name = "lock-leak"

    def check(self, program: Program) -> list[Finding]:
        findings: list[Finding] = []
        for fn in program.functions:
            findings.extend(self._check_acquires(program, fn))
            findings.extend(self._check_opens(program, fn))
        return findings

    def _check_acquires(self, program: Program, fn) -> list[Finding]:
        released: set[str] = set()
        for node in fn.body:
            if isinstance(node, ast.Try):
                for f in node.finalbody:
                    for c in ast.walk(f):
                        if (
                            isinstance(c, ast.Call)
                            and isinstance(c.func, ast.Attribute)
                            and c.func.attr == "release"
                        ):
                            released.add(ast.unparse(c.func.value))
        out: list[Finding] = []
        for node in fn.body:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "acquire"
            ):
                recv = ast.unparse(node.func.value)
                if recv not in released:
                    out.append(
                        Finding(
                            self.name, fn.module.relpath, node.lineno,
                            f"`{recv}.acquire()` in {fn.qualname} has no "
                            f"`{recv}.release()` in a finally block -- an "
                            f"exception leaks the lock; use `with {recv}:`",
                        )
                    )
        return out

    def _check_opens(self, program: Program, fn) -> list[Finding]:
        assigned: dict[str, ast.Call] = {}
        safe_calls: set[int] = set()
        escaped: set[str] = set()
        closed: set[str] = set()

        def names_in(node: ast.AST) -> set[str]:
            return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

        def mark_safe_opens(node: ast.AST) -> None:
            for c in ast.walk(node):
                if _is_open_call(c):
                    safe_calls.add(id(c))

        for node in fn.body:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    mark_safe_opens(item.context_expr)
                    ctx = item.context_expr
                    if isinstance(ctx, ast.Name):
                        closed.add(ctx.id)
            elif isinstance(node, ast.Return) and node.value is not None:
                escaped |= names_in(node.value)
                mark_safe_opens(node.value)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                t = node.targets[0]
                if isinstance(t, ast.Name) and _is_open_call(node.value):
                    assigned[t.id] = node.value
                elif isinstance(t, ast.Tuple) and _is_open_call(node.value):
                    for el in t.elts:
                        if isinstance(el, ast.Name):
                            assigned[el.id] = node.value
                elif isinstance(t, ast.Attribute):
                    # stored on an object: the object owns it now
                    escaped |= names_in(node.value)
                    mark_safe_opens(node.value)
            elif isinstance(node, ast.Call):
                for arg in [*node.args, *[k.value for k in node.keywords]]:
                    escaped |= names_in(arg)
                    mark_safe_opens(arg)
            elif isinstance(node, ast.Try):
                for f in node.finalbody:
                    for c in ast.walk(f):
                        if (
                            isinstance(c, ast.Call)
                            and isinstance(c.func, ast.Attribute)
                            and c.func.attr == "close"
                            and isinstance(c.func.value, ast.Name)
                        ):
                            closed.add(c.func.value.id)

        out: list[Finding] = []
        seen_lines: set[int] = set()
        for name, call in sorted(assigned.items()):
            if name in escaped or name in closed:
                continue
            if call.lineno in seen_lines:
                continue
            seen_lines.add(call.lineno)
            out.append(
                Finding(
                    self.name, fn.module.relpath, call.lineno,
                    f"`{ast.unparse(call.func)}(...)` in {fn.qualname} is "
                    "closed (if at all) only on the straight-line path -- "
                    "an exception leaks the channel; use `with` or "
                    "close in a finally",
                )
            )
        for node in fn.body:
            if (
                isinstance(node, ast.Expr)
                and _is_open_call(node.value)
                and id(node.value) not in safe_calls
            ):
                out.append(
                    Finding(
                        self.name, fn.module.relpath, node.lineno,
                        f"`{ast.unparse(node.value.func)}(...)` in {fn.qualname} "
                        "opens a channel and discards the handle",
                    )
                )
        return out
