"""Seeded violations: the analyzer's self-conviction suite.

Each :class:`SeededCase` is a small synthetic module carrying exactly the
bug one rule exists to catch.  ``analyze_case`` analyzes a fixture
together with the real package (so imports and types resolve; a fixture
whose relpath names a real module replaces it), and
``tests/verify/test_static.py`` demands, case by case, that the expected
rule convicts it at the expected line with the expected message -- proof
that a clean HEAD means the rules *looked and found nothing*, not that
they are blind.  A rule change that silently stops convicting its
fixture fails the build.
"""

from __future__ import annotations

from dataclasses import dataclass
from textwrap import dedent
from typing import Sequence

from repro.verify.report import Finding, Module
from repro.verify.static import STATIC_RULES, run_static
from repro.verify.static.wire import (
    PROTOCOLS,
    ProtocolExhaustiveRule,
    ProtocolSide,
    ProtocolSpec,
)


@dataclass(frozen=True)
class SeededCase:
    """One synthetic module with one planted violation."""

    name: str
    rule: str
    relpath: str  # where the fixture pretends to live (drives prefixes)
    source: str
    #: line of the fixture the conviction must be anchored at
    line: int
    #: substring that must appear in the conviction message
    expect: str
    #: protocol specs to register for this fixture (protocol rule only)
    extra_protocols: tuple[ProtocolSpec, ...] = ()
    #: substring no finding of ``rule`` may contain: a shape next to the
    #: planted bug that the rule must accept
    spares: str | None = None

    def module(self) -> Module:
        return Module.from_source(dedent(self.source), self.relpath)

    def convicts(self, f: Finding) -> bool:
        return (
            f.path == self.relpath
            and f.rule == self.rule
            and f.line == self.line
            and self.expect in f.message
        )

    def wrongly_convicted(self, findings: Sequence[Finding]) -> list[Finding]:
        """The findings of ``rule`` that hit the shape it must spare."""
        return [
            f for f in findings
            if self.spares is not None and f.rule == self.rule and self.spares in f.message
        ]


SEEDED: tuple[SeededCase, ...] = (
    SeededCase(
        name="deadlock-intraprocedural",
        rule="deadlock-cycle",
        relpath="runtime/_seed_dl1.py",
        source="""
            import threading

            class S:
                def __init__(self) -> None:
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self) -> None:
                    with self._a:
                        with self._b:
                            pass

                def backward(self) -> None:
                    with self._b:
                        with self._a:
                            pass
        """,
        line=11,
        expect="lock-order cycle between S._a and S._b",
    ),
    SeededCase(
        name="deadlock-interprocedural",
        rule="deadlock-cycle",
        relpath="runtime/_seed_dl2.py",
        source="""
            import threading

            class T:
                def __init__(self) -> None:
                    self._x = threading.Lock()
                    self._y = threading.Lock()

                def take_y(self) -> None:
                    with self._y:
                        pass

                def take_x(self) -> None:
                    with self._x:
                        pass

                def forward(self) -> None:
                    with self._x:
                        self.take_y()

                def backward(self) -> None:
                    with self._y:
                        self.take_x()
        """,
        line=19,
        expect="lock-order cycle between T._x and T._y",
    ),
    SeededCase(
        name="blocking-direct",
        rule="blocking-under-lock",
        relpath="runtime/_seed_bl1.py",
        source="""
            import threading
            import time

            class Pumper:
                def __init__(self) -> None:
                    self._lock = threading.Lock()

                def nap(self) -> None:
                    with self._lock:
                        time.sleep(0.01)
        """,
        line=11,
        expect="sleep() in Pumper.nap while holding Pumper._lock",
    ),
    SeededCase(
        name="blocking-transitive",
        rule="blocking-under-lock",
        relpath="runtime/_seed_bl2.py",
        source="""
            import threading

            from repro.comm.tcp import SocketComm

            class Fetcher:
                def __init__(self) -> None:
                    self._lock = threading.Lock()

                def _pump(self, comm: SocketComm) -> object:
                    return comm.recv()

                def fetch(self, comm: SocketComm) -> object:
                    with self._lock:
                        return self._pump(comm)
        """,
        line=15,
        expect="`self._pump(...)` can block while holding Fetcher._lock",
    ),
    SeededCase(
        name="protocol-unhandled-parent-tag",
        rule="protocol-exhaustive",
        relpath="runtime/_seed_p1.py",
        source="""
            from repro.comm.tcp import SocketComm

            class SeedClusterRuntime:
                def evict(self, comm: SocketComm, key: str) -> None:
                    comm.send(("evict", key))

                def ping(self, comm: SocketComm) -> None:
                    comm.send(("ping",))

            class SeedWorkerServer:
                def serve(self, comm: SocketComm) -> None:
                    while True:
                        msg = comm.recv()
                        tag = msg[0]
                        if tag == "ping":
                            comm.send(("pong",))
        """,
        line=6,
        expect="tag 'evict' sent by parent has no matching handler",
        extra_protocols=(
            ProtocolSpec(
                name="seed-p1",
                modules=("runtime/_seed_p1.py",),
                parent=ProtocolSide("parent", classes=("SeedClusterRuntime",)),
                worker=ProtocolSide("worker", classes=("SeedWorkerServer",)),
            ),
        ),
    ),
    SeededCase(
        name="protocol-unhandled-worker-tag",
        rule="protocol-exhaustive",
        relpath="runtime/_seed_p2.py",
        source="""
            from repro.comm.tcp import SocketComm

            class SeedClusterRuntime:
                def ask(self, comm: SocketComm) -> object:
                    comm.send(("ping",))
                    reply = comm.recv()
                    if reply[0] == "pong":
                        return reply
                    return None

            class SeedWorkerServer:
                def serve(self, comm: SocketComm) -> None:
                    msg = comm.recv()
                    tag = msg[0]
                    if tag == "ping":
                        comm.send(("pong",))
                    else:
                        comm.send(("weird", tag))
        """,
        line=19,
        expect="tag 'weird' sent by worker has no matching handler",
        extra_protocols=(
            ProtocolSpec(
                name="seed-p2",
                modules=("runtime/_seed_p2.py",),
                parent=ProtocolSide("parent", classes=("SeedClusterRuntime",)),
                worker=ProtocolSide("worker", classes=("SeedWorkerServer",)),
            ),
        ),
    ),
    SeededCase(
        name="protocol-unhandled-jobs-batch",
        rule="protocol-exhaustive",
        relpath="runtime/_seed_p3.py",
        source="""
            from repro.comm.tcp import SocketComm

            class SeedBatchingRuntime:
                def ship(self, comm: SocketComm, msgs: list) -> None:
                    comm.send_oob(("jobs", msgs))

                def ping(self, comm: SocketComm) -> None:
                    comm.send(("ping",))

            class SeedPerJobWorker:
                def serve(self, comm: SocketComm) -> None:
                    while True:
                        msg = comm.recv()
                        tag = msg[0]
                        if tag == "ping":
                            comm.send(("pong",))
                        elif tag == "job":
                            comm.send(("done", msg[1]))
        """,
        line=6,
        expect="tag 'jobs' sent by parent has no matching handler",
        extra_protocols=(
            ProtocolSpec(
                name="seed-p3",
                modules=("runtime/_seed_p3.py",),
                parent=ProtocolSide("parent", classes=("SeedBatchingRuntime",)),
                worker=ProtocolSide("worker", classes=("SeedPerJobWorker",)),
            ),
        ),
    ),
    SeededCase(
        name="lock-leak-bare-acquire",
        rule="lock-leak",
        relpath="runtime/_seed_l1.py",
        source="""
            import threading

            LOCK = threading.Lock()

            def unsafe_update(value: int) -> None:
                LOCK.acquire()
                if value < 0:
                    raise ValueError(value)
                LOCK.release()
        """,
        line=7,
        expect="`LOCK.acquire()` in unsafe_update has no `LOCK.release()` in a finally",
    ),
    SeededCase(
        name="lock-leak-straightline-close",
        rule="lock-leak",
        relpath="runtime/_seed_l2.py",
        source="""
            from repro.comm.core import Address, connect

            def probe(addr: Address) -> None:
                c = connect(addr)
                c.send(("ping",))
                c.recv()
                c.close()
        """,
        line=5,
        expect="closed (if at all) only on the straight-line path",
    ),
    SeededCase(
        name="record-field-outside-lock",
        rule="lock-discipline",
        relpath="core/ft.py",
        source="""
            def f(rec, runtime):
                runtime.charge(1.0)
                rec.join -= 1
        """,
        line=4,
        expect="`rec.join` accessed outside `with rec.lock`",
    ),
    SeededCase(
        name="thread-outside-runtime",
        rule="raw-threading",
        relpath="apps/_seed_thread.py",
        source="""
            import threading
            t = threading.Thread(target=print)
        """,
        line=3,
        expect="`threading.Thread` outside runtime/ and comm/",
    ),
    SeededCase(
        name="multiprocessing-outside-runtime",
        rule="raw-multiprocessing",
        relpath="core/_seed_mp.py",
        source="import multiprocessing\n",
        line=1,
        expect="`import multiprocessing` outside runtime/",
    ),
    SeededCase(
        name="multiprocessing-in-comm",
        rule="raw-multiprocessing",
        relpath="comm/_seed_mp.py",
        source="import multiprocessing\n",
        line=1,
        expect="`import multiprocessing` outside runtime/",
    ),
    SeededCase(
        name="futures-from-import",
        rule="raw-multiprocessing",
        relpath="apps/_seed_futures.py",
        source="from concurrent import futures\n",
        line=1,
        expect="`from concurrent import futures` outside runtime/",
    ),
    SeededCase(
        name="socket-outside-comm",
        rule="raw-socket",
        relpath="core/_seed_socket.py",
        source="import socket\n",
        line=1,
        expect="`import socket` outside comm/",
    ),
    SeededCase(
        name="unguarded-emit",
        rule="emit-guard",
        relpath="core/_seed_emit.py",
        source="""
            def f(self, key, life):
                self.log.emit(EventKind.NOTIFY, key, life)
        """,
        line=3,
        expect="`.emit()` not guarded by a cached `_obs`/`_mx` flag",
    ),
    SeededCase(
        name="unguarded-put",
        rule="emit-guard",
        relpath="core/_seed_put.py",
        source="""
            def f(self, key, life):
                self.log.rec.put((next(self._seq), self._now(), self._wid(), _NOTIFY, key, life, None))
        """,
        line=3,
        expect="`.rec.put()` not guarded by a cached `_obs`/`_mx` flag",
    ),
    SeededCase(
        name="unguarded-stamp",
        rule="emit-guard",
        relpath="core/_seed_stamp.py",
        source="""
            def f(self, A):
                if self._obs:
                    A.end_at = (next(self._seq), self._now(), self._wid())
                A.begin_at = (next(self._seq), self._now(), self._wid())
                A.created_at = A.srcs = None
        """,
        line=5,
        expect="task-record stamp `.begin_at =` not guarded by a cached `_obs` flag",
        spares="`.end_at =`",
    ),
    SeededCase(
        name="eventkind-never-emitted",
        rule="eventkind-coverage",
        relpath="obs/events.py",
        source="""
            class EventKind(str, Enum):
                PHANTOM = 'phantom'
        """,
        line=0,
        expect="EventKind.PHANTOM is never emitted",
    ),
    SeededCase(
        name="eventkind-emitted-by-put",
        rule="eventkind-coverage",
        relpath="obs/events.py",
        source="""
            class EventKind(str, Enum):
                PHANTOM = 'phantom'
                WRITTEN = 'written'

            _WRITTEN = EventKind.WRITTEN

            def record(log, seq, now, worker):
                if log is not None:
                    log.rec.put((next(seq), now(), worker(), _WRITTEN, None, 0, None))
        """,
        line=0,
        expect="EventKind.PHANTOM is never emitted",
        spares="EventKind.WRITTEN",
    ),
    SeededCase(
        name="event-field-written",
        rule="event-immutable",
        relpath="obs/_seed_event.py",
        source="""
            def f(events):
                events[0].life += 1
        """,
        line=3,
        expect="`events[0].life` is written",
    ),
    SeededCase(
        name="pragma-in-string-literal",
        rule="raw-socket",
        relpath="apps/_seed_pragma.py",
        source='import socket; _ = "# verify: ok=raw-socket"\n',
        line=1,
        expect="`import socket` outside comm/",
    ),
    SeededCase(
        name="waiver-suppressing-nothing",
        rule="stale-waiver",
        relpath="apps/_seed_stale.py",
        source="""
            import threading
            LOCK = threading.Lock()  # verify: ok=raw-threading (Lock is allowed)
        """,
        line=3,
        expect="waiver for raw-threading suppresses no finding",
    ),
    SeededCase(
        name="waiver-naming-no-rule",
        rule="stale-waiver",
        relpath="apps/_seed_unknown.py",
        source="x = 1  # verify: ok=no-such-rule\n",
        line=1,
        expect="waiver names no registered rule 'no-such-rule'",
    ),
)


def analyze_case(case: SeededCase, base: Sequence[Module]) -> list[Finding]:
    """Every rule's findings in ``case``'s fixture, analyzed with the
    ``base`` package and in place of the module at its relpath."""
    rules = STATIC_RULES
    if case.extra_protocols:
        rules = tuple(
            ProtocolExhaustiveRule(PROTOCOLS + case.extra_protocols)
            if isinstance(r, ProtocolExhaustiveRule)
            else r
            for r in STATIC_RULES
        )
    modules = [m for m in base if m.relpath != case.relpath] + [case.module()]
    return [f for f in run_static(modules=modules, rules=rules) if f.path == case.relpath]
