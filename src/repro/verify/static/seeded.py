"""Seeded violations: the analyzer's self-conviction suite.

Each :class:`SeededCase` is a small synthetic module carrying exactly the
bug one rule exists to catch.  ``run_selftest`` analyzes each fixture
(together with the real package, so imports/types resolve) and demands
the expected rule convicts it at the expected line -- proof that a clean
HEAD means the rules *looked and found nothing*, not that they are
blind.  CI runs this next to the real scan; a rule change that silently
stops convicting its fixture fails the build.
"""

from __future__ import annotations

from dataclasses import dataclass
from textwrap import dedent

from repro.verify.report import Module
from repro.verify.static.wire import ProtocolSide, ProtocolSpec


@dataclass(frozen=True)
class SeededCase:
    """One synthetic module with one planted violation."""

    name: str
    rule: str
    relpath: str  # where the fixture pretends to live (drives prefixes)
    source: str
    #: substring that must appear in the conviction message
    expect: str
    #: protocol specs to register for this fixture (protocol rule only)
    extra_protocols: tuple[ProtocolSpec, ...] = ()

    def module(self) -> Module:
        return Module.from_source(dedent(self.source), self.relpath)


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
        expect="sleep() in Pumper.nap while holding Pumper._lock",
    ),
    SeededCase(
        name="blocking-transitive",
        rule="blocking-under-lock",
        relpath="runtime/_seed_bl2.py",
        source="""
            import threading

            from repro.comm.core import Comm

            class Fetcher:
                def __init__(self) -> None:
                    self._lock = threading.Lock()

                def _pump(self, comm: Comm) -> object:
                    return comm.recv()

                def fetch(self, comm: Comm) -> object:
                    with self._lock:
                        return self._pump(comm)
        """,
        expect="`self._pump(...)` can block while holding Fetcher._lock",
    ),
    SeededCase(
        name="wire-threading-object",
        rule="wire-safety",
        relpath="runtime/_seed_w1.py",
        source="""
            import threading

            from repro.comm.core import Comm

            def ship(comm: Comm) -> None:
                comm.send(("job", threading.Lock()))
        """,
        expect="threading.Lock() objects do not pickle",
    ),
    SeededCase(
        name="wire-local-class",
        rule="wire-safety",
        relpath="runtime/_seed_w2.py",
        source="""
            from repro.comm.core import Comm

            class NotWireSafe:
                def __init__(self) -> None:
                    self.fh = open("/dev/null")

            def ship(comm: Comm) -> None:
                comm.send(("result", NotWireSafe()))
        """,
        expect="constructs NotWireSafe, which is not in the wire set",
    ),
    SeededCase(
        name="wire-raw-buffer-plain-path",
        rule="wire-safety",
        relpath="runtime/_seed_w3.py",
        source="""
            from repro.comm import frame

            def ship(payload: bytearray) -> bytes:
                return frame.dumps(("data", memoryview(payload)))
        """,
        expect="ship raw buffers through the out-of-band API",
    ),
    SeededCase(
        name="protocol-unhandled-parent-tag",
        rule="protocol-exhaustive",
        relpath="runtime/_seed_p1.py",
        source="""
            from repro.comm.core import Comm

            class SeedClusterRuntime:
                def evict(self, comm: Comm, key: str) -> None:
                    comm.send(("evict", key))

                def ping(self, comm: Comm) -> None:
                    comm.send(("ping",))

            class SeedWorkerServer:
                def serve(self, comm: Comm) -> None:
                    while True:
                        msg = comm.recv()
                        tag = msg[0]
                        if tag == "ping":
                            comm.send(("pong",))
        """,
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
            from repro.comm.core import Comm

            class SeedClusterRuntime:
                def ask(self, comm: Comm) -> object:
                    comm.send(("ping",))
                    reply = comm.recv()
                    if reply[0] == "pong":
                        return reply
                    return None

            class SeedWorkerServer:
                def serve(self, comm: Comm) -> None:
                    msg = comm.recv()
                    tag = msg[0]
                    if tag == "ping":
                        comm.send(("pong",))
                    else:
                        comm.send(("weird", tag))
        """,
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
            from repro.comm.core import Comm

            class SeedBatchingRuntime:
                def ship(self, comm: Comm, msgs: list) -> None:
                    comm.send_oob(("jobs", msgs))

                def ping(self, comm: Comm) -> None:
                    comm.send(("ping",))

            class SeedPerJobWorker:
                def serve(self, comm: Comm) -> None:
                    while True:
                        msg = comm.recv()
                        tag = msg[0]
                        if tag == "ping":
                            comm.send(("pong",))
                        elif tag == "job":
                            comm.send(("done", msg[1]))
        """,
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
        expect="`LOCK.acquire()` in unsafe_update has no `LOCK.release()` in a finally",
    ),
    SeededCase(
        name="lock-leak-straightline-close",
        rule="lock-leak",
        relpath="runtime/_seed_l2.py",
        source="""
            from repro.comm.tcp import Address, connect

            def probe(addr: Address) -> None:
                c = connect(addr)
                c.send(("ping",))
                c.recv()
                c.close()
        """,
        expect="closed (if at all) only on the straight-line path",
    ),
)


def run_selftest(verbose: bool = False) -> list[str]:
    """Run every seeded case; return a list of failure descriptions
    (empty means every rule convicted its planted bug)."""
    from repro.verify.report import load_modules
    from repro.verify.static import STATIC_RULES, run_static
    from repro.verify.static.wire import PROTOCOLS, ProtocolExhaustiveRule

    base = load_modules()
    failures: list[str] = []
    for case in SEEDED:
        fixture = case.module()
        rules = STATIC_RULES
        if case.extra_protocols:
            rules = tuple(
                ProtocolExhaustiveRule(PROTOCOLS + case.extra_protocols)
                if isinstance(r, ProtocolExhaustiveRule)
                else r
                for r in STATIC_RULES
            )
        findings = run_static(modules=[*base, fixture], rules=rules)
        hits = [
            f
            for f in findings
            if f.path == case.relpath and f.rule == case.rule and case.expect in f.message
        ]
        if not hits:
            near = [f for f in findings if f.path == case.relpath]
            failures.append(
                f"{case.name}: expected [{case.rule}] containing {case.expect!r}; "
                f"got {[str(f) for f in near] or 'no findings in fixture'}"
            )
        elif verbose:
            print(f"  convicted {case.name}: {hits[0]}")
    return failures
