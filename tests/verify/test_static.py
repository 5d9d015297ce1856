"""Tests for the whole-program static analyzer (repro.verify.static).

Three layers: the seeded-violation suite must convict every planted bug
(the analyzer's reason to be believed), benign shapes must stay clean
(the analyzer's reason to be usable), and the real package at HEAD must
pass -- the same gate CI holds every PR to.
"""

import functools

import pytest

from repro.verify.report import Module, load_modules
from repro.verify.static import RULE_NAMES, STATIC_RULES, run_static
from repro.verify.static.seeded import SEEDED, analyze_case


@functools.cache
def package_modules() -> tuple[Module, ...]:
    return tuple(load_modules())


def analyze(*sources: tuple[str, str], rules=STATIC_RULES):
    """Analyze synthetic modules together with the real package (so
    repro imports resolve) and return only the synthetic findings."""
    fixtures = [Module.from_source(src, rel) for rel, src in sources]
    paths = {m.relpath for m in fixtures}
    findings = run_static(modules=[*package_modules(), *fixtures], rules=rules)
    return [f for f in findings if f.path in paths]


# ---------------------------------------------------------------------------
# self-conviction: every rule catches the bug it exists for


def _shareable(case) -> bool:
    """A fixture that replaces no real module and registers no protocol
    leaves the package model as every other such fixture sees it, so all
    of them can be analyzed in one build."""
    return case.relpath not in {m.relpath for m in package_modules()} and not case.extra_protocols


@pytest.fixture(scope="session")
def shared_findings():
    """The findings of every shareable fixture, from one whole-package build."""
    cases = [c for c in SEEDED if _shareable(c)]
    assert len({c.relpath for c in cases}) == len(cases), "fixtures sharing a build share a path"
    return run_static(modules=[*package_modules(), *(c.module() for c in cases)])


class TestSeededViolations:
    @pytest.mark.parametrize("case", SEEDED, ids=[c.name for c in SEEDED])
    def test_case_is_convicted(self, case, request):
        if _shareable(case):
            shared = request.getfixturevalue("shared_findings")
            findings = [f for f in shared if f.path == case.relpath]
        else:
            findings = analyze_case(case, package_modules())
        assert any(case.convicts(f) for f in findings), (
            f"{case.name}: no [{case.rule}] finding at line {case.line} matching "
            f"{case.expect!r}; got {[str(f) for f in findings]}"
        )
        assert not case.wrongly_convicted(findings)

    def test_every_rule_has_at_least_one_seeded_case(self):
        # Every registered name: each rule, each confinement row, and the
        # waiver pass's stale-waiver.
        assert {"raw-threading", "raw-multiprocessing", "raw-socket", "stale-waiver"} <= set(
            RULE_NAMES
        )
        assert set(RULE_NAMES) <= {c.rule for c in SEEDED}


# ---------------------------------------------------------------------------
# witness chains


class TestWitnessChains:
    def test_interprocedural_deadlock_witness_names_the_call_chain(self):
        src = """
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
"""
        found = analyze(("runtime/_w1.py", src))
        cycles = [f for f in found if f.rule == "deadlock-cycle"]
        assert len(cycles) == 2  # both directions of the 2-cycle
        msgs = " | ".join(f.message for f in cycles)
        assert "T.take_y" in msgs and "T.take_x" in msgs
        assert "reverse path" in msgs

    def test_transitive_blocking_witness_reaches_the_primitive(self):
        src = """
import threading

from repro.comm.core import Comm

class F:
    def __init__(self) -> None:
        self._lock = threading.Lock()

    def inner(self, comm: Comm) -> object:
        return comm.recv()

    def outer(self, comm: Comm) -> object:
        with self._lock:
            return self.inner(comm)
"""
        found = analyze(("runtime/_w2.py", src))
        hits = [f for f in found if f.rule == "blocking-under-lock"]
        assert hits and ".recv()" in hits[0].message
        assert "F.inner" in hits[0].message  # the chain names the hop


# ---------------------------------------------------------------------------
# benign shapes stay clean


class TestNegatives:
    def test_consistent_lock_order_is_clean(self):
        src = """
import threading

class S:
    def __init__(self) -> None:
        self._a = threading.Lock()
        self._b = threading.Lock()

    def one(self) -> None:
        with self._a:
            with self._b:
                pass

    def two(self) -> None:
        with self._a:
            with self._b:
                pass
"""
        assert analyze(("runtime/_n1.py", src)) == []

    def test_striped_lock_self_edge_is_not_a_deadlock(self):
        src = """
import threading

class Sharded:
    def __init__(self) -> None:
        self._locks = tuple(threading.Lock() for _ in range(8))

    def move(self, a: int, b: int) -> None:
        with self._locks[a]:
            with self._locks[b]:
                pass
"""
        assert analyze(("memory/_n2.py", src)) == []

    def test_blocking_outside_lock_is_clean(self):
        src = """
import threading
import time

class P:
    def __init__(self) -> None:
        self._lock = threading.Lock()

    def run(self) -> None:
        with self._lock:
            x = 1
        time.sleep(0.01)
"""
        assert analyze(("runtime/_n3.py", src)) == []

    def test_str_join_and_dict_get_are_not_blocking(self):
        src = """
import threading

class Fmt:
    def __init__(self) -> None:
        self._lock = threading.Lock()

    def render(self, parts: list, table: dict) -> str:
        with self._lock:
            return ", ".join(parts) + str(table.get("k"))
"""
        assert analyze(("obs/_n4.py", src)) == []

    def test_open_closed_in_finally_is_clean(self):
        src = """
from repro.comm.tcp import Address, connect

def probe(addr: Address) -> None:
    c = connect(addr)
    try:
        c.send(("ping",))
    finally:
        c.close()
"""
        assert analyze(("comm/_n5.py", src)) == []

    def test_escaping_open_is_the_callers_problem(self):
        src = """
from repro.comm.tcp import Address, connect

def dial(addr: Address):
    c = connect(addr)
    return c
"""
        assert analyze(("comm/_n6.py", src)) == []

    def test_exceptions_and_blockref_are_wire_safe(self):
        src = """
from repro.comm.core import Comm
from repro.exceptions import WorkerCrashError
from repro.graph.taskspec import BlockRef

def ship(comm: Comm, key: str) -> None:
    comm.send(("raise", WorkerCrashError(key)))
    comm.send(("ref", BlockRef("b", 0)))
    comm.send(("data", {"k": [1, 2.0, b"x", None]}))
"""
        assert analyze(("runtime/_n7.py", src)) == []

    def test_with_acquire_needs_no_finally(self):
        src = """
import threading

LOCK = threading.Lock()

def update(value: int) -> None:
    with LOCK:
        if value < 0:
            raise ValueError(value)
"""
        assert analyze(("runtime/_n8.py", src)) == []


# ---------------------------------------------------------------------------
# waivers and determinism


class TestWaivers:
    def test_pragma_silences_exactly_that_rule_on_that_line(self):
        src = """
import threading
import time

class P:
    def __init__(self) -> None:
        self._lock = threading.Lock()

    def nap(self) -> None:
        with self._lock:
            time.sleep(0.01)  # verify: ok=blocking-under-lock (test fixture)
"""
        assert analyze(("runtime/_wv1.py", src)) == []

    def test_wrong_rule_pragma_does_not_silence(self):
        src = """
import threading
import time

class P:
    def __init__(self) -> None:
        self._lock = threading.Lock()

    def nap(self) -> None:
        with self._lock:
            time.sleep(0.01)  # verify: ok=wire-safety (wrong rule)
"""
        found = analyze(("runtime/_wv2.py", src))
        # ...and the misdirected waiver is itself reported.
        assert [f.rule for f in found] == ["blocking-under-lock", "stale-waiver"]


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self):
        mods = list(package_modules())
        a = [str(f) for f in run_static(modules=mods)]
        b = [str(f) for f in run_static(modules=list(reversed(mods)))]
        assert a == b


# ---------------------------------------------------------------------------
# the real package


class TestRealPackage:
    def test_head_is_clean(self):
        findings = run_static()
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_rule_names_are_unique_and_kebab(self):
        names = list(RULE_NAMES)
        assert len(names) == len(set(names))
        for n in names:
            assert n == n.lower() and " " not in n
