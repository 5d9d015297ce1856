"""Each per-module rule of the static analyzer fires on a seeded
violation and stays quiet otherwise; the shipped package itself must be
clean."""

from repro.verify.report import Module
from repro.verify.static import STATIC_RULES, run_static
from repro.verify.static.lint import Confinement, ConfinementRule


def lint_source(source, relpath, rule_name):
    """Findings named ``rule_name`` when only the rule carrying that name
    analyzes ``source`` at ``relpath``."""
    rules = [r for r in STATIC_RULES if rule_name in r.names]
    assert rules, f"no such rule {rule_name}"
    modules = [Module.from_source(source, relpath)]
    return [f for f in run_static(rules=rules, modules=modules) if f.rule == rule_name]


class TestSeededViolations:
    def test_lock_discipline_fires_in_scheduler_module(self):
        src = (
            "def f(rec, runtime):\n"
            "    runtime.charge(1.0)\n"
            "    rec.join -= 1\n"
        )
        findings = lint_source(src, "core/ft.py", "lock-discipline")
        assert findings
        assert findings[0].line == 3

    def test_lock_discipline_ignores_non_scheduler_modules(self):
        src = "def f(rec):\n    rec.join -= 1\n"
        assert not lint_source(src, "apps/seeded.py", "lock-discipline")

    def test_charge_discipline_fires(self):
        src = "def f(rec):\n    with rec.lock:\n        pass\n"
        assert lint_source(src, "core/seeded.py", "charge-discipline")

    def test_raw_threading_fires(self):
        src = "import threading\nt = threading.Thread(target=print)\n"
        assert lint_source(src, "apps/seeded.py", "raw-threading")

    def test_emit_guard_fires_on_unguarded_emit(self):
        src = (
            "def f(self, key, life):\n"
            "    self.log.emit(EventKind.NOTIFY, key, life)\n"
        )
        findings = lint_source(src, "core/seeded.py", "emit-guard")
        assert findings
        assert findings[0].line == 2

    def test_emit_guard_accepts_obs_flag_guard(self):
        src = (
            "def f(self, key, life):\n"
            "    if self._obs:\n"
            "        self.log.emit(EventKind.NOTIFY, key, life)\n"
        )
        assert not lint_source(src, "core/seeded.py", "emit-guard")

    def test_emit_guard_accepts_null_log_identity_guard(self):
        src = (
            "def f(self, key, life):\n"
            "    if self.log is not NULL_LOG:\n"
            "        self.log.emit_at(EventKind.NOTIFY, 0.0, 0, key, life)\n"
        )
        assert not lint_source(src, "core/seeded.py", "emit-guard")

    def test_emit_guard_else_branch_is_not_guarded(self):
        src = (
            "def f(self, key, life):\n"
            "    if self._obs:\n"
            "        pass\n"
            "    else:\n"
            "        self.log.emit(EventKind.NOTIFY, key, life)\n"
        )
        assert lint_source(src, "core/seeded.py", "emit-guard")

    def test_emit_guard_ignores_modules_outside_core(self):
        src = "def f(log):\n    log.emit(EventKind.NOTIFY)\n"
        assert not lint_source(src, "obs/seeded.py", "emit-guard")

    def test_emit_guard_covers_hot_path_runtime_modules(self):
        src = "def f(log):\n    log.emit(EventKind.PARK)\n"
        assert lint_source(src, "runtime/threadpool.py", "emit-guard")
        assert lint_source(src, "runtime/procpool.py", "emit-guard")
        assert lint_source(src, "runtime/cluster.py", "emit-guard")
        # Other runtime modules (e.g. the simulator's virtual-time
        # emitter) are out of scope.
        assert not lint_source(src, "runtime/simulator.py", "emit-guard")

    def test_emit_guard_fires_on_unguarded_metric_publication(self):
        src = (
            "def f(self):\n"
            "    self._crash_counter.inc()\n"
            "    self._dispatch_hist.observe(0.001)\n"
        )
        findings = lint_source(src, "runtime/procpool.py", "emit-guard")
        assert [f.line for f in findings] == [2, 3]

    def test_emit_guard_accepts_mx_flag_guard(self):
        src = (
            "def f(self, dt):\n"
            "    mx = self._mx\n"
            "    if mx:\n"
            "        self._dispatch_hist.observe(dt)\n"
            "    if self._mx:\n"
            "        self._crash_counter.inc()\n"
        )
        assert not lint_source(src, "runtime/procpool.py", "emit-guard")

    def test_emit_guard_ignores_gauge_set(self):
        # .set() is not audited: gauges are registered cold, and the name
        # collides with threading.Event.set.
        src = "def f(self):\n    self.gauge.set(1)\n    self._stop.set()\n"
        assert not lint_source(src, "runtime/threadpool.py", "emit-guard")

    def test_event_immutable_fires_on_field_and_data_writes(self):
        src = (
            "def f(events, e):\n"
            "    e.kind = None\n"
            "    events[0].life += 1\n"
            "    del e.key\n"
            "    e.data['wall'] = 0.0\n"
            "    e.data.update(wall=0.0)\n"
        )
        for path in ("obs/seeded.py", "verify/seeded.py", "harness/seeded.py"):
            findings = lint_source(src, path, "event-immutable")
            assert [f.line for f in findings] == [2, 3, 4, 5, 6]

    def test_event_immutable_allows_reads_own_fields_and_other_layers(self):
        src = (
            "class Span:\n"
            "    def __init__(self, e, cache):\n"
            "        self.key = e.key\n"
            "        self.data = dict(e.data)\n"
            "        self.data['life'] = e.life\n"
            "        cache[e.key] = e.data.get('wall')\n"
        )
        assert not lint_source(src, "obs/seeded.py", "event-immutable")
        # Other layers have their own `.data` (block entries) and the
        # log itself builds events.
        assert not lint_source("def f(x):\n    x.data = 1\n", "memory/seeded.py", "event-immutable")
        assert not lint_source("def f(x):\n    x.data = 1\n", "obs/events.py", "event-immutable")

    def test_raw_multiprocessing_fires_outside_runtime(self):
        src = "import multiprocessing\np = multiprocessing.Pool()\n"
        assert lint_source(src, "apps/seeded.py", "raw-multiprocessing")

    def test_raw_multiprocessing_fires_on_from_import(self):
        src = "from multiprocessing import Process\n"
        assert lint_source(src, "core/seeded.py", "raw-multiprocessing")

    def test_raw_multiprocessing_fires_on_concurrent_futures(self):
        src = "from concurrent.futures import ProcessPoolExecutor\n"
        assert lint_source(src, "obs/seeded.py", "raw-multiprocessing")

    def test_raw_multiprocessing_fires_on_from_concurrent_import(self):
        # Judged by the full dotted name: `from concurrent import futures`
        # is `concurrent.futures`, not a module called `concurrent`.
        findings = lint_source("from concurrent import futures\n", "apps/seeded.py",
                               "raw-multiprocessing")
        assert [f.line for f in findings] == [1]

    def test_raw_multiprocessing_allows_shared_memory_everywhere(self):
        for src in (
            "from multiprocessing import shared_memory\n",
            "from multiprocessing.shared_memory import SharedMemory\n",
            "import multiprocessing.shared_memory\n",
        ):
            assert not lint_source(src, "memory/seeded.py", "raw-multiprocessing")

    def test_raw_multiprocessing_allows_runtime_modules(self):
        src = "from multiprocessing import Pipe, Process\n"
        assert not lint_source(src, "runtime/seeded.py", "raw-multiprocessing")

    def test_raw_multiprocessing_fires_in_comm_modules(self):
        # comm/ moves bytes over sockets, never multiprocessing's wire.
        src = "import multiprocessing\n"
        assert lint_source(src, "comm/seeded.py", "raw-multiprocessing")

    def test_raw_threading_allows_comm_modules(self):
        src = "import threading\nt = threading.Thread(target=print)\n"
        assert not lint_source(src, "comm/seeded.py", "raw-threading")

    def test_raw_socket_fires_outside_comm(self):
        for src in (
            "import socket\n",
            "import select\n",
            "import selectors\n",
            "from socket import create_connection\n",
            "import socket as sk\n",
        ):
            findings = lint_source(src, "runtime/seeded.py", "raw-socket")
            assert findings, src
            assert findings[0].line == 1

    def test_raw_socket_allows_comm_modules(self):
        src = "import socket\nimport select\nimport selectors\n"
        assert not lint_source(src, "comm/seeded.py", "raw-socket")

    def test_raw_socket_ignores_lookalike_modules(self):
        # Only the primitive modules are banned, not names that merely
        # start with them (socketserver is an HTTP-layer building block).
        src = "import socketserver\n"
        assert not lint_source(src, "obs/seeded.py", "raw-socket")

    def test_raw_socket_respects_waiver(self):
        src = "import socket  # verify: ok=raw-socket (seeded test fixture)\n"
        assert not lint_source(src, "apps/seeded.py", "raw-socket")

    def test_eventkind_coverage_fires_on_unrouted_member(self):
        src = "class EventKind(str, Enum):\n    PHANTOM = 'phantom'\n"
        (f,) = lint_source(src, "obs/events.py", "eventkind-coverage")
        assert "EventKind.PHANTOM is never emitted" in f.message


class TestConfinementTable:
    def test_prefix_is_never_split_into_characters(self):
        # A home written as a bare string is one layer prefix, not a set
        # of one-character prefixes.
        row = Confinement("raw-socket", banned=("socket",), home="comm/")
        assert row.at_home("comm/tcp.py")
        for relpath in ("core/seeded.py", "obs/seeded.py", "memory/seeded.py"):
            assert not row.at_home(relpath)
        for row in ConfinementRule.TABLE:
            assert all(isinstance(h, str) and h.endswith("/") for h in row.home)
        for relpath in ("core/seeded.py", "obs/seeded.py", "memory/seeded.py"):
            assert lint_source("import socket\n", relpath, "raw-socket")


class TestWaivers:
    def test_pragma_waives_exactly_its_rule(self):
        src = (
            "def f(rec, runtime):\n"
            "    runtime.charge(1.0)\n"
            "    rec.join -= 1  # verify: ok=lock-discipline (test waiver)\n"
        )
        assert not lint_source(src, "core/ft.py", "lock-discipline")

    def test_pragma_in_string_literal_does_not_waive(self):
        src = 'import socket; _ = "# verify: ok=raw-socket"\n'
        assert lint_source(src, "apps/seeded.py", "raw-socket")

    def test_waiver_suppressing_nothing_is_stale(self):
        src = "import threading\nLOCK = threading.Lock()  # verify: ok=raw-threading\n"
        mod = Module.from_source(src, "apps/seeded.py")
        (f,) = run_static(rules=[ConfinementRule()], modules=[mod])
        assert (f.rule, f.line) == ("stale-waiver", 2)
        assert "waiver for raw-threading suppresses no finding" in f.message
        # The waiver is judged only when its rule ran.
        assert run_static(rules=[], modules=[mod]) == []

    def test_pragma_for_other_rule_does_not_waive(self):
        src = (
            "def f(rec, runtime):\n"
            "    runtime.charge(1.0)\n"
            "    rec.join -= 1  # verify: ok=raw-threading\n"
        )
        assert lint_source(src, "core/ft.py", "lock-discipline")


class TestRealPackage:
    def test_package_is_clean(self):
        findings = run_static()
        assert not findings, "\n".join(str(f) for f in findings)

    def test_finding_str_is_greppable(self):
        src = "def f(rec):\n    with rec.lock:\n        pass\n"
        (f,) = lint_source(src, "core/seeded.py", "charge-discipline")
        assert "core/seeded.py" in str(f)
        assert "charge-discipline" in str(f)
