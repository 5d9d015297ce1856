"""End-to-end silent-fault runs: detection on -> recovered correct result;
detection off -> the fault escapes and the result is wrong (ISSUE satellite)."""

import pytest

from repro.apps import make_app
from repro.core import CompositeHooks, FTScheduler
from repro.detect import plan_sink_fault
from repro.detect.checksum import ChecksumStore
from repro.detect.replicate import ReplicationDetector
from repro.detect.report import account_escapes
from repro.detect.silent import SilentFaultInjector, plan_silent_faults
from repro.memory.allocator import KeepK
from repro.memory.blockstore import BlockStore
from repro.obs.events import EventKind, EventLog
from repro.runtime.tracing import assert_consistent
from repro.runtime import InlineRuntime, SimulatedRuntime, ThreadedRuntime
from repro.runtime.tracing import ExecutionTrace

APPS = ("lcs", "cholesky")
RUNTIMES = ("inline", "simulated", "threaded")


def make_runtime(name):
    if name == "inline":
        return InlineRuntime()
    if name == "simulated":
        return SimulatedRuntime(workers=4, seed=7)
    return ThreadedRuntime(workers=4, seed=7)


def silent_run(app, store, detector, plan):
    trace = ExecutionTrace()
    log = EventLog()
    injector = SilentFaultInjector(plan, app, store, trace=trace)
    hooks = CompositeHooks(injector, detector) if detector else injector
    FTScheduler(
        app, make_runtime(silent_run.runtime), store=store,
        hooks=hooks, trace=trace, event_log=log,
    ).run()
    report = account_escapes(injector, log, trace)
    assert_consistent(log, trace)
    return report, trace, log


@pytest.fixture(params=RUNTIMES, autouse=True)
def _runtime(request):
    silent_run.runtime = request.param


@pytest.mark.parametrize("app_name", APPS)
class TestChecksumEndToEnd:
    def test_detects_recovers_and_result_matches(self, app_name):
        app = make_app(app_name, scale="tiny")
        store = ChecksumStore(app.ft_policy)
        app.seed_store(store)
        plan = plan_silent_faults(app, count=2, seed=13)
        report, trace, log = silent_run(app, store, detector=None, plan=plan)
        app.verify(store)  # recovered result equals the fault-free reference
        assert report.injected == 2
        assert report.detected == 2
        assert report.escaped == 0
        assert trace.total_recoveries >= 1
        assert len(log.by_kind(EventKind.SDC_DETECTED)) >= 2


@pytest.mark.parametrize("app_name", APPS)
class TestReplicationEndToEnd:
    def test_detects_recovers_and_result_matches(self, app_name):
        app = make_app(app_name, scale="tiny")
        # Widen single-buffer reuse so replicas can re-read inputs.
        policy = app.ft_policy if (app.ft_policy.keep or 2) >= 2 else KeepK(2)
        store = BlockStore(policy)
        app.seed_store(store)
        detector = ReplicationDetector(app, store)
        plan = plan_silent_faults(app, count=2, seed=13)
        report, trace, log = silent_run(app, store, detector, plan)
        app.verify(store)
        assert report.detected == report.injected == 2
        assert report.escaped == 0
        assert trace.replica_runs > 0


@pytest.mark.parametrize("app_name", APPS)
class TestDetectionOff:
    def test_sink_fault_escapes_and_result_is_wrong(self, app_name):
        if silent_run.runtime != "inline":
            pytest.skip("one escape demonstration per app is enough")
        app = make_app(app_name, scale="tiny")
        store = BlockStore(app.ft_policy)
        app.seed_store(store)
        report, trace, log = silent_run(
            app, store, detector=None, plan=plan_sink_fault(app))
        assert report.escaped > 0
        assert len(log.by_kind(EventKind.SDC_ESCAPED)) == report.escaped
        assert trace.sdc_detected == 0
        with pytest.raises(AssertionError):
            app.verify(store)
