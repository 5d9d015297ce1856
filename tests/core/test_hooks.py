"""CompositeHooks: fan-out order and log/trace sharing semantics."""

from repro.core.hooks import CompositeHooks


class Recorder:
    def __init__(self, name, calls, trace=None, event_log=None):
        self.name = name
        self.calls = calls
        self.trace = trace
        self.event_log = event_log

    def on_task_waiting(self, record):
        self.calls.append((self.name, "waiting", record))

    def on_after_compute(self, record):
        self.calls.append((self.name, "compute", record))

    def on_after_notify(self, record):
        self.calls.append((self.name, "notify", record))


class Slotless:
    """A hook with no ``trace`` or ``event_log`` slot."""

    def on_task_waiting(self, record):
        return None

    def on_after_compute(self, record):
        return None

    def on_after_notify(self, record):
        return None


class TestFanOut:
    def test_children_called_in_order(self):
        calls = []
        hooks = CompositeHooks(Recorder("a", calls), Recorder("b", calls))
        hooks.on_task_waiting("r1")
        hooks.on_after_compute("r2")
        hooks.on_after_notify("r3")
        assert calls == [
            ("a", "waiting", "r1"), ("b", "waiting", "r1"),
            ("a", "compute", "r2"), ("b", "compute", "r2"),
            ("a", "notify", "r3"), ("b", "notify", "r3"),
        ]

    def test_none_children_dropped(self):
        calls = []
        hooks = CompositeHooks(None, Recorder("a", calls), None)
        hooks.on_after_compute("r")
        assert calls == [("a", "compute", "r")]

    def test_hookless_children_tolerated(self):
        hooks = CompositeHooks(Slotless())
        hooks.on_task_waiting("r")
        assert hooks.trace is None is hooks.event_log


class TestSharing:
    """Regression: the scheduler must share its trace/log whenever ANY
    child slot is unwired, and the setter must not clobber wired ones."""

    def test_getter_none_while_any_child_unwired(self):
        calls = []
        wired = Recorder("a", calls, trace="t1")
        unwired = Recorder("b", calls)
        assert CompositeHooks(wired, unwired).trace is None
        assert CompositeHooks(wired).trace == "t1"

    def test_setter_fills_only_unwired_children(self):
        calls = []
        wired = Recorder("a", calls, trace="t1", event_log="l1")
        unwired = Recorder("b", calls)
        hooks = CompositeHooks(wired, unwired)
        hooks.trace = "t2"
        hooks.event_log = "l2"
        assert wired.trace == "t1" and unwired.trace == "t2"
        assert wired.event_log == "l1" and unwired.event_log == "l2"
        assert hooks.trace == "t1"  # first wired child wins once all wired

    def test_scheduler_shares_with_composite(self):
        # The end-to-end contract: both children observe the scheduler's
        # own trace and event log (replay parity depends on this).
        from repro.apps import make_app
        from repro.core import FTScheduler
        from repro.obs.events import EventLog
        from repro.runtime import InlineRuntime

        calls = []
        a, b = Recorder("a", calls), Recorder("b", calls)
        app = make_app("lcs", scale="tiny")
        store = app.make_store(True)
        app.seed_store(store)
        sched = FTScheduler(app, InlineRuntime(), store=store,
                            hooks=CompositeHooks(a, b), event_log=EventLog())
        sched.run()
        assert a.trace is b.trace is sched.trace
        assert a.event_log is b.event_log is sched.log

    def test_a_hookless_scheduler_holds_none(self):
        from repro.core import FTScheduler
        from repro.graph.builders import chain_graph
        from repro.runtime import InlineRuntime

        sched = FTScheduler(chain_graph(3), InlineRuntime())
        assert sched.hooks is None and not sched._hooked
        sched.run()
