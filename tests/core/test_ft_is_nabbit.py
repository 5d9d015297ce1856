"""``FTScheduler`` is ``NabbitScheduler`` plus the paper's shaded lines.

Section V proves the FT bounds reduce to NABBIT's when every N(A)=1; here
that is checked on the event stream of fault-free runs, and the class
shape that makes it true by construction is pinned: FT defines only the
routines its module docstring names and none of the shared scaffold.
"""

import inspect
import re

import pytest

import repro.core.ft as ft_module
from repro.apps import AppConfig, make_app
from repro.core import FTScheduler, NabbitScheduler
from repro.graph.builders import grid_graph
from repro.memory.blockstore import BlockStore
from repro.obs.events import EventLog
from repro.obs.live import MetricsRegistry
from repro.obs.top import register_run_metrics
from repro.runtime import InlineRuntime, SimulatedRuntime
from repro.runtime.tracing import ExecutionTrace

SPECS = {
    "grid": lambda: grid_graph(12, 12),
    "lu": lambda: make_app("lu", config=AppConfig(n=96, block=16, seed=7)),
    "cholesky": lambda: make_app("cholesky", config=AppConfig(n=96, block=16, seed=7)),
}


def _sim4():
    return SimulatedRuntime(workers=4, seed=3)


def _run(scheduler, spec, runtime):
    """(events without timestamps, trace summary) of one fault-free run."""
    log, trace = EventLog(), ExecutionTrace()
    ft = scheduler is FTScheduler
    store = spec.make_store(ft) if hasattr(spec, "make_store") else BlockStore()
    scheduler(spec, runtime, store=store, trace=trace, event_log=log).run()
    return [(e.kind, e.key, e.life, e.data) for e in log.events], trace.summary()


class TestReductionToNabbit:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_fault_free_event_streams_are_identical(self, name):
        ft_events, ft_summary = _run(FTScheduler, SPECS[name](), InlineRuntime())
        nb_events, nb_summary = _run(NabbitScheduler, SPECS[name](), InlineRuntime())
        assert len(ft_events) > 0
        assert ft_events == nb_events
        assert ft_summary == nb_summary

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_simulated_runs_agree_on_every_counter(self, name):
        """FT's extra charges reorder virtual time, so the streams differ
        in order there; what was done does not."""
        ft_events, ft_summary = _run(FTScheduler, SPECS[name](), _sim4())
        nb_events, nb_summary = _run(NabbitScheduler, SPECS[name](), _sim4())
        assert ft_summary == nb_summary
        assert sorted(map(repr, ft_events)) == sorted(map(repr, nb_events))


class TestShape:
    SHARED = ("run", "_compute", "_publish")

    def test_ft_subclasses_the_baseline(self):
        assert issubclass(FTScheduler, NabbitScheduler)

    def test_ft_defines_none_of_the_shared_scaffold(self):
        for name in self.SHARED:
            assert name in vars(NabbitScheduler)
            assert name not in vars(FTScheduler), f"FTScheduler re-defines {name}"

    def test_every_ft_method_is_a_named_delta(self):
        named = set(re.findall(r":meth:`FTScheduler\.(\w+)`", ft_module.__doc__))
        named.add("__init__")
        defined = {n for n, v in vars(FTScheduler).items() if inspect.isfunction(v)}
        assert defined <= named, f"not in ft.py's paper->method table: {defined - named}"
        assert named <= defined, f"table names methods FT lacks: {named - defined}"

    def test_constructor_signatures_keep_their_positional_order(self):
        base = list(inspect.signature(NabbitScheduler).parameters)
        assert base == ["spec", "runtime", "store", "cost_model", "hooks", "trace", "event_log"]
        assert list(inspect.signature(FTScheduler).parameters) == base


@pytest.mark.parametrize("scheduler", [FTScheduler, NabbitScheduler], ids=["ft", "nabbit"])
def test_a_reused_registry_reads_the_latest_run(scheduler):
    reg = MetricsRegistry()
    for side in (4, 6):
        store = BlockStore()
        sched = scheduler(grid_graph(side, side), InlineRuntime(), store=store)
        register_run_metrics(reg, sched)
        sched.run()
        assert reg.value("repro_trace_total_computes") == side * side
        assert reg.value("repro_store_writes") == store.stats.writes == side * side
