"""`TaskPlan` / `PlanTable`: a spec's static per-task facts, derived once
and kept outside the spec's pickled state."""

import pickle
import sys
import threading

import pytest

from repro.apps import AppConfig, make_app
from repro.core import FTScheduler, NabbitScheduler
from repro.graph.builders import diamond_graph, grid_graph
from repro.graph.plan import PlanTable, TaskPlan, plans_of
from repro.graph.taskspec import BlockRef, CallableSpec, TaskSpecBase
from repro.runtime import InlineRuntime


class _RawTupleSpec(TaskSpecBase):
    """b <- (a, a, c): a duplicated predecessor, raw-tuple footprint."""

    def sink_key(self):
        return "b"

    def predecessors(self, key):
        return ["a", "a", "c"] if key == "b" else []

    def successors(self, key):
        return [] if key == "b" else ["b"]

    def inputs(self, key):
        return [(p, 0) for p in self.predecessors(key)]

    def outputs(self, key):
        return [(key, 0)]


class TestTaskPlan:
    def test_masks_follow_predecessor_order(self):
        plan = TaskPlan(diamond_graph(width=3), "sink")
        assert plan.preds == (("mid", 0), ("mid", 1), ("mid", 2))
        assert plan.masks == (1, 2, 4)
        assert [plan.bit_of[p] for p in plan.preds] == [1, 2, 4]

    def test_self_slot_follows_the_predecessors(self):
        spec = diamond_graph(width=3)
        assert TaskPlan(spec, "sink").bit_of["sink"] == 1 << 3
        assert TaskPlan(spec, "src").bit_of["src"] == 1  # a source: only the self slot

    def test_duplicate_predecessor_keeps_its_first_bit(self):
        plan = TaskPlan(_RawTupleSpec(), "b")
        assert plan.preds == ("a", "a", "c")
        assert plan.masks == (1, 1, 4)
        assert plan.bit_of == {"a": 1, "c": 4, "b": 8}

    def test_raw_tuples_are_rewrapped(self):
        plan = TaskPlan(_RawTupleSpec(), "b")
        assert plan.inputs == (BlockRef("a", 0), BlockRef("a", 0), BlockRef("c", 0))
        assert all(type(ref) is BlockRef for ref in plan.inputs)
        assert plan.footprint == (frozenset({("a", 0), ("c", 0)}), frozenset({("b", 0)}), 1)
        assert plan.needs == {"a": (BlockRef("a", 0),) * 2, "c": (BlockRef("c", 0),)}

    @pytest.mark.parametrize("name", ["lu", "cholesky"])
    def test_needs_honours_an_overridden_producer(self, name):
        app = make_app(name, config=AppConfig(n=64, block=16, seed=0))
        for key in app.walk_from_sink():
            plan = app.plans[key]
            assert plan.inputs == tuple(BlockRef(*r) for r in app.inputs(key))
            expected = {}
            for ref in plan.inputs:
                expected.setdefault(app.producer(ref), []).append(ref)
            assert plan.needs == {p: tuple(refs) for p, refs in expected.items()}
            # Every in-graph producer is a predecessor (pinned inputs have none).
            assert set(plan.needs) - {None} <= set(plan.preds)

    def test_non_predecessor_raises_the_pred_index_error(self):
        spec = diamond_graph(width=2)
        with pytest.raises(KeyError, match="'src' is not a predecessor of 'sink'"):
            spec.plans["sink"].bit_of["src"]
        with pytest.raises(KeyError, match="'src' is not a predecessor of 'sink'"):
            spec.pred_index("sink", "src")

    def test_pred_index_reads_the_plan(self):
        spec = _RawTupleSpec()
        assert [spec.pred_index("b", p) for p in ("a", "c", "b")] == [0, 2, 3]

    def test_callable_spec_default_footprint(self):
        spec = CallableSpec(
            sink="c",
            preds=lambda k: {"c": ["a", "b"]}.get(k, []),
            succs=lambda k: {"a": ["c"], "b": ["c"]}.get(k, []),
            compute=lambda k, ctx: ctx.write(BlockRef(k, 0), k),
        )
        plan = spec.plans["c"]
        assert plan.needs == {"a": (BlockRef("a", 0),), "b": (BlockRef("b", 0),)}
        assert plan.footprint[1] == frozenset({BlockRef("c", 0)})


class TestPlanTable:
    def test_built_once_per_key_and_shared_by_schedulers(self):
        spec = grid_graph(3, 3)
        assert isinstance(spec.plans, PlanTable) and spec.plans is spec.plans
        plan = spec.plans[(1, 1)]
        assert spec.plans[(1, 1)] is plan
        ft = FTScheduler(spec, InlineRuntime())
        nb = NabbitScheduler(spec, InlineRuntime())
        assert ft._plans is spec.plans and nb._plans is spec.plans
        ft.run()
        assert spec.plans[(1, 1)] is plan
        assert set(spec.plans) == set(spec.vertices())

    def test_n_preds_is_the_taskmap_callback(self):
        spec = grid_graph(3, 3)
        assert [spec.plans.n_preds(k) for k in ((0, 0), (0, 1), (1, 1))] == [0, 1, 3]

    def test_foreign_spec_gets_a_caller_owned_table(self):
        class Foreign:  # not a TaskSpecBase: no ``plans`` of its own
            def __init__(self, inner):
                self.sink_key, self.predecessors = inner.sink_key, inner.predecessors
                self.successors, self.compute = inner.successors, inner.compute
                self.inputs, self.outputs = inner.inputs, inner.outputs
                self.producer, self.cost = inner.producer, inner.cost

        inner = grid_graph(4, 4)
        foreign = Foreign(inner)
        table = plans_of(foreign)
        assert isinstance(table, PlanTable) and table is not plans_of(foreign)
        result = FTScheduler(foreign, InlineRuntime()).run()
        assert result.trace.total_computes == 16
        assert "_plans" not in vars(inner)


class TestPickledState:
    """The table is derived state: remote runtimes pickle the spec while
    scheduler threads are still filling it."""

    def test_pickle_size_is_the_same_before_and_after_a_run(self):
        app = make_app("lcs", config=AppConfig(n=64, block=8, seed=0))
        before = len(pickle.dumps(app))
        FTScheduler(app, InlineRuntime(), store=app.make_store(True)).run()
        assert len(app.plans) == 64
        assert len(pickle.dumps(app)) == before
        clone = pickle.loads(pickle.dumps(app))
        assert "_plans" not in vars(clone) and len(clone.plans) == 0

    def test_pickling_races_plan_building(self):
        app = make_app("lcs", config=AppConfig(n=512, block=8, seed=0))
        size = len(pickle.dumps(app))
        keys = list(app.walk_from_sink())
        errors = []

        def fill():
            try:
                for key in keys:
                    app.plans[key]
            except BaseException as exc:  # pragma: no cover - the regression
                errors.append(exc)

        filler = threading.Thread(target=fill)
        filler.start()
        try:
            while filler.is_alive():
                assert len(pickle.dumps(app)) == size
        finally:
            filler.join(timeout=60)
        assert not filler.is_alive() and not errors and len(app.plans) == len(keys)

    def test_racing_first_readers_share_one_table_of_equal_plans(self):
        spec = grid_graph(24, 24)
        keys = list(spec.vertices())
        start = threading.Barrier(8)
        tables, errors = [], []

        def read(offset):
            try:
                start.wait(timeout=30)
                plans = spec.plans  # the creation race
                tables.append(plans)
                for i in range(len(keys)):  # every thread starts on another key
                    plan = plans[keys[(i + offset) % len(keys)]]
                    assert plan.masks == tuple(1 << b for b in range(len(plan.preds)))
            except BaseException as exc:  # pragma: no cover - the regression
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=read, args=(i * 71,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        assert len(tables) == 8 and all(t is spec.plans for t in tables)
        assert set(spec.plans) == set(keys)
        fresh = grid_graph(24, 24).plans
        for key in keys:
            got, want = spec.plans[key], fresh[key]
            assert (got.preds, got.masks, got.bit_of, got.inputs, got.footprint, got.needs) == (
                want.preds, want.masks, want.bit_of, want.inputs, want.footprint, want.needs
            )
