"""Unit tests for the serial inline runtime."""

import pytest

from repro.runtime.inline import InlineRuntime


class TestExecution:
    def test_runs_root(self):
        rt = InlineRuntime()
        ran = []
        rt.execute(lambda: ran.append("root"))
        assert ran == ["root"]

    def test_depth_first_lifo_order(self):
        rt = InlineRuntime()
        order = []

        def root():
            rt.spawn(lambda: order.append("a"))
            rt.spawn(lambda: order.append("b"))

        rt.execute(root)
        assert order == ["b", "a"]  # LIFO: last spawn runs first

    def test_nested_spawns_all_run(self):
        rt = InlineRuntime()
        count = [0]

        def task(depth):
            count[0] += 1
            if depth:
                rt.spawn(lambda: task(depth - 1))
                rt.spawn(lambda: task(depth - 1))

        res = rt.execute(lambda: task(5))
        assert count[0] == 2 ** 6 - 1
        assert res.frames == 2 ** 6 - 1

    def test_deep_chain_no_recursion_limit(self):
        rt = InlineRuntime()
        n = [0]

        def step():
            n[0] += 1
            if n[0] < 50_000:
                rt.spawn(step)

        rt.execute(step)
        assert n[0] == 50_000


class TestAccounting:
    def test_charges_accumulate_into_makespan(self):
        rt = InlineRuntime()

        def child(*amounts):
            for amount in amounts:
                rt.charge(amount)

        def root():
            child(1.0, 10.0)
            rt.spawn(child, 2.0, 5.0)

        res = rt.execute(root)
        assert res.makespan == pytest.approx(18.0)
        assert res.busy_time == [pytest.approx(18.0)]
        assert res.utilization == pytest.approx(1.0)

    def test_workers_is_one(self):
        assert InlineRuntime().workers == 1


class TestGuards:
    def test_spawn_outside_execute_rejected(self):
        rt = InlineRuntime()
        with pytest.raises(RuntimeError):
            rt.spawn(lambda: None)

    def test_not_reentrant(self):
        rt = InlineRuntime()
        with pytest.raises(RuntimeError):
            rt.execute(lambda: rt.execute(lambda: None))
