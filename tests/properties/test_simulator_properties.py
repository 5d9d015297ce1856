"""Property-based tests on the discrete-event simulator's invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.costmodel import CostModel
from repro.runtime.simulator import SimulatedRuntime

CM = CostModel(frame_overhead=1.0, spawn_cost=0.0, steal_cost=2.0,
               failed_steal_cost=1.0, lock_cost=0.0, atomic_cost=0.0)


@st.composite
def workloads(draw):
    """A two-level fan-out with arbitrary child costs."""
    costs = draw(st.lists(st.floats(0.5, 200.0), min_size=1, max_size=40))
    grandchildren = draw(st.integers(0, 3))
    return costs, grandchildren


def build_root(rt, costs, grandchildren):
    def child(c):
        rt.charge(c)
        for _ in range(grandchildren):
            rt.spawn(lambda: rt.charge(c / 2.0))

    def root():
        for c in costs:
            rt.spawn(lambda c=c: child(c))

    return root


class TestConservationLaws:
    @given(workloads(), st.sampled_from([1, 2, 5, 9]), st.integers(0, 50))
    @settings(max_examples=80, deadline=None)
    def test_busy_time_equals_total_charged_work(self, wl, workers, seed):
        costs, gc = wl
        rt = SimulatedRuntime(workers=workers, cost_model=CM, seed=seed)
        res = rt.execute(build_root(rt, costs, gc))
        expected = (
            1.0  # root frame overhead
            + sum(c + 1.0 for c in costs)
            + sum(gc * (c / 2.0 + 1.0) for c in costs)
        )
        assert sum(res.busy_time) == pytest.approx(expected)

    @given(workloads(), st.sampled_from([2, 5, 9]), st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_makespan_bounds(self, wl, workers, seed):
        costs, gc = wl
        rt = SimulatedRuntime(workers=workers, cost_model=CM, seed=seed)
        res = rt.execute(build_root(rt, costs, gc))
        total_work = sum(res.busy_time)
        # Lower bound: perfect parallelism over charged work.
        assert res.makespan >= total_work / workers - 1e-9
        # Lower bound: the longest serial chain (root -> child -> grandchild).
        span = 1.0 + max((c + 1.0) + (gc > 0) * (c / 2.0 + 1.0) for c in costs)
        assert res.makespan >= span - 1e-9
        # Upper bound: never slower than one worker doing everything plus
        # steal traffic.
        steal_tax = (res.steals + res.failed_steals) * 10.0
        assert res.makespan <= total_work + steal_tax + 1e-6

    @given(workloads(), st.sampled_from([1, 4]), st.integers(0, 20))
    @settings(max_examples=40, deadline=None)
    def test_frame_count_exact(self, wl, workers, seed):
        costs, gc = wl
        rt = SimulatedRuntime(workers=workers, cost_model=CM, seed=seed)
        res = rt.execute(build_root(rt, costs, gc))
        assert res.frames == 1 + len(costs) * (1 + gc)

    @given(workloads(), st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_determinism(self, wl, seed):
        costs, gc = wl

        def run():
            rt = SimulatedRuntime(workers=6, cost_model=CM, seed=seed)
            res = rt.execute(build_root(rt, costs, gc))
            return res.makespan, res.steals, res.failed_steals, tuple(res.busy_time)

        assert run() == run()

    @given(workloads(), st.sampled_from(["round_robin", "richest"]))
    @settings(max_examples=30, deadline=None)
    def test_policies_conserve_work(self, wl, policy):
        costs, gc = wl
        rt = SimulatedRuntime(workers=5, cost_model=CM, seed=1, steal_policy=policy)
        res = rt.execute(build_root(rt, costs, gc))
        rt2 = SimulatedRuntime(workers=5, cost_model=CM, seed=1)
        res2 = rt2.execute(build_root(rt2, costs, gc))
        assert sum(res.busy_time) == pytest.approx(sum(res2.busy_time))
