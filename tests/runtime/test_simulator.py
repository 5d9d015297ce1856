"""Unit tests for the discrete-event work-stealing simulator."""

import pytest

from repro.runtime.costmodel import CostModel
from repro.runtime.simulator import SimulatedRuntime

CM = CostModel(
    frame_overhead=1.0,
    spawn_cost=0.0,
    steal_cost=0.0,
    failed_steal_cost=1.0,
    lock_cost=0.0,
    atomic_cost=0.0,
)


def fan_out(rt, n, cost):
    """Root frame spawning n children of the given charge."""
    def root():
        for _ in range(n):
            rt.spawn(rt.charge, cost)
    return root


class TestBasics:
    def test_single_frame(self):
        rt = SimulatedRuntime(workers=1, cost_model=CM)
        res = rt.execute(lambda: rt.charge(9.0))
        assert res.makespan == pytest.approx(10.0)  # 9 + frame_overhead
        assert res.frames == 1

    def test_serial_sum(self):
        rt = SimulatedRuntime(workers=1, cost_model=CM)
        res = rt.execute(fan_out(rt, 10, 5.0))
        # root (1) + 10 children * (5 + 1)
        assert res.makespan == pytest.approx(1 + 10 * 6.0)
        assert res.frames == 11
        assert res.steals == 0

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            SimulatedRuntime(workers=0)

    def test_spawn_outside_execute_rejected(self):
        rt = SimulatedRuntime()
        with pytest.raises(RuntimeError):
            rt.spawn(lambda: None)

    def test_not_reentrant(self):
        rt = SimulatedRuntime()
        with pytest.raises(RuntimeError):
            rt.execute(lambda: rt.execute(lambda: None))


class TestParallelism:
    def test_embarrassing_parallelism_speeds_up(self):
        times = {}
        for p in (1, 4, 16):
            rt = SimulatedRuntime(workers=p, cost_model=CM, seed=3)
            times[p] = rt.execute(fan_out(rt, 64, 100.0)).makespan
        assert times[4] < times[1] / 2.5
        assert times[16] < times[4] / 2.5

    def test_serial_chain_gains_nothing(self):
        def run(p):
            rt = SimulatedRuntime(workers=p, cost_model=CM, seed=1)
            n = [0]

            def step():
                rt.charge(50.0)
                n[0] += 1
                if n[0] < 40:
                    rt.spawn(step)

            return rt.execute(step).makespan

        t1, t8 = run(1), run(8)
        # A dependence chain cannot go faster; stealing may add latency.
        assert t8 >= t1 * 0.999

    def test_speedup_bounded_by_p(self):
        for p in (2, 8):
            rt1 = SimulatedRuntime(workers=1, cost_model=CM)
            t1 = rt1.execute(fan_out(rt1, 40, 25.0)).makespan
            rtp = SimulatedRuntime(workers=p, cost_model=CM, seed=5)
            tp = rtp.execute(fan_out(rtp, 40, 25.0)).makespan
            assert t1 / tp <= p + 1e-9


class TestDeterminism:
    def test_same_seed_same_everything(self):
        def run(seed):
            rt = SimulatedRuntime(workers=6, cost_model=CM, seed=seed)
            res = rt.execute(fan_out(rt, 50, 10.0))
            return res.makespan, res.steals, res.failed_steals

        assert run(7) == run(7)

    def test_different_seed_different_schedule(self):
        def run(seed):
            rt = SimulatedRuntime(workers=6, cost_model=CM, seed=seed)
            return rt.execute(fan_out(rt, 50, 10.0)).steals

        assert any(run(s) != run(0) for s in range(1, 6))


class TestCausality:
    def test_child_never_starts_before_spawner_completes(self):
        rt = SimulatedRuntime(workers=8, cost_model=CM, seed=2, record_timeline=True)

        def root():
            rt.charge(500.0)  # long frame; children published at its end
            for i in range(6):
                rt.spawn(lambda: rt.charge(10.0), label="child")

        rt.execute(root)
        tl = {label: (start, end) for start, end, _, label in rt.timeline}
        root_end = tl["root"][1]
        for start, end, _, label in rt.timeline:
            if label == "child":
                assert start >= root_end

    def test_timeline_no_overlap_per_worker(self):
        rt = SimulatedRuntime(workers=4, cost_model=CM, seed=9, record_timeline=True)

        def root():
            for _ in range(20):
                rt.spawn(lambda: rt.charge(7.0))

        rt.execute(root)
        per_worker: dict[int, list[tuple[float, float]]] = {}
        for start, end, w, _ in rt.timeline:
            per_worker.setdefault(w, []).append((start, end))
        for spans in per_worker.values():
            spans.sort()
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert s2 >= e1 - 1e-9

    def test_makespan_is_last_completion(self):
        rt = SimulatedRuntime(workers=3, cost_model=CM, seed=0, record_timeline=True)

        def root():
            for _ in range(9):
                rt.spawn(lambda: rt.charge(11.0))

        res = rt.execute(root)
        assert res.makespan == pytest.approx(max(end for _, end, _, _ in rt.timeline))


class TestAccounting:
    def test_busy_time_sums_to_total_work(self):
        rt = SimulatedRuntime(workers=5, cost_model=CM, seed=4)
        res = rt.execute(fan_out(rt, 30, 12.0))
        assert sum(res.busy_time) == pytest.approx(1 + 30 * 13.0)

    def test_utilization_at_most_one(self):
        rt = SimulatedRuntime(workers=5, cost_model=CM, seed=4)
        res = rt.execute(fan_out(rt, 30, 12.0))
        assert 0.0 < res.utilization <= 1.0

    def test_steal_costs_charged(self):
        cm = CostModel(frame_overhead=1.0, spawn_cost=0.0, steal_cost=50.0,
                       failed_steal_cost=1.0, lock_cost=0.0, atomic_cost=0.0)
        rt = SimulatedRuntime(workers=4, cost_model=cm, seed=1)
        res = rt.execute(fan_out(rt, 12, 100.0))
        assert res.steals > 0
