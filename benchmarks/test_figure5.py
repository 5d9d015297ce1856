"""Benchmark: regenerate Figure 5 (recovery overhead, before/after compute).

Expected shape (paper): before-compute faults cost ~nothing at any loss
size; after-compute overhead is proportional to the work lost -- well
under 1% for the 512-task scenario, and roughly the lost fraction for the
2%/5% scenarios (paper: at most 3.6% and 8.2%).
"""

from repro.harness.figure5 import figure5a, figure5b, format_figure5


def test_figure5a_512_tasks(once):
    cells = once(lambda: figure5a(reps=4))
    print()
    print(format_figure5(cells, "Figure 5(a): 512-task loss (scaled), before/after compute"))
    for c in cells:
        if c.phase == "before_compute":
            assert abs(c.overhead.mean) < 0.5, (c.app, c.task_type)
            assert c.reexecutions.mean == 0
        else:
            assert -0.5 < c.overhead.mean < 2.0, (c.app, c.task_type)
            assert c.reexecutions.mean >= 1


def test_figure5b_percent_loss(once):
    cells = once(lambda: figure5b(reps=4))
    print()
    print(format_figure5(cells, "Figure 5(b): 2%/5% loss, before/after compute"))
    for c in cells:
        if c.phase == "before_compute":
            assert abs(c.overhead.mean) < 0.5, c.app
    after = {(c.app, c.amount): c for c in cells if c.phase == "after_compute"}
    for (app, amount), c in after.items():
        cap = 4.5 if amount.startswith("2%") else 10.0
        assert c.overhead.mean < cap, (app, amount)
    # 5% loses more than 2% for every app.
    for app in {a for a, _ in after}:
        assert after[(app, "5%,v=rand")].overhead.mean > after[(app, "2%,v=rand")].overhead.mean


def test_small_constant_loss_counts(once):
    """The paper's companion experiment: "scenarios with only 1, 8, and
    64 task re-executions ... did not observe any statistically
    significant overheads" (figures omitted there for space)."""
    from repro.faults.model import FaultPhase
    from repro.harness.figure5 import _study

    def run():
        # The paper's counts scaled by the instance's task-count share
        # (with a floor of one victim).
        scenarios = [
            (f"{n} tasks", {"count": max(1, n * 2304 // 65536),
                            "task_type": "v=rand"})
            for n in (1, 8, 64)
        ]
        return _study(("lcs", "lu"), scenarios, (FaultPhase.AFTER_COMPUTE,),
                      reps=4, workers=1, scale="default", cost_model=None)

    cells = once(run)
    print()
    print(format_figure5(cells, "Companion: 1/8/64-task losses (after compute)"))
    for c in cells:
        assert c.overhead.mean < 0.5, (c.app, c.amount)
