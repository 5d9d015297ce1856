"""Ablation benchmarks for the design choices DESIGN.md calls out.

These are not in the paper's evaluation; they quantify the design
trade-offs the paper argues qualitatively:

1. **Retention policy sweep** (the FW two-version rationale): cascade
   length and recovery overhead vs number of retained versions.
2. **Single assignment vs reuse** for Smith-Waterman: removing overwrite-
   induced re-execution entirely, at unbounded memory cost.
3. **Recovery-table duplicate suppression** (Guarantee 1): how many
   redundant recoveries the table prevents under high fan-out.
4. **Notify-array reconstruction cost** (Guarantee 4): REINITNOTIFYENTRY
   scans scale with the victim's out-degree.
"""

import pytest

from repro.apps import AppConfig, make_app
from repro.apps.floyd_warshall import FloydWarshallApp
from repro.apps.smith_waterman import SmithWatermanApp
from repro.core import FTScheduler
from repro.exceptions import SchedulerError
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultPlan
from repro.faults.planner import plan_faults
from repro.faults.selectors import VersionIndex
from repro.graph.builders import diamond_graph
from repro.harness.report import render_table
from repro.memory.allocator import KeepK, SingleAssignment
from repro.memory.blockstore import BlockStore
from repro.runtime import SimulatedRuntime
from repro.runtime.tracing import ExecutionTrace


def run_with(app, store, plan=None, workers=1, seed=0):
    trace = ExecutionTrace()
    hooks = FaultInjector(plan, app, store, trace) if plan else None
    sched = FTScheduler(
        app, SimulatedRuntime(workers=workers, seed=seed), store=store,
        hooks=hooks, trace=trace,
    )
    return sched.run()


def test_ablation_retention_policy_sweep(once):
    """Sweep keep=1..3 + single-assignment on FW with v=last after-notify
    faults.

    Headline ablation result: with a *single* resident version (keep=1),
    FW recovery does not converge -- restore chains for different blocks
    keep evicting each other's results, and the incarnation counter races
    away (this is the strong form of the paper's rationale for retaining
    two versions: the doubled memory is not just an optimization, it is
    what makes localized recovery tractable for FW's all-to-all version
    dependences).  keep >= 2 recovers cheaply; single assignment is the
    floor.  A diverging run ends when one task reaches its life ceiling
    (``repro.core.ft.MAX_LIVES``).
    """

    def sweep():
        app = make_app("fw", AppConfig(n=96, block=8), light=True)  # B = 12
        index = VersionIndex(app)
        rows = []
        policies = [KeepK(1), KeepK(2), KeepK(3), SingleAssignment()]
        for policy in policies:
            reexec, over = [], []
            diverged = 0
            for r in range(3):
                store = BlockStore(policy)
                app.seed_store(store)
                base = run_with(app, store).makespan
                plan = plan_faults(app, phase="after_notify", task_type="v=last",
                                   count=12, seed=r, index=index)
                store2 = BlockStore(policy)
                app.seed_store(store2)
                try:
                    res = run_with(app, store2, plan=plan)
                except SchedulerError:
                    diverged += 1
                    continue
                reexec.append(res.trace.reexecutions)
                over.append(100.0 * (res.makespan - base) / base)
            rows.append((
                policy.name,
                f"{sum(reexec) / len(reexec):.1f}" if reexec else "diverged",
                f"{sum(over) / len(over):.2f}" if over else "-",
                f"{diverged}/3",
            ))
        return rows

    rows = once(sweep)
    print()
    print(render_table(
        ["policy", "avg re-executions", "overhead %", "diverged runs"], rows,
        title="Ablation: FW retention policy vs recovery cascades"))
    by = {name: row for name, *row in rows}
    # keep=1 livelocks; keep >= 2 converges with bounded cascades.
    assert by["reuse"][2] != "0/3"
    assert by["two_version"][2] == "0/3"
    assert by["keep3"][2] == "0/3"
    assert by["single_assignment"][2] == "0/3"
    assert float(by["two_version"][0]) >= float(by["single_assignment"][0])


def test_ablation_sw_single_assignment(once):
    """Single-assignment SW trades memory for zero overwrite cascades."""

    def run():
        rows = []
        for policy in (None, SingleAssignment()):
            app = make_app("sw", AppConfig(n=512, block=32), light=True)
            index = VersionIndex(app)
            store = BlockStore(policy or app.ft_policy)
            base = run_with(app, store).makespan
            peak = store.stats.peak_resident
            reexec = []
            for r in range(4):
                plan = plan_faults(app, phase="after_notify", task_type="v=last",
                                   count=4, seed=r, index=index)
                store2 = BlockStore(policy or app.ft_policy)
                res = run_with(app, store2, plan=plan)
                reexec.append(res.trace.reexecutions)
            rows.append((
                (policy or app.ft_policy).name, peak, sum(reexec) / len(reexec)
            ))
        return rows

    rows = once(run)
    print()
    print(render_table(["policy", "peak resident blocks", "avg re-executions"], rows,
                       title="Ablation: SW memory reuse vs single assignment"))
    (reuse_name, reuse_peak, reuse_re), (sa_name, sa_peak, sa_re) = rows
    assert sa_peak > reuse_peak          # the memory cost
    assert sa_re <= reuse_re             # the cascade benefit


def test_ablation_recovery_table_dedup(once):
    """High-fanout failure: observers race; the table admits exactly one."""

    def run():
        rows = []
        for width in (4, 16, 64):
            spec = diamond_graph(width=width)
            plan = FaultPlan.single("src", "after_compute")
            store = BlockStore()
            trace = ExecutionTrace()
            injector = FaultInjector(plan, spec, store, trace)
            sched = FTScheduler(
                spec, SimulatedRuntime(workers=8, seed=width), store=store,
                hooks=injector, trace=trace,
            )
            sched.run()
            rows.append((width, trace.recoveries["src"],
                         trace.recovery_skips, sched.recovery_table.rejections))
        return rows

    rows = once(run)
    print()
    print(render_table(
        ["fan-out", "recoveries", "suppressed observers", "table rejections"], rows,
        title="Ablation: Guarantee 1 duplicate-recovery suppression"))
    for width, recoveries, skips, rejections in rows:
        assert recoveries == 1
    # More observers => more suppressed duplicates at the widest fan-out.
    assert rows[-1][3] >= rows[0][3]


def test_ablation_reinit_scan_scales_with_outdegree(once):
    """REINITNOTIFYENTRY scans every successor of a recovering task."""

    def run():
        rows = []
        for width in (4, 16, 64):
            spec = diamond_graph(width=width)
            plan = FaultPlan.single("src", "after_compute")
            store = BlockStore()
            trace = ExecutionTrace()
            injector = FaultInjector(plan, spec, store, trace)
            FTScheduler(
                spec, SimulatedRuntime(workers=8, seed=1), store=store,
                hooks=injector, trace=trace,
            ).run()
            rows.append((width, trace.reinit_scans, trace.notify_reinits))
        return rows

    rows = once(run)
    print()
    print(render_table(
        ["fan-out", "successors scanned", "re-enqueued (were waiting)"], rows,
        title="Ablation: notify-array reconstruction vs out-degree"))
    # The scan examines every successor of the recovering task (the L_N
    # term of Lemma 4); only those still waiting get re-enqueued -- with
    # lazy expansion and immediate detection, usually just a few.
    for width, scans, reinits in rows:
        assert scans == width
        assert 0 <= reinits <= scans
    assert rows[-1][1] > rows[0][1]
