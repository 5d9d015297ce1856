"""Bounded schedule exploration: many schedules, every trace checked.

One fault-injection run exercises one interleaving.  The protocol bugs
worth worrying about -- double join decrements, duplicated recoveries --
live in the *other* interleavings, so this module drives the
discrete-event runtime (:class:`~repro.runtime.simulator.SimulatedRuntime`)
across many schedules of the same workload and runs the trace-invariant
checker (:mod:`repro.verify.invariants`) on every one of them.

Because the simulator executes frames atomically, its schedule space has
exactly two degrees of freedom, and the explorer drives both:

* **which victim a random-policy steal takes** -- the simulator's one
  genuinely free runtime choice, factored out as
  :meth:`SimulatedRuntime._choose_victim`.  :class:`DecisionRuntime`
  overrides it to replay a fixed decision prefix and records the full
  decision *trail*, which makes DPOR-lite branching possible: re-run a
  schedule with one decision flipped and everything before it pinned
  (a lightweight take on dynamic partial-order reduction -- we branch at
  the only points where the partial order can change, without the
  vector-clock machinery of full DPOR);
* **spawn publication order** -- sibling frames published together are
  permuted by a seeded ``perturb`` shuffle, standing in for priority
  perturbation of the deques.

**Mutation mode** is the checker's own test: :data:`MUTATIONS` seeds
known protocol bugs into subclassed schedulers, and
:func:`mutation_study` asserts the explorer convicts them.

* ``double_decrement`` drops the ATOMICBITUNSET gate of NOTIFYONCE
  (Guarantee 3): every notification decrements the join counter, gated or
  not.  Caught whenever a schedule exercises a stale notification -- the
  seed sweep reaches such schedules reliably (duplicate NOTIFY /
  join-conservation violations, or a hung graph from counter underflow).
* ``double_recovery`` disables Guarantee 1's recovery deduplication.
  One honest subtlety, itself a finding of this module: on the
  frame-atomic simulator a fault's observation and its recovery happen
  inside one frame, so a second observer of the *same* incarnation
  cannot exist and the recovery-table CAS alone is unreachable (it
  defends the threaded runtime).  The mutant therefore disables both
  layers of the dedup machinery -- the ``check_and_claim`` gate *and*
  the stale-incarnation gate that shields it -- which is what "recovery
  is not deduplicated" means under frame atomicity.  Caught by
  ``justified-recovery`` (a RECOVERY with no fault evidence for the
  prior life) or by the life-ceiling/hang backstops.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.apps.base import Application
from repro.core.ft import FTScheduler
from repro.core.records import TaskRecord
from repro.exceptions import FaultError, SchedulerError
from repro.faults import FaultInjector, FaultPlan
from repro.obs.events import EventKind, EventLog
from repro.runtime.simulator import SimulatedRuntime
from repro.runtime.tracing import note_and_emit
from repro.verify.invariants import Violation, check_events


# ---------------------------------------------------------------------------
# Decision-replay runtime


class DecisionRuntime(SimulatedRuntime):
    """Simulator whose steal-victim choices replay a fixed prefix.

    ``decisions[i]`` forces the ``i``-th victim choice (taken modulo the
    number of stealable victims at that point); once the prefix is
    exhausted the seeded RNG decides, as in the base runtime.  Every
    choice -- forced or free -- is appended to :attr:`trail` as
    ``(alternatives, chosen)``, so a caller can branch: re-run with
    ``decisions = trail_prefix + (other_choice,)``.

    ``perturb`` (when not ``None``) seeds a second RNG that permutes
    sibling spawns inside the publication buffer -- priority
    perturbation orthogonal to victim choice.
    """

    def __init__(
        self,
        *,
        decisions: Sequence[int] = (),
        perturb: int | None = None,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.decisions = tuple(decisions)
        self.trail: list[tuple[int, int]] = []
        self._perturb_rng = random.Random(perturb) if perturb is not None else None

    def _choose_victim(self, rng: random.Random, stealable: list[int]) -> int:
        n = len(stealable)
        i = len(self.trail)
        if i < len(self.decisions):
            choice = self.decisions[i] % n
        else:
            choice = rng.randrange(n)
        self.trail.append((n, choice))
        return choice

    def spawn(self, fn: Callable[..., None], *args: Any, label: str = "") -> None:
        super().spawn(fn, *args, label=label)
        if self._perturb_rng is not None and len(self._spawn_buffer) > 1:
            i = self._perturb_rng.randrange(len(self._spawn_buffer))
            self._spawn_buffer[i], self._spawn_buffer[-1] = (
                self._spawn_buffer[-1],
                self._spawn_buffer[i],
            )


# ---------------------------------------------------------------------------
# Schedules and outcomes


@dataclass(frozen=True)
class Schedule:
    """One point in the schedule space: worker count, steal seed, spawn
    perturbation, and a forced victim-decision prefix.

    The worker count is a *schedule* dimension, not a fixture constant:
    some interleavings only exist at particular widths (a single worker
    drains spawns strictly LIFO, so deferred frames run long after the
    state they captured went stale -- the very window several protocol
    bugs hide in), so the explorer sweeps it like any other choice.
    """

    seed: int
    workers: int = 3
    perturb: int | None = None
    decisions: tuple[int, ...] = ()

    def __str__(self) -> str:
        parts = [f"seed={self.seed}", f"workers={self.workers}"]
        if self.perturb is not None:
            parts.append(f"perturb={self.perturb}")
        if self.decisions:
            parts.append(f"decisions={list(self.decisions)}")
        return f"Schedule({', '.join(parts)})"


@dataclass
class ScheduleOutcome:
    """One schedule's verdict: its invariant violations, any scheduler
    error, and enough trail/coverage data to branch and report."""

    schedule: Schedule
    violations: list[Violation]
    error: str | None
    trail: tuple[tuple[int, int], ...]
    events: int
    kinds: Counter
    verified_result: bool

    @property
    def clean(self) -> bool:
        return not self.violations and self.error is None

    @property
    def suspicious(self) -> bool:
        """A protocol-bug signal: an invariant violation, or the run
        erroring out (the FT scheduler must absorb injected faults)."""
        return not self.clean


@dataclass
class ExplorationReport:
    """Aggregate over every schedule explored for one workload."""

    outcomes: list[ScheduleOutcome] = field(default_factory=list)

    @property
    def schedules_run(self) -> int:
        return len(self.outcomes)

    @property
    def violations(self) -> int:
        return sum(len(o.violations) for o in self.outcomes)

    @property
    def clean(self) -> bool:
        return all(o.clean for o in self.outcomes)

    def counterexamples(self) -> list[ScheduleOutcome]:
        return [o for o in self.outcomes if o.suspicious]

    def violation_counts(self) -> dict[str, int]:
        counts: Counter = Counter()
        for o in self.outcomes:
            for v in o.violations:
                counts[v.invariant] += 1
        return dict(counts)

    def coverage(self) -> dict[str, int]:
        """How many schedules exercised each protocol path (event kind).

        An exploration that never reached a RECOVERY or a stale
        notification proved nothing about them; this is the
        "invariant coverage" side of the report.
        """
        hit: Counter = Counter()
        for o in self.outcomes:
            for kind, n in o.kinds.items():
                if n:
                    hit[kind.value] += 1
        return dict(hit)

    def summary(self) -> dict[str, object]:
        return {
            "schedules": self.schedules_run,
            "clean": self.clean,
            "violations": self.violation_counts(),
            "errors": sum(1 for o in self.outcomes if o.error is not None),
            "coverage": self.coverage(),
        }


# ---------------------------------------------------------------------------
# Running one schedule

#: Build a workload for one exploration run: ``make_case(seed)`` returns
#: a fresh :class:`Application` and an optional :class:`FaultPlan`.
CaseFactory = Callable[[int], tuple[Application, "FaultPlan | None"]]


def run_schedule(
    app: Application,
    schedule: Schedule,
    *,
    plan: FaultPlan | None = None,
    scheduler_cls: type[FTScheduler] = FTScheduler,
    strict: bool = True,
) -> ScheduleOutcome:
    """Execute ``app`` under one schedule and check its trace."""
    store = app.make_store(True)
    log = EventLog()
    runtime = DecisionRuntime(
        workers=schedule.workers,
        seed=schedule.seed,
        perturb=schedule.perturb,
        decisions=schedule.decisions,
    )
    injector = FaultInjector(plan, app, store) if plan is not None else None
    scheduler = scheduler_cls(app, runtime, store=store, hooks=injector, event_log=log)
    error: str | None = None
    verified = False
    try:
        scheduler.run()
        app.verify(store)
        verified = True
    except (SchedulerError, FaultError, AssertionError, ValueError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    violations = check_events(
        log.events, spec=app, strict=strict, partial=error is not None
    )
    kinds: Counter = Counter(e.kind for e in log.events)
    return ScheduleOutcome(
        schedule=schedule,
        violations=violations,
        error=error,
        trail=tuple(runtime.trail),
        events=len(log.events),
        kinds=kinds,
        verified_result=verified,
    )


# ---------------------------------------------------------------------------
# The explorer


def explore(
    make_case: CaseFactory,
    *,
    seeds: Iterable[int] = range(8),
    workers: Iterable[int] = (1, 3),
    perturbations: int = 2,
    branch_budget: int = 24,
    scheduler_cls: type[FTScheduler] = FTScheduler,
    strict: bool = True,
) -> ExplorationReport:
    """Sweep the schedule space of one workload, checking every trace.

    Three stages, cheapest first:

    1. *seed x width sweep*: one schedule per (steal seed, worker count);
    2. *perturbation*: each swept schedule re-run with ``perturbations``
       distinct spawn-order shuffles;
    3. *DPOR-lite branching*: starting from the swept schedules' decision
       trails, re-run with one victim choice flipped and the prefix
       pinned, depth-first up to ``branch_budget`` extra runs.  Branches
       are taken off suspicious outcomes first, so a found violation is
       refined toward its shortest divergence.
    """
    report = ExplorationReport()
    seen: set[Schedule] = set()

    def run(schedule: Schedule) -> ScheduleOutcome | None:
        if schedule in seen:
            return None
        seen.add(schedule)
        app, plan = make_case(schedule.seed)
        outcome = run_schedule(
            app,
            schedule,
            plan=plan,
            scheduler_cls=scheduler_cls,
            strict=strict,
        )
        report.outcomes.append(outcome)
        return outcome

    widths = tuple(workers)
    base: list[ScheduleOutcome] = []
    for seed in seeds:
        for w in widths:
            out = run(Schedule(seed=seed, workers=w))
            if out is not None:
                base.append(out)
            for p in range(perturbations):
                run(Schedule(seed=seed, workers=w, perturb=p))

    # DPOR-lite: branch alternative victim choices off the recorded
    # trails.  Suspicious outcomes branch first; ties prefer shorter
    # prefixes (closer to the root of the schedule tree).
    frontier: list[tuple[tuple[int, int], Schedule]] = []

    def push_branches(outcome: ScheduleOutcome) -> None:
        start = len(outcome.schedule.decisions)
        prefix = [c for _, c in outcome.trail]
        for i in range(start, len(outcome.trail)):
            n, chosen = outcome.trail[i]
            for alt in range(n):
                if alt != chosen:
                    sched = Schedule(
                        seed=outcome.schedule.seed,
                        workers=outcome.schedule.workers,
                        perturb=outcome.schedule.perturb,
                        decisions=tuple(prefix[:i]) + (alt,),
                    )
                    rank = (0 if outcome.suspicious else 1, len(sched.decisions))
                    frontier.append((rank, sched))

    for outcome in sorted(base, key=lambda o: (o.clean, len(o.trail))):
        push_branches(outcome)

    budget = branch_budget
    while frontier and budget > 0:
        frontier.sort(key=lambda item: item[0])
        _, schedule = frontier.pop(0)
        outcome = run(schedule)
        if outcome is None:
            continue
        budget -= 1
        push_branches(outcome)

    return report


# ---------------------------------------------------------------------------
# Mutation mode: seeded protocol bugs the explorer must convict


class DoubleDecrementScheduler(FTScheduler):
    """Seeded bug: NOTIFYONCE without the Guarantee-3 CAS gate.

    Every notification decrements the join counter whether or not the
    predecessor's bit was still set, so a task notified through both the
    direct path and a notify array -- or across a recovery -- double
    decrements and computes early (or underflows and hangs).
    """

    name = "ft-mutant-double-decrement"

    def _notify_once(self, A: TaskRecord, key, pkey, life: int, mask: int) -> None:
        try:
            A.check()
            self.runtime.charge(self.cost_model.atomic_cost + self.cost_model.ft_notify_cost)
            with A.lock:
                A.join -= 1  # BUG: the bit under ``mask`` is neither tested nor cleared
                val = A.join
                if self._obs:
                    A.srcs += (pkey,)
            if val == 0:
                self._compute_and_notify(A, key, life)
        except FaultError as exc:
            note_and_emit(self.trace, self.log, EventKind.FAULT_OBSERVED, key, life,
                          exc=type(exc).__name__)
            self._recover_task_once(key, life)


class DoubleRecoveryScheduler(FTScheduler):
    """Seeded bug: Guarantee-1 recovery deduplication disabled.

    ``_recover_task_once`` ignores the recovery table's CAS verdict, and
    the stale-incarnation gate that masks the CAS under frame atomicity
    is disabled with it (see the module docstring): ``FTScheduler``
    consults ``_stale`` for every frame whose record is ``replaced``, so
    the override lets every dead frame act.  Any observation of a fault
    -- including one from a frame belonging to a long-replaced
    incarnation -- triggers a full recovery of the current incarnation.
    """

    name = "ft-mutant-double-recovery"

    def _recover_task_once(self, key, life: int) -> None:
        self.runtime.charge(self.cost_model.recovery_table_cost)
        self.recovery_table.check_and_claim(key, life)  # BUG: verdict ignored
        self._recover_task(key)

    def _stale(self, A: TaskRecord, key, life: int) -> bool:
        return False  # BUG: dead incarnations' frames act


#: Mutation name -> (scheduler class, what catches it).
MUTATIONS: dict[str, tuple[type[FTScheduler], str]] = {
    "double_decrement": (
        DoubleDecrementScheduler,
        "no-double-notify / join-conservation (or a hung graph)",
    ),
    "double_recovery": (
        DoubleRecoveryScheduler,
        "justified-recovery (or the life ceiling)",
    ),
}


@dataclass
class MutationResult:
    """Did the explorer convict one seeded bug?"""

    mutation: str
    detected: bool
    report: ExplorationReport
    first_counterexample: ScheduleOutcome | None

    def describe(self) -> str:
        if not self.detected:
            return f"{self.mutation}: NOT DETECTED over {self.report.schedules_run} schedules"
        cx = self.first_counterexample
        assert cx is not None
        what = (
            "; ".join(sorted({v.invariant for v in cx.violations}))
            if cx.violations
            else cx.error
        )
        return (
            f"{self.mutation}: detected at {cx.schedule} "
            f"({self.report.schedules_run} schedules explored) via {what}"
        )


def mutation_study(
    make_case: CaseFactory,
    mutations: dict[str, tuple[type[FTScheduler], str]] | None = None,
    **explore_kwargs,
) -> dict[str, MutationResult]:
    """Run the explorer against each seeded-bug scheduler.

    A mutation is *detected* when any explored schedule is suspicious
    (invariant violation or scheduler error); a runaway cascade ends at
    a task's life ceiling (:data:`repro.core.ft.MAX_LIVES`).
    """
    results: dict[str, MutationResult] = {}
    for name, (cls, _expected) in (mutations or MUTATIONS).items():
        report = explore(make_case, scheduler_cls=cls, **explore_kwargs)
        counterexamples = report.counterexamples()
        results[name] = MutationResult(
            mutation=name,
            detected=bool(counterexamples),
            report=report,
            first_counterexample=counterexamples[0] if counterexamples else None,
        )
    return results


# ---------------------------------------------------------------------------
# Benchmark convenience


def make_app_case(
    app_name: str,
    *,
    scale: str = "tiny",
    fault_phase: str | None = "before_compute",
    fault_count: int = 3,
) -> CaseFactory:
    """A :data:`CaseFactory` over a registered benchmark: fresh app per
    run, fault plan seeded by the schedule seed (``fault_phase=None``
    for fault-free exploration)."""
    from repro.apps.registry import make_app
    from repro.faults.planner import plan_faults

    def make_case(seed: int):
        app = make_app(app_name, scale=scale)
        plan = (
            plan_faults(app, fault_phase, count=fault_count, seed=seed)
            if fault_phase is not None
            else None
        )
        return app, plan

    return make_case


def explore_app(
    app_name: str,
    *,
    scale: str = "tiny",
    fault_phase: str | None = "before_compute",
    fault_count: int = 3,
    **explore_kwargs,
) -> ExplorationReport:
    """Explore one registered benchmark under fault injection."""
    return explore(
        make_app_case(
            app_name, scale=scale, fault_phase=fault_phase, fault_count=fault_count
        ),
        **explore_kwargs,
    )
