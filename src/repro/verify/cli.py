"""``python -m repro verify`` -- check the scheduler, not just its outputs.

Subcommands:

* ``static`` -- run the static analyzer (:mod:`repro.verify.static`)
  over ``src/repro``: every registered rule, from the per-module
  disciplines (record locking, confined primitives, guarded telemetry)
  to the whole-program ones (lock-order deadlock cycles, blocking
  operations under held locks, protocol exhaustiveness, lock/resource
  leaks), plus stale waivers; exit 1 on any finding.  ``--annotate``
  for GitHub Actions annotations.
* ``invariants`` -- execute one benchmark under fault injection with
  event tracing and assert Guarantees 1-4 on the trace
  (:mod:`repro.verify.invariants`); or check a recorded ``--jsonl`` dump
  from ``python -m repro trace``.
* ``explore`` -- bounded schedule exploration
  (:mod:`repro.verify.explore`): sweep seeds, worker widths, spawn
  perturbations and DPOR-lite steal branches, checking every schedule's
  trace; ``--mutations`` instead runs the seeded-bug study and exits 1
  unless every mutant is convicted.
"""

from __future__ import annotations

import argparse
import sys

from repro.verify.explore import explore_app, make_app_case, mutation_study
from repro.verify.invariants import (
    INVARIANTS,
    check_events,
    events_from_jsonl,
    summarize,
)
from repro.verify.report import github_annotations
from repro.verify.static import RULE_NAMES, run_static

_BENCHMARKS = ("lcs", "sw", "fw", "lu", "cholesky")


# ---------------------------------------------------------------------------
# static


def _cmd_static(args: argparse.Namespace) -> int:
    findings = run_static()
    if args.annotate:
        for line in github_annotations(findings):
            print(line)
    else:
        for f in findings:
            print(f)
    rules = ", ".join(RULE_NAMES)
    if findings:
        print(f"verify static: {len(findings)} finding(s) ({rules})")
        return 1
    print(f"verify static: clean ({rules})")
    return 0


# ---------------------------------------------------------------------------
# invariants


def _cmd_invariants(args: argparse.Namespace) -> int:
    if args.jsonl:
        events = events_from_jsonl(args.jsonl)
        # JSONL keys are repr strings: spec-free, non-strict checking.
        violations = check_events(events, spec=None, strict=False, partial=args.partial)
        n_events = len(events)
        label = args.jsonl
    else:
        from repro.verify.explore import Schedule, run_schedule

        phase = None if args.phase == "none" else args.phase
        app, plan = make_app_case(args.app, fault_phase=phase)(args.seed)
        outcome = run_schedule(app, Schedule(seed=args.seed, workers=args.workers), plan=plan)
        if outcome.error is not None:
            raise RuntimeError(f"{args.app} run failed: {outcome.error}")
        violations, n_events = outcome.violations, outcome.events
        label = f"{args.app} (phase={args.phase}, seed={args.seed}, workers={args.workers})"
    for v in violations:
        print(v)
    counts = {k: n for k, n in summarize(violations).items() if n}
    if violations:
        print(f"verify invariants: {label}: {len(violations)} violation(s) {counts}")
        return 1
    print(f"verify invariants: {label}: clean over {n_events} events "
          f"({len(INVARIANTS)} invariants)")
    return 0


# ---------------------------------------------------------------------------
# explore


def _cmd_explore(args: argparse.Namespace) -> int:
    kwargs = dict(
        seeds=range(args.seeds),
        workers=tuple(int(w) for w in args.workers.split(",")),
        perturbations=args.perturbations,
        branch_budget=args.branch_budget,
    )
    phase = None if args.phase == "none" else args.phase
    if args.mutations:
        case = make_app_case(args.app, fault_phase=phase)
        results = mutation_study(case, **kwargs)
        ok = True
        for r in results.values():
            print(r.describe())
            ok = ok and r.detected
        if not ok:
            print("verify explore: mutation study FAILED -- a seeded bug escaped")
            return 1
        print(f"verify explore: all {len(results)} seeded bugs detected")
        return 0

    report = explore_app(args.app, fault_phase=phase, **kwargs)
    summary = report.summary()
    print(f"explored {summary['schedules']} schedules of {args.app} (phase={args.phase})")
    cov = summary["coverage"]
    for kind in sorted(cov):
        print(f"  exercised {kind:<18} in {cov[kind]:>3} schedule(s)")
    if not report.clean:
        for o in report.counterexamples():
            head = o.error or "; ".join(str(v) for v in o.violations[:3])
            print(f"  COUNTEREXAMPLE {o.schedule}: {head}")
        print(f"verify explore: {report.violations} violation(s), "
              f"{summary['errors']} error(s)")
        return 1
    print("verify explore: every schedule clean")
    return 0


# ---------------------------------------------------------------------------
# entry point


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro verify",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="command")

    p_static = sub.add_parser(
        "static", help="static analysis: every rule over src/repro (locks, protocol, ...)")
    p_static.add_argument("--annotate", action="store_true",
                          help="emit GitHub Actions ::error annotations instead of plain lines")

    p_inv = sub.add_parser("invariants",
                           help="check Guarantees 1-4 on a traced execution")
    p_inv.add_argument("--app", choices=_BENCHMARKS, default="lcs")
    p_inv.add_argument("--phase", default="before_compute",
                       choices=("before_compute", "after_compute", "after_notify", "none"),
                       help="fault-injection phase ('none' for a fault-free run)")
    p_inv.add_argument("--seed", type=int, default=0)
    p_inv.add_argument("--workers", type=int, default=3)
    p_inv.add_argument("--jsonl", type=str, default=None,
                       help="check a recorded JSONL event dump instead of running")
    p_inv.add_argument("--partial", action="store_true",
                       help="the JSONL dump is a truncated prefix (skip end-of-trace checks)")

    p_exp = sub.add_parser("explore", help="bounded schedule exploration")
    p_exp.add_argument("--app", choices=_BENCHMARKS, default="lcs")
    p_exp.add_argument("--phase", default="before_compute",
                       choices=("before_compute", "after_compute", "after_notify", "none"))
    p_exp.add_argument("--seeds", type=int, default=6, help="steal seeds to sweep")
    p_exp.add_argument("--workers", type=str, default="1,3",
                       help="comma-separated worker widths to sweep")
    p_exp.add_argument("--perturbations", type=int, default=2,
                       help="spawn-order perturbations per (seed, width)")
    p_exp.add_argument("--branch-budget", type=int, default=24,
                       help="extra DPOR-lite branch runs")
    p_exp.add_argument("--mutations", action="store_true",
                       help="run the seeded-bug study instead (exit 1 unless all detected)")

    args = ap.parse_args(argv)
    if args.command == "static":
        return _cmd_static(args)
    if args.command == "invariants":
        return _cmd_invariants(args)
    if args.command == "explore":
        return _cmd_explore(args)
    ap.print_help()
    return 0


if __name__ == "__main__":
    sys.exit(main())
