"""Static analysis and protocol verification for the scheduler itself.

The FT scheduler's correctness rests on four machine-checkable paper
guarantees (docs/ALGORITHM.md §§1-4) plus the coding disciplines the
implementation relies on (every ``TaskRecord`` mutation under its lock,
to name one).  Tests exercise happy paths; this package checks the
*rules*:

* :mod:`repro.verify.static` -- the static analyzer: one program model
  over ``src/repro`` and one registry of rules, from per-module
  disciplines (record locking, confined threading / process / socket
  primitives, guarded telemetry, read-only events, emitted event kinds)
  to whole-program ones (lock-order deadlock cycles, blocking operations
  reachable under a held lock, message-protocol exhaustiveness,
  lock/resource leaks).
* :mod:`repro.verify.invariants` -- replays a structured event log
  (:mod:`repro.obs`) and asserts Guarantees 1-4 as trace invariants.
* :mod:`repro.verify.explore` -- bounded schedule exploration on the
  discrete-event runtime (seed sweep, priority perturbation, DPOR-lite
  branching at steal points), running the invariant checker on every
  explored schedule; its mutation mode seeds known protocol bugs and
  must catch them.

CLI: ``python -m repro verify [static|invariants|explore]``.
"""

from repro.verify.invariants import INVARIANTS, Violation, check_events
from repro.verify.explore import ExplorationReport, explore, explore_app, mutation_study
from repro.verify.report import Finding, github_annotations, sort_findings
from repro.verify.static import STATIC_RULES, run_static

__all__ = [
    "INVARIANTS",
    "Violation",
    "check_events",
    "Finding",
    "ExplorationReport",
    "explore",
    "explore_app",
    "mutation_study",
    "STATIC_RULES",
    "run_static",
    "github_annotations",
    "sort_findings",
]
