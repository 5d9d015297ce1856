"""The static analyzer: every rule ``repro.verify`` holds the source to.

``python -m repro verify static`` builds one
:class:`~repro.verify.static.callgraph.Program` over the package (every
parsed module, plus call graph, lock-order graph and light type
inference over the concurrency-bearing subsystems) and runs each rule of
:data:`STATIC_RULES` against it; each rule is documented on its class.

Findings are waivable with ``# verify: ok=<rule>`` in a comment on the
offending line.  :func:`run_static` applies waivers in one place, after
every rule ran.  The seeded-violation suite
(:mod:`repro.verify.static.seeded`) proves each name convicts the bug it
exists for.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.verify.report import Finding, Module, load_modules, sort_findings
from repro.verify.static.callgraph import ANALYZED_PREFIXES, Program, StaticRule
from repro.verify.static.lint import (
    ConfinementRule,
    EmitGuardRule,
    EventImmutableRule,
    EventKindCoverageRule,
    LockDisciplineRule,
)
from repro.verify.static.locks import (
    BlockingUnderLockRule,
    DeadlockCycleRule,
    LockLeakRule,
)
from repro.verify.static.wire import ProtocolExhaustiveRule

STATIC_RULES: tuple[StaticRule, ...] = (
    DeadlockCycleRule(),
    BlockingUnderLockRule(),
    LockLeakRule(),
    ProtocolExhaustiveRule(),
    LockDisciplineRule(),
    ConfinementRule(),
    EmitGuardRule(),
    EventKindCoverageRule(),
    EventImmutableRule(),
)

#: The waiver pass's own finding name.
STALE_WAIVER = "stale-waiver"

#: Every name a finding can carry.
RULE_NAMES: tuple[str, ...] = (
    *(name for rule in STATIC_RULES for name in rule.names),
    STALE_WAIVER,
)


def run_static(
    rules: Sequence[StaticRule] = STATIC_RULES,
    modules: Sequence[Module] | None = None,
    prefixes: Iterable[str] = ANALYZED_PREFIXES,
) -> list[Finding]:
    """Build the program model, run ``rules`` and return the
    deterministically-ordered findings that survive inline waivers, plus
    one ``stale-waiver`` finding per waiver that names no registered rule
    or, for a rule that ran, suppresses no finding (the waiver pass always
    runs, so a waiver naming ``stale-waiver`` is itself stale)."""
    if modules is None:
        modules = load_modules()
    program = Program.build(modules, prefixes)
    raw = [f for rule in rules for f in rule.check(program)]
    ran = {STALE_WAIVER, *(name for rule in rules for name in rule.names)}
    waivers = {
        (m.relpath, line, rule) for m in program.modules for line, rule in m.waivers.items()
    }
    found = {(f.path, f.line, f.rule) for f in raw}
    findings = [f for f in raw if (f.path, f.line, f.rule) not in waivers]
    for path, line, rule in waivers - found:
        if rule not in RULE_NAMES:
            findings.append(Finding(
                STALE_WAIVER, path, line, f"waiver names no registered rule {rule!r}"))
        elif rule in ran:
            findings.append(Finding(
                STALE_WAIVER, path, line, f"waiver for {rule} suppresses no finding"))
    return sort_findings(findings)


__all__ = [
    "ANALYZED_PREFIXES",
    "Program",
    "RULE_NAMES",
    "STALE_WAIVER",
    "STATIC_RULES",
    "StaticRule",
    "run_static",
]
