"""Shared reporting plumbing for the static analyzer.

Every rule of :mod:`repro.verify.static` produces the same currency: a
:class:`Finding` anchored at a source line, waivable by an inline
``# verify: ok=<rule>`` pragma in a comment on that line.  This module
owns that currency -- the finding type, the parsed-module handle that
knows its own waivers, deterministic ordering, and GitHub Actions
problem-matcher annotations -- so CI diffs are stable across runs.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable

#: Inline waiver pragma: ``# verify: ok=<rule> (reason)``.  A waiver
#: silences exactly one rule on exactly the line that carries it.
PRAGMA = re.compile(r"#\s*verify:\s*ok=([a-z0-9-]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _waivers(source: str) -> dict[int, str]:
    """Line -> waived rule, for pragmas written in comment tokens only: a
    pragma inside a string literal waives nothing."""
    if "verify:" not in source:
        return {}
    out: dict[int, str] = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            m = PRAGMA.search(tok.string)
            if m:
                out[tok.start[0]] = m.group(1)
    return out


@dataclass
class Module:
    """A parsed source file, addressed relative to the package root."""

    relpath: str
    tree: ast.Module
    waivers: dict[int, str] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str, relpath: str) -> "Module":
        return cls(relpath=relpath, tree=ast.parse(source), waivers=_waivers(source))

    @cached_property
    def nodes(self) -> list[ast.AST]:
        """Every node of the tree in ``ast.walk`` order, walked once and
        shared by every rule that scans whole modules."""
        return list(ast.walk(self.tree))


def load_modules() -> list[Module]:
    """Every module of the imported ``repro`` package, by relpath."""
    import repro

    root = Path(repro.__file__).resolve().parent
    return [
        Module.from_source(p.read_text(), p.relative_to(root).as_posix())
        for p in sorted(root.rglob("*.py"))
    ]


def sort_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Deterministic report order: by path, then line, then rule, then
    message -- and with exact duplicates collapsed, so repeated runs (and
    rules that rediscover the same site along several witness paths)
    always print byte-identical reports."""
    return sorted(set(findings), key=lambda f: (f.path, f.line, f.rule, f.message))


def github_annotations(
    findings: Iterable[Finding], path_prefix: str = "src/repro/"
) -> list[str]:
    """GitHub Actions workflow-command lines (``::error file=...``) that
    surface each finding as an inline annotation on the PR diff."""
    return [
        f"::error file={path_prefix}{f.path},line={f.line}::[{f.rule}] {f.message}"
        for f in sort_findings(findings)
    ]
