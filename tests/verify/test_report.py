"""Tests for the shared reporting plumbing (repro.verify.report)."""

from repro.verify.report import PRAGMA, Finding, Module, github_annotations, sort_findings


class TestFinding:
    def test_str_format(self):
        f = Finding("lock-leak", "comm/tcp.py", 12, "boom")
        assert str(f) == "comm/tcp.py:12: [lock-leak] boom"


class TestPragma:
    def test_matches_rule_with_reason(self):
        m = PRAGMA.search("x = 1  # verify: ok=deadlock-cycle (startup only)")
        assert m is not None and m.group(1) == "deadlock-cycle"

    def test_module_waived_is_line_and_rule_scoped(self):
        src = "a = 1\nb = 2  # verify: ok=lock-leak (test)\n"
        assert Module.from_source(src, "comm/x.py").waivers == {2: "lock-leak"}

    def test_pragma_inside_a_string_literal_is_not_a_waiver(self):
        src = 'import socket; _ = "# verify: ok=raw-socket"\nb = 2  # verify: ok=lock-leak\n'
        mod = Module.from_source(src, "apps/x.py")
        assert mod.waivers == {2: "lock-leak"}


class TestSortFindings:
    def test_orders_by_path_line_rule_message(self):
        fs = [
            Finding("b-rule", "z.py", 1, "m"),
            Finding("a-rule", "a.py", 9, "m"),
            Finding("a-rule", "a.py", 1, "n"),
            Finding("a-rule", "a.py", 1, "m"),
        ]
        ordered = sort_findings(fs)
        assert [(f.path, f.line, f.rule, f.message) for f in ordered] == [
            ("a.py", 1, "a-rule", "m"),
            ("a.py", 1, "a-rule", "n"),
            ("a.py", 9, "a-rule", "m"),
            ("z.py", 1, "b-rule", "m"),
        ]

    def test_collapses_exact_duplicates(self):
        f = Finding("r", "p.py", 1, "m")
        assert sort_findings([f, f, f]) == [f]


class TestAnnotations:
    def test_github_error_lines(self):
        fs = [Finding("deadlock-cycle", "runtime/cluster.py", 7, "cycle A/B")]
        (line,) = github_annotations(fs)
        assert line == (
            "::error file=src/repro/runtime/cluster.py,line=7"
            "::[deadlock-cycle] cycle A/B"
        )
