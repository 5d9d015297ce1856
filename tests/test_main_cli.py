"""Tests for the top-level ``python -m repro`` CLI."""

from repro.__main__ import main


class TestTopLevelCLI:
    def test_about(self, capsys):
        assert main(["about"]) == 0
        assert "SC 2014" in capsys.readouterr().out

    def test_help(self, capsys):
        assert main([]) == 0
        assert "validate" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        # The in-package test programs are gone: their checks are tests.
        for cmd in ("fnord", "selftest", "procpool", "perf"):
            assert main([cmd]) == 2

    def test_harness_forwarding(self, capsys):
        assert main(["harness", "--quick", "--only", "table1", "--apps", "lcs"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_validate(self, capsys):
        assert main(["validate", "lcs"]) == 0
        out = capsys.readouterr().out
        assert "valid task graph" in out
        assert "reachable tasks" in out

    def test_validate_explicit_size(self, capsys):
        assert main(["validate", "fw", "--n", "12", "--block", "4"]) == 0
        assert "valid task graph" in capsys.readouterr().out

    def test_validate_max_tasks_budget(self, capsys):
        assert main(["validate", "cholesky", "--max-tasks", "1"]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_verify_lint(self, capsys):
        # The former lints are rules of the one analyzer.
        assert main(["verify", "static"]) == 0
        out = capsys.readouterr().out
        assert "verify static: clean" in out
        for rule in ("deadlock-cycle", "blocking-under-lock", "lock-leak", "protocol-exhaustive",
                     "lock-discipline", "raw-threading", "raw-multiprocessing", "raw-socket",
                     "emit-guard", "eventkind-coverage", "event-immutable", "stale-waiver"):
            assert rule in out

    def test_verify_invariants(self, capsys):
        assert main(["verify", "invariants", "--app", "lcs"]) == 0
        assert "clean over" in capsys.readouterr().out
