"""The ``python -m repro detect`` entry point."""

from repro.detect.cli import main


class TestDefaultRun:
    def test_tables_printed(self, capsys):
        assert main(["--apps", "lcs", "--reps", "1", "--count", "1"]) == 0
        out = capsys.readouterr().out
        assert "coverage" in out
        assert "checksum" in out
        assert "replicate:all" in out
