"""The FT-vs-NABBIT call ledger as a gate: ``benchmarks/ledger.py --check``
runs as a subprocess and must find every per-task count under its ceiling."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ledger_check_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "ledger.py"), "--check"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, f"ledger over budget:\n{proc.stdout}\n{proc.stderr}"
    assert "ft-nabbit" in proc.stdout
