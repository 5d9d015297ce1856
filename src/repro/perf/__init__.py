"""The host-speed probe the end-to-end benchmark records beside its
numbers (``benchmarks/e2e/run.py``).  Measuring is done by
``benchmarks/e2e`` (run in pairs by ``benchmarks/pairs.py``) and counted
by ``benchmarks/ledger.py``; see docs/PERFORMANCE.md."""

from repro.perf.bench import calibrate

__all__ = ["calibrate"]
