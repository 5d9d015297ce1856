"""Performance measurement: the micro suite under the end-to-end benchmark.

The paper's headline result is a *performance* claim (fault-tolerance
support under ~5% overhead at scale).  End to end it is measured by
``benchmarks/e2e`` (run in pairs by ``benchmarks/pairs.py``); this
package times the layers underneath one at a time:

* :mod:`repro.perf.bench` -- a statistical microbenchmark runner
  (warmup discard, min-of-k timing, bootstrap confidence intervals,
  in-process calibration against a reference spin loop);
* :mod:`repro.perf.suites` -- the micro catalogue: scheduler structure
  ops (task-map insert/get, recovery claims, notification bits),
  tracing-on/off scheduler throughput, simulator events/sec, telemetry
  instrument costs, the wire layer, and the bare dispatch round trip;
* :mod:`repro.perf.compare` -- baseline comparison and the >15%
  regression gate;
* :mod:`repro.perf.cli` -- ``python -m repro perf``, which prints the
  tables, writes a BENCH json only with ``--out``, and gates against
  one with ``--baseline``.

See docs/PERFORMANCE.md for the hot-path inventory and how to read the
numbers.
"""

from repro.perf.bench import (
    Benchmark,
    BenchResult,
    RunnerConfig,
    bootstrap_ci,
    calibrate,
    run_benchmark,
    run_suite,
)
from repro.perf.compare import compare_runs, load_bench_json
from repro.perf.suites import SUITE, benchmarks, groups

__all__ = [
    "Benchmark",
    "BenchResult",
    "RunnerConfig",
    "SUITE",
    "benchmarks",
    "bootstrap_ci",
    "calibrate",
    "compare_runs",
    "groups",
    "load_bench_json",
    "run_benchmark",
    "run_suite",
]
