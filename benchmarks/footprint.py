"""What importing the end-to-end harness costs a process, and its forks.

    python benchmarks/footprint.py --tree DIR

Imports ``DIR/benchmarks/e2e/child.py`` against ``DIR/src`` in this
(fresh) process, exactly as a benchmark child starts, and prints one
JSON line: the import's wall time, the process's peak RSS and module
count after it, whether scipy and ``http.server`` were loaded, and the
median over ``FORKS`` forks of the parent's ``os.fork()`` call and of a
whole fork + child ``_exit`` + reap -- what ``ProcessRuntime`` pays per
worker it starts.  Run it in a new process per sample: a process
imports a module only once.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

FORKS = 50


def fork_costs() -> tuple[float, float]:
    """Median ms of the parent's ``os.fork()`` and of fork + exit + reap."""
    forks, rounds = [], []
    for _ in range(FORKS):
        t0 = perf_counter()
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        t1 = perf_counter()
        os.waitpid(pid, 0)
        t2 = perf_counter()
        forks.append(t1 - t0)
        rounds.append(t2 - t0)
    return 1e3 * statistics.median(forks), 1e3 * statistics.median(rounds)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--tree", required=True, help="checkout whose harness and src to import")
    args = ap.parse_args(argv)
    sys.path[:0] = [os.path.join(args.tree, "src"), os.path.join(args.tree, "benchmarks", "e2e")]
    before = len(sys.modules)
    t0 = perf_counter()
    import child  # noqa: F401 - the import is the measurement

    import_ms = 1e3 * (perf_counter() - t0)
    fork_ms, fork_exit_reap_ms = fork_costs()
    print(json.dumps({
        "import_ms": round(import_ms, 1),
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "modules": len(sys.modules),
        "modules_imported": len(sys.modules) - before,
        "scipy_loaded": "scipy" in sys.modules,
        "http_server_loaded": "http.server" in sys.modules,
        "fork_ms": round(fork_ms, 3),
        "fork_exit_reap_ms": round(fork_exit_reap_ms, 3),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
