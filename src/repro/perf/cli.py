"""``python -m repro perf`` -- time the hot-path layers one at a time.

End-to-end claims are measured by ``benchmarks/e2e/run.py`` in pairs
(``benchmarks/pairs.py`` -> ``BENCH_e2e_<n>.json``).  This command runs
the micro cells of :mod:`repro.perf.suites` and prints per-group tables:

* ``--out PATH`` -- also write the run as a BENCH json.
* ``--baseline PATH`` -- compare (calibrated) against a previous BENCH
  file and **exit 1** if a catalogue cell regressed by more than 15% or
  disappeared; baseline cells the catalogue no longer defines are
  listed as retired, not compared.
* ``--quick`` -- every cell at shrunken scale and sampling, in seconds;
  exercises the whole catalogue, numbers not comparable.

Examples::

    python -m repro perf --baseline BENCH_seed.json
    python -m repro perf --only scheduler --repeats 7
    python -m repro perf --quick
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.perf.bench import BenchResult, RunnerConfig, calibrate, run_suite
from repro.perf.compare import (
    THRESHOLD,
    bench_payload,
    compare_runs,
    load_bench_json,
    write_bench_json,
)
from repro.perf.suites import SUITE, benchmarks, groups


def _fmt_result(r: BenchResult) -> str:
    return (
        f"  {r.name:<34} {r.median:>14,.0f} {r.unit:<8} "
        f"[{r.ci_lo:,.0f}, {r.ci_hi:,.0f}]  n={len(r.samples)}"
    )


def _run(args: argparse.Namespace) -> int:
    scale = "selftest" if args.quick else "default"
    benches = benchmarks(scale)
    if args.only:
        wanted = set(args.only)
        benches = [b for b in benches if b.name in wanted or b.group in wanted]
        unknown = wanted - {b.name for b in benches} - {b.group for b in benches}
        if unknown:
            print(f"unknown benchmark/group selector(s): {sorted(unknown)}")
            return 2
        if not benches:
            print("selection matched no benchmarks")
            return 2
    cfg = RunnerConfig().scaled_down() if args.quick else RunnerConfig(repeats=args.repeats)
    print("calibrating reference loop ...", flush=True)
    cal = calibrate()
    print(f"calibration: {cal:,.0f} iter/s")
    t0 = time.time()
    results: dict[str, BenchResult] = {}
    for group, members in groups(benches).items():
        print(f"{group}:")
        results.update(
            run_suite(members, cfg, progress=lambda name, r: print(_fmt_result(r), flush=True))
        )
    print(f"suite done in {time.time() - t0:.1f}s")

    payload = bench_payload(
        results,
        calibration=cal,
        config={"scale": scale, "repeats": cfg.repeats, "k": cfg.k, "warmup": cfg.warmup},
    )
    if args.out:
        print(f"wrote {write_bench_json(payload, Path(args.out))}")
    if args.baseline:
        return _gate(load_bench_json(args.baseline), payload)
    return 0


def _gate(baseline: dict, current: dict) -> int:
    """Gate ``current`` on the baseline cells the catalogue still
    defines; the others are listed as retired, never as missing."""
    results = baseline.get("results", {})
    retired = [name for name in results if name not in SUITE]
    kept = {**baseline, "results": {n: r for n, r in results.items() if n in SUITE}}
    deltas, missing = compare_runs(kept, current)
    print(f"\nregression gate vs baseline ({THRESHOLD:.0%} threshold, calibrated):")
    for d in deltas:
        print("  " + d.describe())
    for name in missing:
        print(f"  {name:<34} MISSING from current run")
    for name in retired:
        print(f"  {name:<34} retired from the catalogue, not compared")
    bad = [d for d in deltas if d.regressed]
    if bad or missing:
        print(f"perf gate: FAILED ({len(bad)} regression(s), {len(missing)} missing)")
        return 1
    print("perf gate: ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro perf",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--baseline", type=str, default=None,
                    help="BENCH json to gate against (exit 1 on a >15%% regression)")
    ap.add_argument("--only", action="append", default=None,
                    help="benchmark or group name (repeatable)")
    ap.add_argument("--out", type=str, default=None,
                    help="also write the run as a BENCH json at this path")
    ap.add_argument("--repeats", type=int, default=5, help="retained samples per benchmark")
    ap.add_argument("--quick", action="store_true",
                    help="shrunken workloads and sampling (not for BENCH numbers)")
    return _run(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
