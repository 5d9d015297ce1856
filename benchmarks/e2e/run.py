"""The repo's end-to-end benchmark (see ``README.md`` beside this file).

Two ways in:

* ``python benchmarks/e2e/run.py [--workload W ...] [--seed N] [--quick]
  [--sets K] [--out results.json] [--trace-out spans.jsonl]`` runs every
  (or the named) workload, timed arms then traced arm, verifies every
  run, and prints every metric by name with its unit and sample count.
  Exits non-zero on any failed run, leak or missing metric, and with
  ``--sets K`` unless every end-to-end metric agrees across the sets
  within its bound.
* ``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S
  --trace 0|1`` is the harness contract of ``BENCHMARK.json``: one
  workload, and the last stdout line is one JSON object with the
  end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics.

Every workload runs in fresh subprocesses of ``child.py``.  ``setup_s``
is the median over ``SETUP_REPS`` of them (the extra ones stop after
set-up), because one process start is too noisy a sample.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
PIN_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
CHILD_TIMEOUT_S = 170
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

sys.path.insert(0, HERE)
import compare  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    for var in PIN_ENV:
        env[var] = "1"
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def spawn_child(args: list[str]) -> dict:
    """Run ``child.py`` to completion and parse its last stdout line.

    The child gets a process group of its own, killed when it is done:
    whatever it started (pool workers, worker servers, probe peers) is
    gone before this returns, even if the child hung or crashed."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args,
           "--spawned-at", repr(time.time())]
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout, stderr = "", f"no result within {CHILD_TIMEOUT_S} s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = (stderr or stdout).strip().splitlines()[-1:]
        return {"failures": [f"child exited {proc.returncode} without a result: {tail}"]}
    if proc.returncode != 0 and not out.get("failures"):
        out.setdefault("failures", []).append(f"child exited {proc.returncode}")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int, quick: bool,
                 trace_out: str | None, spec: dict) -> dict:
    """One workload, one mode: ``{"metrics", "attempted", "failed", "failures", ...}``."""
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)] + (["--quick"] if quick else [])
    failures: list[str] = []
    setups: list[float] = []
    if trace == 0:
        for _ in range(0 if quick else SETUP_REPS - 1):
            rep = spawn_child(base + ["--setup-only"])
            failures += rep.get("failures", [])
            if "setup_s" in rep:
                setups.append(rep["setup_s"])
    out = spawn_child(base + (["--trace-out", trace_out] if trace_out and trace else []))
    failures += out.get("failures", [])
    metrics = out.get("metrics", {})
    if "setup_s" in metrics:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"] = {"value": statistics.median(setups), "n": len(setups)}
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    for metric, unit in declared.items():
        entry = metrics.get(metric)
        if entry is None:
            failures.append(f"missing metric {metric}")
        elif not math.isfinite(entry["value"]):
            failures.append(f"metric {metric} is not finite: {entry['value']}")
        else:
            entry["unit"] = unit
    for metric in set(metrics) - set(declared):
        failures.append(f"metric {metric} is not declared in BENCHMARK.json")
    attempted = max(1, out.get("attempted", 0))
    return {
        "metrics": {k: v for k, v in metrics.items() if k in declared and "unit" in v},
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "tasks": out.get("tasks", 0),
        "runs": out.get("runs", {}),
        "host_slowdown": out.get("host_slowdown"),
    }


def host_fingerprint() -> dict:
    """Information, not metrics: what the numbers were measured on."""
    for var in PIN_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import numpy

    from repro.perf.bench import calibrate

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of show_config varies across NumPy versions
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "calibrate_loops_per_s": calibrate(),
    }


def print_table(name: str, result: dict, layer: str) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name:<22} {layer:<10} {metric:<40} {entry['value']:>14.4f} "
              f"{entry['unit']:<8} n={entry['n']}")
    for failure in result["failures"]:
        print(f"{name:<22} FAILED     {failure}")


def run_set(names: list[str], args: argparse.Namespace, spec: dict) -> tuple[dict, int]:
    results: dict[str, dict] = {}
    failed = 0
    for name in names:
        timed = run_workload(name, args.seed, args.seconds, 0, args.quick, None, spec)
        print_table(name, timed, "end_to_end")
        trace_out = args.trace_out and f"{args.trace_out}.{name}"
        traced = run_workload(name, args.seed, args.seconds, 1, args.quick, trace_out, spec)
        print_table(name, traced, "per_layer")
        failed += timed["failed"] + traced["failed"]
        attempted = timed["attempted"] + traced["attempted"]
        results[name] = {
            "end_to_end": timed["metrics"],
            "per_layer": traced["metrics"],
            "tasks": timed["tasks"],
            "runs": {"timed": timed["runs"], "traced": traced["runs"]},
            "host_slowdown": timed["host_slowdown"],
            "attempted": attempted,
            "failed": timed["failed"] + traced["failed"],
            "failed_runs_pct": 100.0 * (timed["failed"] + traced["failed"]) / attempted,
            "failures": timed["failures"] + traced["failures"],
        }
    return results, failed


def merge_trace_files(path: str, names: list[str]) -> None:
    """Concatenate the per-workload span files into ``path``."""
    with open(path, "w", encoding="utf-8") as out:
        for name in names:
            part = f"{path}.{name}"
            if not os.path.exists(part):
                continue
            with open(part, encoding="utf-8") as fh:
                for line in fh:
                    span = json.loads(line)
                    span["workload"] = name
                    out.write(json.dumps(span) + "\n")
            os.remove(part)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", default=None,
                    help="workload name (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring window per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="harness mode: one workload, one JSON line (0: end-to-end, 1: per-layer)")
    ap.add_argument("--quick", action="store_true", help="smoke sizes and 4/2/1 runs per arm")
    ap.add_argument("--sets", type=int, default=1,
                    help="run the whole benchmark this many times and require agreement")
    ap.add_argument("--out", default=None, help="write the results JSON here")
    ap.add_argument("--trace-out", default=None, help="write the traced arm's spans (JSONL) here")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure under {SRC}", file=sys.stderr)
        return 2
    spec = compare.load_spec()
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    for name in names:
        if name not in known:
            ap.error(f"unknown workload {name!r}; expected one of {known}")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    if args.trace is not None:
        if len(names) != 1:
            ap.error("--trace takes exactly one --workload")
        result = run_workload(names[0], args.seed, args.seconds, args.trace, args.quick,
                              args.trace_out, spec)
        print_table(names[0], result, "per_layer" if args.trace else "end_to_end")
        print(json.dumps({
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in result["metrics"].items()},
        }))
        return 1 if result["failed"] else 0

    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not NAME_RE.fullmatch(metric["name"]):
            print(f"run.py: bad metric name {metric['name']!r}", file=sys.stderr)
            return 2
    document = {
        "benchmark": "benchmarks/e2e",
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "env": {var: "1" for var in PIN_ENV},
        "host": host_fingerprint(),
        "sets": [],
    }
    print(f"# host: {document['host']}")
    failed = 0
    for i in range(args.sets):
        print(f"# set {i + 1} of {args.sets} (seed {args.seed}, {args.seconds:g} s per run)")
        results, bad = run_set(names, args, spec)
        document["sets"].append(results)
        failed += bad
    if args.trace_out:
        merge_trace_files(args.trace_out, names)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1)
    disagree = 0
    for i in range(1, args.sets):
        first, other = [document["sets"][0]], [document["sets"][i]]
        rows = compare.compare(first, other, spec)
        back = {(r["workload"], r["metric"]): r for r in compare.compare(other, first, spec)}
        for r in rows:
            if back[(r["workload"], r["metric"])]["verdict"] == "worse":
                r["verdict"] = "worse"
        print(f"# set 1 (a) against set {i + 1} (b)")
        print(compare.format_rows(rows))
        disagree += sum(r["verdict"] == "worse" for r in rows)
    if failed or disagree:
        print(f"# FAILED: {failed} failures, {disagree} metrics outside their bound")
        return 1
    print("# ok: every run verified, nothing leaked, every metric reported")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
