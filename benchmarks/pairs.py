"""Alternating parent/change pairs of the end-to-end benchmark.

    python benchmarks/pairs.py --root DIR --parent REV
        --workload W:N [--workload W:N ...] [--seed S] [--out BENCH_e2e_<n>.json]

The change is the working tree: the files ``git ls-files`` lists, as
they are now; the parent is ``git archive REV``.  Both trees are
exported under one ``--root``, because a tree's location alone moves
timings by a few per cent.  ``W:N`` runs ``N`` pairs of ``W``.
Pair ``i`` runs ``benchmarks/e2e/run.py --workload W --seed S+i --out
...`` in each tree, parent first on even ``i`` and change first on odd
``i``; each run is the timed arm plus the traced arm of that tree's own
harness, followed by ``footprint.py`` (this checkout's) on that tree.

Every run is recorded: seed, order, every end-to-end metric (with the
raw wall-clock reading beside each host-normalised one), every
per-layer metric, failures, the host fingerprint with its calibrated
speed, the in-run host slowdown and the footprint.  Each (workload,
end-to-end metric) is summarised -- medians and quartiles per side, the
change's wins (ties count for neither), and whether the change is worse
than the parent's median by more than the metric's ``BENCHMARK.json``
bound -- and so is each footprint quantity.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def export(rev: str | None, dest: str) -> str:
    """``rev`` (``None``: the listed working-tree files) as a fresh tree at ``dest``."""
    os.makedirs(dest)
    if rev is None:
        files = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, check=True,
                               capture_output=True).stdout
        pack = subprocess.run(["tar", "--null", "-T", "-", "-c"], cwd=ROOT, check=True,
                              input=files, capture_output=True).stdout
    else:
        pack = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                              capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=pack, check=True)
    return dest


def run_once(tree: str, workload: str, seed: int, out: str) -> dict:
    """One run of ``workload`` in ``tree``: its result entry and host record."""
    cmd = [sys.executable, os.path.join(tree, "benchmarks", "e2e", "run.py"),
           "--workload", workload, "--seed", str(seed), "--out", out]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    try:
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        entry = doc["sets"][0][workload]
    except (OSError, ValueError, KeyError):
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:]
        return {"failed": 1, "failures": [f"exit {proc.returncode}: {tail}"]}
    return {
        "end_to_end": {k: v["value"] for k, v in entry["end_to_end"].items()},
        # The wall-clock reading before the harness divides out its host
        # probe's slowdown (only the four host-normalised metrics have one).
        "end_to_end_raw": {k: v["raw"] for k, v in entry["end_to_end"].items() if "raw" in v},
        "per_layer": {k: v["value"] for k, v in entry["per_layer"].items()},
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "failures": entry["failures"],
        "host_slowdown": entry["host_slowdown"],
        "host": doc["host"],
        "wall_s": round(time.monotonic() - t0, 1),
    }


def footprint(tree: str) -> dict:
    """``footprint.py``'s import and fork costs of ``tree``'s harness."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "footprint.py"), "--tree", tree],
                          cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


FOOTPRINT = ("import_ms", "peak_rss_mib", "modules", "fork_ms", "fork_exit_reap_ms")


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def compare(workload: str, metric: str, better: str, a: list[float], b: list[float]) -> dict:
    """One summary row: per-side median and quartiles, and the change's wins."""
    sign = 1 if better == "lower" else -1
    (a_q1, a_med, a_q3), (b_q1, b_med, b_q3) = quartiles(a), quartiles(b)
    return {
        "workload": workload, "metric": metric, "better": better, "pairs": len(a),
        "change_wins": sum(sign * (y - x) < 0 for x, y in zip(a, b)),
        "parent": {"median": a_med, "q1": a_q1, "q3": a_q3},
        "change": {"median": b_med, "q1": b_q1, "q3": b_q3},
        "ratio": b_med / a_med if a_med else None,
        "gap_exceeds_parent_iqr": abs(b_med - a_med) > a_q3 - a_q1,
    }


def summarise(pairs: list[dict], spec: dict) -> list[dict]:
    """Rows per (workload, end-to-end metric) -- the harness's reading, then
    the raw wall-clock one of the four host-normalised metrics -- and per
    footprint quantity."""
    rows = []
    for workload in sorted({p["workload"] for p in pairs}):
        mine = [p for p in pairs if p["workload"] == workload
                and "end_to_end" in p["parent"] and "end_to_end" in p["change"]]
        for kind in ("end_to_end", "end_to_end_raw"):
            for metric in spec["end_to_end"]:
                name, better = metric["name"], metric["better"]
                if not mine or name not in mine[0]["parent"][kind]:
                    continue
                a = [p["parent"][kind][name] for p in mine]
                b = [p["change"][kind][name] for p in mine]
                row = compare(workload, name if kind == "end_to_end" else f"{name} (raw)",
                              better, a, b)
                if kind == "end_to_end":
                    sign = 1 if better == "lower" else -1
                    worse = sign * (row["change"]["median"] / row["parent"]["median"] - 1)
                    row.update(unit=metric["unit"], bound=metric["bound"],
                               worse_beyond_bound=worse > metric["bound"])
                rows.append(row)
    for name in FOOTPRINT:
        rows.append(compare("harness import (footprint.py)", name, "lower",
                            [p["parent"]["footprint"][name] for p in pairs],
                            [p["change"]["footprint"][name] for p in pairs]))
    return rows


def workload_pairs(item: str) -> tuple[str, int]:
    """``W:N`` as ``(W, N)``."""
    workload, sep, count = item.partition(":")
    if not sep or not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(f"expected W:N with N >= 1, got {item!r}")
    return workload, int(count)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", required=True, help="empty scratch directory for both trees")
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--workload", action="append", required=True, type=workload_pairs,
                    help="W:N, N pairs of workload W")
    ap.add_argument("--seed", type=int, default=int(time.time()) % 100000)
    ap.add_argument("--out", default=None, help="write the pairs JSON here")
    args = ap.parse_args(argv)

    trees = {"parent": export(args.parent, os.path.join(args.root, "parent")),
             "change": export(None, os.path.join(args.root, "change"))}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    pairs = []
    for workload, count in args.workload:
        for i in range(count):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"workload": workload, "seed": seed, "order": list(order)}
            for side in order:
                out = os.path.join(args.root, f"{workload}.{i}.{side}.json")
                pair[side] = run_once(trees[side], workload, seed, out)
                pair[side]["footprint"] = footprint(trees[side])
            pairs.append(pair)
            e2e = {s: pair[s].get("end_to_end", {}) for s in order}
            print(f"{workload} pair {i} seed {seed} {order[0]} first: "
                  + "  ".join(f"{m}={e2e['parent'].get(m, float('nan')):.4g}->"
                              f"{e2e['change'].get(m, float('nan')):.4g}"
                              for m in ("tasks_per_s", "peak_rss_mb", "setup_s")),
                  flush=True)
    rows = summarise(pairs, spec)
    for r in rows:
        print(f"{r['workload']:<22} {r['metric']:<17} {r['parent']['median']:>10.4g} -> "
              f"{r['change']['median']:>10.4g} wins {r['change_wins']}/{r['pairs']}"
              f"{'  WORSE' if r.get('worse_beyond_bound') else ''}")
    failed = sum(p[s].get("failed", 0) for p in pairs for s in ("parent", "change"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"benchmark": "benchmarks/e2e", "parent": args.parent,
                       "change": "working tree", "base_seed": args.seed,
                       "pairs": pairs, "summary": rows, "failed_runs": failed}, fh, indent=1)
    return 1 if failed or any(r.get("worse_beyond_bound") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
