"""Compare two result files of ``run.py --out``.

``python benchmarks/e2e/compare.py a.json b.json`` prints one row per
(end-to-end metric, workload): both medians (over the sets in each
file), the ratio ``b / a`` with ``a`` as its base, the metric's bound
from ``BENCHMARK.json``, and a verdict:

* ``worse``      -- ``b`` is worse than ``a`` by more than the bound;
* ``unresolved`` -- the set-to-set spread inside a file is wider than the
  bound, so the two cannot be told apart (unless every set of ``b`` reads
  better than every set of ``a``);
* ``ok``         -- anything else.

Exit status is 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def values(sets: list[dict], workload: str, metric: str) -> list[float]:
    """The metric's value in every set that ran the workload."""
    out = []
    for one in sets:
        entry = one.get(workload, {}).get("end_to_end", {}).get(metric)
        if entry is not None:
            out.append(entry["value"])
    return out


def spread(samples: list[float]) -> float:
    """Set-to-set spread as a share of the median: the interquartile
    distance with four or more sets, the full range with fewer."""
    if len(samples) < 2:
        return 0.0
    if len(samples) >= 4:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        width = q3 - q1
    else:
        width = max(samples) - min(samples)
    return width / abs(statistics.median(samples))


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (<= 0: not worse)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def compare(a_sets: list[dict], b_sets: list[dict], spec: dict) -> list[dict]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a, b = values(a_sets, workload, metric["name"]), values(b_sets, workload, metric["name"])
            if not a or not b:
                continue
            a_med, b_med = statistics.median(a), statistics.median(b)
            bound, better = metric["bound"], metric["better"]
            wide = max(spread(a), spread(b))
            if better == "lower":
                b_wins_all = max(b) < min(a)
            else:
                b_wins_all = min(b) > max(a)
            if wide > bound and not b_wins_all:
                verdict = "unresolved"
            elif worsening(a_med, b_med, better) > bound:
                verdict = "worse"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": metric["name"], "unit": metric["unit"],
                "a": a_med, "b": b_med, "ratio": b_med / a_med, "bound": bound,
                "spread": wide, "verdict": verdict,
            })
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'workload':<22} {'metric':<16} {'a':>12} {'b':>12} {'b/a':>7} "
             f"{'bound':>6} {'spread':>7}  verdict"]
    for r in rows:
        lines.append(
            f"{r['workload']:<22} {r['metric']:<16} {r['a']:>12.4f} {r['b']:>12.4f} "
            f"{r['ratio']:>7.3f} {r['bound']:>6.2f} {r['spread']:>7.3f}  {r['verdict']}"
            f"  [{r['unit']}; ratio base = a]")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    files = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            files.append(json.load(fh)["sets"])
    rows = compare(files[0], files[1], load_spec())
    print(format_rows(rows))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
