"""BENCH JSON files: serialization and the regression gate.

A BENCH file is one suite run: per-benchmark median + bootstrap CI +
raw samples, plus the in-process calibration score that makes scores
comparable across machines.  ``BENCH_seed.json`` at the repo root is the
committed baseline; the numbered ``BENCH_<n>.json`` beside it are the
micro suite's history (``python -m repro perf --out PATH`` writes one).

The gate compares **calibrated** scores (score / reference-loop score):
raw ops/s on a laptop and on a throttled CI container differ 3x for
reasons that have nothing to do with the code.  A benchmark regresses
when its calibrated median is more than ``threshold`` (default 15%)
worse than the baseline's, with two noise guards:

* **CI overlap** -- if the current CI overlaps the baseline's CI, the
  difference is not resolvable at this sample size and is not flagged.
* **Calibration forgives, never accuses** -- the regression must also
  show up in the *raw* ratio.  The reference loop is pure interpreter
  dispatch; real workloads (locks, syscalls, memory traffic) scale
  less than 1:1 with host speed, so on a host *faster* than the
  baseline's, dividing by the calibration score deflates every
  benchmark and manufactures regressions out of thin air.  Calibration
  exists to excuse slower raw numbers on a slower host -- a benchmark
  whose raw score is at or above the baseline's cannot be a code
  regression.  (The dual risk -- a genuinely slower change masked by a
  much faster host -- is accepted: it re-fires on the next
  comparable-host run, while a false alarm would block every PR.)
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.perf.bench import BenchResult

SCHEMA_VERSION = 1
#: Calibrated relative slowdown that fails the gate.
THRESHOLD = 0.15


def bench_payload(
    results: Mapping[str, BenchResult],
    calibration: float,
    config: Mapping[str, object],
) -> dict:
    """The JSON document for one suite run."""
    return {
        "schema": SCHEMA_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "host": {
            "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "calibration": calibration,
        "config": dict(config),
        "results": {name: r.to_dict() for name, r in results.items()},
    }


def write_bench_json(payload: dict, path: Path) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_bench_json(path: Path | str) -> dict:
    data = json.loads(Path(path).read_text())
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported BENCH schema {data.get('schema')!r}")
    return data


# ---------------------------------------------------------------------------
# comparison


@dataclass(frozen=True)
class Delta:
    """One benchmark's baseline-vs-current comparison (calibrated)."""

    name: str
    unit: str
    baseline: float
    """Raw baseline median, in the benchmark's own units (for display)."""
    current: float
    """Raw current median, same units."""
    ratio: float
    """current / baseline in calibrated units; >1 means faster for
    higher-is-better benchmarks."""
    raw_ratio: float
    """current / baseline in raw units (same orientation as ``ratio``).
    A regression must show in both: see 'calibration forgives, never
    accuses' in the module docstring."""
    regressed: bool
    resolvable: bool
    """False when the CIs overlap: the difference is inside noise."""

    def describe(self) -> str:
        tag = "REGRESSED" if self.regressed else ("~" if not self.resolvable else "ok")
        return (
            f"{self.name:<34} {self.ratio:>6.2f}x vs baseline (calibrated; "
            f"raw {self.raw_ratio:.2f}x, {self.current:,.0f} vs "
            f"{self.baseline:,.0f} {self.unit}) [{tag}]"
        )


def compare_runs(
    baseline: dict, current: dict, threshold: float = THRESHOLD
) -> tuple[list[Delta], list[str]]:
    """Compare two BENCH documents; returns ``(deltas, missing)``.

    ``missing`` lists benchmarks present in the baseline but absent from
    the current run (a silently-dropped benchmark must fail the gate too,
    otherwise deleting a slow benchmark "fixes" its regression).  A
    current median that is not positive is a regression for the same
    reason.
    """
    base_cal = float(baseline.get("calibration") or 1.0)
    cur_cal = float(current.get("calibration") or 1.0)
    deltas: list[Delta] = []
    missing: list[str] = []
    base_results = baseline.get("results", {})
    cur_results = current.get("results", {})
    for name, base in base_results.items():
        cur = cur_results.get(name)
        if cur is None:
            missing.append(name)
            continue
        hib = bool(base.get("higher_is_better", True))
        b_raw, c_raw = float(base["median"]), float(cur["median"])
        b = b_raw / base_cal
        c = c_raw / cur_cal
        if b <= 0:
            continue
        if c > 0:
            ratio = (c / b) if hib else (b / c)
            raw_ratio = (c_raw / b_raw) if hib else (b_raw / c_raw)
        else:
            ratio = raw_ratio = 0.0
        b_lo, b_hi = float(base["ci_lo"]) / base_cal, float(base["ci_hi"]) / base_cal
        c_lo, c_hi = float(cur["ci_lo"]) / cur_cal, float(cur["ci_hi"]) / cur_cal
        resolvable = c_hi < b_lo or c_lo > b_hi
        bar = 1.0 - threshold
        regressed = c <= 0 or (resolvable and ratio < bar and raw_ratio < bar)
        deltas.append(
            Delta(
                name=name,
                unit=str(base.get("unit", "ops/s")),
                baseline=b_raw,
                current=c_raw,
                ratio=ratio,
                raw_ratio=raw_ratio,
                regressed=regressed,
                resolvable=resolvable,
            )
        )
    return deltas, missing
