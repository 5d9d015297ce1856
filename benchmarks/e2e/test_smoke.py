"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e -q``.

Outside tier-1's ``testpaths`` on purpose: it spawns worker servers and
process pools and takes ~20 s.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_quick_run_reports_every_metric_once(tmp_path):
    out, spans = tmp_path / "results.json", tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, RUN, "--quick", "--out", str(out), "--trace-out", str(spans)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    spec = load_spec()
    document = json.loads(out.read_text())
    assert set(document["env"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert document["host"]["nproc"] >= 1
    (results,) = document["sets"]
    assert list(results) == [w["name"] for w in spec["workloads"]]
    table = proc.stdout.splitlines()
    for workload, result in results.items():
        assert result["failed"] == 0 and result["failed_runs_pct"] == 0.0, result["failures"]
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in spec[section]}
            assert set(result[section]) == set(declared), workload
            for name, entry in result[section].items():
                assert NAME_RE.fullmatch(name), name
                assert math.isfinite(entry["value"]), (workload, name)
                assert entry["unit"] == declared[name]
                rows = [ln for ln in table if ln.split()[:3] == [workload, section, name]]
                assert len(rows) == 1, (workload, name, rows)
    lines = spans.read_text().splitlines()
    assert lines, "the traced arm wrote no spans"
    first = json.loads(lines[0])
    assert set(first) == {"id", "name", "t0", "t1", "parent", "run", "thread", "workload"}
    assert {json.loads(ln)["name"] for ln in lines} >= {
        "scheduler.run", "runtime.execute", "runtime.compute_dispatch", "spec.compute",
        "store.read", "store.write"}


def test_harness_mode_prints_one_result_line():
    spec = load_spec()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, RUN, "--quick", "--workload", "lcs_procpool_crash", "--seed", "7",
             "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec[section]}
        for entry in result["metrics"].values():
            assert set(entry) == {"value", "unit"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "grid_inline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
