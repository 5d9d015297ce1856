"""Unit tests for the repro.perf benchmark toolkit: the statistical
runner, the BENCH JSON round trip, the calibrated regression gate
(including its CI-overlap noise guard), and the CLI gate's catalogue
filter against the committed BENCH files."""

import json
from pathlib import Path

import pytest

from repro.perf.bench import (
    Benchmark,
    RunnerConfig,
    bootstrap_ci,
    calibrate,
    median,
    run_benchmark,
    run_suite,
)
from repro.perf.compare import (
    bench_payload,
    compare_runs,
    load_bench_json,
    write_bench_json,
)
from repro.perf.cli import _gate
from repro.perf.suites import SUITE, benchmarks, groups

#: The committed BENCH files: ``BENCH_seed.json`` and the micro suite's
#: numbered history (``BENCH_e2e_*`` are the e2e benchmark's, another
#: schema).
COMMITTED = sorted(
    p for p in (Path(__file__).resolve().parents[2]).glob("BENCH_*.json")
    if not p.name.startswith("BENCH_e2e_")
)


def counting_bench(name="toy", group="g", ops=100):
    return Benchmark(name=name, group=group, make=lambda: (lambda: ops))


class TestStatistics:
    def test_median_odd_even_and_empty(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
        with pytest.raises(ValueError):
            median([])

    def test_bootstrap_ci_brackets_median_and_is_deterministic(self):
        samples = [10.0, 11.0, 9.0, 10.5, 10.2]
        lo, hi = bootstrap_ci(samples, n_boot=500, seed=7)
        assert lo <= median(samples) <= hi
        assert (lo, hi) == bootstrap_ci(samples, n_boot=500, seed=7)

    def test_bootstrap_ci_single_sample_collapses(self):
        assert bootstrap_ci([42.0]) == (42.0, 42.0)


class TestRunner:
    def test_run_benchmark_shapes_the_result(self):
        cfg = RunnerConfig(repeats=3, k=2, warmup=1, bootstrap=100)
        r = run_benchmark(counting_bench(), cfg)
        assert r.name == "toy" and r.group == "g"
        assert len(r.samples) == 3
        assert r.ops_per_batch == 100
        assert r.median > 0
        assert r.ci_lo <= r.median <= r.ci_hi

    def test_fresh_state_per_sample(self):
        """make() must be called once per warmup + per timing, so
        single-use workloads (schedulers) stay honest."""
        calls = []

        def make():
            calls.append(1)
            return lambda: 1

        cfg = RunnerConfig(repeats=2, k=3, warmup=1, bootstrap=50)
        run_benchmark(Benchmark(name="b", group="g", make=make), cfg)
        assert len(calls) == 1 + 2 * 3

    def test_run_suite_preserves_order_and_reports_progress(self):
        seen = []
        benches = [counting_bench(name=f"b{i}") for i in range(3)]
        out = run_suite(benches, RunnerConfig().scaled_down(),
                        progress=lambda name, r: seen.append(name))
        assert list(out) == seen == ["b0", "b1", "b2"]

    def test_calibrate_is_positive(self):
        assert calibrate(loops=10_000, k=1) > 0


class TestBenchJson:
    def _payload(self):
        results = run_suite([counting_bench()], RunnerConfig().scaled_down())
        return bench_payload(results, calibration=1e6, config={"scale": "selftest"})

    def test_round_trip(self, tmp_path):
        payload = self._payload()
        path = write_bench_json(payload, tmp_path / "BENCH_x.json")
        reloaded = load_bench_json(path)
        assert reloaded == json.loads(json.dumps(payload))

    def test_schema_mismatch_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema": 999}))
        with pytest.raises(ValueError, match="schema"):
            load_bench_json(p)


def delta_payload(median, lo, hi, calibration=1.0, hib=True):
    return {
        "schema": 1,
        "calibration": calibration,
        "results": {
            "bench": {
                "unit": "ops/s",
                "higher_is_better": hib,
                "median": median,
                "ci_lo": lo,
                "ci_hi": hi,
            }
        },
    }


class TestRegressionGate:
    def test_identical_runs_pass(self):
        base = delta_payload(100.0, 95.0, 105.0)
        deltas, missing = compare_runs(base, base)
        assert not missing
        assert not any(d.regressed for d in deltas)

    def test_clear_regression_fires(self):
        base = delta_payload(100.0, 99.0, 101.0)
        cur = delta_payload(50.0, 49.0, 51.0)
        (d,), missing = compare_runs(base, cur, threshold=0.15)
        assert d.regressed and d.resolvable
        assert d.ratio == pytest.approx(0.5)

    def test_ci_overlap_is_noise_not_regression(self):
        """A 20% drop whose CI still overlaps the baseline's CI must not
        fail the gate -- unresolvable at this sample size."""
        base = delta_payload(100.0, 70.0, 130.0)
        cur = delta_payload(80.0, 60.0, 100.0)
        (d,), _ = compare_runs(base, cur, threshold=0.15)
        assert not d.resolvable
        assert not d.regressed

    def test_calibration_cancels_machine_speed(self):
        """Half the raw score on a machine with half the calibration
        score is not a regression."""
        base = delta_payload(100.0, 99.0, 101.0, calibration=2.0)
        cur = delta_payload(50.0, 49.5, 50.5, calibration=1.0)
        (d,), _ = compare_runs(base, cur)
        assert d.ratio == pytest.approx(1.0)
        assert not d.regressed

    def test_faster_host_does_not_manufacture_regressions(self):
        """Calibration forgives, never accuses: on a host whose reference
        loop runs 40% faster but whose workload raw score is unchanged,
        the deflated calibrated ratio alone must not fail the gate."""
        base = delta_payload(100.0, 99.0, 101.0, calibration=1.0)
        cur = delta_payload(100.0, 99.0, 101.0, calibration=1.4)
        (d,), _ = compare_runs(base, cur, threshold=0.15)
        assert d.ratio == pytest.approx(1 / 1.4)
        assert d.raw_ratio == pytest.approx(1.0)
        assert not d.regressed

    def test_regression_on_same_host_still_fires(self):
        """The raw-ratio guard must not swallow a real regression when
        the calibration scores agree."""
        base = delta_payload(100.0, 99.0, 101.0, calibration=2.0)
        cur = delta_payload(50.0, 49.0, 51.0, calibration=2.0)
        (d,), _ = compare_runs(base, cur, threshold=0.15)
        assert d.regressed and d.raw_ratio == pytest.approx(0.5)

    def test_lower_is_better_direction(self):
        base = delta_payload(10.0, 9.0, 11.0, hib=False)
        cur = delta_payload(30.0, 29.0, 31.0, hib=False)
        (d,), _ = compare_runs(base, cur)
        assert d.regressed

    def test_dropped_benchmark_is_flagged(self):
        base = delta_payload(100.0, 99.0, 101.0)
        cur = {"schema": 1, "calibration": 1.0, "results": {}}
        deltas, missing = compare_runs(base, cur)
        assert missing == ["bench"]
        assert not deltas

    @pytest.mark.parametrize("hib", [True, False])
    def test_cell_that_measured_nothing_regresses(self, hib):
        """A current median of zero is no faster than anything: it must
        fail the gate, not slip past as neither regressed nor missing."""
        base = delta_payload(100.0, 99.0, 101.0, hib=hib)
        cur = delta_payload(0.0, 0.0, 0.0, hib=hib)
        (d,), missing = compare_runs(base, cur)
        assert d.regressed and not missing


def gate_doc(*names, median=100.0):
    return {
        "schema": 1,
        "calibration": 1.0,
        "results": {
            name: {"unit": "ops/s", "higher_is_better": True,
                   "median": median, "ci_lo": median - 1, "ci_hi": median + 1}
            for name in names
        },
    }


class TestCatalogueGate:
    def test_committed_bench_files_exist(self):
        assert "BENCH_seed.json" in {p.name for p in COMMITTED}

    @pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.name)
    def test_committed_bench_file_gates_against_itself(self, path, capsys):
        doc = load_bench_json(path)
        assert _gate(doc, doc) == 0
        out = capsys.readouterr().out
        assert "MISSING" not in out
        for name in doc["results"]:
            assert (f"{name:<34} retired from the catalogue" in out) == (name not in SUITE)

    def test_retired_cell_is_listed_and_catalogue_cell_still_missing(self, capsys):
        kept, gone = SUITE[0], "cell_no_longer_in_the_catalogue"
        baseline = gate_doc(kept, gone)
        assert _gate(baseline, gate_doc(kept)) == 0
        out = capsys.readouterr().out
        assert "MISSING" not in out
        assert f"{gone:<34} retired from the catalogue" in out
        assert _gate(baseline, gate_doc()) == 1
        out = capsys.readouterr().out
        assert f"{kept:<34} MISSING from current run" in out
        assert f"{gone:<34} MISSING" not in out


class TestSuiteRegistry:
    def test_names_unique_and_scales_agree(self):
        default = benchmarks("default")
        selftest = benchmarks("selftest")
        names = [b.name for b in default]
        assert len(names) == len(set(names))
        assert names == [b.name for b in selftest]

    def test_acceptance_benchmarks_present(self):
        names = {b.name for b in benchmarks("default")}
        assert "sim_events_per_sec" in names
        assert "sched_tasks_per_sec_tracing_off" in names
        assert "sched_tasks_per_sec_cold_spec" in names

    def test_cold_spec_benchmark_builds_its_spec_per_batch(self, monkeypatch):
        from repro.perf import suites

        built = []
        real = suites._noop_grid_spec
        monkeypatch.setattr(suites, "_noop_grid_spec", lambda n: built.append(n) or real(n))
        for cold, per_make in ((True, 1), (False, 0)):
            make = suites._bench_sched(4, traced=False, cold=cold)
            del built[:]
            assert make()() == make()() == 16
            assert len(built) == 2 * per_make

    def test_groups_partition_the_suite(self):
        benches = benchmarks("selftest")
        grouped = groups(benches)
        assert sum(len(v) for v in grouped.values()) == len(benches)
        for group, members in grouped.items():
            assert all(b.group == group for b in members)

    def test_every_selftest_benchmark_executes(self):
        """Each benchmark's make() must produce a runnable batch at the
        shrunken scale (the CI smoke path)."""
        for b in benchmarks("selftest"):
            batch = b.make()
            assert batch() > 0, b.name
