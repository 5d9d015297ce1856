"""The ``python -m repro top`` monitor: parser, dashboard rendering,
and a real monitored run driven through ``main()``."""

import pytest

from repro.apps import make_app
from repro.obs.live import MetricsRegistry, MetricsServer, histogram_quantile, render_prometheus
from repro.obs.top import build_parser, graph_keys, main, parse_prometheus, render_dashboard


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.app == "cholesky"
        assert args.runtime == "procpool"
        assert args.workers == 4
        assert args.crash == 0 and args.faults == 0
        assert not args.serve and args.connect is None

    def test_monitor_flags(self):
        args = build_parser().parse_args(
            ["lcs", "--runtime", "threaded", "--workers", "2",
             "--crash", "1", "--serve", "--port", "9000", "--plain"]
        )
        assert args.app == "lcs" and args.runtime == "threaded"
        assert args.crash == 1 and args.port == 9000 and args.plain


class TestGraphKeys:
    def test_covers_whole_dag_and_ends_at_sink(self):
        app = make_app("lcs", scale="tiny")
        keys = graph_keys(app)
        assert keys[0] == app.sink_key()
        assert len(keys) == len(set(keys)), "each key exactly once"
        # Reverse BFS from the sink reaches every predecessor.
        for key in keys:
            for pred in app.predecessors(key):
                assert pred in set(keys)


def _watched_registry():
    """One registry state with per-worker rows, dispatch buckets and a
    crash count, every value fixed (no clock-backed gauge)."""
    registry = MetricsRegistry()
    registry.counter("repro_trace_total_computes").inc(12)
    registry.counter("repro_worker_crashes_total").inc(2)
    registry.gauge("repro_run_elapsed_seconds").set(3.0)
    registry.gauge("repro_worker_busy_seconds", worker=0).set(1.5)
    registry.gauge("repro_worker_busy_seconds", worker=1).set(0.5)
    registry.gauge("repro_worker_frames", worker=0).set(40)
    registry.gauge("repro_worker_frames", worker=1).set(9)
    registry.callback_gauge("repro_queue_depth", lambda: 3, worker=1)
    hist = registry.histogram("repro_dispatch_seconds")
    for dt in (2e-4, 4e-4, 8e-4, 3e-3):
        hist.observe(dt)
    return registry


class TestRenderDashboard:
    def test_frame_contains_summary_and_workers(self):
        frame = render_dashboard(_watched_registry().collect(), "unit test", state="running")
        assert "unit test" in frame and "[running    3.0s]" in frame
        assert "computes 12" in frame and "worker-crashes 2" in frame
        assert "worker" in frame and "util%" in frame
        assert "dispatch: 4 round trips, p50 0.50 ms, p90 4.00 ms" in frame

    def test_empty_registry_renders(self):
        frame = render_dashboard(MetricsRegistry().collect(), "empty")
        assert frame == "repro top -- empty"

    def test_a_scrape_renders_the_frame_collect_renders(self):
        registry = _watched_registry()
        local = render_dashboard(registry.collect(), "t")
        scraped = render_dashboard(parse_prometheus(render_prometheus(registry)), "t")
        assert scraped == local
        rows = local.splitlines()
        assert any(r.split()[:3] == ["0", "1.50", "50.0"] for r in rows)
        assert any(r.split()[:5] == ["1", "0.50", "16.7", "9", "3"] for r in rows)
        assert "worker-crashes 2" in local and "p50 0.50 ms, p90 4.00 ms" in local

    def test_quantiles_come_from_the_bucket_samples(self):
        samples = _watched_registry().collect()
        p50 = histogram_quantile(samples, "repro_dispatch_seconds", 0.5)
        p90 = histogram_quantile(samples, "repro_dispatch_seconds", 0.9)
        frame = render_dashboard(samples, "t")
        assert f"p50 {p50 * 1e3:.2f} ms, p90 {p90 * 1e3:.2f} ms" in frame
        assert (p50, p90) == pytest.approx((5e-4, 4e-3))


class TestRates:
    def test_rate_against_the_previous_frame(self):
        registry = MetricsRegistry()
        computes = registry.counter("repro_trace_total_computes")
        computes.inc(10)
        before = registry.collect()
        computes.inc(40)
        assert "80 tasks/s" in render_dashboard(registry.collect(), "t", before, 0.5)

    def test_no_rate_without_a_previous_frame_or_series(self):
        registry = MetricsRegistry()
        registry.counter("repro_trace_total_computes").inc(10)
        now = registry.collect()
        assert "tasks/s" not in render_dashboard(now, "t")
        assert "tasks/s" not in render_dashboard(now, "t", MetricsRegistry().collect(), 1.0)


class TestConnect:
    def test_frames_from_a_live_endpoint(self, capsys):
        registry = _watched_registry()
        with MetricsServer(registry) as server:
            rc = main(["--connect", f"127.0.0.1:{server.port}", "--frames", "2",
                       "--plain", "--interval", "0.01"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("repro top -- remote") == 2
        assert "worker-crashes 2" in out

    def test_a_lost_endpoint_exits_one(self, capsys):
        with MetricsServer(MetricsRegistry()) as server:
            port = server.port
        rc = main(["--connect", f"127.0.0.1:{port}", "--plain", "--interval", "0.01"])
        assert rc == 1
        assert "top: lost" in capsys.readouterr().err


class TestMain:
    def test_plain_threaded_run_exits_zero(self, capsys):
        rc = main(
            ["lcs", "--scale", "tiny", "--runtime", "threaded",
             "--workers", "2", "--plain", "--interval", "0.05"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "wall-clock budget" in out, "attribution tail must print"
        assert "total wall time" in out

    def test_non_positive_interval_rejected(self, capsys):
        assert main(["lcs", "--interval", "0", "--plain"]) == 2
        assert main(["--connect", "127.0.0.1:1", "--interval", "-1"]) == 2
        assert "--interval must be positive" in capsys.readouterr().err

    def test_crash_requires_procpool(self, capsys):
        rc = main(
            ["lcs", "--scale", "tiny", "--runtime", "threaded",
             "--crash", "1", "--plain"]
        )
        assert rc != 0
