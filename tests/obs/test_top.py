"""The ``python -m repro top`` monitor: parser, dashboard rendering,
and a real monitored run driven through ``main()``."""

from repro.apps import make_app
from repro.obs.live import MetricsCollector, MetricsRegistry
from repro.obs.top import build_parser, graph_keys, main, render_dashboard


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


class TestRenderDashboard:
    def test_frame_contains_summary_and_workers(self):
        registry = MetricsRegistry()
        registry.counter("repro_trace_total_computes").inc(12)
        registry.gauge("repro_worker_busy_seconds", worker=0).set(1.5)
        registry.gauge("repro_worker_busy_seconds", worker=1).set(0.5)
        registry.histogram("repro_dispatch_seconds").observe(1e-3)
        collector = MetricsCollector(registry, interval=0.05)
        collector.sample_once()
        frame = render_dashboard(registry, collector, title="unit test")
        assert "unit test" in frame
        assert "computes" in frame
        assert "worker" in frame and "util%" in frame
        assert "dispatch: 1 round trips" in frame

    def test_empty_registry_renders(self):
        registry = MetricsRegistry()
        collector = MetricsCollector(registry, interval=0.05)
        frame = render_dashboard(registry, collector, title="empty")
        assert "empty" in frame


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

    def test_crash_requires_procpool(self, capsys):
        rc = main(
            ["lcs", "--scale", "tiny", "--runtime", "threaded",
             "--crash", "1", "--plain"]
        )
        assert rc != 0
