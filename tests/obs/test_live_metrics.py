"""Unit tests for the live-metrics layer: registry semantics, histogram
quantiles read off bucket samples, Prometheus rendering, the HTTP
endpoint, and telemetry off as ``metrics=None``."""

import json
import threading
import urllib.request

import pytest

from repro.obs.live import (
    DEFAULT_BUCKETS,
    CallbackGauge,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsServer,
    histogram_quantile,
    iter_worker_values,
    render_prometheus,
)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_tasks_total", "tasks")
        b = reg.counter("repro_tasks_total")
        assert a is b
        a.inc()
        assert b.value == 1.0

    def test_distinct_labels_are_distinct_instruments(self):
        reg = MetricsRegistry()
        w0 = reg.counter("repro_frames_total", worker=0)
        w1 = reg.counter("repro_frames_total", worker=1)
        assert w0 is not w1
        w0.inc(3)
        assert reg.value("repro_frames_total", worker=0) == 3.0
        assert reg.value("repro_frames_total", worker=1) == 0.0

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.gauge("g", a=1, b=2)
        b = reg.gauge("g", b=2, a=1)
        assert a is b

    def test_type_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_mixed")
        with pytest.raises(TypeError):
            reg.gauge("repro_mixed")
        # ... even under different labels: one name, one kind.
        with pytest.raises(TypeError):
            reg.histogram("repro_mixed", worker=3)

    def test_collect_flattens_every_instrument(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(7)
        reg.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        names = {s.name for s in reg.collect()}
        assert names == {"c", "g", "h_bucket", "h_count", "h_sum"}

    def test_value_returns_none_for_unknown_and_histograms(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        assert reg.value("h") is None
        assert reg.value("nope") is None

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_concurrent_publication_is_exact(self):
        reg = MetricsRegistry()
        n_threads, per_thread = 8, 1000

        def work():
            c = reg.counter("hammered")
            for _ in range(per_thread):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.value("hammered") == n_threads * per_thread


class TestGauges:
    def test_gauge_set_inc_dec(self):
        g = Gauge("g", "", ())
        g.set(5)
        g.inc(2)
        g.dec(3)
        assert g.value == 4.0

    def test_callback_gauge_reads_live_value(self):
        depth = [0]
        g = CallbackGauge("q", "", (), fn=lambda: depth[0])
        assert g.value == 0.0
        depth[0] = 9
        assert g.value == 9.0

    def test_callback_gauge_survives_dead_subject(self):
        def boom():
            raise RuntimeError("store torn down")

        g = CallbackGauge("q", "", (), fn=boom)
        assert g.value != g.value  # NaN, not an exception


class TestHistogram:
    def test_quantiles_interpolate_within_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(6.5)
        samples = reg.collect()
        # Median falls in the (1, 2] bucket holding 2 of 4 observations.
        assert 1.0 <= histogram_quantile(samples, "h", 0.5) <= 2.0
        assert histogram_quantile(samples, "h", 0.0) == pytest.approx(0.0, abs=1.0)
        assert histogram_quantile(samples, "h", 1.0) <= 4.0

    def test_overflow_clamps_to_largest_bound(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0, 2.0)).observe(50.0)
        assert histogram_quantile(reg.collect(), "h", 0.5) == 2.0

    def test_empty_histogram_quantile_is_zero(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        assert histogram_quantile(reg.collect(), "h", 0.9) == 0.0
        assert histogram_quantile([], "h", 0.9) == 0.0

    def test_quantile_bounds_checked(self):
        with pytest.raises(ValueError):
            histogram_quantile([], "h", 1.5)

    def test_samples_are_cumulative_with_inf(self):
        h = Histogram("h", "", (), buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 9.0):
            h.observe(v)
        rows = {(suffix, extra): v for suffix, extra, v in h.samples()}
        assert rows[("_bucket", (("le", "1"),))] == 1.0
        assert rows[("_bucket", (("le", "2"),))] == 2.0
        assert rows[("_bucket", (("le", "+Inf"),))] == 3.0
        assert rows[("_count", ())] == 3.0

    def test_default_buckets_span_microseconds_to_seconds(self):
        assert DEFAULT_BUCKETS[0] <= 1e-5 and DEFAULT_BUCKETS[-1] >= 10.0


class TestPrometheusRender:
    def test_render_has_type_headers_and_labels(self):
        reg = MetricsRegistry()
        reg.counter("repro_tasks_total", "Tasks executed", worker=0).inc(4)
        reg.gauge("repro_queue_depth", worker=1).set(2)
        text = render_prometheus(reg)
        assert "# TYPE repro_tasks_total counter" in text
        assert "# HELP repro_tasks_total Tasks executed" in text
        assert 'repro_tasks_total{worker="0"} 4' in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert text.endswith("\n")

    def test_histogram_renders_bucket_series(self):
        reg = MetricsRegistry()
        reg.histogram("lat", buckets=(0.5, 1.0)).observe(0.7)
        text = render_prometheus(reg)
        assert 'lat_bucket{le="0.5"} 0' in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c", app='say "hi"\nthere').inc()
        text = render_prometheus(reg)
        assert r"say \"hi\"\nthere" in text


class TestServer:
    def test_scrape_metrics_and_json(self):
        reg = MetricsRegistry()
        reg.counter("repro_probe_total").inc(3)
        with MetricsServer(reg) as srv:
            assert srv.port > 0
            text = urllib.request.urlopen(srv.url, timeout=5).read().decode()
            assert "repro_probe_total 3" in text
            root = urllib.request.urlopen(
                f"http://127.0.0.1:{srv.port}/", timeout=5
            ).read()
            assert json.loads(root)["repro_probe_total"] == 3.0

    def test_unknown_path_is_404(self):
        with MetricsServer(MetricsRegistry()) as srv:
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{srv.port}/nope", timeout=5
                )
            assert exc.value.code == 404


class TestNullRegistry:
    """Telemetry off is ``metrics=None``: each layer caches ``_mx`` and
    builds no instrument."""

    INSTRUMENTS = ("_dispatch_hist", "_crash_counter", "_fetch_counter", "_fetch_bytes",
                   "_spec_bytes", "_jobs_counter")

    def test_disabled_and_inert(self):
        from repro.runtime import ClusterRuntime, WorkerServer

        for off in (WorkerServer("inproc://unstarted"),
                    ClusterRuntime(workers=1, addresses=["inproc://unused"])):
            assert [a for a in self.INSTRUMENTS if hasattr(off, a)] == []

    def test_identity_guard_idiom(self):
        # The _mx flag every hot path caches.
        from repro.runtime import ClusterRuntime, ThreadedRuntime, WorkerServer

        for on in (False, True):
            reg = MetricsRegistry() if on else None
            assert ThreadedRuntime(workers=1, metrics=reg)._mx is on
            assert WorkerServer("inproc://unstarted", metrics=reg)._mx is on
            assert ClusterRuntime(workers=1, addresses=["inproc://u"], metrics=reg)._mx is on


class TestIterWorkerValues:
    def test_extracts_and_sorts_worker_series(self):
        reg = MetricsRegistry()
        reg.gauge("busy", worker=2).set(20)
        reg.gauge("busy", worker=0).set(5)
        reg.gauge("other").set(9)
        pairs = iter_worker_values(reg.collect(), "busy")
        assert pairs == [(0, 5.0), (2, 20.0)]
