"""Live telemetry: metrics registry and HTTP endpoint.

The event log makes a run observable *after* the fact (replay, metrics,
report, export); this module makes it observable *while it runs*.  Two
pieces, deliberately small:

* :class:`MetricsRegistry` -- a thread-safe get-or-create registry of
  counters, gauges (including pull-style callback gauges) and
  fixed-bucket histograms.  Runtimes, worker servers, block stores and
  :mod:`repro.detect` publish into it; everything it holds can be
  flattened into :class:`Sample` rows (``collect()``) or rendered in the
  Prometheus text exposition format.  ``python -m repro top`` draws its
  dashboard from those samples, read on its own redraw tick.
* :class:`MetricsServer` -- a ``ThreadingHTTPServer`` exposing
  ``GET /metrics`` so any Prometheus-compatible scraper (or ``curl``)
  can watch a run live.

Design constraints mirror :mod:`repro.obs.events`:

* **Free when off.**  Telemetry off is ``metrics=None``: a layer caches
  ``metrics is not None`` in an ``_mx`` flag (enforced by the
  ``emit-guard`` rule) and builds its instruments only when it is set,
  so a disabled run pays one local boolean test per would-be sample.
* **Cheap when on.**  Counters and histograms take one small per-
  instrument lock; gauges for *existing* state (trace counters, queue
  depths, block-store occupancy) are **pull-based callback gauges** read
  only at collection time, so the scheduler hot path is never taxed for
  a value somebody else can read directly.
* **No third-party dependencies.**  The Prometheus text format is
  trivial to produce; we do not import a client library.
"""

from __future__ import annotations

import bisect
import json
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "CallbackGauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "Sample",
    "MetricsRegistry",
    "MetricsServer",
    "histogram_quantile",
    "iter_worker_values",
    "render_prometheus",
]

#: Default histogram bucket upper bounds, in seconds: spans 10 us .. 10 s,
#: which covers everything from a metrics-emit microbenchmark to a slow
#: recovery cascade.  (Prometheus convention: each bucket counts
#: observations <= its bound; +Inf is implicit.)
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelSet = tuple[tuple[str, str], ...]


def _labelset(labels: Mapping[str, Any]) -> LabelSet:
    """Canonical, hashable form of a label mapping (values stringified)."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared identity/presentation plumbing for all instrument types."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: LabelSet) -> None:
        self.name = name
        self.help = help
        self.labels = labels

    # Subclasses expose ``samples() -> [(suffix, extra_labels, value)]``.
    def samples(self) -> list[tuple[str, LabelSet, float]]:  # pragma: no cover
        raise NotImplementedError


class Counter(_Instrument):
    """Monotonically increasing count (events, tasks, faults...)."""

    kind = "counter"

    def __init__(self, name: str, help: str, labels: LabelSet) -> None:
        super().__init__(name, help, labels)
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def samples(self) -> list[tuple[str, LabelSet, float]]:
        return [("", (), self.value)]


class Gauge(_Instrument):
    """A value that can go up and down (queue depth, residency...)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labels: LabelSet) -> None:
        super().__init__(name, help, labels)
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def samples(self) -> list[tuple[str, LabelSet, float]]:
        return [("", (), self.value)]


class CallbackGauge(_Instrument):
    """Pull-based gauge: reads a live value (a trace counter, a deque
    length, a store's resident count) only when sampled.  The preferred
    way to surface state the system already maintains -- it costs the
    hot path nothing."""

    kind = "gauge"

    def __init__(
        self, name: str, help: str, labels: LabelSet, fn: Callable[[], float]
    ) -> None:
        super().__init__(name, help, labels)
        self._fn = fn

    @property
    def value(self) -> float:
        try:
            return float(self._fn())
        except Exception:
            # A callback outliving its subject (store torn down, worker
            # gone) must never take a scrape or a redraw down with it.
            return float("nan")

    def samples(self) -> list[tuple[str, LabelSet, float]]:
        return [("", (), self.value)]


class Histogram(_Instrument):
    """Fixed-bucket histogram with cumulative counts and a running sum --
    the standard latency instrument (quantiles are estimated from its
    ``_bucket`` samples by the reader)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: LabelSet,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # last slot = +Inf overflow
        self._sum = 0.0
        self._n = 0

    def observe(self, value: float) -> None:
        idx = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._n += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._n

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def samples(self) -> list[tuple[str, LabelSet, float]]:
        with self._lock:
            counts = list(self._counts)
            total = self._n
            acc_sum = self._sum
        out: list[tuple[str, LabelSet, float]] = []
        cum = 0
        for bound, c in zip(self.bounds, counts):
            cum += c
            out.append(("_bucket", (("le", _fmt_float(bound)),), float(cum)))
        out.append(("_bucket", (("le", "+Inf"),), float(total)))
        out.append(("_count", (), float(total)))
        out.append(("_sum", (), acc_sum))
        return out


@dataclass(frozen=True)
class Sample:
    """One flattened measurement at collection time."""

    name: str
    labels: LabelSet
    value: float

    @property
    def key(self) -> tuple[str, LabelSet]:
        return (self.name, self.labels)


class MetricsRegistry:
    """Thread-safe, get-or-create instrument registry.

    ``counter(name, help, **labels)`` (and friends) return the existing
    instrument for ``(name, labels)`` or create it -- so independent
    layers can publish into one registry without coordination.  Name
    collisions across instrument *types* raise: one name, one kind.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, LabelSet], _Instrument] = {}
        self._kinds: dict[str, str] = {}

    # -- get-or-create -----------------------------------------------------------

    def _get(
        self,
        cls: type,
        name: str,
        help: str,
        labels: Mapping[str, Any],
        **extra: Any,
    ) -> Any:
        key = (name, _labelset(labels))
        with self._lock:
            inst = self._instruments.get(key)
            if inst is not None:
                if not isinstance(inst, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as {inst.kind}"
                    )
                return inst
            known = self._kinds.get(name)
            inst = cls(name, help, key[1], **extra)
            if known is not None and known != inst.kind:
                raise TypeError(f"metric {name!r} already registered as {known}")
            self._kinds[name] = inst.kind
            self._instruments[key] = inst
            return inst

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def callback_gauge(
        self, name: str, fn: Callable[[], float], help: str = "", **labels: Any
    ) -> CallbackGauge:
        """Get-or-create, and (re)bind ``fn``: the latest registration
        wins, so a registry that outlives its subjects (run after run on
        one ``/metrics`` endpoint) reads the current one and does not pin
        the earlier ones through their closures."""
        gauge = self._get(CallbackGauge, name, help, labels, fn=fn)
        gauge._fn = fn
        return gauge

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    # -- read side ---------------------------------------------------------------

    def instruments(self) -> list[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    def collect(self) -> list[Sample]:
        """Flatten every instrument into ``Sample`` rows (histograms
        expand into ``_bucket``/``_count``/``_sum`` series)."""
        out: list[Sample] = []
        for inst in self.instruments():
            for suffix, extra, value in inst.samples():
                out.append(Sample(inst.name + suffix, inst.labels + extra, value))
        return out

    def value(self, name: str, **labels: Any) -> float | None:
        """Current value of one non-histogram instrument, or None."""
        key = (name, _labelset(labels))
        with self._lock:
            inst = self._instruments.get(key)
        if inst is None or isinstance(inst, Histogram):
            return None
        return inst.value

    def render_prometheus(self) -> str:
        return render_prometheus(self)


# ---------------------------------------------------------------------------
# rendering


def _fmt_float(v: float) -> str:
    """Prometheus-friendly float: integers render bare, no exponent noise."""
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _fmt_labels(labels: LabelSet) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in labels)
    return "{" + body + "}"


def _escape(v: str) -> str:
    return v.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render every instrument in the Prometheus text exposition format
    (version 0.0.4): ``# HELP`` / ``# TYPE`` headers per metric family,
    one ``name{labels} value`` line per sample."""
    families: dict[str, list[_Instrument]] = {}
    for inst in registry.instruments():
        families.setdefault(inst.name, []).append(inst)
    lines: list[str] = []
    for name in sorted(families):
        insts = families[name]
        help_text = next((i.help for i in insts if i.help), "")
        if help_text:
            lines.append(f"# HELP {name} {_escape(help_text)}")
        lines.append(f"# TYPE {name} {insts[0].kind}")
        for inst in insts:
            for suffix, extra, value in inst.samples():
                labels = _fmt_labels(inst.labels + extra)
                val = _fmt_float(value) if value == value else "NaN"
                lines.append(f"{name}{suffix}{labels} {val}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# HTTP endpoint


class MetricsServer:
    """Prometheus text-exposition endpoint for one registry.

    ``port=0`` (the default) binds an ephemeral port; read ``.port``
    after construction and scrape ``http://127.0.0.1:<port>/metrics``.
    The server runs on a daemon thread and serves concurrent scrapes
    (``ThreadingHTTPServer``) without ever blocking the run.
    """

    def __init__(self, registry: MetricsRegistry, port: int = 0, host: str = "127.0.0.1") -> None:
        # Imported here, by the one class that serves HTTP: http.server
        # (and ssl under it) is a cost only a process with an endpoint pays.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        class Handler(BaseHTTPRequestHandler):
            server_version = "repro-metrics/1.0"

            def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
                if self.path.split("?", 1)[0] in ("/metrics", "/"):
                    if self.path.startswith("/metrics"):
                        body = render_prometheus(registry).encode()
                        ctype = "text/plain; version=0.0.4; charset=utf-8"
                    else:
                        payload = {
                            f"{s.name}{_fmt_labels(s.labels)}": s.value
                            for s in registry.collect()
                            if s.value == s.value  # NaN-free JSON
                        }
                        body = json.dumps(payload, indent=2).encode()
                        ctype = "application/json"
                    self.send_response(200)
                    self.send_header("Content-Type", ctype)
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                else:
                    self.send_error(404)

            def log_message(self, fmt: str, *args: Any) -> None:
                return None  # scrapes must not spam the run's stdout

        self.registry = registry
        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(  # verify: ok=raw-threading (HTTP serving daemon; isolated from scheduler state)
            target=self._httpd.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}/metrics"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def iter_worker_values(
    samples: Iterable[Sample], name: str
) -> list[tuple[int, float]]:
    """Extract ``(worker, value)`` pairs for one per-worker metric family
    from a flattened sample list (helper for ``repro top`` rendering)."""
    out = []
    for s in samples:
        if s.name != name:
            continue
        labels = dict(s.labels)
        if "worker" in labels:
            try:
                out.append((int(labels["worker"]), s.value))
            except ValueError:
                continue
    return sorted(out)


def histogram_quantile(samples: Iterable[Sample], name: str, q: float) -> float:
    """Estimated ``q``-quantile (0..1) of histogram ``name`` (a family of
    one instrument) from its cumulative ``_bucket`` samples, by linear
    interpolation inside the containing bucket; 0.0 when empty.
    Overflow observations clamp to the largest finite bound (the
    estimate is then a lower bound, exactly like Prometheus's
    ``histogram_quantile``)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    buckets = sorted(
        (float(dict(s.labels)["le"]), s.value) for s in samples if s.name == name + "_bucket"
    )
    if not buckets or not buckets[-1][1]:
        return 0.0
    rank = q * buckets[-1][1]
    lo = below = 0.0
    for bound, cum in buckets:
        if cum >= rank and cum > below:
            if bound == float("inf"):
                break
            return lo + (bound - lo) * min(max((rank - below) / (cum - below), 0.0), 1.0)
        lo, below = bound, cum
    return lo
