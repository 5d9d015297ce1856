"""``repro.perf.bench.calibrate``: the host-speed probe the end-to-end
benchmark's runner records beside its numbers."""

from repro.perf.bench import calibrate


class TestRunner:
    def test_calibrate_is_positive(self):
        assert calibrate(loops=10_000, k=1) > 0
