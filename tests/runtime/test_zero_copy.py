"""The runtime half of the zero-copy data plane: :func:`own_payload`
(the single allowed copy, spent only on worker cache insert) and
end-to-end parity on a cluster graph whose blocks are multiple MiB each,
including through the fallback-fetch path."""

import itertools

import numpy as np
import pytest

from repro.apps import make_app
from repro.apps.base import AppConfig
from repro.core import FTScheduler
from repro.faults import FaultInjector, plan_faults
from repro.memory.shm import own_payload
from repro.runtime import ClusterRuntime, InlineRuntime, WorkerServer
from repro.runtime.tracing import ExecutionTrace

_ids = itertools.count()


@pytest.fixture
def server():
    srv = WorkerServer(f"inproc://zc-{next(_ids)}").start()
    yield srv
    srv.close()


@pytest.fixture
def tcp_server():
    srv = WorkerServer("tcp://127.0.0.1:0").start()
    yield srv
    srv.close()


def run_ft(app, runtime, plan=None):
    store = app.make_store(True)
    trace = ExecutionTrace()
    hooks = FaultInjector(plan, app, store, trace) if plan is not None else None
    FTScheduler(app, runtime, store=store, hooks=hooks, trace=trace).run()
    return app.extract(store), trace


class TestOwnPayload:
    def test_arrayless_payload_passes_through(self):
        v = {"k": (1, "x")}
        owned, nbytes = own_payload(v)
        assert owned is v and nbytes == 0

    def test_owning_array_passes_through(self):
        v = np.arange(64.0)
        owned, nbytes = own_payload(v)
        assert owned is v and nbytes == v.nbytes

    def test_view_backed_array_is_copied_out(self):
        base = bytearray(np.arange(64.0).tobytes())
        view = np.frombuffer(base, dtype=np.float64)
        assert not view.flags.owndata
        owned, nbytes = own_payload(("data", view))
        got = owned[1]
        assert got.flags.owndata and nbytes == view.nbytes
        np.testing.assert_array_equal(got, view)
        assert not np.shares_memory(got, view)

    def test_nested_structure_rebuilt(self):
        base = np.arange(32.0)
        v = {"a": [base[:16], base], "b": "meta"}
        owned, _ = own_payload(v)
        assert owned["b"] == "meta"
        np.testing.assert_array_equal(owned["a"][0], base[:16])
        assert all(a.flags.owndata for a in owned["a"])


class TestClusterZeroCopy:
    # B=2 blocks of 512x512 float64 = 2 MiB each: every fetch and every
    # reply rides the multi-segment OOB frame kind.
    CFG = AppConfig(n=1024, block=512)

    def test_multi_mib_blocks_bit_identical(self, server):
        app = make_app("cholesky", config=self.CFG)
        want, _ = run_ft(app, InlineRuntime())
        got, _ = run_ft(
            app, ClusterRuntime(workers=2, seed=0, addresses=[server.address])
        )
        assert got.dtype == want.dtype and (got == want).all()

    def test_multi_mib_blocks_bit_identical_over_tcp_under_faults(self, tcp_server):
        app = make_app("cholesky", config=self.CFG)
        plan = plan_faults(app, phase="after_compute", task_type="v=rand",
                           count=1, seed=3)
        want, t0 = run_ft(app, InlineRuntime(), plan=plan)
        got, t1 = run_ft(
            app,
            ClusterRuntime(workers=2, seed=0, addresses=[tcp_server.address]),
            plan=plan,
        )
        assert got.dtype == want.dtype and (got == want).all()
        assert t0.total_recoveries > 0 and t1.total_recoveries > 0

    def test_fallback_fetches_bit_identical(self):
        # Two servers whose block caches hold a single tile: nearly every
        # bare ref the parent sends on the strength of its residency
        # table has been evicted by the time it is read, so the workers
        # fall back to lazy fetches, which must serve the same bytes.
        cfg = AppConfig(n=256, block=64)
        tile = 64 * 64 * 8
        servers = [
            WorkerServer(f"inproc://zc-{next(_ids)}", cache_bytes=tile).start()
            for _ in range(2)
        ]
        try:
            app = make_app("cholesky", config=cfg)
            want, _ = run_ft(app, InlineRuntime())
            rt = ClusterRuntime(
                workers=2, seed=0, addresses=[s.address for s in servers]
            )
            got, _ = run_ft(app, rt)
            assert got.dtype == want.dtype and (got == want).all()
            assert sum(s.cache.misses for s in servers) > 0  # fallback fetches
        finally:
            for s in servers:
                s.close()

    def test_worker_cache_owns_its_bytes(self, server):
        # The use-after-recycle guarantee at the runtime layer: values in
        # the worker BlockCache must not alias a transport buffer, so
        # recycling it can never corrupt a cached block.
        app = make_app("cholesky", config=self.CFG)
        run_ft(app, ClusterRuntime(workers=2, seed=0, addresses=[server.address]))
        assert len(server.cache) > 0
        for value, _ in server.cache._entries.values():
            if isinstance(value, np.ndarray):
                assert value.flags.owndata
