"""The pickled state of an application is what ``compute`` needs.

A remote runtime announces the spec to every channel of every run as
``pickle.dumps(spec)``.  Generated bulk inputs (``a0``/``d0``) are
derived state of ``(config.n, config.seed)``: built on first use, left
out of the pickle, regenerated from the seed on a copy that does touch
them.  The tiles themselves travel as blocks.
"""

import itertools
import pickle

import numpy as np
import pytest

from repro.apps import make_app
from repro.apps.base import AppConfig, generated
from repro.apps.cholesky import CholeskyApp
from repro.core import FTScheduler
from repro.graph.analysis import topological_order
from repro.graph.taskspec import BlockRef
from repro.runtime import ClusterRuntime, WorkerServer

_ids = itertools.count()

APPS = ("lcs", "sw", "fw", "lu", "cholesky")
GENERATED = {"fw": "d0", "lu": "a0", "cholesky": "a0"}


def build(name, n, block=None):
    if block is None:
        block = 8 if name in ("lcs", "sw") else 32
    return make_app(name, config=AppConfig(n=n, block=block, seed=11))


def used(app):
    """``app`` after everything a parent does to it before dispatch:
    reference computed, store seeded, plans built."""
    app.reference()
    app.make_store(True)
    for key in app.walk_from_sink():
        app.plans[key]
    return app


class _Blocks:
    """Dict-backed store + compute context recording every write."""

    def __init__(self):
        self.blocks = {}

    def pin(self, ref, value):
        self.blocks[BlockRef(*ref)] = value

    def read(self, ref):
        return self.blocks[BlockRef(*ref)]

    write = pin


def assert_bit_identical(got, want):
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    elif isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_bit_identical(g, w)
    elif isinstance(want, dict):
        assert got.keys() == want.keys()
        for k in want:
            assert_bit_identical(got[k], want[k])
    else:
        assert got == want


@pytest.mark.parametrize("name", APPS)
class TestPickledState:
    def test_pickle_is_small_and_independent_of_n(self, name):
        small, large = (len(pickle.dumps(used(build(name, n)))) for n in (128, 768))
        assert small < 4096 and large < 4096
        # Integer widths may differ by a byte or two.  LCS/SW keep their
        # sequences (compute_full reads them): 2n characters, no more.
        carried = 2 * (768 - 128) if name in ("lcs", "sw") else 0
        assert large - small <= carried + 16

    def test_derived_state_is_not_pickled(self, name):
        app = used(build(name, 64))
        assert "_plans" in app.__dict__
        state = app.__getstate__()
        assert "_plans" not in state
        copy = pickle.loads(pickle.dumps(app))
        assert "_plans" not in copy.__dict__ and copy.plans is not app.plans
        attr = GENERATED.get(name)
        if attr is not None:
            assert isinstance(getattr(type(app), attr), generated)
            assert attr in app.__dict__ and attr not in state
            assert attr not in copy.__dict__
        assert copy.config == app.config

    def test_copy_computes_every_task_bit_identically(self, name):
        app = build(name, 64)
        copy = pickle.loads(pickle.dumps(app))
        mine, theirs = _Blocks(), _Blocks()
        app.seed_store(mine)
        app.seed_store(theirs)
        for key in topological_order(app):
            app.compute_full(key, mine)
            copy.compute_full(key, theirs)
            for ref in app.outputs(key):
                assert_bit_identical(theirs.read(ref), mine.read(ref))
        # The copy computed the whole graph without its generated input.
        assert GENERATED.get(name) not in copy.__dict__

    def test_copy_regenerates_its_input_from_the_seed(self, name):
        app = build(name, 64)
        copy = pickle.loads(pickle.dumps(app))
        attr = GENERATED.get(name)
        if attr is not None:
            assert np.array_equal(getattr(copy, attr), getattr(app, attr))
        assert_bit_identical(copy.reference(), app.reference())
        mine, theirs = _Blocks(), _Blocks()
        app.seed_store(mine)
        copy.seed_store(theirs)
        assert mine.blocks.keys() == theirs.blocks.keys()
        for ref, value in mine.blocks.items():
            assert_bit_identical(theirs.blocks[ref], value)


def test_worker_copy_never_touches_the_generated_input(monkeypatch):
    # Poison a0 on every *unpickled* CholeskyApp: a worker that needed
    # the input matrix would fail its job (and the run) loudly.
    unpickled = []
    make = CholeskyApp.__dict__["a0"].func

    def setstate(self, state):
        self.__dict__.update(state)
        unpickled.append(self)

    def a0(self):
        if any(self is copy for copy in unpickled):
            raise AssertionError("a worker copy read the generated input")
        return make(self)

    poisoned = generated(a0)
    poisoned.__set_name__(CholeskyApp, "a0")
    monkeypatch.setattr(CholeskyApp, "a0", poisoned)
    monkeypatch.setattr(CholeskyApp, "__setstate__", setstate, raising=False)

    servers = [WorkerServer(f"inproc://pickled-{next(_ids)}").start() for _ in range(2)]
    try:
        app = build("cholesky", 128)
        store = app.make_store(True)
        rt = ClusterRuntime(workers=2, seed=0, addresses=[s.address for s in servers])
        FTScheduler(app, rt, store=store).run()
        app.verify(store)
    finally:
        for s in servers:
            s.close()
    # One copy per channel a job reached.
    assert 1 <= len(unpickled) <= 2 and all(copy is not app for copy in unpickled)
    assert all("a0" not in copy.__dict__ for copy in unpickled)
    with pytest.raises(AssertionError, match="worker copy"):
        unpickled[0].a0
