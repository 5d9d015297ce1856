"""Virtual time does not depend on how a frame is carried.

The figures below were read off the simulator when every spawn built a
frame object around a closure; frames are now bare ``(fn, args, label)``
tuples.  Makespan, frame, steal and failed-probe counts and the whole
timeline -- every frame's start, end, worker and label -- must read the
same at a fixed seed.  The one entry whose label changed is the root's:
``execute`` takes a bare callable, and the simulator names it ``root``
(it was ``init:<sink>``), so the digest covers its start, end and worker
only."""

import functools
import hashlib

import pytest

from repro.apps import make_app
from repro.core import FTScheduler
from repro.runtime import SimulatedRuntime

#: (app, P) -> (makespan, frames, steals, failed_steals, timeline digest),
#: FT on the tiny app, seed 7.
PINNED = {
    ("lcs", 1): (4261.949999999999, 80, 0, 0, "9a78fa75207127c3"),
    ("lcs", 4): (1881.3500000000004, 98, 22, 29, "3cec390b936438df"),
    ("lcs", 44): (1875.6000000000004, 98, 33, 1069, "647d32c4f738cf51"),
    ("lu", 1): (43233.916666666635, 274, 0, 0, "ba09752bd8455aa2"),
    ("lu", 4): (12655.516666666665, 330, 32, 33, "1bb9b0871f02e44f"),
    ("lu", 44): (8013.9666666666635, 330, 79, 2053, "a89a1afa80f28f2f"),
    ("cholesky", 1): (26790.08333333334, 164, 0, 0, "5638a3f466564ff9"),
    ("cholesky", 4): (9848.049999999996, 190, 14, 19, "c809bdfef757f75c"),
    ("cholesky", 44): (7130.583333333332, 190, 41, 1143, "6c456cb39e882cc6"),
}


@functools.lru_cache(maxsize=None)
def _app(name):
    return make_app(name, scale="tiny")


def _digest(timeline):
    rows = [timeline[0][:3], *timeline[1:]]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


@pytest.mark.parametrize(("name", "workers"), list(PINNED))
def test_simulated_run_reads_the_pinned_figures(name, workers):
    app = _app(name)
    rt = SimulatedRuntime(workers=workers, seed=7, record_timeline=True)
    run = FTScheduler(app, rt, store=app.make_store(True)).run().run
    assert (run.makespan, run.frames, run.steals, run.failed_steals,
            _digest(rt.timeline)) == PINNED[name, workers]
    assert rt.timeline[0][3] == "root"
    assert len(rt.timeline) == run.frames
