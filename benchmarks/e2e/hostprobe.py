"""Host-speed probe: the benchmark's own yardstick for a shared host.

On the 2-core sandbox this benchmark was defined on, the *same* commit
runs 10-40% slower for tens of seconds at a time (neighbours on the
physical cores), so raw wall-clock medians of identical runs spread by
0.1-0.4 of their median while ratios taken inside one run stay within
0.03.  The probe is a fixed piece of work, owned by the benchmark and
independent of ``src/``, sampled between graph runs; the slowdown it
sees is divided out of the timed metrics (see ``README.md``, "Host
normalisation").  Three parts, because interference does not slow every
kind of code alike:

``interp``  a frozen miniature of a task-graph scheduler's inner loop
            (dict of records, per-record locks, join counters, notify
            lists, a LIFO stack of closures) -- interpreter-bound;
``blas``    two threads of tile-sized ``dgemm`` -- kernel-bound, needs
            both cores;
``ipc``     fork an echo process, bounce a small pickled message off it
            over a pipe, reap it -- fork, wake-up and syscall bound.

``slowdown()`` is the geometric mean, over the parts, of the median
sample divided by the part's nominal time on a quiet reference host.
"""

from __future__ import annotations

import math
import multiprocessing
import statistics
import threading
from time import perf_counter

import numpy as np

#: Seconds per part on the quiet reference host (the fastest medians seen
#: while the benchmark was defined).  Only a scale: changing them rescales
#: every normalised metric by the same factor.
NOMINAL = {"interp": 0.0130, "blas": 0.0055, "ipc": 0.0085}

_GRID = 48
_TILE = np.random.default_rng(0).random((192, 192))
_PING = ("job", (3, 3), [(("tile", 3, 3), 0)], b"x" * 128)
_ROUND_TRIPS = 40


class _Record:
    __slots__ = ("key", "join", "bits", "notify", "lock", "done")

    def __init__(self, key: tuple, n_preds: int) -> None:
        self.key = key
        self.join = n_preds + 1
        self.bits = (1 << (n_preds + 1)) - 1
        self.notify: list = []
        self.lock = threading.Lock()
        self.done = False


def _interp() -> None:
    """Walk a wavefront grid from its sink, NABBIT-style."""
    records: dict[tuple, _Record] = {}
    computed: dict[tuple, int] = {}
    stack: list = []

    def preds(key: tuple) -> list[tuple]:
        i, j = key
        out = []
        if i:
            out.append((i - 1, j))
        if j:
            out.append((i, j - 1))
        if i and j:
            out.append((i - 1, j - 1))
        return out

    def visit(key: tuple) -> _Record:
        rec = records.get(key)
        if rec is None:
            ps = preds(key)
            rec = records[key] = _Record(key, len(ps))
            for idx, p in enumerate(ps):
                stack.append(lambda p=p, key=key, idx=idx: link(p, key, idx))
            stack.append(lambda rec=rec, idx=len(ps): arrive(rec, idx))
        return rec

    def link(pred: tuple, key: tuple, idx: int) -> None:
        prec = visit(pred)
        with prec.lock:
            if not prec.done:
                prec.notify.append((key, idx))
                return
        arrive(records[key], idx)

    def arrive(rec: _Record, idx: int) -> None:
        with rec.lock:
            mask = 1 << idx
            if not rec.bits & mask:
                return
            rec.bits &= ~mask
            rec.join -= 1
            ready = rec.join == 0
        if ready:
            computed[rec.key] = 0
            with rec.lock:
                rec.done = True
                waiting = list(rec.notify)
            for key, i in waiting:
                stack.append(lambda key=key, i=i: arrive(records[key], i))

    visit((_GRID - 1, _GRID - 1))
    while stack:
        stack.pop()()
    if len(computed) != _GRID * _GRID:
        raise AssertionError("host probe walked the wrong number of tasks")


def _blas() -> None:
    def work() -> None:
        tile = _TILE
        for _ in range(12):
            tile @ tile

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def _echo(conn) -> None:
    for _ in range(_ROUND_TRIPS):
        conn.send(conn.recv())
    conn.close()


def _ipc() -> None:
    mp = multiprocessing.get_context("fork")
    conn, child = mp.Pipe()
    peer = mp.Process(target=_echo, args=(child,), daemon=True, name="hostprobe-echo")
    peer.start()
    child.close()
    for _ in range(_ROUND_TRIPS):
        conn.send(_PING)
        conn.recv()
    peer.join()
    conn.close()


_PARTS = (("interp", _interp), ("blas", _blas), ("ipc", _ipc))


class HostProbe:
    """Collects samples of the three parts."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {part: [] for part in NOMINAL}

    def sample(self) -> None:
        for part, work in _PARTS:
            t0 = perf_counter()
            work()
            self.samples[part].append(perf_counter() - t0)

    def slowdown(self) -> float:
        """How much slower than the reference host this run's host was."""
        ratios = [statistics.median(self.samples[part]) / NOMINAL[part] for part in NOMINAL]
        return math.exp(sum(math.log(r) for r in ratios) / len(ratios))
