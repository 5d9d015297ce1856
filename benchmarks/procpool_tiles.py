"""Big-tile ``ProcessRuntime`` Cholesky: wall time per verified run.

    PYTHONPATH=src python benchmarks/procpool_tiles.py [--block 256 512] [--runs 8]

FTScheduler on ``ProcessRuntime(workers=2)``, Cholesky with 6x6 tiles
over ``make_store(True, shared=True)`` (so a pushed tile travels as its
``ShmDescriptor``), BLAS pinned to one thread.  Per block size: one
warm-up run, then ``--runs`` verified runs; prints one JSON line with
the per-run wall times (ms) and their median.  ``--block 256`` is a
512 KiB tile, ``--block 512`` a 2 MiB tile.

For an A/B, export both trees under one directory (the location alone
moves wall time a few percent) and alternate which runs first, pointing
PYTHONPATH at each tree's ``src`` in turn.  docs/PERFORMANCE.md
records the numbers.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

from repro.apps import AppConfig, make_app  # noqa: E402
from repro.core import FTScheduler  # noqa: E402
from repro.runtime import ProcessRuntime  # noqa: E402


def one_run(block: int, seed: int) -> float:
    app = make_app("cholesky", config=AppConfig(n=6 * block, block=block, seed=seed))
    store = app.make_store(True, shared=True)
    try:
        t0 = time.perf_counter()
        FTScheduler(app, ProcessRuntime(workers=2, seed=seed), store=store).run()
        wall = time.perf_counter() - t0
        app.verify(store)
    finally:
        store.close()
    return wall * 1e3


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--block", type=int, nargs="+", default=[256, 512])
    ap.add_argument("--runs", type=int, default=8)
    args = ap.parse_args()
    for block in args.block:
        one_run(block, seed=0)  # warm-up
        walls = [one_run(block, seed=1 + i) for i in range(args.runs)]
        print(json.dumps({
            "block": block,
            "tile_kib": block * block * 8 // 1024,
            "wall_ms": [round(w, 1) for w in walls],
            "median_ms": round(statistics.median(walls), 1),
        }))


if __name__ == "__main__":
    main()
