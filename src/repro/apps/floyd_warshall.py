"""Blocked Floyd-Warshall all-pairs shortest paths with two-version blocks.

Classic three-phase blocked FW: at step ``k`` the pivot block ``(k,k)``
updates itself, then the pivot row/column panels update against it, then
every interior block updates against its row/column panels.  Task key
``(k, i, j)`` produces version ``k+1`` of distance block ``(i, j)``;
version 0 is the pinned input matrix.

**Memory reuse and anti-dependences.**  Distance blocks are updated in
place, so the task producing version ``v+1`` of a block must wait for all
readers of version ``v`` -- these write-after-read edges are part of the
task graph ("the dependences specified ensure that all uses of a data
block causally precede a subsequent definition", Section II).  With these
anti-edges the graph's structure counts match the paper's Table I exactly
(B = 40: T = 40^3, E = 308880, S = 120 path nodes).

**Fault-tolerance configuration.**  The paper found FW's recovery cost
depended heavily on fault location because a lost block version forces
recomputation of its whole version chain; they therefore retain *two*
versions per block for the fault-tolerant runs, doubling block memory and
costing ~10% slowdown at scale (Fig. 4d).  Accordingly
``baseline_policy = Reuse()`` and ``ft_policy = TwoVersion()``.

A final ``"sink"`` task reads every block's final version (one extra task
over the paper's T; documented in EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.apps.base import AppConfig, Application, generated
from repro.apps.kernels import fw_diag, fw_minplus, fw_panel_col, fw_panel_row
from repro.graph.taskspec import BlockRef, ComputeContext, Key
from repro.memory.allocator import Reuse, TwoVersion
from repro.memory.blockstore import BlockStore

SINK = "sink"


def random_distance_matrix(n: int, seed: int) -> np.ndarray:
    """Dense nonnegative weight matrix with a zero diagonal."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(1.0, 10.0, size=(n, n))
    np.fill_diagonal(d, 0.0)
    return d


def fw_reference(d: np.ndarray) -> np.ndarray:
    """Independent unblocked Floyd-Warshall."""
    out = d.copy()
    for t in range(out.shape[0]):
        np.minimum(out, out[:, t, None] + out[None, t, :], out=out)
    return out


class FloydWarshallApp(Application):
    """Blocked FW as a task graph: key ``(k, i, j)`` or ``"sink"``."""

    name = "fw"
    baseline_policy = Reuse()
    ft_policy = TwoVersion()

    def __init__(self, config: AppConfig) -> None:
        super().__init__(config)
        self._b = config.block
        self._B = config.blocks

    @generated
    def d0(self) -> np.ndarray:
        return random_distance_matrix(self.config.n, self.config.seed + 2)

    @staticmethod
    def blk(i: int, j: int) -> tuple:
        return ("d", i, j)

    # -- spec surface ----------------------------------------------------------------------

    def sink_key(self) -> Key:
        return SINK

    def predecessors(self, key: Key) -> Sequence[Key]:
        B = self._B
        if key == SINK:
            # Producers of every block's final version: all step B-1 tasks.
            return tuple((B - 1, i, j) for i in range(B) for j in range(B))
        k, i, j = key
        preds: list[Key] = []
        if k > 0:
            preds.append((k - 1, i, j))  # previous version of own block
        if i == k and j == k:
            pass  # diagonal: only the previous version
        elif i == k:
            preds.append((k, k, k))  # row panel waits on updated pivot
        elif j == k:
            preds.append((k, k, k))  # column panel likewise
        else:
            preds.append((k, i, k))  # interior waits on updated panels
            preds.append((k, k, j))
        # Anti-dependences (write-after-read): producing version k+1 of
        # block (i, j) overwrites version k, whose readers must be done.
        if k == i + 1 == j + 1:
            # Pivot block (i, i) at step i was read by all its panels.
            preds.extend((i, i, c) for c in range(self._B) if c != i)
            preds.extend((i, r, i) for r in range(self._B) if r != i)
        elif k == i + 1:
            # Pivot-row panel (i, j) was read by the interiors of step i.
            preds.extend((i, r, j) for r in range(self._B) if r != i)
        elif k == j + 1:
            # Pivot-column panel (i, j) was read by the interiors of step j.
            preds.extend((j, i, c) for c in range(self._B) if c != j)
        return tuple(preds)

    def successors(self, key: Key) -> Sequence[Key]:
        B = self._B
        if key == SINK:
            return ()
        k, i, j = key
        succs: list[Key] = []
        if k + 1 < B:
            succs.append((k + 1, i, j))
        else:
            succs.append(SINK)
        if i == k and j == k:
            succs.extend((k, k, c) for c in range(B) if c != k)
            succs.extend((k, r, k) for r in range(B) if r != k)
            if k + 1 < B:
                # Anti-successor: the step-k+1 overwriter of the pivot
                # block must wait for this read of version k.
                pass  # the diagonal reads only its own block
        elif i == k:
            succs.extend((k, r, j) for r in range(B) if r != k)
            if k + 1 < B:
                succs.append((k + 1, k, k))  # read pivot v(k+1); block its overwriter
        elif j == k:
            succs.extend((k, i, c) for c in range(B) if c != k)
            if k + 1 < B:
                succs.append((k + 1, k, k))
        else:
            if k + 1 < B:
                succs.append((k + 1, i, k))  # read col panel v(k+1)
                succs.append((k + 1, k, j))  # read row panel v(k+1)
        return tuple(succs)

    def inputs(self, key: Key) -> Sequence[BlockRef]:
        B = self._B
        if key == SINK:
            return tuple(BlockRef(self.blk(i, j), B) for i in range(B) for j in range(B))
        k, i, j = key
        refs = [BlockRef(self.blk(i, j), k)]
        if i == k and j == k:
            pass
        elif i == k or j == k:
            refs.append(BlockRef(self.blk(k, k), k + 1))
        else:
            refs.append(BlockRef(self.blk(i, k), k + 1))
            refs.append(BlockRef(self.blk(k, j), k + 1))
        return tuple(refs)

    def outputs(self, key: Key) -> Sequence[BlockRef]:
        if key == SINK:
            return (BlockRef(("fw", "done"), 0),)
        k, i, j = key
        return (BlockRef(self.blk(i, j), k + 1),)

    def producer(self, ref: BlockRef) -> Key | None:
        if ref.block == ("fw", "done"):
            return SINK
        _tag, i, j = ref.block
        if ref.version == 0:
            return None  # pinned input
        return (ref.version - 1, i, j)

    def cost(self, key: Key) -> float:
        if key == SINK:
            return float(self._B) ** 2
        return float(self._b) ** 3

    def compute_full(self, key: Key, ctx: ComputeContext) -> None:
        B = self._B
        if key == SINK:
            total = 0.0
            for i in range(B):
                for j in range(B):
                    total += float(ctx.read(BlockRef(self.blk(i, j), B)).sum())
            ctx.write(BlockRef(("fw", "done"), 0), total)
            return
        k, i, j = key
        prev = ctx.read(BlockRef(self.blk(i, j), k))
        if i == k and j == k:
            out = fw_diag(prev)
        elif i == k:
            diag_new = ctx.read(BlockRef(self.blk(k, k), k + 1))
            out = fw_panel_row(diag_new, prev)
        elif j == k:
            diag_new = ctx.read(BlockRef(self.blk(k, k), k + 1))
            out = fw_panel_col(diag_new, prev)
        else:
            col_new = ctx.read(BlockRef(self.blk(i, k), k + 1))
            row_new = ctx.read(BlockRef(self.blk(k, j), k + 1))
            out = fw_minplus(prev, col_new, row_new)
        ctx.write(BlockRef(self.blk(i, j), k + 1), out)

    # -- experiment surface -----------------------------------------------------------------------

    def seed_store(self, store: BlockStore) -> None:
        b, B = self._b, self._B
        for i in range(B):
            for j in range(B):
                tile = self.d0[i * b : (i + 1) * b, j * b : (j + 1) * b].copy()
                store.pin(BlockRef(self.blk(i, j), 0), tile)

    def reference(self) -> np.ndarray:
        return fw_reference(self.d0)

    def extract(self, store: BlockStore) -> np.ndarray:
        b, B = self._b, self._B
        out = np.empty_like(self.d0)
        for i in range(B):
            for j in range(B):
                out[i * b : (i + 1) * b, j * b : (j + 1) * b] = store.read(
                    BlockRef(self.blk(i, j), B)
                )
        return out
