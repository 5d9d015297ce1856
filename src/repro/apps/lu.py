"""Tiled LU decomposition (right-looking, no pivoting) with memory reuse.

Task keys:

* ``("getrf", k)``   -- factor the pivot tile, version k -> k+1 of (k,k);
* ``("trsmr", k, j)`` -- U-panel solve, j > k, version k -> k+1 of (k,j);
* ``("trsmc", k, i)`` -- L-panel solve, i > k, version k -> k+1 of (i,k);
* ``("gemm", k, i, j)`` -- trailing update, i,j > k, version k -> k+1 of (i,j).

Block ``(i, j)`` is updated in place: versions ``1..min(i,j)+1`` share one
buffer under the ``reuse`` policy; version 0 is the pinned input tile.
Every version has exactly one reader -- the next-step task on the same
block -- which is also its overwriter, so (unlike Floyd-Warshall) no
write-after-read anti-dependences are needed.  With this structure the
graph reproduces the paper's Table I row exactly:
B = 80 -> T = 173880, E = 508760, S = 238 path nodes.

The input matrix is made strongly diagonally dominant so unpivoted LU is
numerically safe.  ``getrf(B-1)`` is the natural unique sink.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.apps.base import AppConfig, Application, generated
from repro.apps.kernels import gemm_update, lu_getrf, lu_trsm_col, lu_trsm_row
from repro.graph.taskspec import BlockRef, ComputeContext, Key
from repro.memory.allocator import Reuse
from repro.memory.blockstore import BlockStore


def random_dd_matrix(n: int, seed: int) -> np.ndarray:
    """Random matrix with strong diagonal dominance (stable unpivoted LU)."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    a[np.diag_indices(n)] += float(n)
    return a


class LUApp(Application):
    """Tiled unpivoted LU as a task graph."""

    name = "lu"
    baseline_policy = Reuse()
    ft_policy = Reuse()

    def __init__(self, config: AppConfig) -> None:
        super().__init__(config)
        self._b = config.block
        self._B = config.blocks

    @generated
    def a0(self) -> np.ndarray:
        return random_dd_matrix(self.config.n, self.config.seed + 3)

    @staticmethod
    def blk(i: int, j: int) -> tuple:
        return ("a", i, j)

    # -- block/version inverse map -----------------------------------------------------

    def producer(self, ref: BlockRef) -> Key | None:
        _tag, i, j = ref.block
        v = ref.version
        if v == 0:
            return None  # pinned input tile
        k = v - 1
        if k == min(i, j):
            if i == j:
                return ("getrf", k)
            if i < j:
                return ("trsmr", k, j)
            return ("trsmc", k, i)
        return ("gemm", k, i, j)

    # -- spec surface --------------------------------------------------------------------

    def sink_key(self) -> Key:
        return ("getrf", self._B - 1)

    def inputs(self, key: Key) -> Sequence[BlockRef]:
        kind = key[0]
        if kind == "getrf":
            k = key[1]
            return (BlockRef(self.blk(k, k), k),)
        if kind == "trsmr":
            _, k, j = key
            return (BlockRef(self.blk(k, j), k), BlockRef(self.blk(k, k), k + 1))
        if kind == "trsmc":
            _, k, i = key
            return (BlockRef(self.blk(i, k), k), BlockRef(self.blk(k, k), k + 1))
        _, k, i, j = key
        return (
            BlockRef(self.blk(i, j), k),
            BlockRef(self.blk(i, k), k + 1),
            BlockRef(self.blk(k, j), k + 1),
        )

    def outputs(self, key: Key) -> Sequence[BlockRef]:
        kind = key[0]
        if kind == "getrf":
            k = key[1]
            return (BlockRef(self.blk(k, k), k + 1),)
        if kind == "trsmr":
            _, k, j = key
            return (BlockRef(self.blk(k, j), k + 1),)
        if kind == "trsmc":
            _, k, i = key
            return (BlockRef(self.blk(i, k), k + 1),)
        _, k, i, j = key
        return (BlockRef(self.blk(i, j), k + 1),)

    def predecessors(self, key: Key) -> Sequence[Key]:
        preds = []
        for raw in self.inputs(key):
            p = self.producer(BlockRef(*raw))
            if p is not None:
                preds.append(p)
        return tuple(preds)

    def successors(self, key: Key) -> Sequence[Key]:
        B = self._B
        kind = key[0]
        if kind == "getrf":
            k = key[1]
            out: list[Key] = [("trsmr", k, j) for j in range(k + 1, B)]
            out += [("trsmc", k, i) for i in range(k + 1, B)]
            return tuple(out)
        if kind == "trsmr":
            _, k, j = key
            return tuple(("gemm", k, i, j) for i in range(k + 1, B))
        if kind == "trsmc":
            _, k, i = key
            return tuple(("gemm", k, i, j) for j in range(k + 1, B))
        _, k, i, j = key
        return (self.producer(BlockRef(self.blk(i, j), k + 2)),)

    def cost(self, key: Key) -> float:
        b3 = float(self._b) ** 3
        kind = key[0]
        if kind == "getrf":
            return (2.0 / 3.0) * b3
        if kind in ("trsmr", "trsmc"):
            return b3
        return 2.0 * b3

    def compute_full(self, key: Key, ctx: ComputeContext) -> None:
        kind = key[0]
        if kind == "getrf":
            k = key[1]
            a = ctx.read(BlockRef(self.blk(k, k), k))
            ctx.write(BlockRef(self.blk(k, k), k + 1), lu_getrf(a))
        elif kind == "trsmr":
            _, k, j = key
            a = ctx.read(BlockRef(self.blk(k, j), k))
            lu_kk = ctx.read(BlockRef(self.blk(k, k), k + 1))
            ctx.write(BlockRef(self.blk(k, j), k + 1), lu_trsm_row(lu_kk, a))
        elif kind == "trsmc":
            _, k, i = key
            a = ctx.read(BlockRef(self.blk(i, k), k))
            lu_kk = ctx.read(BlockRef(self.blk(k, k), k + 1))
            ctx.write(BlockRef(self.blk(i, k), k + 1), lu_trsm_col(lu_kk, a))
        else:
            _, k, i, j = key
            a = ctx.read(BlockRef(self.blk(i, j), k))
            left = ctx.read(BlockRef(self.blk(i, k), k + 1))
            right = ctx.read(BlockRef(self.blk(k, j), k + 1))
            ctx.write(BlockRef(self.blk(i, j), k + 1), gemm_update(a, left, right))

    # -- experiment surface -----------------------------------------------------------------

    def seed_store(self, store: BlockStore) -> None:
        b, B = self._b, self._B
        for i in range(B):
            for j in range(B):
                tile = self.a0[i * b : (i + 1) * b, j * b : (j + 1) * b].copy()
                store.pin(BlockRef(self.blk(i, j), 0), tile)

    def reference(self) -> np.ndarray:
        """Packed L\\U of the whole matrix via the independent unblocked
        kernel (identical in exact arithmetic to the blocked result)."""
        return lu_getrf(self.a0)

    def extract(self, store: BlockStore) -> np.ndarray:
        b, B = self._b, self._B
        out = np.empty_like(self.a0)
        for i in range(B):
            for j in range(B):
                final = min(i, j) + 1
                out[i * b : (i + 1) * b, j * b : (j + 1) * b] = store.read(
                    BlockRef(self.blk(i, j), final)
                )
        return out

    def verify(self, store: BlockStore, rtol: float = 1e-8, atol: float = 1e-8) -> None:
        got = self.extract(store)
        want = self.reference()
        np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)
