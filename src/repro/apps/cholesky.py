"""Tiled Cholesky factorization (lower, right-looking) with memory reuse.

Task keys (lower triangle only, ``j <= i``):

* ``("potrf", k)``     -- factor the pivot tile, version k -> k+1 of (k,k);
* ``("trsm", k, i)``   -- panel solve, i > k, version k -> k+1 of (i,k);
* ``("upd", k, i, j)`` -- trailing update (SYRK when i == j), k < j <= i,
  version k -> k+1 of (i,j).

As in LU, each block version's only reader is the next-step task on the
same block, so the ``reuse`` policy needs no anti-dependence edges.  The
graph reproduces the paper's Table I row exactly:
B = 80 -> T = 88560, E = 255960, S = 238 path nodes.

``potrf(B-1)`` is the natural unique sink.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.apps.base import AppConfig, Application, generated
from repro.apps.kernels import chol_potrf, chol_update
from repro.apps.trsm import chol_trsm
from repro.graph.taskspec import BlockRef, ComputeContext, Key
from repro.memory.allocator import Reuse
from repro.memory.blockstore import BlockStore


def random_spd_matrix(n: int, seed: int) -> np.ndarray:
    """Random symmetric positive-definite matrix."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1.0, 1.0, size=(n, n))
    a = m @ m.T
    a[np.diag_indices(n)] += float(n)
    return a


class CholeskyApp(Application):
    """Tiled Cholesky as a task graph."""

    name = "cholesky"
    baseline_policy = Reuse()
    ft_policy = Reuse()

    def __init__(self, config: AppConfig) -> None:
        super().__init__(config)
        self._b = config.block
        self._B = config.blocks

    @generated
    def a0(self) -> np.ndarray:
        return random_spd_matrix(self.config.n, self.config.seed + 4)

    @staticmethod
    def blk(i: int, j: int) -> tuple:
        return ("a", i, j)

    # -- block/version inverse map ---------------------------------------------------------

    def producer(self, ref: BlockRef) -> Key | None:
        _tag, i, j = ref.block
        v = ref.version
        if v == 0:
            return None  # pinned input tile
        k = v - 1
        if k == j:  # j == min(i, j) in the lower triangle
            if i == j:
                return ("potrf", k)
            return ("trsm", k, i)
        return ("upd", k, i, j)

    # -- spec surface ---------------------------------------------------------------------------

    def sink_key(self) -> Key:
        return ("potrf", self._B - 1)

    def inputs(self, key: Key) -> Sequence[BlockRef]:
        kind = key[0]
        if kind == "potrf":
            k = key[1]
            return (BlockRef(self.blk(k, k), k),)
        if kind == "trsm":
            _, k, i = key
            return (BlockRef(self.blk(i, k), k), BlockRef(self.blk(k, k), k + 1))
        _, k, i, j = key
        refs = [BlockRef(self.blk(i, j), k), BlockRef(self.blk(i, k), k + 1)]
        if j != i:
            refs.append(BlockRef(self.blk(j, k), k + 1))
        return tuple(refs)

    def outputs(self, key: Key) -> Sequence[BlockRef]:
        kind = key[0]
        if kind == "potrf":
            k = key[1]
            return (BlockRef(self.blk(k, k), k + 1),)
        if kind == "trsm":
            _, k, i = key
            return (BlockRef(self.blk(i, k), k + 1),)
        _, k, i, j = key
        return (BlockRef(self.blk(i, j), k + 1),)

    def predecessors(self, key: Key) -> Sequence[Key]:
        preds = []
        for raw in self.inputs(key):
            p = self.producer(BlockRef(*raw))
            if p is not None and p not in preds:
                preds.append(p)
        return tuple(preds)

    def successors(self, key: Key) -> Sequence[Key]:
        B = self._B
        kind = key[0]
        if kind == "potrf":
            k = key[1]
            return tuple(("trsm", k, i) for i in range(k + 1, B))
        if kind == "trsm":
            _, k, i = key
            # L(i,k) feeds updates where it is the left factor (j <= i)
            # and where it is the (transposed) right factor (rows >= i).
            out: list[Key] = [("upd", k, i, j) for j in range(k + 1, i + 1)]
            out += [("upd", k, i2, i) for i2 in range(i + 1, B)]
            return tuple(out)
        _, k, i, j = key
        return (self.producer(BlockRef(self.blk(i, j), k + 2)),)

    def cost(self, key: Key) -> float:
        b3 = float(self._b) ** 3
        kind = key[0]
        if kind == "potrf":
            return b3 / 3.0
        if kind == "trsm":
            return b3
        return 2.0 * b3

    def compute_full(self, key: Key, ctx: ComputeContext) -> None:
        kind = key[0]
        if kind == "potrf":
            k = key[1]
            a = ctx.read(BlockRef(self.blk(k, k), k))
            ctx.write(BlockRef(self.blk(k, k), k + 1), chol_potrf(a))
        elif kind == "trsm":
            _, k, i = key
            a = ctx.read(BlockRef(self.blk(i, k), k))
            l_kk = ctx.read(BlockRef(self.blk(k, k), k + 1))
            ctx.write(BlockRef(self.blk(i, k), k + 1), chol_trsm(l_kk, a))
        else:
            _, k, i, j = key
            a = ctx.read(BlockRef(self.blk(i, j), k))
            l_ik = ctx.read(BlockRef(self.blk(i, k), k + 1))
            l_jk = l_ik if j == i else ctx.read(BlockRef(self.blk(j, k), k + 1))
            ctx.write(BlockRef(self.blk(i, j), k + 1), chol_update(a, l_ik, l_jk))

    # -- experiment surface --------------------------------------------------------------------------

    def seed_store(self, store: BlockStore) -> None:
        b, B = self._b, self._B
        for i in range(B):
            for j in range(i + 1):
                tile = self.a0[i * b : (i + 1) * b, j * b : (j + 1) * b].copy()
                store.pin(BlockRef(self.blk(i, j), 0), tile)

    def reference(self) -> np.ndarray:
        """Lower Cholesky factor via NumPy (the factor is unique)."""
        return np.linalg.cholesky(self.a0)

    def extract(self, store: BlockStore) -> np.ndarray:
        b, B = self._b, self._B
        out = np.zeros_like(self.a0)
        for i in range(B):
            for j in range(i + 1):
                final = j + 1
                out[i * b : (i + 1) * b, j * b : (j + 1) * b] = store.read(
                    BlockRef(self.blk(i, j), final)
                )
        # Zero the strict upper triangle of the diagonal tiles (potrf
        # returns clean lower factors already; the full matrix assembly
        # above only fills the lower block triangle).
        return np.tril(out)

    def verify(self, store: BlockStore, rtol: float = 1e-8, atol: float = 1e-8) -> None:
        got = self.extract(store)
        want = self.reference()
        np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)
