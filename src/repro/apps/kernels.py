"""Numerical block kernels for the five benchmark applications.

All kernels are vectorized with NumPy.  The dynamic-programming kernels
compute a block one DP row at a time: a row's only loop-carried
dependence is on its left neighbour through a max, so the row is a
prefix max (``np.maximum.accumulate``) over terms read from the row
above by contiguous slices -- one scan per row.  The linear-algebra
kernels are expressed as tile-level BLAS-like operations.  Each kernel
is pure: inputs in, fresh outputs out -- tasks must be stateless for
re-execution to be safe (Theorem 1's assumption).

The triangular solves of LU and Cholesky live in :mod:`repro.apps.trsm`,
the one module that imports scipy: only those two apps load it.
"""

from __future__ import annotations

import numpy as np


# -- dynamic-programming wavefront kernels --------------------------------------------


def lcs_block(
    xs: np.ndarray,
    ys: np.ndarray,
    top: np.ndarray,
    left: np.ndarray,
    corner: int,
) -> tuple[np.ndarray, np.ndarray]:
    """LCS lengths over one block.

    ``xs`` (length r) and ``ys`` (length c) are the sequence slices for
    this block's rows/columns; ``top``/``left`` are the DP values of the
    row above / column to the left (lengths c and r); ``corner`` is the
    value diagonally above-left.  Returns (bottom_row, right_col) of the
    block, each including the block's own cells only.

    Boundary contract: ``top``, ``left`` and ``corner`` must be values of
    one LCS table, as the app's neighbouring blocks always are.  Row
    ``i`` is ``accumulate(max(up, diag + match))`` seeded with
    ``left[i]``; that equals the textbook recurrence because in such a
    table ``diag <= up <= diag + 1`` and a cell's left neighbour is at
    most ``diag + 1``.
    """
    r, c = len(xs), len(ys)
    g = np.empty((r + 1, c + 1), dtype=np.int32)
    g[0, 0] = corner
    g[0, 1:] = top
    g[1:, 0] = left
    match = xs[:, None] == ys[None, :]
    for diag, up, row, body, hit in zip(g[:-1, :-1], g[:-1, 1:], g[1:], g[1:, 1:], match):
        np.maximum(up, diag + hit, out=body)
        np.maximum.accumulate(row, out=row)
    return g[r, 1:].copy(), g[1:, c].copy()


def sw_block(
    xs: np.ndarray,
    ys: np.ndarray,
    top: np.ndarray,
    left: np.ndarray,
    corner: int,
    match_score: int = 2,
    mismatch_penalty: int = 1,
    gap_penalty: int = 1,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Smith-Waterman (linear gap) scores over one block.

    Same frame convention as :func:`lcs_block`; additionally returns the
    block's maximum cell value (local alignment score candidates).

    Boundary contract: none -- any ``top``/``left``/``corner`` give the
    recurrence's exact result.  The scan runs on ``h = g + j*gap``, the
    table with each column ``j`` lifted by its gap ramp, where the
    within-row gap chain ``g[i,j-1] - gap`` becomes a plain prefix max.
    """
    r, c = len(xs), len(ys)
    ramp = np.arange(c + 1, dtype=np.int32) * gap_penalty
    h = np.empty((r + 1, c + 1), dtype=np.int32)
    h[0, 0] = corner
    h[0, 1:] = top + ramp[1:]
    h[1:, 0] = left
    # The substitution score plus the ramp step a diagonal move skips.
    step = np.where(
        xs[:, None] == ys[None, :], match_score + gap_penalty, gap_penalty - mismatch_penalty
    ).astype(np.int32)
    for diag, up, row, body, s in zip(h[:-1, :-1], h[:-1, 1:], h[1:], h[1:, 1:], step):
        np.maximum(diag + s, up - gap_penalty, out=body)
        np.maximum(body, ramp[1:], out=body)
        np.maximum.accumulate(row, out=row)
    h -= ramp
    return h[r, 1:].copy(), h[1:, c].copy(), int(h[1:, 1:].max(initial=0))


# -- Floyd-Warshall tile kernels ---------------------------------------------------------


def fw_diag(d_kk: np.ndarray) -> np.ndarray:
    """Phase-1 update: run Floyd-Warshall within the pivot block."""
    d = d_kk.copy()
    for t in range(d.shape[0]):
        np.minimum(d, d[:, t, None] + d[None, t, :], out=d)
    return d


def fw_minplus(d: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``min(d, a (min,+) b)``: the phase-3 interior tile update.

    ``a`` and ``b`` are the already-final column and row panels, so pivot
    order is irrelevant; vectorized one pivot at a time to keep the
    working set at O(b^2) instead of O(b^3).
    """
    out = d.copy()
    for t in range(a.shape[1]):
        np.minimum(out, a[:, t, None] + b[None, t, :], out=out)
    return out


def fw_panel_row(diag_new: np.ndarray, d_kj: np.ndarray) -> np.ndarray:
    """Phase-2 pivot-row panel update (in-place pivot sweep).

    ``d[r,c] = min(d[r,c], diag_new[r,t] + d[t,c])`` with ``d[t,c]`` taken
    from the *partially updated* panel, as the sequential algorithm does.
    """
    out = d_kj.copy()
    for t in range(out.shape[0]):
        np.minimum(out, diag_new[:, t, None] + out[None, t, :], out=out)
    return out


def fw_panel_col(diag_new: np.ndarray, d_ik: np.ndarray) -> np.ndarray:
    """Phase-2 pivot-column panel update (in-place pivot sweep)."""
    out = d_ik.copy()
    for t in range(out.shape[1]):
        np.minimum(out, out[:, t, None] + diag_new[None, t, :], out=out)
    return out


# -- LU tile kernels -----------------------------------------------------------------------


def lu_getrf(a: np.ndarray) -> np.ndarray:
    """Unpivoted LU of one tile; returns the packed L\\U tile (unit lower)."""
    lu = a.astype(np.float64, copy=True)
    n = lu.shape[0]
    for k in range(n - 1):
        pivot = lu[k, k]
        if pivot == 0.0:
            raise ZeroDivisionError("zero pivot in unpivoted LU; input not diagonally dominant")
        lu[k + 1 :, k] /= pivot
        lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    return lu


def gemm_update(a_ij: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Trailing update ``A(i,j) - left @ right``."""
    return a_ij - left @ right


# -- Cholesky tile kernels --------------------------------------------------------------------


def chol_potrf(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of one SPD tile."""
    return np.linalg.cholesky(a)


def chol_update(a_ij: np.ndarray, l_ik: np.ndarray, l_jk: np.ndarray) -> np.ndarray:
    """Trailing update ``A(i,j) - L(i,k) @ L(j,k)^T`` (SYRK when i == j)."""
    return a_ij - l_ik @ l_jk.T
