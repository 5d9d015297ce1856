"""Triangular-solve tile kernels of LU and Cholesky (LAPACK ``trsm``).

The only kernels that need scipy, kept apart from
:mod:`repro.apps.kernels` so that a process loads scipy only when it
builds or unpickles one of the two apps that call them.  The import is
at module level, never inside a kernel: a forked worker inherits it and
no task pays for it.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular


def lu_trsm_row(lu_kk: np.ndarray, a_kj: np.ndarray) -> np.ndarray:
    """U-panel solve: ``L(k,k)^-1 @ A(k,j)`` with unit-lower L."""
    return solve_triangular(lu_kk, a_kj, lower=True, unit_diagonal=True)


def lu_trsm_col(lu_kk: np.ndarray, a_ik: np.ndarray) -> np.ndarray:
    """L-panel solve: ``A(i,k) @ U(k,k)^-1``."""
    return solve_triangular(lu_kk, a_ik.T, lower=False, trans="T").T


def chol_trsm(l_kk: np.ndarray, a_ik: np.ndarray) -> np.ndarray:
    """Panel solve: ``A(i,k) @ L(k,k)^-T``."""
    return solve_triangular(l_kk, a_ik.T, lower=True).T
