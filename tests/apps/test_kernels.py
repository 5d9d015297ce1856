"""Numerical kernel tests against naive references."""

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from repro.apps.kernels import (
    chol_potrf,
    chol_update,
    fw_diag,
    fw_minplus,
    fw_panel_col,
    fw_panel_row,
    gemm_update,
    lcs_block,
    lu_getrf,
    sw_block,
)
from repro.apps.trsm import chol_trsm, lu_trsm_col, lu_trsm_row

RNG = np.random.default_rng(42)


def naive_lcs_full(x, y):
    n, m = len(x), len(y)
    g = np.zeros((n + 1, m + 1), dtype=np.int64)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if x[i - 1] == y[j - 1]:
                g[i, j] = g[i - 1, j - 1] + 1
            else:
                g[i, j] = max(g[i - 1, j], g[i, j - 1])
    return g


def naive_sw_full(x, y, match=2, mismatch=1, gap=1):
    n, m = len(x), len(y)
    g = np.zeros((n + 1, m + 1), dtype=np.int64)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            s = match if x[i - 1] == y[j - 1] else -mismatch
            g[i, j] = max(0, g[i - 1, j - 1] + s, g[i - 1, j] - gap, g[i, j - 1] - gap)
    return g


class TestLCSBlock:
    def test_whole_matrix_as_one_block(self):
        x = RNG.integers(0, 4, 12).astype(np.int8)
        y = RNG.integers(0, 4, 9).astype(np.int8)
        full = naive_lcs_full(x, y)
        bottom, right = lcs_block(x, y, np.zeros(9, np.int32), np.zeros(12, np.int32), 0)
        np.testing.assert_array_equal(bottom, full[-1, 1:])
        np.testing.assert_array_equal(right, full[1:, -1])

    def test_blocked_equals_unblocked(self):
        x = RNG.integers(0, 3, 8).astype(np.int8)
        y = RNG.integers(0, 3, 8).astype(np.int8)
        full = naive_lcs_full(x, y)
        # Compute the (1,1) quadrant from boundary rows of the full DP.
        top = full[4, 5:].astype(np.int32)
        left = full[5:, 4].astype(np.int32)
        corner = int(full[4, 4])
        bottom, right = lcs_block(x[4:], y[4:], top, left, corner)
        np.testing.assert_array_equal(bottom, full[-1, 5:])
        np.testing.assert_array_equal(right, full[5:, -1])

    def test_rectangular_block(self):
        x = RNG.integers(0, 4, 5).astype(np.int8)
        y = RNG.integers(0, 4, 11).astype(np.int8)
        full = naive_lcs_full(x, y)
        bottom, right = lcs_block(x, y, np.zeros(11, np.int32), np.zeros(5, np.int32), 0)
        np.testing.assert_array_equal(bottom, full[-1, 1:])
        np.testing.assert_array_equal(right, full[1:, -1])


class TestSWBlock:
    def test_whole_matrix(self):
        x = RNG.integers(0, 4, 10).astype(np.int8)
        y = RNG.integers(0, 4, 10).astype(np.int8)
        full = naive_sw_full(x, y)
        bottom, right, mx = sw_block(x, y, np.zeros(10, np.int32), np.zeros(10, np.int32), 0)
        np.testing.assert_array_equal(bottom, full[-1, 1:])
        np.testing.assert_array_equal(right, full[1:, -1])
        assert mx == full[1:, 1:].max()

    def test_zero_floor(self):
        # All mismatches: every score clips at zero.
        x = np.zeros(6, np.int8)
        y = np.ones(6, np.int8)
        bottom, right, mx = sw_block(x, y, np.zeros(6, np.int32), np.zeros(6, np.int32), 0)
        assert mx == 0
        assert (bottom == 0).all() and (right == 0).all()


class TestFWKernels:
    def setup_method(self):
        self.d = RNG.uniform(1, 10, (6, 6))
        np.fill_diagonal(self.d, 0.0)

    def test_diag_matches_pointwise_fw(self):
        ref = self.d.copy()
        for t in range(6):
            for i in range(6):
                for j in range(6):
                    ref[i, j] = min(ref[i, j], ref[i, t] + ref[t, j])
        np.testing.assert_allclose(fw_diag(self.d), ref)

    def test_minplus(self):
        a = RNG.uniform(1, 5, (4, 3))
        b = RNG.uniform(1, 5, (3, 4))
        d = RNG.uniform(1, 5, (4, 4))
        ref = d.copy()
        for i in range(4):
            for j in range(4):
                ref[i, j] = min(ref[i, j], (a[i, :] + b[:, j]).min())
        np.testing.assert_allclose(fw_minplus(d, a, b), ref)

    def test_panel_row_in_place_semantics(self):
        diag_new = fw_diag(self.d)
        panel = RNG.uniform(1, 10, (6, 4))
        ref = panel.copy()
        for t in range(6):
            for r in range(6):
                for c in range(4):
                    ref[r, c] = min(ref[r, c], diag_new[r, t] + ref[t, c])
        np.testing.assert_allclose(fw_panel_row(diag_new, panel), ref)

    def test_panel_col_in_place_semantics(self):
        diag_new = fw_diag(self.d)
        panel = RNG.uniform(1, 10, (4, 6))
        ref = panel.copy()
        for t in range(6):
            for r in range(4):
                for c in range(6):
                    ref[r, c] = min(ref[r, c], ref[r, t] + diag_new[t, c])
        np.testing.assert_allclose(fw_panel_col(diag_new, panel), ref)

    def test_inputs_not_mutated(self):
        before = self.d.copy()
        fw_diag(self.d)
        np.testing.assert_array_equal(self.d, before)


class TestLUKernels:
    def test_getrf_reconstructs(self):
        a = RNG.uniform(-1, 1, (8, 8)) + 8 * np.eye(8)
        lu = lu_getrf(a)
        l = np.tril(lu, -1) + np.eye(8)
        u = np.triu(lu)
        np.testing.assert_allclose(l @ u, a, rtol=1e-10, atol=1e-10)

    def test_getrf_zero_pivot_raises(self):
        with pytest.raises(ZeroDivisionError):
            lu_getrf(np.zeros((3, 3)))

    def test_trsm_row(self):
        a = RNG.uniform(-1, 1, (5, 5)) + 5 * np.eye(5)
        lu = lu_getrf(a)
        rhs = RNG.uniform(-1, 1, (5, 7))
        out = lu_trsm_row(lu, rhs)
        l = np.tril(lu, -1) + np.eye(5)
        np.testing.assert_allclose(l @ out, rhs, rtol=1e-10, atol=1e-10)

    def test_trsm_col(self):
        a = RNG.uniform(-1, 1, (5, 5)) + 5 * np.eye(5)
        lu = lu_getrf(a)
        rhs = RNG.uniform(-1, 1, (7, 5))
        out = lu_trsm_col(lu, rhs)
        u = np.triu(lu)
        np.testing.assert_allclose(out @ u, rhs, rtol=1e-10, atol=1e-10)

    def test_gemm_update(self):
        a = RNG.uniform(-1, 1, (4, 4))
        l = RNG.uniform(-1, 1, (4, 3))
        r = RNG.uniform(-1, 1, (3, 4))
        np.testing.assert_allclose(gemm_update(a, l, r), a - l @ r)

    def test_blocked_equals_unblocked_lu(self):
        n, b = 12, 4
        a = RNG.uniform(-1, 1, (n, n)) + n * np.eye(n)
        ref = lu_getrf(a)
        # Manual 3x3 tiled right-looking factorization using the kernels.
        tiles = {
            (i, j): a[i * b:(i + 1) * b, j * b:(j + 1) * b].copy()
            for i in range(3) for j in range(3)
        }
        for k in range(3):
            tiles[k, k] = lu_getrf(tiles[k, k])
            for j in range(k + 1, 3):
                tiles[k, j] = lu_trsm_row(tiles[k, k], tiles[k, j])
            for i in range(k + 1, 3):
                tiles[i, k] = lu_trsm_col(tiles[k, k], tiles[i, k])
            for i in range(k + 1, 3):
                for j in range(k + 1, 3):
                    tiles[i, j] = gemm_update(tiles[i, j], tiles[i, k], tiles[k, j])
        got = np.block([[tiles[i, j] for j in range(3)] for i in range(3)])
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9)


class TestCholeskyKernels:
    def test_potrf(self):
        m = RNG.uniform(-1, 1, (6, 6))
        a = m @ m.T + 6 * np.eye(6)
        l = chol_potrf(a)
        np.testing.assert_allclose(l @ l.T, a, rtol=1e-10, atol=1e-10)
        assert np.allclose(np.triu(l, 1), 0)

    def test_trsm(self):
        m = RNG.uniform(-1, 1, (5, 5))
        a = m @ m.T + 5 * np.eye(5)
        l_kk = chol_potrf(a)
        panel = RNG.uniform(-1, 1, (7, 5))
        out = chol_trsm(l_kk, panel)
        np.testing.assert_allclose(out @ l_kk.T, panel, rtol=1e-10, atol=1e-10)

    def test_update_syrk(self):
        a = RNG.uniform(-1, 1, (4, 4))
        l = RNG.uniform(-1, 1, (4, 3))
        np.testing.assert_allclose(chol_update(a, l, l), a - l @ l.T)

    def test_blocked_equals_numpy_cholesky(self):
        n, b = 12, 4
        m = RNG.uniform(-1, 1, (n, n))
        a = m @ m.T + n * np.eye(n)
        ref = np.linalg.cholesky(a)
        tiles = {
            (i, j): a[i * b:(i + 1) * b, j * b:(j + 1) * b].copy()
            for i in range(3) for j in range(i + 1)
        }
        for k in range(3):
            tiles[k, k] = chol_potrf(tiles[k, k])
            for i in range(k + 1, 3):
                tiles[i, k] = chol_trsm(tiles[k, k], tiles[i, k])
            for i in range(k + 1, 3):
                for j in range(k + 1, i + 1):
                    tiles[i, j] = chol_update(tiles[i, j], tiles[i, k], tiles[j, k])
        got = np.zeros((n, n))
        for (i, j), t in tiles.items():
            got[i * b:(i + 1) * b, j * b:(j + 1) * b] = t
        np.testing.assert_allclose(np.tril(got), ref, rtol=1e-9, atol=1e-9)
