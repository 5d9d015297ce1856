"""Property-based tests on the numerical kernels.

The blocked decompositions are only correct if the kernels compose: the
DP kernels must give identical boundaries whether a region is processed
as one block or as two stitched blocks, a block cut anywhere out of the
per-cell full DP must reproduce that table's cells, and the
linear-algebra tile kernels must agree with whole-matrix factorizations.
"""

import importlib.util
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.apps.kernels import (
    fw_diag,
    fw_minplus,
    fw_panel_col,
    fw_panel_row,
    lcs_block,
    lu_getrf,
    sw_block,
)

seqs = lambda lo, hi: hnp.arrays(
    np.int8, st.integers(lo, hi), elements=st.integers(0, 3)
)


class TestLCSComposition:
    @given(x=seqs(2, 16), y=seqs(2, 16), split=st.integers(1, 15))
    @settings(max_examples=80, deadline=None)
    def test_horizontal_split_matches_monolithic(self, x, y, split):
        split = min(split, len(y) - 1)
        zt = np.zeros(len(y), np.int32)
        zl = np.zeros(len(x), np.int32)
        bottom, right = lcs_block(x, y, zt, zl, 0)
        # Process the same region as [left | right] blocks.
        b1, r1 = lcs_block(x, y[:split], zt[:split], zl, 0)
        b2, r2 = lcs_block(x, y[split:], zt[split:], r1, 0)
        np.testing.assert_array_equal(np.concatenate([b1, b2]), bottom)
        np.testing.assert_array_equal(r2, right)

    @given(x=seqs(2, 16), y=seqs(2, 16), split=st.integers(1, 15))
    @settings(max_examples=80, deadline=None)
    def test_vertical_split_matches_monolithic(self, x, y, split):
        split = min(split, len(x) - 1)
        zt = np.zeros(len(y), np.int32)
        zl = np.zeros(len(x), np.int32)
        bottom, right = lcs_block(x, y, zt, zl, 0)
        b1, r1 = lcs_block(x[:split], y, zt, zl[:split], 0)
        b2, r2 = lcs_block(x[split:], y, b1, zl[split:], 0)
        np.testing.assert_array_equal(b2, bottom)
        np.testing.assert_array_equal(np.concatenate([r1, r2]), right)

    @given(x=seqs(1, 12), y=seqs(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_lcs_bounded_and_monotone(self, x, y):
        bottom, right = lcs_block(
            x, y, np.zeros(len(y), np.int32), np.zeros(len(x), np.int32), 0
        )
        assert 0 <= bottom[-1] <= min(len(x), len(y))
        assert (np.diff(bottom) >= 0).all()
        assert (np.diff(right) >= 0).all()


class TestSWProperties:
    @given(x=seqs(1, 12), y=seqs(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_scores_nonnegative_and_max_consistent(self, x, y):
        bottom, right, mx = sw_block(
            x, y, np.zeros(len(y), np.int32), np.zeros(len(x), np.int32), 0
        )
        assert (bottom >= 0).all() and (right >= 0).all()
        assert mx >= max(bottom.max(initial=0), right.max(initial=0))

    @given(x=seqs(2, 10))
    @settings(max_examples=40, deadline=None)
    def test_self_alignment_scores_full_match(self, x):
        _, _, mx = sw_block(
            x, x, np.zeros(len(x), np.int32), np.zeros(len(x), np.int32), 0
        )
        assert mx >= 2 * len(x)  # match score = 2 per position


def _naive_dp():
    """``naive_lcs_full``/``naive_sw_full``: the per-cell full-table DPs of
    ``tests/apps/test_kernels.py`` (a test module, so loaded by path)."""
    path = Path(__file__).resolve().parent.parent / "apps" / "test_kernels.py"
    spec = importlib.util.spec_from_file_location("_naive_dp", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.naive_lcs_full, module.naive_sw_full


naive_lcs_full, naive_sw_full = _naive_dp()


@st.composite
def cuts(draw):
    """Two sequences over a 1-4 symbol alphabet and the row and column
    spans ``(i0, i1)``, ``(j0, j1)`` of a non-empty block of their table."""
    symbols = draw(st.integers(1, 4))
    seq = hnp.arrays(np.int8, st.integers(1, 12), elements=st.integers(0, symbols - 1))
    x, y = draw(seq), draw(seq)
    i0 = draw(st.integers(0, len(x) - 1))
    j0 = draw(st.integers(0, len(y) - 1))
    return x, y, (i0, draw(st.integers(i0 + 1, len(x)))), (j0, draw(st.integers(j0 + 1, len(y))))


def _frame(full, rows, cols):
    """The block's true ``top``, ``left`` and ``corner`` in ``full``."""
    (i0, i1), (j0, j1) = rows, cols
    return (full[i0, j0 + 1 : j1 + 1].astype(np.int32),
            full[i0 + 1 : i1 + 1, j0].astype(np.int32), int(full[i0, j0]))


ONE_SYMBOL_ROW = (np.zeros(5, np.int8), np.zeros(7, np.int8), (2, 3), (1, 7))
MIXED_COLUMN = (np.array([0, 1, 0, 1, 1], np.int8), np.array([1, 0, 1], np.int8), (0, 5), (1, 2))


class TestCutFromFullDP:
    """Fed its true boundaries, a block reproduces the full table's cells:
    the bottom row, the right column and (SW) the interior max."""

    @given(cut=cuts())
    @example(cut=ONE_SYMBOL_ROW)
    @example(cut=MIXED_COLUMN)
    @settings(max_examples=200, deadline=None)
    def test_lcs_block_matches_the_full_table(self, cut):
        x, y, (i0, i1), (j0, j1) = cut
        full = naive_lcs_full(x, y)
        bottom, right = lcs_block(x[i0:i1], y[j0:j1], *_frame(full, (i0, i1), (j0, j1)))
        np.testing.assert_array_equal(bottom, full[i1, j0 + 1 : j1 + 1])
        np.testing.assert_array_equal(right, full[i0 + 1 : i1 + 1, j1])

    @given(cut=cuts())
    @example(cut=ONE_SYMBOL_ROW)
    @example(cut=MIXED_COLUMN)
    @settings(max_examples=200, deadline=None)
    def test_sw_block_matches_the_full_table(self, cut):
        x, y, (i0, i1), (j0, j1) = cut
        full = naive_sw_full(x, y)
        bottom, right, mx = sw_block(x[i0:i1], y[j0:j1], *_frame(full, (i0, i1), (j0, j1)))
        np.testing.assert_array_equal(bottom, full[i1, j0 + 1 : j1 + 1])
        np.testing.assert_array_equal(right, full[i0 + 1 : i1 + 1, j1])
        assert mx == full[i0 + 1 : i1 + 1, j0 + 1 : j1 + 1].max()

    @given(
        x=seqs(1, 8), y=seqs(1, 8), data=st.data(),
        scores=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    )
    @settings(max_examples=100, deadline=None)
    def test_sw_block_takes_any_boundaries(self, x, y, data, scores):
        """SW's row scan is exact algebra: boundaries that no table could
        hold (negative, jagged) still give the per-cell recurrence."""
        edge = lambda n: data.draw(hnp.arrays(np.int32, n, elements=st.integers(-9, 30)))
        top, left, corner = edge(len(y)), edge(len(x)), data.draw(st.integers(-9, 30))
        match, mismatch, gap = scores
        g = np.zeros((len(x) + 1, len(y) + 1), np.int64)
        g[0, 0], g[0, 1:], g[1:, 0] = corner, top, left
        for i in range(1, len(x) + 1):
            for j in range(1, len(y) + 1):
                s = match if x[i - 1] == y[j - 1] else -mismatch
                g[i, j] = max(0, g[i - 1, j - 1] + s, g[i - 1, j] - gap, g[i, j - 1] - gap)
        bottom, right, mx = sw_block(x, y, top, left, corner, match, mismatch, gap)
        np.testing.assert_array_equal(bottom, g[-1, 1:])
        np.testing.assert_array_equal(right, g[1:, -1])
        assert mx == g[1:, 1:].max()


dist_blocks = hnp.arrays(
    np.float64, (5, 5), elements=st.floats(0.5, 20.0, allow_nan=False)
)


class TestFWProperties:
    @given(d=dist_blocks)
    @settings(max_examples=60, deadline=None)
    def test_diag_idempotent(self, d):
        np.fill_diagonal(d, 0.0)
        once = fw_diag(d)
        np.testing.assert_allclose(fw_diag(once), once)

    @given(d=dist_blocks)
    @settings(max_examples=60, deadline=None)
    def test_updates_never_increase(self, d):
        np.fill_diagonal(d, 0.0)
        new = fw_diag(d)
        assert (new <= d + 1e-12).all()
        a = np.abs(d) + 1.0
        assert (fw_minplus(d, a, a) <= d + 1e-12).all()
        assert (fw_panel_row(new, d) <= d + 1e-12).all()
        assert (fw_panel_col(new, d) <= d + 1e-12).all()

    @given(d=dist_blocks)
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality_after_diag(self, d):
        np.fill_diagonal(d, 0.0)
        out = fw_diag(d)
        n = out.shape[0]
        for t in range(n):
            assert (out <= out[:, t, None] + out[None, t, :] + 1e-9).all()


class TestLUProperties:
    @given(
        a=hnp.arrays(np.float64, (6, 6), elements=st.floats(-1, 1, allow_nan=False))
    )
    @settings(max_examples=60, deadline=None)
    def test_getrf_reconstructs_dd_matrices(self, a):
        a = a + 12.0 * np.eye(6)
        lu = lu_getrf(a)
        l = np.tril(lu, -1) + np.eye(6)
        u = np.triu(lu)
        np.testing.assert_allclose(l @ u, a, rtol=1e-9, atol=1e-9)
