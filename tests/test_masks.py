import math

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from hta.masks import (TokenLayout, gst_stacked_mask, mask_to_csv, mask_to_pgm,
                       slt_mask)
from hta.selftest import check_masks

FIG3 = TokenLayout(T=4, N=4, U=2, V=1, r=2)


def zeros_per_row(mask):
    return (mask == 0.0).sum(axis=1)


def mst_rows(lay):
    return gst_stacked_mask(lay)[1:1 + lay.num_mst]


def patch_rows(lay):
    return gst_stacked_mask(lay)[1 + lay.num_mst:]


def test_layout_validation():
    with pytest.raises(ValueError):
        TokenLayout(T=0, N=4, U=1, V=1, r=2)
    with pytest.raises(ValueError):
        TokenLayout(T=4, N=4, U=1, V=1, r=1)
    assert TokenLayout(T=4, N=4, U=0, V=1, r=2).seq_len == 17


def test_layout_index_map():
    lay = TokenLayout(T=3, N=2, U=2, V=2, r=2)
    assert lay.seq_len == 1 + 4 + 6


# -- SlT ---------------------------------------------------------------------


def test_slt_fig3_row0():
    m = slt_mask(FIG3)
    assert set(np.flatnonzero(m[0] == 0.0)) == {0, 4, 8, 12}


def test_slt_diagonal_always_zero():
    for lay in (FIG3, TokenLayout(T=2, N=9, U=1, V=1, r=3)):
        assert (np.diag(slt_mask(lay)) == 0.0).all()


@pytest.mark.parametrize("n", [1, 4, 9])
@pytest.mark.parametrize("t", [2, 4, 8])
def test_slt_rows_have_t_zeros(n, t):
    lay = TokenLayout(T=t, N=n, U=1, V=1, r=2)
    assert (zeros_per_row(slt_mask(lay)) == t).all()


def test_slt_symmetric():
    m = slt_mask(TokenLayout(T=8, N=9, U=2, V=2, r=2))
    assert np.array_equal(m, m.T)


# -- GST row blocks ------------------------------------------------------------


def test_gst_patch_zero_count_constant():
    # patch rows see UV [mst] columns + N same-frame patches; [CLS] is blocked
    for lay in (TokenLayout(T=4, N=4, U=2, V=1, r=2),
                TokenLayout(T=8, N=9, U=3, V=4, r=3)):
        m = patch_rows(lay)
        assert (zeros_per_row(m) == lay.num_mst + lay.N).all()
        assert m[:, 0].all()


def test_gst_patch_single_patch_frames_identity():
    lay = TokenLayout(T=5, N=1, U=1, V=1, r=2)
    block = patch_rows(lay)[:, 1 + lay.num_mst:]
    assert np.array_equal(block == 0.0, np.eye(5, dtype=bool))


def test_gst_mst_level1_stride():
    row = mst_rows(FIG3)[1]     # level-1 token
    patch_cols = row[3:] == 0.0
    frames = np.flatnonzero(patch_cols) // FIG3.N
    assert set(frames) == {0, 2}
    assert (row[1:3] == 0.0).all()      # both [MST] tokens
    assert row[:1].all()                # never [CLS]


def test_gst_mst_level0_attends_all_frames():
    for r in (2, 3):
        lay = TokenLayout(T=6, N=2, U=2, V=1, r=r)
        row = mst_rows(lay)[0]
        assert (row[1 + lay.num_mst:] == 0.0).all()


@pytest.mark.parametrize("u_levels", [1, 2, 3])
@pytest.mark.parametrize("v", [1, 2, 4])
@pytest.mark.parametrize("r", [2, 3])
def test_gst_mst_zero_count_formula(u_levels, v, r):
    lay = TokenLayout(T=8, N=4, U=u_levels, V=v, r=r)
    m = mst_rows(lay)
    for i in range(lay.num_mst):
        u = i // v
        expected = v * (u + 1) + lay.N * math.ceil(lay.T / r ** u)
        assert zeros_per_row(m)[i] == expected


def test_gst_mst_large_stride_still_sees_frame0():
    lay = TokenLayout(T=2, N=3, U=3, V=1, r=3)   # r^2 = 9 > T
    row = mst_rows(lay)[2]
    patch_cols = np.flatnonzero(row[1 + lay.num_mst:] == 0.0) // lay.N
    assert set(patch_cols) == {0}


@pytest.mark.parametrize("u, r", [(65, 2), (33, 4), (23, 8), (17, 16), (9, 256),
                                  (70, 2)])
def test_deep_hierarchy_equals_oracle(u, r):
    # r^(U-1) reaches 2^64 here, past any fixed-width integer stride
    lay = TokenLayout(T=4, N=1, U=u, V=1, r=r)
    assert check_masks([lay]) is None
    patch_cols = np.flatnonzero(mst_rows(lay)[-1, 1 + lay.num_mst:] == 0.0)
    assert set(patch_cols) == {0}


def test_gst_mst_sees_own_and_finer_levels():
    lay = TokenLayout(T=2, N=1, U=3, V=1, r=2)
    mst_block = mst_rows(lay)[:, 1:4] == 0.0
    assert np.array_equal(mst_block, np.tril(np.ones((3, 3), dtype=bool)))


def test_gst_cls_all_zero_and_length():
    lay = TokenLayout(T=12, N=49, U=3, V=4, r=2)
    m = gst_stacked_mask(lay)[:1]
    assert m.shape == (1, 601)
    assert (m == 0.0).all()
    assert zeros_per_row(m)[0] == 1 + lay.num_mst + lay.T * lay.N


def test_gst_stacked_row0_is_cls_row():
    m = gst_stacked_mask(FIG3)
    assert (m[0] == 0.0).all()
    assert m.shape == (FIG3.seq_len, FIG3.seq_len)


def test_gst_stacked_not_symmetric():
    m = gst_stacked_mask(FIG3)
    assert not np.array_equal(m, m.T)


def test_u0_degenerate():
    lay = TokenLayout(T=3, N=2, U=0, V=1, r=2)
    m = gst_stacked_mask(lay)
    assert m.shape == (1 + 6, 1 + 6)
    # patch rows: same-frame patches only, [CLS] blocked
    assert (zeros_per_row(m)[1:] == lay.N).all()
    assert m[1:, 0].all()
    assert check_masks([lay]) is None


def test_constructors_are_pure():
    a = gst_stacked_mask(FIG3)
    b = gst_stacked_mask(FIG3)
    assert np.array_equal(a, b)


def test_csv_and_pgm_rendering():
    lay = TokenLayout(T=1, N=1, U=1, V=1, r=2)
    m = gst_stacked_mask(lay)
    rows = mask_to_csv(m).strip().split("\n")
    assert rows[0] == "0,0,0"
    assert rows[1] == "-inf,0,0"
    pgm = mask_to_pgm(m).split("\n")
    assert pgm[0] == "P2" and pgm[1] == "3 3"
    assert pgm[3] == "255 255 255"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 4),
       st.integers(1, 4), st.integers(2, 4))
def test_masks_equal_oracles_on_drawn_layouts(t, n, u, v, r):
    lay = TokenLayout(T=t, N=n, U=u, V=v, r=r)
    assert check_masks([lay]) is None
    for mask in (slt_mask(lay), gst_stacked_mask(lay)):
        assert mask.dtype == bool
        assert not mask.all(axis=1).any()  # no fully blocked row
