"""Tests for the vectorised primitives (the conv gather, softmax family)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.functional import (
    WindowGather,
    conv_out_size,
    log_softmax,
    one_hot,
    softmax,
)
from tests.nn.conv_oracle import col2im, conv_nchw


class TestConvOutSize:
    def test_basic(self):
        assert conv_out_size(15, 3, 1, 1) == 15

    def test_stride(self):
        assert conv_out_size(8, 2, 2, 0) == 4

    def test_no_padding_shrinks(self):
        assert conv_out_size(5, 3, 1, 0) == 3

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            conv_out_size(2, 5, 1, 0)


def gather_conv(x_nhwc, weight, stride=1, padding=0):
    """Bias-free conv the way the package runs it: one WindowGather and
    one GEMM against the (k*k*C, F) weight matrix.  NHWC in and out."""
    b, h, w, c = x_nhwc.shape
    f, _, k, _ = weight.shape
    oh = conv_out_size(h, k, stride, padding)
    ow = conv_out_size(w, k, stride, padding)
    cols = np.empty((b * oh * ow, k * k * c))
    staging = np.zeros((b, h + 2 * padding, w + 2 * padding, c))
    gather = WindowGather(x_nhwc.shape, k, stride, cols, staging, padding)
    out = gather(x_nhwc) @ weight.transpose(2, 3, 1, 0).reshape(-1, f)
    return out.reshape(b, oh, ow, f)


def transposed_conv(g_nhwc, weight, x_hw, stride=1, padding=0):
    """Adjoint of :func:`gather_conv` as Conv2d's backward computes it:
    gather the zero-dilated, zero-padded gradient, GEMM against the
    flipped, transposed kernel."""
    b, oh, ow, f = g_nhwc.shape
    _, c, k, _ = weight.shape
    h, w = x_hw
    cols = np.empty((b * h * w, k * k * f))
    staging = np.zeros((b, h + k - 1, w + k - 1, f))
    gather = WindowGather(g_nhwc.shape, k, 1, cols, staging, k - 1 - padding, stride)
    w_t = weight[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(-1, c)
    return (gather(g_nhwc) @ w_t).reshape(b, h, w, c)


class TestWindowGather:
    def test_shape(self):
        x = np.random.default_rng(0).random((2, 5, 5, 3))
        cols = np.empty((2 * 25, 9 * 3))
        gather = WindowGather(x.shape, 3, 1, cols, np.zeros((2, 7, 7, 3)), 1)
        assert gather(x) is cols

    def test_identity_kernel_1x1(self):
        x = np.random.default_rng(1).random((1, 4, 4, 2))
        cols = np.empty((16, 2))
        assert np.array_equal(WindowGather(x.shape, 1, 1, cols, np.zeros(x.shape))(x), x.reshape(16, 2))

    def test_known_patch(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4, 1)
        cols = WindowGather(x.shape, 2, 1, np.empty((9, 4)), np.zeros(x.shape))(x)
        # first row = top-left 2x2 patch, K ordered (kh, kw, C)
        assert np.array_equal(cols[0], [0, 1, 4, 5])

    def test_channels_innermost(self):
        x = np.random.default_rng(2).random((1, 3, 3, 2))
        cols = WindowGather(x.shape, 3, 1, np.empty((1, 18)), np.zeros(x.shape))(x)
        assert np.array_equal(cols[0].reshape(3, 3, 2), x[0])

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(2)
        x = rng.random((2, 3, 6, 6))
        w = rng.random((4, 3, 3, 3))
        out = gather_conv(x.transpose(0, 2, 3, 1), w, 1, 1).transpose(0, 3, 1, 2)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        ref = np.zeros((2, 4, 6, 6))
        for b in range(2):
            for f in range(4):
                for i in range(6):
                    for j in range(6):
                        ref[b, f, i, j] = np.sum(xp[b, :, i : i + 3, j : j + 3] * w[f])
        assert np.allclose(out, ref)
        assert np.allclose(conv_nchw(x, w, 1, 1), ref)

    @pytest.mark.parametrize("k,s,p", [(1, 1, 0), (1, 2, 1), (2, 2, 0), (3, 1, 1), (3, 2, 1), (3, 2, 0)])
    def test_matches_oracle(self, k, s, p):
        rng = np.random.default_rng(3)
        x = rng.random((2, 3, 7, 6))
        w = rng.random((4, 3, k, k))
        out = gather_conv(x.transpose(0, 2, 3, 1), w, s, p).transpose(0, 3, 1, 2)
        assert np.allclose(out, conv_nchw(x, w, s, p), rtol=1e-12)

    def test_stride_2(self):
        x = np.random.default_rng(3).random((1, 6, 6, 1))
        assert gather_conv(x, np.ones((1, 1, 2, 2)), stride=2).shape == (1, 3, 3, 1)

    def test_staging_reused_across_calls(self):
        """The zero border is written once; refreshed interiors must not
        leak between calls."""
        rng = np.random.default_rng(4)
        staging = np.zeros((2, 7, 6, 3))
        cols = np.empty((2 * 20, 27))
        gather = WindowGather((2, 5, 4, 3), 3, 1, cols, staging, 1)
        for _ in range(3):
            x = rng.random((2, 5, 4, 3))
            fresh = WindowGather(x.shape, 3, 1, np.empty_like(cols), np.zeros_like(staging), 1)
            assert np.array_equal(gather(x), fresh(x))
        assert not staging[:, 0].any() and not staging[:, :, -1].any()

    def test_negative_offset_crops(self):
        """A 1x1 conv with padding 1 reads x only through interior windows,
        so its transposed conv must crop the gradient's border pixels."""
        g = np.arange(1.0, 17.0).reshape(1, 4, 4, 1)
        dx = transposed_conv(g, np.ones((1, 1, 1, 1)), (2, 2), 1, 1)
        assert np.array_equal(dx[0, :, :, 0], g[0, 1:3, 1:3, 0])

    @given(
        b=st.integers(1, 3),
        c=st.integers(1, 3),
        f=st.integers(1, 3),
        h=st.integers(3, 7),
        w=st.integers(3, 7),
        k=st.integers(1, 3),
        s=st.integers(1, 2),
        p=st.integers(0, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_transposed_conv_is_adjoint(self, b, c, f, h, w, k, s, p):
        """<conv(x), y> == <x, conv_T(y)> -- the defining adjoint identity
        that makes the conv input gradient exactly the transpose; and it
        equals the oracle's col2im scatter."""
        rng = np.random.default_rng(42)
        x = rng.random((b, h, w, c))
        weight = rng.random((f, c, k, k))
        out = gather_conv(x, weight, s, p)
        y = rng.random(out.shape)
        back = transposed_conv(y, weight, (h, w), s, p)
        assert np.isclose(float(np.sum(out * y)), float(np.sum(x * back)), rtol=1e-10)
        y_nchw = y.transpose(0, 3, 1, 2).reshape(b, f, -1)
        scatter = col2im(np.matmul(weight.reshape(f, -1).T, y_nchw), (b, c, h, w), k, s, p)
        assert np.allclose(back.transpose(0, 3, 1, 2), scatter, rtol=1e-12)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = np.random.default_rng(4).random((5, 7)) * 10
        s = softmax(x)
        assert np.allclose(s.sum(axis=-1), 1.0)

    def test_stability_large_values(self):
        x = np.array([[1e4, 1e4 + 1.0]])
        s = softmax(x)
        assert np.all(np.isfinite(s))
        assert s[0, 1] > s[0, 0]

    def test_invariant_to_shift(self):
        x = np.random.default_rng(5).random((3, 4))
        assert np.allclose(softmax(x), softmax(x + 100.0))

    def test_log_softmax_consistent(self):
        x = np.random.default_rng(6).random((3, 9))
        assert np.allclose(np.exp(log_softmax(x)), softmax(x))

    def test_log_softmax_stability(self):
        x = np.array([[0.0, -1e5]])
        ls = log_softmax(x)
        assert np.all(np.isfinite(ls[0, 0:1]))

    def test_axis_argument(self):
        x = np.random.default_rng(7).random((4, 5))
        assert np.allclose(softmax(x, axis=0).sum(axis=0), 1.0)


class TestOneHot:
    def test_basic(self):
        out = one_hot(np.array([0, 2]), 3)
        assert np.allclose(out, [[1, 0, 0], [0, 0, 1]])

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            one_hot(np.array([3]), 3)
        with pytest.raises(ValueError):
            one_hot(np.array([-1]), 3)
