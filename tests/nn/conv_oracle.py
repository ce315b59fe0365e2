"""Test-only oracle: the textbook NCHW im2col/col2im convolution.

Forward unfolds patches into ``(B, C*k*k, oh*ow)`` columns and multiplies
by the ``(F, C*k*k)`` weight matrix; backward folds the column gradient
back with scatter-adds.  Slow but obviously right, so the channels-last
kernel of :class:`repro.nn.layers.Conv2d` is checked against it.
"""

import numpy as np

from repro.nn.functional import conv_out_size
from repro.nn.layers import Conv2d


def im2col(x, k, stride=1, padding=0):
    """(B, C, H, W) -> (B, C*k*k, oh*ow) patch columns."""
    b, c, h, w = x.shape
    oh = conv_out_size(h, k, stride, padding)
    ow = conv_out_size(w, k, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((b, c, k, k, oh, ow), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    return cols.reshape(b, c * k * k, oh * ow)


def col2im(cols, x_shape, k, stride=1, padding=0):
    """Adjoint of :func:`im2col`: scatter-add columns back into an image."""
    b, c, h, w = x_shape
    oh = conv_out_size(h, k, stride, padding)
    ow = conv_out_size(w, k, stride, padding)
    img = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols = cols.reshape(b, c, k, k, oh, ow)
    for i in range(k):
        for j in range(k):
            img[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += cols[:, :, i, j]
    return img[:, :, padding : padding + h, padding : padding + w]


class OracleConv2d(Conv2d):
    """:class:`Conv2d` with the NCHW im2col forward and col2im backward.
    Swap it into a built network with ``conv.__class__ = OracleConv2d``."""

    def forward(self, x):
        k, s, p = self.kernel_size, self.stride, self.padding
        b, _, h, w = x.shape
        self._oracle = (im2col(x, k, s, p), x.shape)
        out = np.matmul(self.weight.data.reshape(self.out_channels, -1), self._oracle[0])
        if self.bias is not None:
            out += self.bias.data[None, :, None]
        return out.reshape(b, self.out_channels, conv_out_size(h, k, s, p), conv_out_size(w, k, s, p))

    def backward(self, grad_out, input_grad=True):
        cols, x_shape = self._oracle
        b, f = grad_out.shape[:2]
        g = grad_out.reshape(b, f, -1)
        self.weight.grad += np.einsum("bfl,bkl->fk", g, cols).reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += g.sum(axis=(0, 2))
        if not input_grad:
            return None
        grad_cols = np.matmul(self.weight.data.reshape(f, -1).T, g)
        return col2im(grad_cols, x_shape, self.kernel_size, self.stride, self.padding)


def conv_nchw(x, weight, stride=1, padding=0):
    """Oracle forward of a bias-free conv: (B, C, H, W) x (F, C, k, k)."""
    f, _, k, _ = weight.shape
    b, _, h, w = x.shape
    out = np.matmul(weight.reshape(f, -1), im2col(x, k, stride, padding))
    return out.reshape(b, f, conv_out_size(h, k, stride, padding), conv_out_size(w, k, stride, padding))
