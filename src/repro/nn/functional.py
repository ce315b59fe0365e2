"""Vectorised numerical primitives for the NumPy DNN framework.

Everything here is shape-polymorphic and loop-free.  :class:`WindowGather`
is the one convolution gather: the fused inference plan and training's
:class:`~repro.nn.layers.Conv2d` (forward, and its input gradient as a
transposed convolution) all run it, so each conv direction is one gather
plus one big-M GEMM and nothing scatters.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "WindowGather",
    "conv_out_size",
    "softmax",
    "log_softmax",
    "one_hot",
]


def conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output spatial extent of a convolution along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution output size {out} <= 0 "
            f"(size={size}, kernel={kernel}, stride={stride}, padding={padding})"
        )
    return out


class WindowGather:
    """Channels-last im2col over fixed buffers: the package's one conv gather.

    A call copies an NHWC batch into the zero-bordered *staging* buffer,
    pixel ``i`` at row/column ``offset + i*dilation`` (pixels landing
    outside are cropped), then copies every ``kernel x kernel`` window
    (step ``stride``) into row ``(b, i, j)`` of the ``(B*oh*ow, k*k*C)``
    column matrix *cols*, K ordered ``(kh, kw, C)``: a conv is then one
    ``cols @ W(k*k*C, F)`` GEMM.  The caller zeroes *staging* once; only
    the interior is ever written, so the rest stays the padding (and, for
    ``dilation > 1``, the zeros a transposed convolution needs).  Views are
    built once here.
    """

    __slots__ = ("interior", "crop", "windows", "dst", "cols")

    def __init__(self, x_shape: tuple[int, ...], kernel: int, stride: int, cols: np.ndarray,
                 staging: np.ndarray, offset: int = 0, dilation: int = 1) -> None:
        b, h, w, c = x_shape
        (rows, x_rows), (cs, x_cs) = (_placement(n, staging.shape[axis], offset, dilation)
                                      for axis, n in ((1, h), (2, w)))
        self.interior, self.crop = staging[:, rows, cs], (slice(None), x_rows, x_cs)
        windows = np.lib.stride_tricks.sliding_window_view(staging, (kernel, kernel), axis=(1, 2))
        windows = windows[:, ::stride, ::stride]  # (B, oh, ow, C, k, k)
        self.windows = windows.transpose(0, 1, 2, 4, 5, 3)
        self.dst = cols.reshape(b, *windows.shape[1:3], kernel, kernel, c)
        self.cols = cols

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.interior[...] = x[self.crop]
        np.copyto(self.dst, self.windows)
        return self.cols


def _placement(n: int, extent: int, offset: int, dilation: int) -> tuple[slice, slice]:
    """(staging slice, input slice) placing input pixel ``i`` at
    ``offset + i*dilation`` and keeping those that land in ``[0, extent)``."""
    lo = max(0, dilation - 1 - offset) // dilation
    hi = min(n, (extent - 1 - offset) // dilation + 1)
    start = offset + lo * dilation
    return slice(start, start + (hi - lo - 1) * dilation + 1, dilation), slice(lo, hi)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along *axis*."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along *axis*."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode an integer array into float32 rows."""
    indices = np.asarray(indices)
    if np.any(indices < 0) or np.any(indices >= num_classes):
        raise ValueError("index out of range for one_hot")
    out = np.zeros((*indices.shape, num_classes), dtype=np.float32)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out
