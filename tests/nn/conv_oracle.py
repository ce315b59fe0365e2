"""Test-only oracles: the textbook NCHW convolution and the float64 forward.

Forward unfolds patches into ``(B, C*k*k, oh*ow)`` columns and multiplies
by the ``(F, C*k*k)`` weight matrix; backward folds the column gradient
back with scatter-adds.  Slow but obviously right, so the channels-last
kernel of :class:`repro.nn.layers.Conv2d` is checked against it.

:func:`reference_predict` runs a tower's float64 layer-by-layer
``forward`` in eval mode, and :class:`ReferenceEvaluator` evaluates
leaves on it; the compiled float32 plan every network infers with is
checked against them (and E12/E15 time against them).
"""

import threading

import numpy as np

from repro.mcts.evaluation import Evaluation, Evaluator, mask_and_normalize
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


# ``forward`` caches activations per layer and the train/eval flag is
# module-wide, so one reference forward runs at a time
_FORWARD_LOCK = threading.Lock()


def reference_predict(net, states):
    """Float64 forward of *net* on ``(C, H, W)`` or ``(B, C, H, W)``
    states, with eval mode forced for the call: BatchNorm uses (and never
    updates) its running statistics, dropout is off, and the network's
    mode is restored afterwards."""
    states = np.asarray(states, dtype=np.float64)
    if states.ndim == 3:
        states = states[None]
    with _FORWARD_LOCK:
        was_training = net.training
        net.eval()
        try:
            return net.forward(states)
        finally:
            if was_training:
                net.train()


class ReferenceEvaluator(Evaluator):
    """Leaf evaluation on the float64 oracle: :func:`reference_predict`
    then :func:`~repro.mcts.evaluation.mask_and_normalize`, the pair the
    plan's masked entry reproduces bit for bit in float32."""

    def __init__(self, network) -> None:
        self.network = network

    def predict_masked(self, inputs, legal_masks):
        """Encoded planes or game states plus ``(B, A)`` legality masks ->
        ``(priors (B, A), values (B,))``."""
        if not isinstance(inputs, np.ndarray):
            inputs = np.stack([g.encode() for g in inputs])
        out = reference_predict(self.network, inputs)
        return mask_and_normalize(out.policy, legal_masks), out.value

    def evaluate(self, game):
        return self.evaluate_batch([game])[0]

    def evaluate_batch(self, games):
        if not games:
            return []
        priors, values = self.predict_masked(
            games, np.stack([g.legal_mask() for g in games])
        )
        return [Evaluation(priors=p.copy(), value=float(v)) for p, v in zip(priors, values)]
