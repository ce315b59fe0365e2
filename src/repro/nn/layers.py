"""Layer zoo for the NumPy DNN framework.

Design: explicit ``forward``/``backward`` per layer rather than tape-based
autodiff.  The paper's network is a fixed feed-forward graph (shared
convolutional trunk + two heads), so manual adjoints keep every hot path
one BLAS call; :class:`Conv2d` trains on the inference plan's
channels-last gather, in float64.

Conventions
-----------
- ``forward(x)`` caches whatever the adjoint needs on ``self``.
- ``backward(grad_out)`` accumulates parameter gradients into
  ``Parameter.grad`` (+=, summing until ``zero_grad``) and returns the
  input gradient.
- A layer instance is *not* safe for concurrent training from several
  threads, matching the paper's single training stream.

Evaluators never call ``forward`` directly: the networks'
``predict``/``predict_masked`` run a compiled
:class:`repro.nn.infer.InferencePlan` (immutable float32 weights,
thread-local workspaces), so one network is safe to share across search
threads.  Only the float64 ``forward``/``backward`` path, which training
runs, is single-threaded per module instance.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.nn.functional import WindowGather, conv_out_size
from repro.nn.init import he_normal, xavier_uniform, zeros
from repro.utils.rng import new_rng

__all__ = [
    "Parameter",
    "Module",
    "Linear",
    "Conv2d",
    "ReLU",
    "Tanh",
    "Flatten",
    "BatchNorm2d",
    "Dropout",
]


class Parameter:
    """A trainable tensor with an accumulated gradient."""

    __slots__ = ("data", "grad", "name")

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Parameter(name={self.name!r}, shape={self.shape})"


class Module:
    """Base class: parameter discovery, train/eval mode, (de)serialisation."""

    #: names of non-trainable state arrays this module owns (e.g. BatchNorm
    #: running statistics).  Serialised by :meth:`state_dict` alongside the
    #: parameters: inference folds them into compiled plans, so dropping
    #: them on save/load or cross-process weight sync would silently change
    #: outputs.
    _buffer_names: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.training = True
        #: monotonically increasing counter of weight rewrites; compiled
        #: inference plans snapshot it to detect staleness.  Bumped by
        #: :meth:`load_state_dict` and by the trainer after each SGD step
        #: (in-place ``Parameter.data`` edits cannot be observed, so any
        #: other direct weight mutation must call :meth:`bump_weights_version`).
        self.weights_version = 0

    # -- graph ------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- parameters -------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        """All parameters of this module and its sub-modules, depth-first."""
        params: list[Parameter] = []
        for value in self.__dict__.values():
            if isinstance(value, Parameter):
                params.append(value)
            elif isinstance(value, Module):
                params.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        params.extend(item.parameters())
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def bump_weights_version(self) -> None:
        """Record that this module's weights changed (see ``weights_version``)."""
        self.weights_version += 1

    # -- mode -------------------------------------------------------------
    def train(self) -> "Module":
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for value in self.__dict__.values():
            if isinstance(value, Module):
                value._set_mode(training)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item._set_mode(training)

    def _buffer_slots(self) -> list[tuple["Module", str]]:
        """(owner, attribute) pairs for every buffer, depth-first -- owners
        are returned rather than arrays because layers may rebind the
        attribute (BatchNorm reassigns its running stats every training
        forward), so loading must go through ``setattr``."""
        slots: list[tuple[Module, str]] = [
            (self, name) for name in self._buffer_names
        ]
        for value in self.__dict__.values():
            if isinstance(value, Module):
                slots.extend(value._buffer_slots())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        slots.extend(item._buffer_slots())
        return slots

    # -- (de)serialisation --------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        state = {f"p{i}": p.data.copy() for i, p in enumerate(self.parameters())}
        for i, (owner, name) in enumerate(self._buffer_slots()):
            state[f"b{i}"] = np.asarray(getattr(owner, name)).copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = self.parameters()
        slots = self._buffer_slots()
        if len(state) == len(params):
            slots = []  # legacy checkpoint without buffers: keep current ones
        elif len(state) != len(params) + len(slots):
            raise ValueError(
                f"state has {len(state)} tensors, module has {len(params)} "
                f"parameters + {len(slots)} buffers"
            )
        for i, p in enumerate(params):
            tensor = state[f"p{i}"]
            if tensor.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for parameter {i}: "
                    f"{tensor.shape} vs {p.data.shape}"
                )
            p.data[...] = tensor
        for i, (owner, name) in enumerate(slots):
            tensor = state[f"b{i}"]
            current = np.asarray(getattr(owner, name))
            if tensor.shape != current.shape:
                raise ValueError(
                    f"shape mismatch for buffer {i} ({name}): "
                    f"{tensor.shape} vs {current.shape}"
                )
            setattr(owner, name, tensor.astype(current.dtype, copy=True))
        self.bump_weights_version()

    def state_digest(self) -> str:
        """BLAKE2b fingerprint of every parameter *and* buffer.

        One short hex string that is equal iff two modules hold
        bit-identical weights (dtype, shape and bytes of the p-keys and
        the BN running-stat b-keys alike).  The crash-resume smoke
        compares resumed-vs-uninterrupted runs with it, and checkpoint
        states embed it so a restore can assert the decoded weights are
        the ones the manifest promised.
        """
        from hashlib import blake2b

        h = blake2b(digest_size=16)
        state = self.state_dict()
        for name in sorted(state):
            arr = np.ascontiguousarray(state[name])
            h.update(name.encode())
            h.update(arr.dtype.str.encode())
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
        return h.hexdigest()


class Linear(Module):
    """Fully-connected layer ``y = x @ W.T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            xavier_uniform((out_features, in_features), in_features, out_features, rng),
            name="linear.weight",
        )
        self.bias = Parameter(zeros((out_features,)), name="linear.bias") if bias else None
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Linear expects (B, {self.in_features}), got {x.shape}"
            )
        self._x = x
        out = x @ self.weight.data.T
        if self.bias is not None:
            out += self.bias.data
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._x is not None, "backward before forward"
        self.weight.grad += grad_out.T @ self._x
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.data


#: ``.columns``: the buffer every Conv2d on a thread gathers into, grown on
#: demand; columns live only from a gather to its GEMM, so one serves all layers
_scratch = threading.local()


class Conv2d(Module):
    """2-D convolution on the inference plan's channels-last kernel.

    NCHW shapes and float64 math outside, NHWC inside: forward is one
    :class:`~repro.nn.functional.WindowGather` and one big-M GEMM, returning
    an NCHW-shaped view over NHWC memory (the next conv's NHWC view is
    free).  Backward computes ``dX`` as a transposed convolution: gather the
    zero-dilated, zero-padded gradient, then one GEMM against the flipped,
    transposed kernel, no scatter.  Those columns also give ``dW``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        if min(in_channels, out_channels, kernel_size, stride) <= 0:
            raise ValueError("conv dimensions must be positive")
        if padding < 0:
            raise ValueError("padding must be non-negative")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            he_normal((out_channels, in_channels, kernel_size, kernel_size), fan_in, rng),
            name="conv.weight",
        )
        self.bias = Parameter(zeros((out_channels,)), name="conv.bias") if bias else None
        self._x: np.ndarray | None = None
        # "x" (input) and "g" (gradient) gathers, with per-layer staging buffers
        self._gathers: dict[str, tuple] = {}

    def _gather(self, role: str, x: np.ndarray, stride: int, pad_hw, offset: int, dilation=1):
        """Gather NHWC *x* into this thread's column buffer through the
        *role* gather, rebinding it when the shape or the buffer changed."""
        k, (b, _, _, c) = self.kernel_size, x.shape
        rows = b * ((pad_hw[0] - k) // stride + 1) * ((pad_hw[1] - k) // stride + 1)
        scratch = getattr(_scratch, "columns", None)
        if scratch is None or scratch.size < rows * k * k * c:
            scratch = _scratch.columns = np.empty(rows * k * k * c)
        bound = self._gathers.get(role)
        if bound is None or bound[0] != x.shape or bound[1] is not scratch:
            staging = bound[2] if bound and bound[0] == x.shape else np.zeros((b, *pad_hw, c))
            cols = scratch[: rows * k * k * c].reshape(rows, -1)
            gather = WindowGather(x.shape, k, stride, cols, staging, offset, dilation)
            bound = self._gathers[role] = (x.shape, scratch, staging, gather)
        return bound[3](x)

    def _columns(self, x_nhwc: np.ndarray) -> np.ndarray:
        b, h, w, c = x_nhwc.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        if k == 1 and s == 1 and p == 0:
            return x_nhwc.reshape(-1, c)  # the NHWC input is the column matrix
        return self._gather("x", x_nhwc, s, (h + 2 * p, w + 2 * p), p)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expects (B, {self.in_channels}, H, W), got {x.shape}"
            )
        b, _, h, w = x.shape
        oh, ow = (conv_out_size(n, self.kernel_size, self.stride, self.padding) for n in (h, w))
        self._x = x
        cols = self._columns(x.transpose(0, 2, 3, 1))  # free if x came from a conv
        out = cols @ self.weight.data.transpose(2, 3, 1, 0).reshape(-1, self.out_channels)
        if self.bias is not None:
            out += self.bias.data
        return out.reshape(b, oh, ow, self.out_channels).transpose(0, 3, 1, 2)

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Accumulate ``dW``/``db``; return ``dX``, or ``None`` when
        *input_grad* is false (the first conv of a tower: nobody reads it).
        The gradient columns ``dX`` needs also give ``dW``, as ``xᵀ @ cols``
        for the flipped kernel, so then x is not gathered again."""
        assert self._x is not None, "backward before forward"
        b, f = grad_out.shape[:2]
        _, c, h, w = self._x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        x_nhwc, g_nhwc = self._x.transpose(0, 2, 3, 1), grad_out.transpose(0, 2, 3, 1)
        if self.bias is not None:
            self.bias.grad += g_nhwc.sum(axis=(0, 1, 2))
        if not input_grad:
            gw = self._columns(x_nhwc).T @ g_nhwc.reshape(-1, f)  # (k*k*C, F)
            self.weight.grad += gw.reshape(k, k, c, f).transpose(3, 2, 0, 1)
            return None
        cols = self._gather("g", g_nhwc, 1, (h + k - 1, w + k - 1), k - 1 - p, s)
        gw = x_nhwc.reshape(-1, c).T @ cols  # (C, k*k*F), kernel flipped
        self.weight.grad += gw.reshape(c, k, k, f)[:, ::-1, ::-1].transpose(3, 0, 1, 2)
        w_t = self.weight.data[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(-1, c)  # flipped
        return (cols @ w_t).reshape(b, h, w, c).transpose(0, 3, 1, 2)


class ReLU(Module):
    """``max(x, 0)``.

    The backward is one multiply by the mask, not a three-operand
    ``np.where`` select: about 90 against 460 us on a 64x32x6x7 gradient,
    and like every elementwise ufunc it writes in its operands' memory
    order, so an NHWC gradient stays NHWC.  A NaN gradient now propagates
    through a masked entry (``nan * 0``).  The forward keeps its
    ``np.where``: ``np.maximum`` is as much faster there, but it would
    also speed up the float64 eval forward that E15's fused-inference
    speedup bar is measured against (ROADMAP item 1(b)).
    """

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._mask is not None
        return grad_out * self._mask


class Tanh(Module):
    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.tanh(x)
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._out is not None
        return grad_out * (1.0 - self._out * self._out)


class Flatten(Module):
    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._shape is not None
        return grad_out.reshape(self._shape)


class BatchNorm2d(Module):
    """Per-channel batch normalisation with running statistics."""

    _buffer_names = ("running_mean", "running_var")

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(num_features), name="bn.gamma")
        self.beta = Parameter(np.zeros(num_features), name="bn.beta")
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self._cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm2d expects (B, {self.num_features}, H, W), got {x.shape}"
            )
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            )
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        self._cache = (x_hat, inv_std, np.asarray(x.shape))
        return self.gamma.data[None, :, None, None] * x_hat + self.beta.data[None, :, None, None]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._cache is not None
        x_hat, inv_std, shape = self._cache
        b, _, h, w = shape
        m = b * h * w  # reduction size per channel
        self.gamma.grad += (grad_out * x_hat).sum(axis=(0, 2, 3))
        self.beta.grad += grad_out.sum(axis=(0, 2, 3))
        g = grad_out * self.gamma.data[None, :, None, None]
        if not self.training:
            return g * inv_std[None, :, None, None]
        sum_g = g.sum(axis=(0, 2, 3))[None, :, None, None]
        sum_gx = (g * x_hat).sum(axis=(0, 2, 3))[None, :, None, None]
        # standard batch-norm adjoint
        return inv_std[None, :, None, None] * (g - sum_g / m - x_hat * sum_gx / m)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | int | None = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = new_rng(rng)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask
