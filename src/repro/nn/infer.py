"""Fused float32 inference engine: plan compilation over trained towers.

Every evaluator -- serial search, the parallel schemes, the thread engine
and the farm's evaluator process -- bottoms out in this forward pass, and
that forward *is* the iteration cost (``T_DNN`` in Equations 3-6).
Inference needs no autodiff caches, so this module compiles a
:class:`~repro.nn.layers.Module` tower into an immutable
:class:`InferencePlan`:

- **BatchNorm folding** -- each ``Conv2d -> BatchNorm2d`` pair collapses
  into one convolution over the snapshotted running statistics, so BN is
  free at run time and inference never mutates it;
- **float32, GEMM-ready weights** -- conv kernels cast once to
  ``(k*k*C, F)`` matrices, linear weights pre-transposed;
- **channels-last execution** -- the same NHWC
  :class:`~repro.nn.functional.WindowGather` training's ``Conv2d`` runs,
  one big-M GEMM per layer, the policy and value heads' 1x1 convolutions
  merged into one 2-D GEMM, and one tiny head-side transpose back to the
  reference flatten order;
- **zero-allocation workspaces** -- columns, padded inputs and activation
  temporaries come from thread-local per-plan arenas keyed by input
  shape, so one plan is safe to share across all engine threads;
- **fused elementwise tails** -- ReLU/Tanh in place on the GEMM output;
  residual blocks as conv -> conv -> in-place skip add -> in-place ReLU;
- **one masked entry** -- :meth:`InferencePlan.predict_masked` takes game
  states (encoded straight into the input buffer) or planes plus legal
  masks and returns legal priors and values, bit-identical to ``predict``
  followed by :func:`repro.mcts.evaluation.mask_and_normalize`.

Plans are *immutable snapshots*.  ``Module.weights_version`` (bumped by
``load_state_dict`` and the trainer's SGD step) makes the networks'
``inference_plan()`` accessor recompile lazily whenever it moved.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

from repro.nn.functional import WindowGather, conv_out_size, softmax
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    Module,
    ReLU,
    Tanh,
)

__all__ = ["PlanCompileError", "InferencePlan", "compile_plan", "ensure_plan"]


class PlanCompileError(TypeError):
    """The tower contains a layer or structure the compiler cannot fuse."""


# ---------------------------------------------------------------------------
# workspace arena
# ---------------------------------------------------------------------------


class _Workspace:
    """Preallocated float32 buffers for one (batch, spatial) input shape.

    Buffers are keyed by ``(step_id, role)``, except the column and padded
    input buffers conv steps share; after the first calls with a given
    input shape the executor performs no large allocations.
    """

    __slots__ = ("_bufs", "bound")

    def __init__(self) -> None:
        self._bufs: dict[tuple, np.ndarray] = {}
        #: per-step pre-bound views (gathers, reshaped GEMM operands), so the
        #: steady state does no per-call view construction either
        self.bound: dict[int, tuple] = {}

    def get(self, key: tuple, shape: tuple[int, ...], zero: bool = False) -> np.ndarray:
        buf = self._bufs.get(key)
        if buf is None or buf.shape != shape:
            buf = self._bufs[key] = (np.zeros if zero else np.empty)(shape, dtype=np.float32)
        return buf

    def columns(self, rows: int, width: int) -> np.ndarray:
        """A view of the column buffer all conv steps share (they run one at
        a time, so it stays cache-hot); growing it makes every step rebind."""
        buf = self._bufs.get(("cols",))
        if buf is None or buf.size < rows * width:
            buf = self._bufs[("cols",)] = np.empty(rows * width, dtype=np.float32)
            self.bound.clear()
        return buf[: rows * width].reshape(rows, width)

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._bufs.values())


# ---------------------------------------------------------------------------
# fused steps
# ---------------------------------------------------------------------------


class _FusedConvStep:
    """``conv (+folded BN) (+ReLU)`` as one GEMM against a pre-reshaped
    float32 weight matrix, its columns gathered by the same
    :class:`~repro.nn.functional.WindowGather` training's ``Conv2d`` runs,
    over workspace buffers.

    Activations are NHWC, so the column matrix is ``(B*oh*ow, k*k*C)``
    (contiguous C-runs in the gather), the whole batch is one
    ``(B*L, K) @ (K, F)`` GEMM, and a 1x1 convolution needs no gather at
    all.  The gather's views, the GEMM output and its NHWC reshape are
    built once per (workspace, input buffer) and cached, so a steady-state
    call is exactly ``interior-copy, window-gather, GEMM, bias, ReLU`` with
    no Python-side array bookkeeping.
    """

    __slots__ = ("sid", "w", "b", "kernel", "stride", "padding", "relu", "out_channels")

    def __init__(
        self,
        sid: int,
        w: np.ndarray,  # (k*k*C, F) float64 at build time
        b: np.ndarray,  # (F,)
        kernel: int,
        stride: int,
        padding: int,
        relu: bool,
    ) -> None:
        self.sid = sid
        self.w = np.ascontiguousarray(w, dtype=np.float32)
        self.b = np.ascontiguousarray(b, dtype=np.float32)  # (F,), row broadcast
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.relu = relu
        self.out_channels = self.w.shape[1]

    def _bind(self, x: np.ndarray, ws: _Workspace) -> tuple:
        """Allocate this step's buffers for *x*'s NHWC shape and pre-build
        every view of them the per-call kernel touches."""
        bsz, h, w, c = x.shape
        k, s, p = self.kernel, self.stride, self.padding
        oh, ow = (conv_out_size(n, k, s, p) for n in (h, w))
        if k == 1 and s == 1 and p == 0:
            # 1x1 convolution: the NHWC input already is the column matrix
            gather, cols = None, x.reshape(bsz * h * w, c)
        else:
            # steps with one padding and padded shape share a buffer: each
            # writes the same interior, so the border stays the initial zeros
            shape = (bsz, h + 2 * p, w + 2 * p, c)
            pad = ws.get(("pad", p, *shape), shape, zero=True)
            cols = ws.columns(bsz * oh * ow, k * k * c)
            gather = WindowGather(x.shape, k, s, cols, pad, offset=p)
        out = ws.get((self.sid, "out"), (bsz * oh * ow, self.out_channels))
        return (x, gather, cols, out, out.reshape(bsz, oh, ow, self.out_channels))

    def run(self, x: np.ndarray, ws: _Workspace) -> np.ndarray:
        bound = ws.bound.get(self.sid)
        if bound is None or bound[0] is not x:
            bound = self._bind(x, ws)
            ws.bound[self.sid] = bound
        _, gather, cols, out, out4 = bound
        if gather is not None:
            gather(x)  # pad + strided gather into the preallocated columns
        np.matmul(cols, self.w, out=out)
        out += self.b
        if self.relu:
            np.maximum(out, 0.0, out=out)
        return out4


class _ResidualStep:
    """AlphaZero block: conv+BN+ReLU, conv+BN, in-place skip add, in-place
    ReLU.  Both convolutions already carry their folded BatchNorms."""

    __slots__ = ("conv1", "conv2")

    def __init__(self, conv1: _FusedConvStep, conv2: _FusedConvStep) -> None:
        self.conv1 = conv1
        self.conv2 = conv2

    def run(self, x: np.ndarray, ws: _Workspace) -> np.ndarray:
        h = self.conv1.run(x, ws)
        out = self.conv2.run(h, ws)
        out += x  # skip connection, in place on conv2's workspace buffer
        np.maximum(out, 0.0, out=out)
        return out


class _FlattenStep:
    """NHWC -> flat ``(B, C*H*W)`` in the *reference NCHW order*, so the
    following Linear weights apply unchanged.  This is the single place
    the channels-last execution layout shows; it runs on head tensors with
    1-4 channels, so the transpose copy is tiny.  *channels* selects this
    head's slice of a merged head GEMM's output."""

    __slots__ = ("sid", "channels")

    def __init__(self, sid: int) -> None:
        self.sid = sid
        self.channels = slice(None)

    def run(self, x: np.ndarray, ws: _Workspace) -> np.ndarray:
        bound = ws.bound.get(self.sid)
        if bound is None or bound[0] is not x:
            src = x[..., self.channels]
            bsz, h, w, c = src.shape
            flat = ws.get((self.sid, "out"), (bsz, c * h * w))
            bound = (x, src.transpose(0, 3, 1, 2), flat.reshape(bsz, c, h, w), flat)
            ws.bound[self.sid] = bound
        _, src_nchw, dst_nchw, flat = bound
        np.copyto(dst_nchw, src_nchw)
        return flat


class _LinearStep:
    """``y = x @ W.T (+ b)`` with the weight pre-transposed at compile time,
    optionally fused with an in-place ReLU or Tanh."""

    __slots__ = ("sid", "wt", "b", "act", "out_features")

    def __init__(
        self, sid: int, wt: np.ndarray, b: np.ndarray | None, act: str | None
    ) -> None:
        self.sid = sid
        self.wt = np.ascontiguousarray(wt, dtype=np.float32)  # (in, out)
        self.b = None if b is None else np.ascontiguousarray(b, dtype=np.float32)
        self.act = act
        self.out_features = self.wt.shape[1]

    def run(self, x: np.ndarray, ws: _Workspace) -> np.ndarray:
        out = ws.get((self.sid, "out"), (x.shape[0], self.out_features))
        np.matmul(x, self.wt, out=out)
        if self.b is not None:
            out += self.b
        if self.act == "relu":
            np.maximum(out, 0.0, out=out)
        elif self.act == "tanh":
            np.tanh(out, out=out)
        return out


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------


def _fold_bn(w: np.ndarray, b: np.ndarray, bn: BatchNorm2d) -> tuple[np.ndarray, np.ndarray]:
    """Fold an eval-mode BatchNorm into the preceding conv's ``(w, b)``.

    ``BN(conv(x)) = gamma * (conv(x) - mean) / sqrt(var + eps) + beta``
    collapses to a convolution with per-output-channel rescaled weights and
    a shifted bias.  Running statistics are *snapshotted here*: the plan is
    a frozen function of the weights at compile time.
    """
    scale = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)
    return w * scale[:, None, None, None], (b - bn.running_mean) * scale + bn.beta.data


def _compile_conv(
    conv: Conv2d, bn: BatchNorm2d | None, relu: bool, sid: int, stats: dict
) -> _FusedConvStep:
    w = conv.weight.data  # (F, C, k, k)
    b = (
        conv.bias.data
        if conv.bias is not None
        else np.zeros(conv.out_channels, dtype=np.float64)
    )
    if bn is not None:
        w, b = _fold_bn(w, b, bn)
        stats["folded_batchnorms"] += 1
    # GEMM-ready for NHWC columns: K-axis ordered (k_h, k_w, C), F last
    w_mat = w.transpose(2, 3, 1, 0).reshape(-1, conv.out_channels)
    return _FusedConvStep(
        sid, w_mat, b, conv.kernel_size, conv.stride, conv.padding, relu
    )


def _compile_chain(layers: list[Module], ids: "itertools.count", stats: dict) -> list:
    """Compile a Sequential's layer list into fused steps, with lookahead
    fusion of Conv2d+BatchNorm2d+ReLU and Linear+ReLU/Tanh runs."""
    steps: list = []
    i = 0
    n = len(layers)
    while i < n:
        layer = layers[i]
        if isinstance(layer, Conv2d):
            bn = None
            if i + 1 < n and isinstance(layers[i + 1], BatchNorm2d):
                bn = layers[i + 1]
                i += 1
            relu = False
            if i + 1 < n and isinstance(layers[i + 1], ReLU):
                relu = True
                i += 1
            steps.append(_compile_conv(layer, bn, relu, next(ids), stats))
        elif isinstance(layer, Linear):
            act = None
            if i + 1 < n and isinstance(layers[i + 1], (ReLU, Tanh)):
                act = "relu" if isinstance(layers[i + 1], ReLU) else "tanh"
                i += 1
            steps.append(
                _LinearStep(
                    next(ids),
                    layer.weight.data.T,
                    None if layer.bias is None else layer.bias.data,
                    act,
                )
            )
        elif isinstance(layer, Flatten):
            steps.append(_FlattenStep(next(ids)))
        elif isinstance(layer, Dropout):
            pass  # identity at inference
        else:
            raise PlanCompileError(
                f"cannot compile layer of type {type(layer).__name__} here; "
                "supported: Conv2d (+BatchNorm2d) (+ReLU), Linear "
                "(+ReLU/Tanh), Flatten, Dropout"
            )
        i += 1
    return steps


def _compile_residual(block, ids: "itertools.count", stats: dict) -> _ResidualStep:
    return _ResidualStep(
        _compile_conv(block.conv1, block.bn1, relu=True, sid=next(ids), stats=stats),
        _compile_conv(block.conv2, block.bn2, relu=False, sid=next(ids), stats=stats),
    )


def _merge_heads(trunk: list, policy: list, value: list, ids: "itertools.count") -> bool:
    """Move both heads' leading ``1x1 conv (+folded BN) + ReLU`` to the end
    of *trunk* as one GEMM with ``N = F_policy + F_value`` output channels;
    each head's Flatten then reads its own channel slice.  A GEMM computes
    each output column as the same K-long dot product however many
    columns ride along, so no bit moves (the head-merge test checks this
    on the BLAS in use).  A one-channel head is the exception: NumPy runs
    a one-column product as a GEMV, which rounds differently, so those
    heads stay apart."""
    if not all(
        len(h) > 1 and isinstance(h[0], _FusedConvStep) and isinstance(h[1], _FlattenStep)
        and (h[0].kernel, h[0].stride, h[0].padding) == (1, 1, 0)
        and h[0].out_channels > 1 and h[0].relu == policy[0].relu
        for h in (policy, value)
    ):
        return False
    p, v = policy.pop(0), value.pop(0)
    w, b = np.concatenate([p.w, v.w], axis=1), np.concatenate([p.b, v.b])
    trunk.append(_FusedConvStep(next(ids), w, b, 1, 1, 0, p.relu))
    policy[0].channels = slice(None, p.out_channels)
    value[0].channels = slice(p.out_channels, None)
    return True


class InferencePlan:
    """Immutable fused float32 executor for a policy/value tower.

    Built by :func:`compile_plan`.  :meth:`predict_masked` is the leaf
    evaluators' entry, :meth:`predict` the unmasked one.  The compiled
    weights are private float32 copies, so the plan stays valid (and
    bit-stable) no matter what happens to the source network afterwards --
    staleness is detected through :attr:`weights_version`, not aliasing.

    Thread safety: all mutable run-time state (the workspace arenas) is
    thread-local, so one plan may be shared by any number of engine
    threads; every thread pays its own first-call allocation and then runs
    allocation-free.
    """

    def __init__(
        self,
        trunk: list,
        policy: list,
        value: list,
        weights_version: int,
        in_channels: int,
        board_shape: tuple[int, int],
        folded_batchnorms: int,
        merged_heads: bool,
    ) -> None:
        self._trunk = trunk
        self._policy = policy
        self._value = value
        self.weights_version = weights_version
        self.in_channels = in_channels
        self.board_shape = board_shape
        self.folded_batchnorms = folded_batchnorms
        self.merged_heads = merged_heads
        self._tls = threading.local()

    # -- introspection ----------------------------------------------------
    @property
    def num_steps(self) -> int:
        return len(self._trunk) + len(self._policy) + len(self._value)

    def workspace_nbytes(self) -> int:
        """Bytes held by the *calling thread's* arenas (0 before first use)."""
        arenas = getattr(self._tls, "arenas", None)
        if not arenas:
            return 0
        return sum(ws.nbytes for ws in arenas.values())

    #: arenas retained per thread; each distinct input shape (in practice:
    #: each distinct batch size) owns one, and queue/farm evaluators flush
    #: at varying occupancy, so an unbounded map would slowly accumulate a
    #: multi-MB arena per batch size ever seen.  LRU-evicting beyond this
    #: cap bounds retention; a re-observed shape just rebinds (~100us).
    MAX_ARENAS_PER_THREAD = 8

    # -- execution --------------------------------------------------------
    def _workspace(self, shape: tuple[int, ...]) -> _Workspace:
        arenas = getattr(self._tls, "arenas", None)
        if arenas is None:
            arenas = {}
            self._tls.arenas = arenas
        ws = arenas.pop(shape, None)
        if ws is None:
            ws = _Workspace()
            while len(arenas) >= self.MAX_ARENAS_PER_THREAD:
                arenas.pop(next(iter(arenas)))  # least recently used
        arenas[shape] = ws  # (re)insert at the most-recent end
        return ws

    def _forward(self, inputs) -> tuple[np.ndarray, np.ndarray]:
        """Write *inputs* -- a ``(B, C, H, W)`` array of encoded planes, or a
        sequence of game states whose ``encode()`` planes are copied in
        row by row -- into the NHWC input buffer (one cast to float32) and
        run the tower.  Returns the float32 ``(B, A)`` logits and
        ``(B, 1)`` value: views of the calling thread's workspace."""
        c, (h, w) = self.in_channels, self.board_shape
        planes = isinstance(inputs, np.ndarray)
        if planes:
            if inputs.ndim == 3:
                inputs = inputs[None]
            if inputs.ndim != 4 or inputs.shape[1:] != (c, h, w):
                raise ValueError(f"plan expects (B, {c}, {h}, {w}), got {inputs.shape}")
        ws = self._workspace((len(inputs), c, h, w))
        x = ws.get(("in",), (len(inputs), h, w, c))
        if planes:
            np.copyto(x, inputs.transpose(0, 2, 3, 1))
        else:
            for row, game in zip(x, inputs):
                np.copyto(row, game.encode().transpose(1, 2, 0))
        for step in self._trunk:
            x = step.run(x, ws)
        p = v = x
        for step in self._policy:
            p = step.run(p, ws)
        for step in self._value:
            v = step.run(v, ws)
        return p, v

    def predict(self, states: np.ndarray):
        """Fused forward pass: ``(B, C, H, W)`` (or a single ``(C, H, W)``)
        -> :class:`~repro.nn.network.NetworkOutput` with float64 outputs.

        The returned arrays are freshly allocated (they do not alias the
        workspace), so callers may keep them across subsequent calls.
        """
        from repro.nn.network import NetworkOutput  # import cycle guard

        p, v = self._forward(np.asarray(states))
        # small fresh outputs: cast up once, softmax in float64 to mirror
        # the reference post-processing exactly
        logits = p.astype(np.float64)
        value = v.reshape(-1).astype(np.float64)
        return NetworkOutput(
            policy=softmax(logits, axis=-1), value=value, logits=logits
        )

    def predict_masked(
        self, inputs, legal_masks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Leaf evaluation: *inputs* (encoded planes or game states, see
        :meth:`_forward`) and ``(B, A)`` legality masks -> fresh float64
        ``(priors (B, A), values (B,))``.

        The priors are bit-identical to ``mask_and_normalize(predict(
        states).policy, legal_masks)``, uniform fallback for underflowed
        rows and ``ValueError`` for a row with no legal action included.
        """
        legal_masks = np.asarray(legal_masks, dtype=bool)
        p, v = self._forward(inputs)
        if legal_masks.shape != p.shape:
            raise ValueError(
                f"legal_mask shape {legal_masks.shape} does not match "
                f"probs shape {p.shape}"
            )
        # softmax() then mask_and_normalize(): their float64 operations in
        # their order, in place where they would allocate a temporary
        probs = p.astype(np.float64)
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        priors = np.where(legal_masks, probs, 0.0)
        totals = priors.sum(axis=-1, keepdims=True)
        if totals.min() > 1e-12:
            priors /= totals
        else:  # an underflowed, empty or NaN row: the reference takes over
            from repro.mcts.evaluation import mask_and_normalize

            priors = mask_and_normalize(probs, legal_masks)
        return priors, v.reshape(-1).astype(np.float64)


def compile_plan(network: Module) -> InferencePlan:
    """Compile a policy/value tower into an :class:`InferencePlan`.

    Supports any network shaped like the two stock towers: either a
    ``trunk`` Sequential (:class:`~repro.nn.network.PolicyValueNet`) or a
    ``stem`` Sequential plus a ``blocks`` list of residual blocks
    (:class:`~repro.nn.resnet.ResNetPolicyValueNet`), followed by
    ``policy_head`` / ``value_head`` Sequentials of fusable layers.
    """
    ids = itertools.count()
    stats = {"folded_batchnorms": 0}
    if hasattr(network, "trunk"):
        trunk = _compile_chain(network.trunk.layers, ids, stats)
    elif hasattr(network, "stem") and hasattr(network, "blocks"):
        trunk = _compile_chain(network.stem.layers, ids, stats)
        trunk.extend(_compile_residual(b, ids, stats) for b in network.blocks)
    else:
        raise PlanCompileError(
            f"{type(network).__name__} has neither a 'trunk' nor a "
            "'stem'+'blocks' tower; cannot compile an inference plan"
        )
    if not (hasattr(network, "policy_head") and hasattr(network, "value_head")):
        raise PlanCompileError(
            f"{type(network).__name__} lacks policy_head/value_head"
        )
    policy = _compile_chain(network.policy_head.layers, ids, stats)
    value = _compile_chain(network.value_head.layers, ids, stats)
    merged = _merge_heads(trunk, policy, value, ids)
    return InferencePlan(
        trunk,
        policy,
        value,
        weights_version=getattr(network, "weights_version", 0),
        in_channels=network.in_channels,
        board_shape=network.board_shape,
        folded_batchnorms=stats["folded_batchnorms"],
        merged_heads=merged,
    )


def ensure_plan(network) -> InferencePlan | None:
    """Compile (or refresh) *network*'s fused plan off the hot path.

    Used by the serving engine and the farm's evaluator process at startup
    and after weight re-syncs, so the first real evaluation batch never
    pays compilation.  Returns ``None`` (and does nothing) for networks
    without fused-inference support or with the reference backend selected.
    """
    if getattr(network, "inference_backend", None) != "fused":
        return None
    return network.inference_plan()
