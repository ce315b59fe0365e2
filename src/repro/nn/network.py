"""Network containers and the paper's benchmark policy/value network.

:class:`PolicyValueNet` reproduces the architecture of Section 5.1: five
convolution layers and three fully-connected layers, arranged AlphaZero
style as a shared convolutional trunk with a policy head and a value head:

    trunk : Conv(C->32, 3x3) - ReLU - Conv(32->64, 3x3) - ReLU
            - Conv(64->128, 3x3) - ReLU                       (3 convs)
    policy: Conv(128->4, 1x1) - ReLU - Flatten - Linear(-> A) (1 conv, 1 FC)
    value : Conv(128->2, 1x1) - ReLU - Flatten
            - Linear(-> 64) - ReLU - Linear(-> 1) - Tanh      (1 conv, 2 FC)

Total: 5 conv + 3 FC, matching the paper's Gomoku network.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.nn.functional import softmax
from repro.nn.layers import Conv2d, Flatten, Linear, Module, ReLU, Tanh
from repro.utils.rng import new_rng

__all__ = ["Sequential", "NetworkOutput", "FusedInferenceModule", "PolicyValueNet"]


class Sequential(Module):
    """Chain of layers with forward/backward composition."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        if not layers:
            raise ValueError("Sequential needs at least one layer")
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """With *input_grad* false the first layer (which must then be a
        :class:`Conv2d`) skips its input gradient and ``None`` is returned."""
        *rest, first = reversed(self.layers)
        for layer in rest:
            grad_out = layer.backward(grad_out)
        if input_grad:
            return first.backward(grad_out)
        return first.backward(grad_out, input_grad=False)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, i: int) -> Module:
        return self.layers[i]


@dataclass(frozen=True)
class NetworkOutput:
    """Policy/value inference result.

    ``policy`` rows are probabilities over the full action space (softmax of
    the logits); masking to legal moves is the caller's job because legality
    is game state, not network state.  A masked ``predict_batch`` returns
    legal priors as ``policy`` and no logits.
    """

    policy: np.ndarray  # (B, A) probabilities
    value: np.ndarray  # (B,) in [-1, 1]
    logits: np.ndarray | None  # (B, A) raw policy-head outputs


class FusedInferenceModule(Module):
    """Inference plumbing shared by the policy/value towers.

    Provides the ``predict`` / ``predict_masked`` / ``predict_batch``
    entry points, backed by one of two backends:

    - ``"fused"`` (default): a compiled :class:`repro.nn.infer.InferencePlan`
      -- BatchNorm folded, float32 GEMM-ready weights, zero-allocation
      thread-local workspaces.  Compiled lazily and re-compiled whenever
      :attr:`~Module.weights_version` moves (``load_state_dict``, the
      trainer's SGD step, or an explicit :meth:`invalidate_plan`).
    - ``"reference"``: the float64 layer-by-layer forward, forced into
      eval mode for the duration of the call so inference can never
      mutate BatchNorm running statistics or dropout state.

    Training is untouched either way: ``forward``/``backward`` remain the
    float64 autodiff path (on the same channels-last conv gather).
    """

    def __init__(self) -> None:
        super().__init__()
        self.inference_backend = "fused"
        self._plan = None
        # the reference path toggles the module-wide train/eval flag; engine
        # threads can evaluate concurrently, so the toggle+forward+restore
        # must be atomic or thread B would run (and mutate BatchNorm stats)
        # in training mode while thread A restores.  The fused path needs no
        # lock -- plans are immutable with thread-local workspaces.
        self._reference_lock = threading.Lock()

    # -- backend selection -------------------------------------------------
    def set_inference_backend(self, backend: str) -> "FusedInferenceModule":
        """Select ``"fused"`` (compiled float32 plan) or ``"reference"``
        (float64 eval-mode forward) for ``predict``/``predict_batch``."""
        if backend not in ("fused", "reference"):
            raise ValueError(
                f"unknown inference backend {backend!r}; "
                "expected 'fused' or 'reference'"
            )
        self.inference_backend = backend
        if backend == "reference":
            self._plan = None
        return self

    def invalidate_plan(self) -> None:
        """Drop the compiled plan (next fused call recompiles).  Needed only
        after weight mutations that bypass ``load_state_dict`` and the
        trainer (which both bump ``weights_version`` themselves)."""
        self._plan = None

    def inference_plan(self):
        """The current compiled plan, (re)compiling if absent or stale."""
        plan = self._plan
        if plan is None or plan.weights_version != self.weights_version:
            from repro.nn.infer import compile_plan  # deferred: import cycle

            plan = compile_plan(self)
            self._plan = plan
        return plan

    # -- inference entry points --------------------------------------------
    def predict(self, states: np.ndarray) -> NetworkOutput:
        """Unmasked inference on a state ``(C, H, W)`` or a batch
        ``(B, C, H, W)``.  Never mutates network state (BatchNorm
        statistics, caches): the fused backend executes an immutable
        compiled snapshot; the reference backend runs with eval mode forced.
        """
        states = np.asarray(states)
        if states.ndim == 3:
            states = states[None]
        if self.inference_backend == "fused":
            return self.inference_plan().predict(states)
        return self._reference_forward(np.asarray(states, dtype=np.float64))

    def predict_masked(
        self, inputs, legal_masks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Leaf evaluation: ``(B, C, H, W)`` encoded planes or a sequence of
        game states, plus ``(B, A)`` legality masks -> float64
        ``(priors (B, A), values (B,))``.  The fused backend runs
        :meth:`repro.nn.infer.InferencePlan.predict_masked`; the reference
        backend runs its oracle, ``predict`` then ``mask_and_normalize``.
        """
        if self.inference_backend == "fused":
            return self.inference_plan().predict_masked(inputs, legal_masks)
        from repro.mcts.evaluation import mask_and_normalize  # import cycle guard

        if not isinstance(inputs, np.ndarray):
            inputs = np.stack([g.encode() for g in inputs])
        out = self.predict(inputs)
        return mask_and_normalize(out.policy, legal_masks), out.value

    def predict_batch(
        self, states: np.ndarray, legal_masks: np.ndarray | None = None
    ) -> NetworkOutput:
        """:meth:`predict`, or :meth:`predict_masked` when *legal_masks*
        ``(B, A)`` is given: its legal priors as ``policy``, no logits."""
        if legal_masks is None:
            return self.predict(states)
        policy, value = self.predict_masked(np.asarray(states), legal_masks)
        return NetworkOutput(policy=policy, value=value, logits=None)

    def _reference_forward(self, states: np.ndarray) -> NetworkOutput:
        """Float64 forward with eval mode forced for the duration.

        Inference through a network left in training mode used to silently
        update BatchNorm running statistics -- changing outputs between
        identical calls and corrupting the statistics training relies on.
        Serialised: the mode flag is module-global state, so concurrent
        reference-backend evaluation takes a lock (the default fused
        backend runs lock-free).
        """
        with self._reference_lock:
            was_training = self.training
            if was_training:
                self.eval()
            try:
                return self.forward(states)
            finally:
                if was_training:
                    self.train()

    # -- persistence -------------------------------------------------------
    def save(self, path: str) -> None:
        np.savez(path, **self.state_dict())

    def load(self, path: str) -> None:
        with np.load(path) as data:
            self.load_state_dict({k: data[k] for k in data.files})


class PolicyValueNet(FusedInferenceModule):
    """The paper's 5-conv + 3-FC policy/value network.

    Parameters
    ----------
    board_size : spatial extent (15 for the paper's Gomoku benchmark); a
        ``(rows, cols)`` tuple supports non-square boards (Connect-Four).
    in_channels : number of input feature planes.
    channels : trunk widths, default (32, 64, 128).
    action_size : size of the policy output; defaults to rows*cols (one
        action per cell, the Gomoku convention).
    """

    def __init__(
        self,
        board_size: int | tuple[int, int],
        in_channels: int = 4,
        channels: tuple[int, int, int] = (32, 64, 128),
        action_size: int | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        rows, cols = (
            (board_size, board_size) if isinstance(board_size, int) else board_size
        )
        if rows <= 0 or cols <= 0:
            raise ValueError("board dimensions must be positive")
        rng = new_rng(rng)
        self.board_shape = (rows, cols)
        self.board_size = rows  # kept for the common square case
        self.in_channels = in_channels
        self.action_size = action_size if action_size is not None else rows * cols
        if self.action_size <= 0:
            raise ValueError("action_size must be positive")
        c1, c2, c3 = channels

        self.trunk = Sequential(
            Conv2d(in_channels, c1, 3, padding=1, rng=rng),
            ReLU(),
            Conv2d(c1, c2, 3, padding=1, rng=rng),
            ReLU(),
            Conv2d(c2, c3, 3, padding=1, rng=rng),
            ReLU(),
        )
        cells = rows * cols
        self.policy_head = Sequential(
            Conv2d(c3, 4, 1, rng=rng),
            ReLU(),
            Flatten(),
            Linear(4 * cells, self.action_size, rng=rng),
        )
        self.value_head = Sequential(
            Conv2d(c3, 2, 1, rng=rng),
            ReLU(),
            Flatten(),
            Linear(2 * cells, 64, rng=rng),
            ReLU(),
            Linear(64, 1, rng=rng),
            Tanh(),
        )

    # -- inference ---------------------------------------------------------
    def forward(self, x: np.ndarray) -> NetworkOutput:  # type: ignore[override]
        """Run policy and value heads; caches activations for backward."""
        if x.ndim != 4:
            raise ValueError(f"expected (B, C, H, W), got {x.shape}")
        h = self.trunk.forward(x)
        logits = self.policy_head.forward(h)
        value = self.value_head.forward(h).reshape(-1)
        return NetworkOutput(policy=softmax(logits, axis=-1), value=value, logits=logits)

    def backward(self, grad_logits: np.ndarray, grad_value: np.ndarray) -> None:  # type: ignore[override]
        """Two-headed backward; gradients merge additively at the trunk,
        whose first conv skips the input gradient nobody reads."""
        gh_policy = self.policy_head.backward(grad_logits)
        gh_value = self.value_head.backward(grad_value.reshape(-1, 1))
        self.trunk.backward(gh_policy + gh_value, input_grad=False)

    # predict / predict_masked / predict_batch / save / load come from
    # FusedInferenceModule:
    # fused float32 plan by default, float64 eval-forced reference otherwise.
