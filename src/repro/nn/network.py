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
    entry points, all run by a compiled :class:`repro.nn.infer.InferencePlan`
    -- BatchNorm folded, float32 GEMM-ready weights, zero-allocation
    thread-local workspaces.  The plan is compiled lazily and re-compiled
    whenever :attr:`~Module.weights_version` moves (``load_state_dict``,
    the trainer's SGD step, or an explicit :meth:`invalidate_plan`).

    Training is untouched: ``forward``/``backward`` remain the float64
    autodiff path (on the same channels-last conv gather).
    """

    def __init__(self) -> None:
        super().__init__()
        self._plan = None

    def invalidate_plan(self) -> None:
        """Drop the compiled plan (next call recompiles).  Needed only
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
        statistics, caches): the plan is an immutable compiled snapshot.
        """
        states = np.asarray(states)
        if states.ndim == 3:
            states = states[None]
        return self.inference_plan().predict(states)

    def predict_masked(
        self, inputs, legal_masks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Leaf evaluation: ``(B, C, H, W)`` encoded planes or a sequence of
        game states, plus ``(B, A)`` legality masks -> float64
        ``(priors (B, A), values (B,))``, by
        :meth:`repro.nn.infer.InferencePlan.predict_masked`.
        """
        return self.inference_plan().predict_masked(inputs, legal_masks)

    def predict_batch(
        self, states: np.ndarray, legal_masks: np.ndarray | None = None
    ) -> NetworkOutput:
        """:meth:`predict`, or :meth:`predict_masked` when *legal_masks*
        ``(B, A)`` is given: its legal priors as ``policy``, no logits."""
        if legal_masks is None:
            return self.predict(states)
        policy, value = self.predict_masked(np.asarray(states), legal_masks)
        return NetworkOutput(policy=policy, value=value, logits=None)

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
    # FusedInferenceModule: the compiled fused float32 plan.
