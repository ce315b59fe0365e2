"""Residual policy/value network (AlphaZero's production architecture).

The paper's Gomoku benchmark uses a plain 5-conv + 3-FC network
(:class:`repro.nn.network.PolicyValueNet`); AlphaZero itself [Silver 2017]
uses a residual tower with batch normalisation.  This module provides that
variant so experiments can scale the evaluation cost knob (``T_DNN`` in
Equations 3-6) realistically: deeper towers shift the shared/local
trade-off toward the local tree exactly as the performance models predict.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import softmax
from repro.nn.layers import BatchNorm2d, Conv2d, Flatten, Linear, Module, ReLU, Tanh
from repro.nn.network import FusedInferenceModule, NetworkOutput, Sequential
from repro.utils.rng import new_rng

__all__ = ["ResidualBlock", "ResNetPolicyValueNet"]


class ResidualBlock(Module):
    """conv-BN-ReLU-conv-BN + skip, ReLU  (the AlphaZero block)."""

    def __init__(self, channels: int, rng: np.random.Generator | int | None = None) -> None:
        super().__init__()
        if channels <= 0:
            raise ValueError("channels must be positive")
        rng = new_rng(rng)
        self.conv1 = Conv2d(channels, channels, 3, padding=1, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(channels)
        self.relu1 = ReLU()
        self.conv2 = Conv2d(channels, channels, 3, padding=1, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(channels)
        self.relu_out = ReLU()
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        h = self.relu1.forward(self.bn1.forward(self.conv1.forward(x)))
        h = self.bn2.forward(self.conv2.forward(h))
        return self.relu_out.forward(h + x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g = self.relu_out.backward(grad_out)
        # g splits: through the residual branch and through the skip
        gh = self.conv2.backward(self.bn2.backward(g))
        gh = self.conv1.backward(self.bn1.backward(self.relu1.backward(gh)))
        return gh + g


class ResNetPolicyValueNet(FusedInferenceModule):
    """Residual tower + the standard AlphaZero policy/value heads.

    Parameters
    ----------
    board_size : int or (rows, cols).
    num_blocks : residual blocks in the tower (AlphaZero uses 19/39; keep
        small for CPU experiments).
    channels : tower width.
    """

    def __init__(
        self,
        board_size: int | tuple[int, int],
        in_channels: int = 4,
        num_blocks: int = 3,
        channels: int = 32,
        action_size: int | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        rows, cols = (
            (board_size, board_size) if isinstance(board_size, int) else board_size
        )
        if rows <= 0 or cols <= 0:
            raise ValueError("board dimensions must be positive")
        if num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        rng = new_rng(rng)
        self.board_shape = (rows, cols)
        self.in_channels = in_channels
        self.action_size = action_size if action_size is not None else rows * cols
        cells = rows * cols

        self.stem = Sequential(
            Conv2d(in_channels, channels, 3, padding=1, bias=False, rng=rng),
            BatchNorm2d(channels),
            ReLU(),
        )
        self.blocks = [ResidualBlock(channels, rng=rng) for _ in range(num_blocks)]
        self.policy_head = Sequential(
            Conv2d(channels, 2, 1, rng=rng),
            BatchNorm2d(2),
            ReLU(),
            Flatten(),
            Linear(2 * cells, self.action_size, rng=rng),
        )
        self.value_head = Sequential(
            Conv2d(channels, 1, 1, rng=rng),
            BatchNorm2d(1),
            ReLU(),
            Flatten(),
            Linear(cells, 64, rng=rng),
            ReLU(),
            Linear(64, 1, rng=rng),
            Tanh(),
        )

    def forward(self, x: np.ndarray) -> NetworkOutput:  # type: ignore[override]
        if x.ndim != 4:
            raise ValueError(f"expected (B, C, H, W), got {x.shape}")
        h = self.stem.forward(x)
        for block in self.blocks:
            h = block.forward(h)
        logits = self.policy_head.forward(h)
        value = self.value_head.forward(h).reshape(-1)
        return NetworkOutput(policy=softmax(logits, axis=-1), value=value, logits=logits)

    def backward(self, grad_logits: np.ndarray, grad_value: np.ndarray) -> None:  # type: ignore[override]
        """Parameter gradients only; the stem conv skips its input gradient."""
        gh = self.policy_head.backward(grad_logits)
        gh = gh + self.value_head.backward(grad_value.reshape(-1, 1))
        for block in reversed(self.blocks):
            gh = block.backward(gh)
        self.stem.backward(gh, input_grad=False)

    # predict / predict_masked / predict_batch / save / load come from
    # FusedInferenceModule, so NetworkEvaluator batches the residual tower
    # exactly like the plain one.
