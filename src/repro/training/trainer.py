"""SGD training stage (Algorithm 1, lines 13-15) over the NumPy network."""

from __future__ import annotations

import numpy as np

from repro.nn.losses import AlphaZeroLoss, LossValue
from repro.nn.network import PolicyValueNet
from repro.nn.optim import Optimizer

__all__ = ["Trainer"]


class Trainer:
    """Owns one network + optimiser pair and performs gradient steps."""

    def __init__(
        self,
        network: PolicyValueNet,
        optimizer: Optimizer,
        loss_fn: AlphaZeroLoss | None = None,
    ) -> None:
        self.network = network
        self.optimizer = optimizer
        self.loss_fn = loss_fn or AlphaZeroLoss()
        self.steps = 0

    def train_step(
        self,
        states: np.ndarray,
        target_policies: np.ndarray,
        target_values: np.ndarray,
    ) -> LossValue:
        """One SGD step on a batch; returns the decomposed loss."""
        if states.ndim != 4:
            raise ValueError(f"states must be (B, C, H, W), got {states.shape}")
        if len(states) != len(target_policies) or len(states) != len(target_values):
            raise ValueError("batch size mismatch between states and targets")
        net = self.network
        net.train()
        net.zero_grad()
        out = net.forward(states)
        loss = self.loss_fn(
            out.logits, out.value, target_policies, target_values, net.parameters()
        )
        net.backward(loss.grad_logits, loss.grad_value)
        self.optimizer.step()
        # the optimiser rewrote Parameter.data in place, which no hook can
        # observe: record the change so compiled inference plans recompile
        net.bump_weights_version()
        self.steps += 1
        return loss

    def evaluate_loss(
        self,
        states: np.ndarray,
        target_policies: np.ndarray,
        target_values: np.ndarray,
    ) -> LossValue:
        """Loss without a gradient step (held-out monitoring), in eval mode;
        the network's previous train/eval mode is restored on exit."""
        net = self.network
        was_training = net.training
        net.eval()
        try:
            out = net.forward(states)
            return self.loss_fn(out.logits, out.value, target_policies, target_values)
        finally:
            if was_training:
                net.train()
