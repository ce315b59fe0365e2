"""Training on the channels-last conv kernel: oracle parity and the
skipped input gradient of a tower's first conv."""

import numpy as np
import pytest

from repro.games import ConnectFour, build_network_for
from repro.nn import Adam, AlphaZeroLoss, Conv2d, PolicyValueNet, ResNetPolicyValueNet
from repro.training import Trainer
from tests.nn.conv_oracle import OracleConv2d


def _batch(net, n, seed):
    rng = np.random.default_rng(seed)
    states = rng.random((n, net.in_channels, *net.board_shape))
    return states, rng.dirichlet(np.ones(net.action_size), size=n), rng.uniform(-1, 1, n)


def test_adam_steps_match_oracle():
    """20 Adam steps on the Connect Four (16, 32, 32) net land on the same
    weights as the NCHW im2col/col2im oracle, to summation-order rounding."""
    nets = [build_network_for(ConnectFour(), channels=(16, 32, 32), rng=7) for _ in range(2)]
    heads = (nets[1].trunk, nets[1].policy_head, nets[1].value_head)
    convs = [layer for seq in heads for layer in seq.layers if isinstance(layer, Conv2d)]
    assert len(convs) == 5
    for conv in convs:
        conv.__class__ = OracleConv2d
    trainers = [Trainer(net, Adam(net.parameters(), lr=2e-3), AlphaZeroLoss(1e-4)) for net in nets]
    for step in range(20):
        batch = _batch(nets[0], 16, step)
        losses = [trainer.train_step(*batch).total for trainer in trainers]
        assert losses[0] == pytest.approx(losses[1], rel=1e-9)
    for new, oracle in zip(nets[0].parameters(), nets[1].parameters()):
        np.testing.assert_allclose(new.data, oracle.data, rtol=1e-9, atol=0)


def _full_backward(net, grad_logits, grad_value):
    """The towers' backward, but with the first conv's input gradient."""
    gh = net.policy_head.backward(grad_logits) + net.value_head.backward(grad_value.reshape(-1, 1))
    for block in reversed(getattr(net, "blocks", [])):
        gh = block.backward(gh)
    return (net.trunk if hasattr(net, "trunk") else net.stem).backward(gh)


@pytest.mark.parametrize(
    "make",
    [
        lambda: PolicyValueNet((6, 7), in_channels=3, channels=(4, 8, 8), action_size=7, rng=1),
        lambda: ResNetPolicyValueNet((6, 7), in_channels=3, num_blocks=2, channels=8, action_size=7, rng=2),
    ],
    ids=["plain", "resnet"],
)
def test_first_conv_skip_keeps_gradients_exact(make):
    net = make()
    states, pi, z = _batch(net, 4, 3)
    loss_fn = AlphaZeroLoss(0.0)
    grads = []
    for skip in (True, False):
        net.zero_grad()
        out = net.forward(states)
        loss = loss_fn(out.logits, out.value, pi, z)
        if skip:
            assert net.backward(loss.grad_logits, loss.grad_value) is None
        else:
            assert _full_backward(net, loss.grad_logits, loss.grad_value).shape == states.shape
        grads.append([p.grad.copy() for p in net.parameters()])
    for skipped, full in zip(*grads):
        np.testing.assert_array_equal(skipped, full)
