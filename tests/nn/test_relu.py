"""ReLU keeps its operands' layout and every training bit.

The reference is the masked select: ``np.where(x > 0, x, 0.0)`` forward
and ``np.where(mask, grad, 0.0)`` backward.  The layer under test must
give the same values, keep a conv's NHWC memory order in both passes,
and train a network to the same weights, bit for bit.
"""

import numpy as np
import pytest

from repro.games import ConnectFour, TicTacToe, build_network_for
from repro.nn.layers import Conv2d, Module, ReLU
from repro.nn.losses import AlphaZeroLoss
from repro.nn.network import Sequential
from repro.nn.optim import SGD


class WhereReLU(Module):
    """The masked-select ReLU, as an oracle."""

    def __init__(self) -> None:
        super().__init__()
        self._mask = None

    def forward(self, x):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out):
        return np.where(self._mask, grad_out, 0.0)


class TestValues:
    @pytest.mark.parametrize("seed", range(5))
    def test_forward_and_backward_equal_the_reference(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 8, 5, 6))
        x[rng.random(x.shape) < 0.1] = 0.0
        grad = rng.standard_normal(x.shape)
        relu, ref = ReLU(), WhereReLU()
        np.testing.assert_array_equal(relu.forward(x), ref.forward(x))
        np.testing.assert_array_equal(relu.backward(grad), ref.backward(grad))

    def test_conv_output_values_equal_the_reference(self):
        conv = Conv2d(3, 8, 3, padding=1, rng=3)
        h = conv.forward(np.random.default_rng(3).standard_normal((4, 3, 5, 6)))
        grad = np.random.default_rng(4).standard_normal(h.shape)
        relu, ref = ReLU(), WhereReLU()
        np.testing.assert_array_equal(relu.forward(h), ref.forward(h))
        np.testing.assert_array_equal(relu.backward(grad), ref.backward(grad))

    def test_nan_gradient_propagates_through_the_mask(self):
        relu = ReLU()
        relu.forward(np.array([[-1.0, -1.0, 2.0]]))
        grad = relu.backward(np.array([[np.nan, 3.0, 4.0]]))
        assert np.isnan(grad[0, 0])
        np.testing.assert_array_equal(grad[0, 1:], [0.0, 4.0])


class TestLayout:
    def test_conv_activations_and_gradients_stay_channels_last(self):
        """Conv -> ReLU -> Conv: the activation the second conv reads and
        the gradient the ReLU hands back to the first are free NHWC views."""
        conv1 = Conv2d(3, 8, 3, padding=1, rng=1)
        relu = ReLU()
        conv2 = Conv2d(8, 4, 3, padding=1, rng=2)
        x = np.random.default_rng(1).standard_normal((4, 3, 5, 6))
        h = conv1.forward(x)
        assert h.transpose(0, 2, 3, 1).flags.c_contiguous
        a = relu.forward(h)
        assert a.transpose(0, 2, 3, 1).flags.c_contiguous
        out = conv2.forward(a)
        g = conv2.backward(np.random.default_rng(2).standard_normal(out.shape))
        assert g.transpose(0, 2, 3, 1).flags.c_contiguous
        assert relu.backward(g).transpose(0, 2, 3, 1).flags.c_contiguous


def _swap_relus(module: Module) -> None:
    """Replace every ReLU under *module* with the oracle, in place."""
    for name, value in vars(module).items():
        if isinstance(value, Module):
            _swap_relus(value)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, ReLU):
                    value[i] = WhereReLU()
                elif isinstance(item, Module):
                    _swap_relus(item)


def _train(game, swap: bool, steps: int = 20) -> str:
    net = build_network_for(game, channels=(8, 16, 16), rng=11)
    if swap:
        _swap_relus(net)
        assert not any(
            isinstance(layer, ReLU)
            for seq in vars(net).values()
            if isinstance(seq, Sequential)
            for layer in seq.layers
        )
    rng = np.random.default_rng(12)
    rows, cols = game.board_shape
    x = (rng.random((16, game.num_planes, rows, cols)) < 0.3).astype(np.float64)
    pi = rng.dirichlet(np.ones(game.action_size), size=16)
    z = rng.uniform(-1, 1, 16)
    loss_fn = AlphaZeroLoss()
    opt = SGD(net.parameters(), lr=0.05, momentum=0.9, weight_decay=1e-4)
    for _ in range(steps):
        net.zero_grad()
        out = net.forward(x)
        loss = loss_fn(out.logits, out.value, pi, z, net.parameters())
        net.backward(loss.grad_logits, loss.grad_value)
        opt.step()
    return net.state_digest()


@pytest.mark.parametrize("game", [ConnectFour(), TicTacToe()], ids=["connect4", "tictactoe"])
def test_twenty_sgd_steps_end_on_the_oracle_digest(game):
    assert _train(game, swap=False) == _train(game, swap=True)
