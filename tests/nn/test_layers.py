"""Gradient checks and behavioural tests for every layer.

Each layer's ``backward`` is validated against central-difference
numerical gradients -- both for the input gradient and for every
parameter gradient.  This is the strongest correctness guarantee a
hand-written adjoint can get.
"""

import numpy as np
import pytest

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    Module,
    Parameter,
    ReLU,
    Tanh,
)
from tests.conftest import assert_grad_close, numerical_gradient
from tests.nn.conv_oracle import OracleConv2d


def check_input_gradient(layer: Module, x: np.ndarray, tol: float = 1e-5):
    """Compare layer input gradient to numerical differentiation of a
    random scalar projection of the output."""
    rng = np.random.default_rng(99)
    out = layer.forward(x)
    proj = rng.random(out.shape)

    def scalar():
        return float(np.sum(layer.forward(x) * proj))

    numeric = numerical_gradient(scalar, x)
    layer.forward(x)  # refresh caches after perturbations
    analytic = layer.backward(proj)
    assert_grad_close(analytic, numeric, tol)


def check_param_gradients(layer: Module, x: np.ndarray, tol: float = 1e-5):
    rng = np.random.default_rng(98)
    out = layer.forward(x)
    proj = rng.random(out.shape)

    def scalar():
        return float(np.sum(layer.forward(x) * proj))

    for p in layer.parameters():
        numeric = numerical_gradient(scalar, p.data)
        layer.zero_grad()
        layer.forward(x)
        layer.backward(proj)
        assert_grad_close(p.grad, numeric, tol)


class TestParameter:
    def test_zero_grad(self):
        p = Parameter(np.ones(3))
        p.grad += 5.0
        p.zero_grad()
        assert np.allclose(p.grad, 0.0)

    def test_shape_and_size(self):
        p = Parameter(np.zeros((2, 3)))
        assert p.shape == (2, 3)
        assert p.size == 6


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(4, 7, rng=0)
        assert layer.forward(np.zeros((3, 4))).shape == (3, 7)

    def test_rejects_bad_input(self):
        layer = Linear(4, 7, rng=0)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((3, 5)))

    def test_input_gradient(self):
        layer = Linear(5, 3, rng=1)
        check_input_gradient(layer, np.random.default_rng(0).random((4, 5)))

    def test_param_gradients(self):
        layer = Linear(5, 3, rng=2)
        check_param_gradients(layer, np.random.default_rng(1).random((4, 5)))

    def test_no_bias(self):
        layer = Linear(4, 2, bias=False, rng=0)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_grad_accumulates(self):
        layer = Linear(3, 2, rng=3)
        x = np.ones((2, 3))
        g = np.ones((2, 2))
        layer.forward(x)
        layer.backward(g)
        first = layer.weight.grad.copy()
        layer.forward(x)
        layer.backward(g)
        assert np.allclose(layer.weight.grad, 2 * first)


class TestConv2d:
    def test_forward_shape_padded(self):
        conv = Conv2d(3, 8, 3, padding=1, rng=0)
        assert conv.forward(np.zeros((2, 3, 6, 6))).shape == (2, 8, 6, 6)

    def test_forward_shape_strided(self):
        conv = Conv2d(1, 4, 2, stride=2, rng=0)
        assert conv.forward(np.zeros((1, 1, 8, 8))).shape == (1, 4, 4, 4)

    def test_rejects_wrong_channels(self):
        conv = Conv2d(3, 8, 3, rng=0)
        with pytest.raises(ValueError):
            conv.forward(np.zeros((1, 2, 5, 5)))

    def test_1x1_is_pointwise(self):
        conv = Conv2d(2, 3, 1, bias=False, rng=1)
        x = np.random.default_rng(2).random((1, 2, 4, 4))
        out = conv.forward(x)
        w = conv.weight.data.reshape(3, 2)
        ref = np.einsum("fc,bchw->bfhw", w, x)
        assert np.allclose(out, ref)

    def test_input_gradient(self):
        conv = Conv2d(2, 3, 3, padding=1, rng=4)
        check_input_gradient(conv, np.random.default_rng(3).random((2, 2, 4, 4)))

    def test_input_gradient_strided(self):
        conv = Conv2d(1, 2, 2, stride=2, rng=5)
        check_input_gradient(conv, np.random.default_rng(4).random((1, 1, 4, 4)))

    def test_param_gradients(self):
        conv = Conv2d(2, 2, 3, padding=1, rng=6)
        check_param_gradients(conv, np.random.default_rng(5).random((2, 2, 4, 4)))

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("layout", ["nchw", "nhwc_view"])
    def test_gradient_matrix(self, k, stride, padding, layout):
        """Input and parameter gradients for every kernel/stride/padding
        combination, on contiguous NCHW input and on an NCHW-shaped view
        over NHWC memory (what a preceding conv hands over)."""
        rng = np.random.default_rng(10 * k + 3 * stride + padding)
        shape = (2, 3, 5, 6)
        x = rng.random(shape)
        if layout == "nhwc_view":
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        conv = Conv2d(3, 2, k, stride=stride, padding=padding, rng=k + stride)
        check_input_gradient(conv, x)
        check_param_gradients(conv, x)

    def test_matches_oracle(self):
        """Forward and both gradients agree with the NCHW im2col/col2im
        oracle, and the output is an NCHW view over NHWC memory."""
        rng = np.random.default_rng(11)
        conv = Conv2d(3, 4, 3, stride=2, padding=1, rng=12)
        oracle = Conv2d(3, 4, 3, stride=2, padding=1, rng=12)
        oracle.__class__ = OracleConv2d
        x = rng.random((2, 3, 7, 6))
        out = conv.forward(x)
        assert out.transpose(0, 2, 3, 1).flags.c_contiguous
        np.testing.assert_allclose(out, oracle.forward(x), rtol=1e-12)
        g = rng.random(out.shape)
        np.testing.assert_allclose(conv.backward(g), oracle.backward(g), rtol=1e-12)
        np.testing.assert_allclose(conv.weight.grad, oracle.weight.grad, rtol=1e-12)
        np.testing.assert_allclose(conv.bias.grad, oracle.bias.grad, rtol=1e-12)

    def test_buffers_reused_across_steps(self):
        """The second step rebinds nothing, and its results are bit-identical
        to a fresh layer's: reused staging and column buffers leak no state."""
        conv = Conv2d(2, 3, 3, stride=2, padding=1, rng=13)
        rng = np.random.default_rng(14)
        x1, x2 = rng.random((2, 2, 5, 5)), rng.random((2, 2, 5, 5))
        g = rng.random((2, 3, 3, 3))
        conv.forward(x1)
        conv.backward(g)
        bound = dict(conv._gathers)
        conv.zero_grad()
        out, dx = conv.forward(x2), conv.backward(g)
        assert all(conv._gathers[role][3] is bound[role][3] for role in ("x", "g"))
        fresh = Conv2d(2, 3, 3, stride=2, padding=1, rng=13)
        np.testing.assert_array_equal(out, fresh.forward(x2))
        np.testing.assert_array_equal(dx, fresh.backward(g))
        np.testing.assert_array_equal(conv.weight.grad, fresh.weight.grad)

    def test_skipped_input_gradient(self):
        conv = Conv2d(2, 3, 3, padding=1, rng=15)
        ref = Conv2d(2, 3, 3, padding=1, rng=15)
        x = np.random.default_rng(16).random((2, 2, 4, 4))
        g = np.random.default_rng(17).random((2, 3, 4, 4))
        conv.forward(x)
        assert conv.backward(g, input_grad=False) is None
        ref.forward(x)
        ref.backward(g)
        np.testing.assert_array_equal(conv.weight.grad, ref.weight.grad)
        np.testing.assert_array_equal(conv.bias.grad, ref.bias.grad)

    def test_bias_broadcast(self):
        conv = Conv2d(1, 2, 1, rng=7)
        conv.weight.data[...] = 0.0
        conv.bias.data[...] = [1.0, -2.0]
        out = conv.forward(np.zeros((1, 1, 3, 3)))
        assert np.allclose(out[0, 0], 1.0)
        assert np.allclose(out[0, 1], -2.0)


class TestActivations:
    def test_relu_forward(self):
        r = ReLU()
        assert np.allclose(r.forward(np.array([[-1.0, 2.0]])), [[0.0, 2.0]])

    def test_relu_gradient(self):
        check_input_gradient(ReLU(), np.random.default_rng(6).standard_normal((3, 5)) + 0.1)

    def test_relu_blocks_negative_grad(self):
        r = ReLU()
        r.forward(np.array([[-1.0, 1.0]]))
        g = r.backward(np.array([[5.0, 5.0]]))
        assert np.allclose(g, [[0.0, 5.0]])

    def test_tanh_range(self):
        t = Tanh()
        out = t.forward(np.array([[-100.0, 0.0, 100.0]]))
        assert np.all(np.abs(out) <= 1.0)

    def test_tanh_gradient(self):
        check_input_gradient(Tanh(), np.random.default_rng(7).standard_normal((2, 4)))


class TestFlatten:
    def test_roundtrip(self):
        f = Flatten()
        x = np.random.default_rng(8).random((2, 3, 4, 4))
        out = f.forward(x)
        assert out.shape == (2, 48)
        back = f.backward(out)
        assert back.shape == x.shape
        assert np.allclose(back, x)


class TestBatchNorm2d:
    def test_normalises_in_train_mode(self):
        bn = BatchNorm2d(3)
        x = np.random.default_rng(9).random((8, 3, 4, 4)) * 5 + 2
        out = bn.forward(x)
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_update(self):
        bn = BatchNorm2d(2, momentum=0.5)
        x = np.ones((4, 2, 3, 3)) * 10
        bn.forward(x)
        assert np.all(bn.running_mean > 0)

    def test_eval_mode_uses_running_stats(self):
        bn = BatchNorm2d(2)
        x = np.random.default_rng(10).random((4, 2, 3, 3))
        for _ in range(50):
            bn.forward(x)
        bn.eval()
        out_eval = bn.forward(x)
        bn.train()
        out_train = bn.forward(x)
        assert np.allclose(out_eval, out_train, atol=1e-1)

    def test_input_gradient_train(self):
        bn = BatchNorm2d(2)
        check_input_gradient(
            bn, np.random.default_rng(11).random((4, 2, 3, 3)), tol=1e-4
        )

    def test_param_gradients(self):
        bn = BatchNorm2d(2)
        check_param_gradients(
            bn, np.random.default_rng(12).random((4, 2, 3, 3)), tol=1e-4
        )

    def test_rejects_wrong_shape(self):
        bn = BatchNorm2d(3)
        with pytest.raises(ValueError):
            bn.forward(np.zeros((2, 4, 3, 3)))


class TestDropout:
    def test_eval_is_identity(self):
        d = Dropout(0.5, rng=0)
        d.eval()
        x = np.random.default_rng(13).random((3, 4))
        assert np.allclose(d.forward(x), x)

    def test_train_zeroes_some(self):
        d = Dropout(0.5, rng=1)
        x = np.ones((100, 100))
        out = d.forward(x)
        frac_zero = np.mean(out == 0.0)
        assert 0.4 < frac_zero < 0.6

    def test_inverted_scaling_preserves_mean(self):
        d = Dropout(0.3, rng=2)
        x = np.ones((200, 200))
        out = d.forward(x)
        assert abs(out.mean() - 1.0) < 0.02

    def test_backward_masks_consistently(self):
        d = Dropout(0.5, rng=3)
        x = np.ones((10, 10))
        out = d.forward(x)
        g = d.backward(np.ones_like(x))
        assert np.allclose((out == 0), (g == 0))

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestModuleInfra:
    def test_parameter_discovery_nested(self):
        from repro.nn.network import Sequential

        seq = Sequential(Linear(3, 4, rng=0), ReLU(), Linear(4, 2, rng=0))
        assert len(seq.parameters()) == 4  # 2 weights + 2 biases

    def test_state_dict_roundtrip(self):
        a = Linear(3, 4, rng=0)
        b = Linear(3, 4, rng=1)
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        assert np.allclose(a.weight.data, b.weight.data)

    def test_state_dict_shape_mismatch(self):
        a = Linear(3, 4, rng=0)
        b = Linear(4, 4, rng=0)
        with pytest.raises(ValueError):
            b.load_state_dict(a.state_dict())

    def test_train_eval_propagates(self):
        from repro.nn.network import Sequential

        seq = Sequential(Linear(3, 3, rng=0), Dropout(0.5), ReLU())
        seq.eval()
        assert not seq.layers[1].training
        seq.train()
        assert seq.layers[1].training

    def test_num_parameters(self):
        lin = Linear(10, 5, rng=0)
        assert lin.num_parameters() == 10 * 5 + 5
