"""Layer tests: numerical gradient checks for every backward pass."""

import numpy as np
import pytest

from repro.nn.functional import col2im
from repro.nn.layers import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
)


def numerical_grad(fn, x, eps=1e-6):
    """Central-difference gradient of scalar fn w.r.t. array x."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = fn()
        flat[i] = orig - eps
        minus = fn()
        flat[i] = orig
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_input_gradient(layer, x, tol=1e-5):
    """Backward wrt input must match finite differences of sum(output)."""
    def loss():
        return float(np.sum(layer.forward(x)))

    expected = numerical_grad(loss, x)
    out = layer.forward(x)
    got = layer.backward(np.ones_like(out))
    assert np.allclose(got, expected, atol=tol), \
        f"max err {np.max(np.abs(got - expected))}"


def check_param_gradient(layer, x, param, tol=1e-5):
    def loss():
        return float(np.sum(layer.forward(x)))

    expected = numerical_grad(loss, param.data)
    param.zero_grad()
    out = layer.forward(x)
    layer.backward(np.ones_like(out))
    assert np.allclose(param.grad, expected, atol=tol), \
        f"max err {np.max(np.abs(param.grad - expected))}"


class TestLinear:
    def test_forward_values(self, rng):
        layer = Linear(3, 2, rng=rng)
        layer.weight.data[...] = [[1.0, 0.0, -1.0], [0.5, 0.5, 0.5]]
        layer.bias.data[...] = [1.0, -1.0]
        out = layer.forward(np.array([[2.0, 4.0, 6.0]]))
        assert np.allclose(out, [[2 - 6 + 1, 1 + 2 + 3 - 1]])

    def test_input_gradient(self, rng):
        layer = Linear(4, 3, rng=rng)
        check_input_gradient(layer, rng.normal(size=(5, 4)))

    def test_weight_and_bias_gradients(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        check_param_gradient(layer, x, layer.weight)
        check_param_gradient(layer, x, layer.bias)

    def test_no_bias_option(self, rng):
        layer = Linear(4, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert len([p for p in [layer.weight]]) == 1


class TestConv2d:
    def test_output_shape(self, rng):
        layer = Conv2d(3, 8, 3, rng=rng)
        out = layer.forward(rng.normal(size=(2, 3, 6, 6)))
        assert out.shape == (2, 8, 6, 6)

    def test_strided_shape(self, rng):
        layer = Conv2d(3, 4, 3, stride=2, rng=rng)
        out = layer.forward(rng.normal(size=(2, 3, 8, 8)))
        assert out.shape == (2, 4, 4, 4)

    def test_input_gradient(self, rng):
        layer = Conv2d(2, 3, 3, rng=rng)
        check_input_gradient(layer, rng.normal(size=(2, 2, 4, 4)))

    def test_weight_gradient(self, rng):
        layer = Conv2d(2, 3, 3, rng=rng, bias=True)
        x = rng.normal(size=(2, 2, 4, 4))
        check_param_gradient(layer, x, layer.weight)
        check_param_gradient(layer, x, layer.bias)

    def test_strided_gradients(self, rng):
        layer = Conv2d(2, 2, 3, stride=2, rng=rng)
        check_input_gradient(layer, rng.normal(size=(1, 2, 6, 6)))

    def test_pointwise_conv(self, rng):
        layer = Conv2d(4, 2, 1, pad=0, rng=rng)
        check_input_gradient(layer, rng.normal(size=(2, 4, 3, 3)))

    def test_plain_gemm_input_gradient_is_col2im(self, rng):
        """A plain-function gemm's input gradient is ``col2im`` of one
        product, bit for bit: the FP64 baseline rows rest on it.  The
        row-streamed scatter-add sums each pixel's contributions in
        another order, and moves about 60% of these bits."""
        layer = Conv2d(8, 8, 3, rng=rng)
        x = rng.normal(size=(2, 8, 8, 8))
        grad = rng.normal(size=layer.forward(x).shape)
        grad2d = grad.transpose(0, 2, 3, 1).reshape(-1, 8)
        want = col2im(grad2d @ layer.weight.data, x.shape, 3, 1, 1)
        assert np.array_equal(layer.backward(grad), want)


class TestReLU:
    def test_forward(self):
        layer = ReLU()
        out = layer.forward(np.array([-1.0, 0.0, 2.0]))
        assert np.array_equal(out, [0.0, 0.0, 2.0])

    def test_gradient_masks(self):
        layer = ReLU()
        layer.forward(np.array([-1.0, 3.0]))
        grad = layer.backward(np.array([5.0, 5.0]))
        assert np.array_equal(grad, [0.0, 5.0])


class TestBatchNorm2d:
    def test_normalizes_in_training(self, rng):
        layer = BatchNorm2d(3)
        out = layer.forward(rng.normal(2.0, 3.0, size=(8, 3, 4, 4)))
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_used_in_eval(self, rng):
        layer = BatchNorm2d(2)
        for _ in range(50):
            layer.forward(rng.normal(1.0, 2.0, size=(16, 2, 3, 3)))
        layer.training = False
        out = layer.forward(rng.normal(1.0, 2.0, size=(16, 2, 3, 3)))
        assert abs(out.mean()) < 0.3

    def test_input_gradient(self, rng):
        layer = BatchNorm2d(2)
        check_input_gradient(layer, rng.normal(size=(4, 2, 3, 3)), tol=1e-4)

    def test_param_gradients(self, rng):
        layer = BatchNorm2d(2)
        x = rng.normal(size=(4, 2, 3, 3))
        check_param_gradient(layer, x, layer.gamma, tol=1e-4)
        check_param_gradient(layer, x, layer.beta, tol=1e-4)


class TestBatchNorm1d:
    def test_input_gradient(self, rng):
        layer = BatchNorm1d(5)
        check_input_gradient(layer, rng.normal(size=(8, 5)), tol=1e-4)

    def test_param_gradients(self, rng):
        layer = BatchNorm1d(3)
        x = rng.normal(size=(10, 3))
        check_param_gradient(layer, x, layer.gamma, tol=1e-4)
        check_param_gradient(layer, x, layer.beta, tol=1e-4)


class TestMaxPool2d:
    def test_forward(self):
        layer = MaxPool2d(2)
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        assert np.array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_input_gradient(self, rng):
        layer = MaxPool2d(2)
        check_input_gradient(layer, rng.normal(size=(2, 2, 4, 4)))


class TestGlobalAvgPool2d:
    def test_forward(self, rng):
        layer = GlobalAvgPool2d()
        x = rng.normal(size=(3, 4, 5, 5))
        assert np.allclose(layer.forward(x), x.mean(axis=(2, 3)))

    def test_input_gradient(self, rng):
        layer = GlobalAvgPool2d()
        check_input_gradient(layer, rng.normal(size=(2, 3, 4, 4)))


class TestFlatten:
    def test_roundtrip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4, 4))
        out = layer.forward(x)
        assert out.shape == (2, 48)
        back = layer.backward(out)
        assert back.shape == x.shape


class TestDropout:
    def test_inactive_in_eval(self, rng):
        layer = Dropout(0.5, rng=rng)
        layer.training = False
        x = rng.normal(size=(4, 4))
        assert np.array_equal(layer.forward(x), x)

    def test_scaling_preserves_expectation(self, rng):
        layer = Dropout(0.5, rng=rng)
        x = np.ones((200, 200))
        out = layer.forward(x)
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_backward_uses_same_mask(self, rng):
        layer = Dropout(0.5, rng=rng)
        x = np.ones((10, 10))
        out = layer.forward(x)
        grad = layer.backward(np.ones_like(x))
        assert np.array_equal(grad == 0, out == 0)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestQuantizedGemmIntegration:
    def test_linear_through_quantized_gemm(self, rng):
        from repro.emu import GemmConfig, QuantizedGemm
        from repro.fp.quantize import quantize
        from repro.fp.formats import FP12_E6M5

        gemm = QuantizedGemm(GemmConfig.rn(FP12_E6M5))
        layer = Linear(8, 4, gemm=gemm, rng=rng, bias=False)
        out = layer.forward(rng.normal(size=(3, 8)))
        # outputs sit on the accumulator grid
        assert np.array_equal(out, quantize(out, FP12_E6M5, "toward_zero"))
        layer.backward(np.ones((3, 4)))
        assert gemm.call_count == 3  # fwd + dW + dX


class TestBatchedLinear:
    """3D (B, T, F) inputs route through the batched GEMM entry point."""

    def test_forward_matches_per_matrix(self, rng):
        layer = Linear(6, 4, rng=rng)
        x = rng.normal(size=(3, 5, 6))
        out = layer.forward(x)
        assert out.shape == (3, 5, 4)
        for i in range(3):
            want = x[i] @ layer.weight.data.T + layer.bias.data
            assert np.allclose(out[i], want, rtol=0, atol=0)

    def test_backward_matches_2d_stacked(self, rng):
        layer3 = Linear(6, 4, rng=np.random.default_rng(3))
        layer2 = Linear(6, 4, rng=np.random.default_rng(3))
        x = rng.normal(size=(3, 5, 6))
        grad = rng.normal(size=(3, 5, 4))
        layer3.forward(x)
        grad_x3 = layer3.backward(grad)
        # flatten the batch: same products, accumulated per matrix
        layer2.forward(x.reshape(15, 6))
        grad_x2 = layer2.backward(grad.reshape(15, 4))
        assert np.allclose(layer3.weight.grad, layer2.weight.grad)
        assert np.allclose(layer3.bias.grad, layer2.bias.grad)
        assert np.allclose(grad_x3.reshape(15, 6), grad_x2)

    def test_quantized_weight_grad_matches_flattened(self, rng):
        """The cross-batch weight-grad reduction runs entirely inside the
        quantized accumulator: 3D and flattened-2D inputs produce
        bit-identical weight gradients under an emulated gemm."""
        from repro.emu import GemmConfig, QuantizedGemm

        x = rng.normal(size=(3, 5, 6))
        grad = rng.normal(size=(3, 5, 4))
        g3 = QuantizedGemm(GemmConfig.sr(9, seed=4))
        g2 = QuantizedGemm(GemmConfig.sr(9, seed=4))
        layer3 = Linear(6, 4, gemm=g3, rng=np.random.default_rng(3),
                        bias=False)
        layer2 = Linear(6, 4, gemm=g2, rng=np.random.default_rng(3),
                        bias=False)
        layer3._x = x
        layer2._x = x.reshape(15, 6)
        layer3.backward(grad)
        layer2.backward(grad.reshape(15, 4))
        assert np.array_equal(layer3.weight.grad, layer2.weight.grad)

    def test_batched_through_quantized_gemm(self, rng):
        from repro.emu import GemmConfig, QuantizedGemm
        from repro.fp.formats import FP12_E6M5
        from repro.fp.quantize import quantize

        gemm = QuantizedGemm(GemmConfig.sr(9, seed=2))
        layer = Linear(8, 4, gemm=gemm, rng=rng, bias=False)
        x = rng.normal(size=(2, 3, 8))
        out = layer.forward(x)
        assert out.shape == (2, 3, 4)
        assert np.array_equal(out, quantize(out, FP12_E6M5, "toward_zero"))
        grad_x = layer.backward(rng.normal(size=(2, 3, 4)))
        assert grad_x.shape == x.shape
        assert gemm.call_count == 3  # fwd + dW + dX, all batched
