"""Convolution op tests: against SciPy, gradients."""

import numpy as np
import pytest
from scipy.signal import correlate

from repro import tensor as T
from repro.exceptions import ShapeError
from repro.tensor import Tensor, ops_conv

from ..conftest import assert_gradcheck


def scipy_conv2d(x, w, b, padding):
    n, c, h, wdt = x.shape
    f = w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = h + 2 * padding - w.shape[2] + 1
    ow = wdt + 2 * padding - w.shape[3] + 1
    out = np.zeros((n, f, oh, ow))
    for ni in range(n):
        for fi in range(f):
            acc = np.zeros((oh, ow))
            for ci in range(c):
                acc += correlate(xp[ni, ci], w[fi, ci], mode="valid")
            out[ni, fi] = acc + (b[fi] if b is not None else 0.0)
    return out


class TestConv2dForward:
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_matches_scipy(self, rng, padding):
        x = rng.standard_normal((2, 3, 8, 9))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=padding).numpy()
        assert np.allclose(out, scipy_conv2d(x, w, b, padding))

    def test_no_bias(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        out = T.conv2d(Tensor(x), Tensor(w)).numpy()
        assert np.allclose(out, scipy_conv2d(x, w, None, 0))

    @pytest.mark.parametrize("kernel", [1, 2, 4, 5])
    def test_largest_padding_matches_scipy(self, rng, kernel):
        """padding = kernel - 1, the widest the op takes."""
        x = rng.standard_normal((2, 3, 7, 6))
        w = rng.standard_normal((4, 3, kernel, kernel))
        b = rng.standard_normal(4)
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=kernel - 1).numpy()
        assert np.allclose(out, scipy_conv2d(x, w, b, kernel - 1))

    def test_identity_kernel(self):
        x = np.arange(25.0).reshape(1, 1, 5, 5)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = T.conv2d(Tensor(x), Tensor(w), padding=1).numpy()
        assert np.allclose(out, x)

    def test_shape_errors(self, rng):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(rng.standard_normal((3, 8, 8))), Tensor(rng.standard_normal((1, 3, 3, 3))))
        with pytest.raises(ShapeError):
            T.conv2d(
                Tensor(rng.standard_normal((1, 3, 8, 8))),
                Tensor(rng.standard_normal((1, 4, 3, 3))),
            )
        with pytest.raises(ShapeError):
            T.conv2d(
                Tensor(rng.standard_normal((1, 3, 8, 8))),
                Tensor(rng.standard_normal((2, 3, 3, 3))),
                Tensor(rng.standard_normal(3)),
            )


class TestConv2dGradients:
    def test_gradcheck_padded(self, rng):
        x = rng.standard_normal((2, 2, 5, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        assert_gradcheck(lambda a, c, d: T.conv2d(a, c, d, padding=1), x, w, b)

    def test_grad_skipped_for_frozen_inputs(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 5, 5)))
        w = Tensor(rng.standard_normal((1, 1, 3, 3)), requires_grad=True)
        T.conv2d(x, w, padding=1).sum().backward()
        assert w.grad is not None
        assert x.grad is None


def conv2d_reference(x, w, b=None, stride=1, padding=0):
    parents = (x, w) if b is None else (x, w, b)
    return ops_conv.conv2d_reference(
        x, w, b, (stride, stride), (padding, padding), None, 0.0, parents
    )


class TestConv2dReference:
    """The oracle the strip kernels are compared against, pinned against
    SciPy at the strides and paddings ``conv2d`` itself refuses."""

    @pytest.mark.parametrize("padding", [0, 1, 2, 3, 4])
    def test_matches_scipy(self, rng, padding):
        x = rng.standard_normal((2, 3, 8, 9))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        out = conv2d_reference(Tensor(x), Tensor(w), Tensor(b), padding=padding).numpy()
        assert np.allclose(out, scipy_conv2d(x, w, b, padding))

    def test_stride(self, rng):
        x = rng.standard_normal((1, 1, 8, 8))
        w = rng.standard_normal((1, 1, 3, 3))
        out = conv2d_reference(Tensor(x), Tensor(w), stride=2).numpy()
        full = scipy_conv2d(x, w, None, 0)
        assert np.allclose(out, full[:, :, ::2, ::2])

    def test_gradcheck_strided(self, rng):
        x = rng.standard_normal((1, 2, 7, 7))
        w = rng.standard_normal((2, 2, 3, 3))
        assert_gradcheck(lambda a, c: conv2d_reference(a, c, stride=2), x, w)

    def test_gradcheck_padding_at_least_kernel(self, rng):
        x = rng.standard_normal((1, 2, 4, 5))
        w = rng.standard_normal((3, 2, 2, 2))
        b = rng.standard_normal(3)
        assert_gradcheck(lambda a, c, d: conv2d_reference(a, c, d, padding=2), x, w, b)
