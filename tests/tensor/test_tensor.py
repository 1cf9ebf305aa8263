"""Tests for the Tensor type itself (construction, metadata, control)."""

import numpy as np
import pytest

from repro.exceptions import AutogradError
from repro.tensor import Tensor, default_dtype, ensure_tensor, full, ones, randn, uniform, zeros


class TestConstruction:
    def test_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.dtype == default_dtype()

    def test_integer_input_promoted_to_float(self):
        t = Tensor([1, 2, 3])
        assert np.issubdtype(t.dtype, np.floating)

    def test_float32_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float32))
        assert t.dtype == np.float32

    def test_from_tensor_shares_data(self):
        a = Tensor(np.arange(3.0))
        b = Tensor(a)
        assert b.data is a.data

    def test_scalar(self):
        t = Tensor(3.5)
        assert t.shape == ()
        assert t.item() == 3.5

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_len(self):
        assert len(Tensor(np.zeros((5, 2)))) == 5

    def test_size_and_ndim(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.size == 24
        assert t.ndim == 3


class TestFactories:
    def test_zeros_ones_full(self):
        assert np.all(zeros((2, 3)).data == 0.0)
        assert np.all(ones((2, 3)).data == 1.0)
        assert np.all(full((2, 2), 7.0).data == 7.0)

    def test_randn_reproducible(self):
        a = randn((4, 4), rng=np.random.default_rng(7))
        b = randn((4, 4), rng=np.random.default_rng(7))
        assert np.array_equal(a.data, b.data)

    def test_uniform_bounds(self):
        t = uniform((1000,), low=-2.0, high=3.0, rng=np.random.default_rng(0))
        assert t.data.min() >= -2.0
        assert t.data.max() < 3.0

    def test_factory_requires_grad(self):
        assert zeros((2,), requires_grad=True).requires_grad


class TestGradientControl:
    def test_item_error_on_non_scalar(self):
        with pytest.raises(AutogradError):
            Tensor(np.zeros(3)).item()

    def test_detach_breaks_graph(self):
        a = Tensor([2.0], requires_grad=True)
        b = (a * 3.0).detach()
        assert not b.requires_grad
        assert b.is_leaf()

    def test_copy_is_independent(self):
        a = Tensor([1.0, 2.0])
        b = a.copy()
        b.data[0] = 99.0
        assert a.data[0] == 1.0

    def test_zero_grad(self):
        a = Tensor([2.0], requires_grad=True)
        (a * a).sum().backward()
        assert a.grad is not None
        a.zero_grad()
        assert a.grad is None

    def test_retain_grad_interior(self):
        a = Tensor([2.0], requires_grad=True)
        mid = a * 3.0
        mid.retain_grad()
        (mid * 2.0).sum().backward()
        assert mid.grad is not None
        assert np.allclose(mid.grad, [2.0])

    def test_interior_grad_dropped_by_default(self):
        a = Tensor([2.0], requires_grad=True)
        mid = a * 3.0
        (mid * 2.0).sum().backward()
        assert mid.grad is None

    def test_retain_grad_requires_grad(self):
        with pytest.raises(AutogradError):
            Tensor([1.0]).retain_grad()

    def test_grad_accumulates_across_backwards(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).sum().backward()
        (a * 3.0).sum().backward()
        assert np.allclose(a.grad, [5.0])

    def test_astype(self):
        t = Tensor(np.arange(3.0)).astype(np.float32)
        assert t.dtype == np.float32


class TestOperatorOverloads:
    def test_radd_rsub_rmul_rtruediv(self):
        a = Tensor([2.0])
        assert np.allclose((1.0 + a).data, [3.0])
        assert np.allclose((1.0 - a).data, [-1.0])
        assert np.allclose((3.0 * a).data, [6.0])
        assert np.allclose((8.0 / a).data, [4.0])

    def test_comparison_returns_arrays(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([2.0, 1.0])
        assert (a < b).tolist() == [True, False]
        assert (a >= b).tolist() == [False, True]
        assert (a <= 2.0).tolist() == [True, True]
        assert (a > 1.5).tolist() == [False, True]

    def test_transpose_property(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        assert a.T.shape == (3, 2)

    def test_method_chaining(self):
        a = Tensor(np.full((2, 2), 4.0))
        out = a.sqrt().log().exp()
        assert np.allclose(out.data, 2.0)

    def test_numpy_returns_underlying(self):
        a = Tensor([1.0])
        assert a.numpy() is a.data

    def test_flatten(self):
        assert Tensor(np.zeros((2, 3))).flatten().shape == (6,)
