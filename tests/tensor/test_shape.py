"""Shape-manipulation op tests."""

import numpy as np
import pytest

from repro import tensor as T
from repro.exceptions import ShapeError
from repro.tensor import Tensor

from ..conftest import assert_gradcheck


class TestForward:
    def test_reshape(self):
        a = Tensor(np.arange(6.0))
        assert a.reshape(2, 3).shape == (2, 3)
        assert a.reshape((3, 2)).shape == (3, 2)
        assert a.reshape(-1).shape == (6,)

    def test_transpose_default_reverses(self):
        a = Tensor(np.zeros((2, 3, 4)))
        assert T.transpose(a).shape == (4, 3, 2)

    def test_transpose_axes(self):
        a = Tensor(np.zeros((2, 3, 4)))
        assert T.transpose(a, (1, 0, 2)).shape == (3, 2, 4)

    def test_pad_values(self):
        a = Tensor(np.ones((2, 2)))
        out = T.pad(a, ((1, 0), (0, 2)), value=9.0)
        assert out.shape == (3, 4)
        assert out.data[0, 0] == 9.0
        assert out.data[1, 0] == 1.0
        assert out.data[1, 3] == 9.0

    def test_pad_wrong_rank_raises(self):
        with pytest.raises(ShapeError):
            T.pad(Tensor(np.ones((2, 2))), ((1, 1),))

    def test_getitem_basic(self):
        a = Tensor(np.arange(12.0).reshape(3, 4))
        assert np.allclose(a[1].data, [4.0, 5.0, 6.0, 7.0])
        assert np.allclose(a[:, 1].data, [1.0, 5.0, 9.0])
        assert a[0:2, ::2].shape == (2, 2)

    def test_getitem_advanced(self):
        a = Tensor(np.arange(5.0))
        assert np.allclose(a[np.array([0, 0, 3])].data, [0.0, 0.0, 3.0])

    def test_stack(self):
        a, b = Tensor(np.ones(3)), Tensor(np.zeros(3))
        out = T.stack([a, b], axis=0)
        assert out.shape == (2, 3)
        assert np.allclose(out.data[1], 0.0)

    def test_stack_empty_raises(self):
        with pytest.raises(ShapeError):
            T.stack([])

    def test_flip(self):
        a = Tensor(np.arange(3.0))
        assert np.allclose(T.flip(a, axis=0).data, [2.0, 1.0, 0.0])


class TestGradients:
    def test_reshape_grad(self, rng):
        assert_gradcheck(lambda x: x.reshape(6) * 2.0, rng.standard_normal((2, 3)))

    def test_transpose_grad(self, rng):
        assert_gradcheck(
            lambda x: T.transpose(x, (2, 0, 1)) ** 2, rng.standard_normal((2, 3, 2))
        )

    def test_pad_grad_ignores_padding(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        T.pad(a, ((1, 1), (1, 1)), value=5.0).sum().backward()
        assert np.allclose(a.grad, np.ones((2, 2)))

    def test_getitem_grad_scatter(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        a[np.array([1, 1, 2])].sum().backward()
        assert np.allclose(a.grad, [0.0, 2.0, 1.0, 0.0])

    def test_getitem_slice_grad(self, rng):
        assert_gradcheck(lambda x: x[1:, ::2] * 3.0, rng.standard_normal((4, 6)))

    def test_stack_grad(self, rng):
        assert_gradcheck(
            lambda x, y: T.stack([x, y], axis=1) * 2.0,
            rng.standard_normal((3,)),
            rng.standard_normal((3,)),
        )

    def test_flip_grad(self, rng):
        assert_gradcheck(lambda x: T.flip(x, axis=1) * x, rng.standard_normal((2, 4)))
