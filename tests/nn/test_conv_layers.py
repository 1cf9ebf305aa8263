"""Conv2d layer tests."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn import Conv2d
from repro.tensor import Tensor


class TestConv2d:
    def test_same_padding_preserves_size(self, rng):
        layer = Conv2d(4, 6, kernel_size=5, padding="same", rng=rng)
        out = layer(Tensor(rng.standard_normal((2, 4, 16, 16))))
        assert out.shape == (2, 6, 16, 16)

    def test_valid_padding_shrinks(self, rng):
        layer = Conv2d(4, 6, kernel_size=5, padding="valid", rng=rng)
        out = layer(Tensor(rng.standard_normal((1, 4, 16, 16))))
        assert out.shape == (1, 6, 12, 12)

    def test_explicit_padding(self, rng):
        layer = Conv2d(1, 1, kernel_size=3, padding=2, rng=rng)
        out = layer(Tensor(rng.standard_normal((1, 1, 8, 8))))
        assert out.shape == (1, 1, 10, 10)

    def test_output_shape_helper_matches(self, rng):
        layer = Conv2d(2, 3, kernel_size=5, padding=1, rng=rng)
        out = layer(Tensor(rng.standard_normal((1, 2, 17, 13))))
        assert out.shape[-2:] == layer.output_shape(17, 13)

    @pytest.mark.parametrize(
        "options", [dict(stride=2), dict(padding=3), dict(padding=4)], ids=str
    )
    def test_outside_the_strip_kernel_raises(self, rng, options):
        """Stride 1 and padding < kernel is the one class conv2d runs."""
        with pytest.raises(ConfigurationError):
            Conv2d(2, 3, kernel_size=3, rng=rng, **options)

    @pytest.mark.parametrize("kernel_size", [1, 3, 5])
    def test_largest_padding_is_accepted(self, rng, kernel_size):
        """padding = kernel_size - 1 is the widest the strip kernel runs."""
        layer = Conv2d(2, 3, kernel_size=kernel_size, padding=kernel_size - 1, rng=rng)
        out = layer(Tensor(rng.standard_normal((1, 2, 6, 7))))
        assert out.shape == (1, 3, 6 + kernel_size - 1, 7 + kernel_size - 1)

    def test_no_bias(self, rng):
        layer = Conv2d(2, 3, kernel_size=3, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_same_padding_even_kernel_raises(self, rng):
        with pytest.raises(ConfigurationError):
            Conv2d(1, 1, kernel_size=4, padding="same", rng=rng)

    def test_unknown_padding_mode_raises(self, rng):
        with pytest.raises(ConfigurationError):
            Conv2d(1, 1, kernel_size=3, padding="reflect", rng=rng)

    def test_negative_padding_raises(self, rng):
        with pytest.raises(ConfigurationError):
            Conv2d(1, 1, kernel_size=3, padding=-1, rng=rng)

    def test_bad_channels_raise(self, rng):
        with pytest.raises(ConfigurationError):
            Conv2d(0, 1, rng=rng)
        with pytest.raises(ConfigurationError):
            Conv2d(1, -1, rng=rng)

    def test_weight_shape(self, rng):
        layer = Conv2d(3, 7, kernel_size=5, rng=rng)
        assert layer.weight.shape == (7, 3, 5, 5)
        assert layer.bias.shape == (7,)

    def test_reproducible_init(self):
        a = Conv2d(2, 2, kernel_size=3, rng=np.random.default_rng(5))
        b = Conv2d(2, 2, kernel_size=3, rng=np.random.default_rng(5))
        assert np.array_equal(a.weight.data, b.weight.data)

    def test_gradients_flow(self, rng):
        layer = Conv2d(1, 1, kernel_size=3, padding="same", rng=rng)
        layer(Tensor(rng.standard_normal((1, 1, 5, 5)))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
