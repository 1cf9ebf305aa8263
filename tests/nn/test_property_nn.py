"""Property-based tests over random network architectures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Conv2d, LeakyReLU, Linear, Sequential
from repro.tensor import Tensor


@st.composite
def random_cnn(draw):
    """A random small CNN: channel chain + kernel size + seed."""
    depth = draw(st.integers(1, 3))
    channels = [draw(st.integers(1, 5)) for _ in range(depth + 1)]
    kernel = draw(st.sampled_from([1, 3, 5]))
    seed = draw(st.integers(0, 2**31 - 1))
    return channels, kernel, seed


def build(channels, kernel, seed, padding="same"):
    rng = np.random.default_rng(seed)
    layers = []
    for cin, cout in zip(channels, channels[1:]):
        layers.append(Conv2d(cin, cout, kernel_size=kernel, padding=padding, rng=rng))
        layers.append(LeakyReLU(0.01))
    return Sequential(*layers)


@given(random_cnn())
@settings(max_examples=30, deadline=None)
def test_state_dict_roundtrip_preserves_forward(arch):
    channels, kernel, seed = arch
    net_a = build(channels, kernel, seed)
    net_b = build(channels, kernel, seed + 1)  # different weights
    net_b.load_state_dict(net_a.state_dict())
    x = Tensor(np.random.default_rng(0).standard_normal((2, channels[0], 8, 8)))
    assert np.allclose(net_a(x).numpy(), net_b(x).numpy())


@given(random_cnn())
@settings(max_examples=30, deadline=None)
def test_same_padding_preserves_spatial_size(arch):
    channels, kernel, seed = arch
    net = build(channels, kernel, seed)
    x = Tensor(np.random.default_rng(1).standard_normal((1, channels[0], 9, 7)))
    out = net(x)
    assert out.shape == (1, channels[-1], 9, 7)


@given(random_cnn())
@settings(max_examples=30, deadline=None)
def test_every_parameter_receives_gradient(arch):
    channels, kernel, seed = arch
    net = build(channels, kernel, seed)
    x = Tensor(np.random.default_rng(2).standard_normal((1, channels[0], 8, 8)))
    (net(x) ** 2).sum().backward()
    for name, param in net.named_parameters():
        assert param.grad is not None, name
        assert param.grad.shape == param.data.shape


@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_linear_parameter_count(in_features, out_features, batch):
    rng = np.random.default_rng(0)
    layer = Linear(in_features, out_features, rng=rng)
    assert layer.num_parameters() == in_features * out_features + out_features
    x = Tensor(rng.standard_normal((batch, in_features)))
    assert layer(x).shape == (batch, out_features)


@given(random_cnn())
@settings(max_examples=20, deadline=None)
def test_zero_grad_resets_everything(arch):
    channels, kernel, seed = arch
    net = build(channels, kernel, seed)
    x = Tensor(np.random.default_rng(3).standard_normal((1, channels[0], 6, 6)))
    net(x).sum().backward()
    net.zero_grad()
    assert all(p.grad is None for p in net.parameters())
