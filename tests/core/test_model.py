"""SubdomainCNN tests — including the Table-I architecture contract."""

import numpy as np
import pytest

from repro.core import (
    PAPER_CHANNELS,
    CNNConfig,
    PaddingStrategy,
    SubdomainCNN,
    build_paper_cnn,
)
from repro.analysis import ShapeContract
from repro.exceptions import ConfigurationError
from repro.nn import Conv2d, ConvTranspose2d, LeakyReLU, MSELoss, fuse_leaky_relu
from repro.optim import Adam
from repro.tensor import Tensor, no_grad


class TestTable1Architecture:
    """Verify the constructed network against Table I of the paper."""

    def test_channel_progression(self, rng):
        model = build_paper_cnn(rng=rng)
        convs = [m for m in model.layers if isinstance(m, Conv2d)]
        assert [(c.in_channels, c.out_channels) for c in convs] == [
            (4, 6),
            (6, 16),
            (16, 6),
            (6, 4),
        ]

    def test_kernel_sizes_5x5(self, rng):
        model = build_paper_cnn(rng=rng)
        for conv in (m for m in model.layers if isinstance(m, Conv2d)):
            assert conv.kernel_size == 5
            assert conv.weight.shape[-2:] == (5, 5)

    def test_four_layers(self, rng):
        model = build_paper_cnn(rng=rng)
        assert sum(isinstance(m, Conv2d) for m in model.layers) == 4

    def test_leaky_relu_between_layers_with_paper_epsilon(self, rng):
        model = build_paper_cnn(rng=rng)
        relus = [m for m in model.layers if isinstance(m, LeakyReLU)]
        assert len(relus) == 3  # between layers, none after the head
        assert all(r.negative_slope == 0.01 for r in relus)

    def test_four_channels_in_and_out(self, rng):
        assert PAPER_CHANNELS == (4, 6, 16, 6, 4)
        model = build_paper_cnn(PaddingStrategy.ZERO, rng=rng)
        out = model(Tensor(rng.standard_normal((1, 4, 16, 16))))
        assert out.shape[1] == 4


class TestShapeContracts:
    @pytest.mark.parametrize(
        "strategy, in_extra, out_deficit",
        [
            (PaddingStrategy.ZERO, 0, 0),
            (PaddingStrategy.NEIGHBOR_FIRST, 4, 0),
            (PaddingStrategy.NEIGHBOR_ALL, 16, 0),
            (PaddingStrategy.INNER_CROP, 0, 16),
            (PaddingStrategy.TRANSPOSE, 0, 0),
        ],
    )
    def test_output_size_per_strategy(self, rng, strategy, in_extra, out_deficit):
        model = build_paper_cnn(strategy, rng=rng)
        h = w = 20
        x = Tensor(rng.standard_normal((2, 4, h + in_extra, w + in_extra)))
        out = model(x)
        assert out.shape == (2, 4, h - out_deficit, w - out_deficit)

    def test_halo_matches_strategy(self, rng):
        assert build_paper_cnn(PaddingStrategy.NEIGHBOR_FIRST, rng=rng).input_halo == 2
        assert build_paper_cnn(PaddingStrategy.NEIGHBOR_ALL, rng=rng).input_halo == 8
        assert build_paper_cnn(PaddingStrategy.ZERO, rng=rng).input_halo == 0

    def test_expected_output_shape_helper(self, rng):
        model = build_paper_cnn(PaddingStrategy.INNER_CROP, rng=rng)
        assert model.expected_output_shape((40, 40)) == (24, 24)

    def test_transpose_strategy_has_deconv_layer(self, rng):
        model = build_paper_cnn(PaddingStrategy.TRANSPOSE, rng=rng)
        assert any(isinstance(m, ConvTranspose2d) for m in model.layers)


#: Both fused-epilogue branches (max for slope <= 1, min above) and their bounds.
SLOPES = [0.0, 0.01, 1.0, 2.0]
STRATEGIES = list(PaddingStrategy)


def fused_case(strategy, slope, seed=3):
    """A small Table-I-shaped network with nonzero biases, an input
    block and a target for it."""
    config = CNNConfig(strategy=strategy, negative_slope=slope)
    model = SubdomainCNN(config, rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for param in model.parameters():
        if param.ndim == 1:
            param.data[...] = rng.uniform(-0.5, 0.5, param.shape)
    halo, crop = model.input_halo, model.output_crop
    x = rng.standard_normal((2, 4, 20 + 2 * halo, 19 + 2 * halo))
    y = rng.standard_normal((2, 4, 20 - 2 * crop, 19 - 2 * crop))
    return model, x, y


class TestFusedForward:
    """The model runs each conv with the leaky ReLU after it fused into
    one ``conv2d`` call; everything it computes equals the layer-by-layer
    ``Sequential`` forward bit for bit."""

    def test_pairs_every_activated_conv(self, rng):
        model = build_paper_cnn(PaddingStrategy.TRANSPOSE, rng=rng)
        steps = fuse_leaky_relu(model.layers)
        assert [(type(m), s) for m, s in steps] == [(Conv2d, 0.01)] * 4 + [
            (ConvTranspose2d, None)
        ]
        # A conv takes at most the one activation right after it.
        layers = [LeakyReLU(0.2), Conv2d(2, 2, 3), LeakyReLU(0.3), LeakyReLU(0.4)]
        steps = fuse_leaky_relu(layers)
        assert [m for m, _ in steps] == [layers[0], layers[1], layers[3]]
        assert [s for _, s in steps] == [None, 0.3, None]

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
    @pytest.mark.parametrize("slope", SLOPES)
    def test_forward_and_gradients(self, strategy, slope):
        model, x, y = fused_case(strategy, slope)
        with no_grad():
            assert np.array_equal(model(Tensor(x)).data, model.layers(Tensor(x)).data)
        results = []
        for forward in (model, model.layers):
            model.zero_grad()
            tx = Tensor(x, requires_grad=True)
            out = forward(tx)
            MSELoss()(out, Tensor(y)).backward()
            results.append([out.data, tx.grad] + [p.grad.copy() for p in model.parameters()])
        for fused, layered in zip(*results):
            assert np.array_equal(fused, layered)

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
    @pytest.mark.parametrize("slope", SLOPES)
    def test_adam_steps_bit_identical(self, strategy, slope):
        """Three optimizer steps through the fused model and through an
        unfused twin leave the same losses and weights."""
        trained = []
        for fused in (True, False):
            model, x, y = fused_case(strategy, slope)
            forward = model if fused else model.layers
            optimizer = Adam(model.parameters(), lr=1e-2)
            losses = []
            for _ in range(3):
                optimizer.zero_grad()
                loss = MSELoss()(forward(Tensor(x)), Tensor(y))
                loss.backward()
                optimizer.step()
                losses.append(loss.item())
            trained.append((losses, [p.data for p in model.parameters()]))
        (losses, weights), (ref_losses, ref_weights) = trained
        assert losses == ref_losses
        for got, expected in zip(weights, ref_weights):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
    def test_shape_contract_checks_every_conv(self, strategy):
        model, x, _ = fused_case(strategy, 0.01)
        convs = {id(m) for m in model.modules() if isinstance(m, (Conv2d, ConvTranspose2d))}
        with ShapeContract() as contract:
            model(Tensor(x, requires_grad=True))
            checked = {module_id for module_id, _ in contract._observed}
        assert convs <= checked


class TestDeterminism:
    def test_same_seed_same_weights(self):
        a = SubdomainCNN(CNNConfig(), rng=np.random.default_rng(7))
        b = SubdomainCNN(CNNConfig(), rng=np.random.default_rng(7))
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_different_seeds_differ(self):
        a = SubdomainCNN(CNNConfig(), rng=np.random.default_rng(1))
        b = SubdomainCNN(CNNConfig(), rng=np.random.default_rng(2))
        assert not np.array_equal(
            a.layers[0].weight.data, b.layers[0].weight.data
        )

    def test_state_dict_roundtrip(self, rng):
        a = SubdomainCNN(CNNConfig(), rng=rng)
        b = SubdomainCNN(CNNConfig(), rng=np.random.default_rng(99))
        b.load_state_dict(a.state_dict())
        x = Tensor(np.random.default_rng(0).standard_normal((1, 4, 12, 12)))
        assert np.allclose(a(x).numpy(), b(x).numpy())


class TestConfigValidation:
    def test_even_kernel_raises(self):
        with pytest.raises(ConfigurationError):
            CNNConfig(kernel_size=4)

    def test_too_few_channels_raise(self):
        with pytest.raises(ConfigurationError):
            CNNConfig(channels=(4,))

    def test_custom_channels(self, rng):
        model = SubdomainCNN(CNNConfig(channels=(4, 8, 4), kernel_size=3), rng=rng)
        x = Tensor(rng.standard_normal((1, 4, 10 + 2, 10 + 2)))
        assert model(x).shape == (1, 4, 10, 10)

    def test_build_paper_cnn_overrides(self, rng):
        model = build_paper_cnn("zero", rng=rng, negative_slope=0.2)
        relus = [m for m in model.layers if isinstance(m, LeakyReLU)]
        assert all(r.negative_slope == 0.2 for r in relus)
