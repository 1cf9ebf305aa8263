"""Parallel-inference tests, including the decomposition-consistency
theorem: with identical weights and an all-valid network, the
domain-decomposed prediction with halo exchange must equal the global
single-network prediction exactly."""

import logging

import numpy as np
import pytest

from repro.core import (
    CNNConfig,
    EnsembleStepper,
    PaddingStrategy,
    ParallelPredictor,
    SubdomainCNN,
    rollout,
)
from repro.domain import BlockDecomposition
from repro.exceptions import ConfigurationError, ShapeError
from repro.nn import Conv2d, Sequential, Tanh
from repro.tensor import Tensor, no_grad


def clone_models(config, num, seed=0):
    """num models with identical weights."""
    reference = SubdomainCNN(config, rng=np.random.default_rng(seed))
    models = []
    for _ in range(num):
        model = SubdomainCNN(config, rng=np.random.default_rng(123))
        model.load_state_dict(reference.state_dict())
        models.append(model)
    return reference, models


class TestDecompositionConsistency:
    @pytest.mark.parametrize("num_ranks", [1, 2, 4])
    def test_neighbor_all_equals_global_network(self, rng, num_ranks):
        """The exact-consistency identity of the scheme: valid
        convolutions + full halo = a restriction of the global conv.

        The global input must be zero-padded by the halo (the same
        zero fill the ranks use at physical boundaries).
        """
        config = CNNConfig(
            channels=(4, 6, 4), kernel_size=3, strategy=PaddingStrategy.NEIGHBOR_ALL
        )
        reference, models = clone_models(config, num_ranks)
        halo = reference.input_halo
        field = rng.standard_normal((4, 12, 12))
        decomp = BlockDecomposition.from_num_ranks((12, 12), num_ranks)

        parallel = ParallelPredictor(models, decomp)
        result = parallel.rollout(field, num_steps=1)

        padded = np.pad(field, ((0, 0), (halo, halo), (halo, halo)))
        expected = reference(Tensor(padded[None])).numpy()[0]

        assert np.allclose(result.trajectory[1], expected, atol=1e-12)

    def test_neighbor_all_multi_step_consistency(self, rng):
        """The identity must survive autoregressive feedback."""
        config = CNNConfig(
            channels=(4, 4), kernel_size=3, strategy=PaddingStrategy.NEIGHBOR_ALL
        )
        reference, models = clone_models(config, 4)
        halo = reference.input_halo
        field = rng.standard_normal((4, 8, 8))
        decomp = BlockDecomposition.from_num_ranks((8, 8), 4)
        result = ParallelPredictor(models, decomp).rollout(field, num_steps=3)

        state = field
        for _ in range(3):
            padded = np.pad(state, ((0, 0), (halo, halo), (halo, halo)))
            state = reference(Tensor(padded[None])).numpy()[0]
        assert np.allclose(result.trajectory[3], state, atol=1e-10)

    def test_neighbor_first_differs_from_global(self, rng):
        """Strategy 2 zero-pads interior layers at subdomain interfaces,
        so it is an *approximation* — the outputs must differ near the
        interface (this documents the scheme's accuracy trade-off)."""
        config = CNNConfig(
            channels=(4, 6, 4), kernel_size=3, strategy=PaddingStrategy.NEIGHBOR_FIRST
        )
        reference, models = clone_models(config, 4)
        field = rng.standard_normal((4, 12, 12))
        decomp = BlockDecomposition.from_num_ranks((12, 12), 4)
        result = ParallelPredictor(models, decomp).rollout(field, num_steps=1)

        halo = reference.input_halo
        padded = np.pad(field, ((0, 0), (halo, halo), (halo, halo)))
        global_out = reference(Tensor(padded[None])).numpy()[0]
        assert not np.allclose(result.trajectory[1], global_out)


class TestRolloutMechanics:
    def test_trajectory_shape_and_initial_state(self, rng):
        config = CNNConfig(channels=(4, 4), kernel_size=3, strategy=PaddingStrategy.ZERO)
        _, models = clone_models(config, 2)
        field = rng.standard_normal((4, 8, 8))
        decomp = BlockDecomposition.from_num_ranks((8, 8), 2)
        result = ParallelPredictor(models, decomp).rollout(field, num_steps=4)
        assert result.trajectory.shape == (5, 4, 8, 8)
        assert result.num_steps == 4
        assert np.allclose(result.trajectory[0], field)

    def test_zero_strategy_sends_no_messages(self, rng):
        config = CNNConfig(channels=(4, 4), kernel_size=3, strategy=PaddingStrategy.ZERO)
        _, models = clone_models(config, 4)
        decomp = BlockDecomposition.from_num_ranks((8, 8), 4)
        result = ParallelPredictor(models, decomp).rollout(
            rng.standard_normal((4, 8, 8)), num_steps=2
        )
        assert result.messages_sent == 0
        assert result.bytes_sent == 0

    def test_neighbour_strategy_message_accounting(self, rng):
        config = CNNConfig(
            channels=(4, 4), kernel_size=3, strategy=PaddingStrategy.NEIGHBOR_ALL
        )
        _, models = clone_models(config, 4)
        decomp = BlockDecomposition.from_num_ranks((8, 8), 4)
        result = ParallelPredictor(models, decomp).rollout(
            rng.standard_normal((4, 8, 8)), num_steps=3
        )
        # 2x2 grid: each rank has 2 neighbours -> 8 messages per step.
        assert result.messages_sent == 8 * 3
        assert result.bytes_sent > 0


class TestValidation:
    def test_model_count_mismatch_raises(self, rng):
        config = CNNConfig(channels=(4, 4), kernel_size=3, strategy=PaddingStrategy.ZERO)
        _, models = clone_models(config, 2)
        decomp = BlockDecomposition.from_num_ranks((8, 8), 4)
        with pytest.raises(ConfigurationError):
            ParallelPredictor(models, decomp)

    def test_mixed_strategies_raise(self, rng):
        a = SubdomainCNN(
            CNNConfig(channels=(4, 4), kernel_size=3, strategy=PaddingStrategy.ZERO),
            rng=np.random.default_rng(0),
        )
        b = SubdomainCNN(
            CNNConfig(channels=(4, 4), kernel_size=3, strategy=PaddingStrategy.NEIGHBOR_FIRST),
            rng=np.random.default_rng(0),
        )
        decomp = BlockDecomposition.from_num_ranks((8, 8), 2)
        with pytest.raises(ConfigurationError):
            ParallelPredictor([a, b], decomp)

    def test_wrong_initial_shape_raises(self, rng):
        config = CNNConfig(channels=(4, 4), kernel_size=3, strategy=PaddingStrategy.ZERO)
        _, models = clone_models(config, 2)
        decomp = BlockDecomposition.from_num_ranks((8, 8), 2)
        predictor = ParallelPredictor(models, decomp)
        with pytest.raises(ShapeError):
            predictor.rollout(rng.standard_normal((4, 6, 6)), 1)

    def test_zero_steps_raises(self, rng):
        config = CNNConfig(channels=(4, 4), kernel_size=3, strategy=PaddingStrategy.ZERO)
        _, models = clone_models(config, 2)
        decomp = BlockDecomposition.from_num_ranks((8, 8), 2)
        with pytest.raises(ConfigurationError):
            ParallelPredictor(models, decomp).rollout(rng.standard_normal((4, 8, 8)), 0)


class TestSingleNetworkRollout:
    def test_matches_parallel_at_p1_neighbor_all(self, rng):
        config = CNNConfig(
            channels=(4, 4), kernel_size=3, strategy=PaddingStrategy.NEIGHBOR_ALL
        )
        reference, models = clone_models(config, 1)
        field = rng.standard_normal((4, 8, 8))
        decomp = BlockDecomposition.from_num_ranks((8, 8), 1)
        parallel = ParallelPredictor(models, decomp).rollout(field, 2)
        sequential = rollout(EnsembleStepper([reference]), field, 2)
        assert np.array_equal(parallel.trajectory, sequential.trajectory)


class Overriding(SubdomainCNN):
    """The Table-I network behind its own ``forward``."""

    def forward(self, x):
        return super().forward(x) * 0.5


class TestRefusedModels:
    """A model the plan refuses runs the module forward and says so once
    per block stepper, at construction, with the refusal's reason."""

    @pytest.fixture
    def warnings_logged(self):
        records = []
        handler = logging.Handler(logging.WARNING)
        handler.emit = records.append
        logger = logging.getLogger("repro.inference")
        logger.addHandler(handler)
        yield records
        logger.removeHandler(handler)

    def test_uncompiled_module(self, rng, warnings_logged):
        model = Sequential(Conv2d(4, 4, 3, padding=1, rng=np.random.default_rng(0)), Tanh())
        field = rng.standard_normal((4, 12, 12))
        stepper = EnsembleStepper([model])
        trajectory = rollout(stepper, field, 3).trajectory
        assert len(warnings_logged) == 1
        assert "cannot compile Tanh" in warnings_logged[0].getMessage()
        state = field
        for step in range(1, 4):
            with no_grad():
                state = model(Tensor(state[None])).numpy()[0]
            assert np.array_equal(trajectory[step], state)
        stepper.advance(field, 2)
        assert len(warnings_logged) == 1, "said once per stepper, not per step"

    @pytest.mark.parametrize("execution", ["threads", "processes"])
    def test_overridden_forward(self, rng, warnings_logged, execution):
        config = CNNConfig(channels=(4, 5, 4), kernel_size=3)
        models = [Overriding(config, rng=np.random.default_rng(r)) for r in range(2)]
        decomp = BlockDecomposition((12, 12), (1, 2))
        predictor = ParallelPredictor(models, decomp)
        assert len(warnings_logged) == 2  # one per rank's stepper
        assert all("Overriding" in r.getMessage() for r in warnings_logged)
        field = rng.standard_normal((4, 12, 12))
        result = predictor.rollout(field, 3, execution=execution)
        assert len(warnings_logged) == 2
        halo = models[0].input_halo
        state = field
        for step in range(1, 4):
            blocks = []
            for rank, model in enumerate(models):
                with no_grad():
                    local = decomp.extract(state, rank, halo)[None]
                    blocks.append(model(Tensor(local)).numpy()[0])
            state = decomp.assemble(blocks)
            assert np.array_equal(result.trajectory[step], state)

    def test_compiled_models_say_nothing(self, rng, warnings_logged):
        config = CNNConfig(channels=(4, 5, 4), kernel_size=3)
        _, models = clone_models(config, 2)
        ParallelPredictor(models, BlockDecomposition((12, 12), (1, 2)))
        assert warnings_logged == []
