"""Padding-strategy accounting tests."""

import pytest

from repro.core import PaddingStrategy, parse_strategy
from repro.exceptions import ConfigurationError

K, L = 5, 4  # paper kernel size / layer count


class TestHaloAccounting:
    def test_zero_strategy_needs_nothing(self):
        assert PaddingStrategy.ZERO.input_halo(K, L) == 0

    def test_neighbor_first_covers_one_layer(self):
        """Paper Sec. III: the input is enlarged so the *first* layer's
        output matches the target: halo = (k-1)/2 = 2."""
        assert PaddingStrategy.NEIGHBOR_FIRST.input_halo(K, L) == 2

    def test_neighbor_all_covers_whole_stack(self):
        """All-valid variant: halo = L * (k-1)/2 = 8."""
        assert PaddingStrategy.NEIGHBOR_ALL.input_halo(K, L) == 8

    def test_other_kernel_sizes(self):
        assert PaddingStrategy.NEIGHBOR_FIRST.input_halo(3, 4) == 1
        assert PaddingStrategy.NEIGHBOR_ALL.input_halo(3, 2) == 2


class TestCommunicationRequirement:
    def test_neighbour_strategies_need_halo_exchange(self):
        assert PaddingStrategy.NEIGHBOR_FIRST.uses_neighbour_data
        assert PaddingStrategy.NEIGHBOR_ALL.uses_neighbour_data

    def test_local_strategies_do_not(self):
        assert not PaddingStrategy.ZERO.uses_neighbour_data


class TestParse:
    def test_from_string(self):
        assert parse_strategy("zero") is PaddingStrategy.ZERO
        assert parse_strategy("neighbor_first") is PaddingStrategy.NEIGHBOR_FIRST

    def test_passthrough(self):
        assert parse_strategy(PaddingStrategy.NEIGHBOR_ALL) is PaddingStrategy.NEIGHBOR_ALL

    def test_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            parse_strategy("mirror")

    @pytest.mark.parametrize("name", ["inner_crop", "transpose"])
    def test_rejected_options_are_unknown(self, name):
        """The paper's inner cropping and transposed convolution are not
        strategies here (EXPERIMENTS.md, Sec. III): three remain."""
        assert [s.value for s in PaddingStrategy] == ["zero", "neighbor_first", "neighbor_all"]
        with pytest.raises(ConfigurationError, match="choose from"):
            parse_strategy(name)

    def test_descriptions_exist(self):
        for strategy in PaddingStrategy:
            assert strategy.description
