"""EulerState tests."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.solver import CHANNELS, EulerState


class TestConstruction:
    def test_channel_order_is_paper_fig3(self):
        assert CHANNELS == ("p", "rho", "u", "v")

    def test_zeros(self):
        state = EulerState.zeros((4, 6))
        assert state.shape == (4, 6)
        assert state.max_abs() == 0.0

    def test_mismatched_fields_raise(self):
        with pytest.raises(ShapeError):
            EulerState(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((2, 2)))

    def test_array_roundtrip(self, rng):
        array = rng.standard_normal((4, 5, 6))
        state = EulerState.from_array(array)
        assert np.allclose(state.to_array(), array)
        assert np.allclose(state.p, array[0])
        assert np.allclose(state.v, array[3])

    def test_from_array_wrong_channels_raises(self, rng):
        with pytest.raises(ShapeError):
            EulerState.from_array(rng.standard_normal((3, 5, 5)))

    def test_from_array_copies(self):
        array = np.zeros((4, 3, 3))
        state = EulerState.from_array(array)
        state.p[0, 0] = 1.0
        assert array[0, 0, 0] == 0.0


class TestVectorSpace:
    def test_copy_independent(self):
        a = EulerState.zeros((3, 3))
        b = a.copy()
        b.p[0, 0] = 5.0
        assert a.p[0, 0] == 0.0


class TestDiagnostics:
    def test_max_abs(self):
        state = EulerState.zeros((3, 3))
        state.u[1, 1] = -7.0
        assert state.max_abs() == 7.0

    def test_is_finite(self):
        state = EulerState.zeros((3, 3))
        assert state.is_finite()
        state.rho[0, 0] = np.nan
        assert not state.is_finite()
        state.rho[0, 0] = np.inf
        assert not state.is_finite()
