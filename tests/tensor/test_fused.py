"""Fused / in-place kernels: autograd guard + bit-identity to naive."""

import numpy as np
import pytest

from repro import tensor as T
from repro.exceptions import AutogradError, ConfigurationError
from repro.tensor import (
    Tensor,
    add_,
    leaky_relu_,
    mul_,
    no_grad,
)
from repro.tensor.fused import leaky_relu_scale
from repro.tensor.workspace import Workspace, workspace_disabled


class TestInPlaceGuard:
    """Every in-place kernel must refuse to run while grads record."""

    def test_leaky_relu_raises_under_grad(self, rng):
        x = rng.standard_normal((3, 3))
        with pytest.raises(AutogradError):
            leaky_relu_(x)

    def test_add_raises_under_grad(self, rng):
        with pytest.raises(AutogradError):
            add_(rng.standard_normal(4), rng.standard_normal(4))

    def test_mul_raises_under_grad(self, rng):
        with pytest.raises(AutogradError):
            mul_(rng.standard_normal(4), 2.0)

    def test_non_array_operand_raises(self):
        with no_grad():
            with pytest.raises(AutogradError):
                leaky_relu_([1.0, -1.0])


class TestInPlaceEquivalence:
    def test_leaky_relu_matches_op(self, rng):
        x = rng.standard_normal((2, 3, 5, 5))
        expected = T.leaky_relu(Tensor(x), negative_slope=0.1).numpy()
        with no_grad():
            got = leaky_relu_(x.copy(), negative_slope=0.1)
        assert np.array_equal(got, expected)

    def test_leaky_relu_mutates_in_place(self, rng):
        x = rng.standard_normal((4, 4))
        with no_grad():
            out = leaky_relu_(x)
        assert out is x

    def test_leaky_relu_tensor_operand(self, rng):
        x = rng.standard_normal((3, 3))
        t = Tensor(x.copy())
        with no_grad():
            got = leaky_relu_(t, negative_slope=0.2)
        assert got is t
        assert np.array_equal(t.numpy(), T.leaky_relu(Tensor(x), 0.2).numpy())

    def test_add_and_mul_match_naive(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))
        with no_grad():
            assert np.array_equal(add_(a.copy(), b), a + b)
            assert np.array_equal(mul_(a.copy(), b), a * b)

    def test_negative_zero_preserved(self):
        """x * 1.0 on the non-negative lanes must keep -0.0 untouched —
        the masked-multiply path never touches them at all."""
        x = np.array([-0.0, 0.0, -1.0, 2.0])
        with no_grad():
            got = leaky_relu_(x.copy(), negative_slope=0.5)
        expected = T.leaky_relu(Tensor(x), 0.5).numpy()
        assert np.array_equal(got, expected)
        assert np.signbit(got[0]) == np.signbit(expected[0])


class TestLeakyReluScale:
    def test_leaky_relu_scale(self, rng):
        z = np.array([-2.0, -0.0, 0.0, 3.0])
        assert np.array_equal(leaky_relu_scale(z, 0.1), [0.1, 1.0, 1.0, 1.0])


class TestFusedConv:
    """conv2d(activation="leaky_relu") vs conv-then-activation."""

    def _unfused(self, x, w, b, stride, padding, slope):
        """Conv, then the standalone activation op, without an arena."""
        with workspace_disabled():
            out = T.conv2d(
                Tensor(x),
                Tensor(w),
                None if b is None else Tensor(b),
                stride=stride,
                padding=padding,
            )
            return T.leaky_relu(out, negative_slope=slope)

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 0), (1, 2), (1, 3)])
    def test_forward_bit_identical(self, rng, bias, stride, padding):
        """Both kernel classes: (1, 1) and (1, 2) run the strip kernel
        (epilogue ``max(z, slope*z)``), stride 2 and padding >= kernel the
        reference (``z * where(z >= 0, 1, slope)``); either way fused and
        unfused, arena and no arena, agree to the bit."""
        x = rng.standard_normal((2, 3, 9, 9))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4) if bias else None
        expected = self._unfused(x, w, b, stride, padding, 0.1).numpy()
        with no_grad():
            fused = T.conv2d(
                Tensor(x),
                Tensor(w),
                None if b is None else Tensor(b),
                stride=stride,
                padding=padding,
                activation="leaky_relu",
                negative_slope=0.1,
            ).numpy()
        assert np.array_equal(fused, expected)

    def test_forward_identical_with_and_without_workspace(self, rng):
        """The op takes the strip kernel whether or not an arena is
        bound, so where the scratch lives cannot change a bit."""
        x = rng.standard_normal((1, 4, 16, 16))
        w = rng.standard_normal((4, 4, 5, 5))
        b = rng.standard_normal(4)
        with no_grad():
            with workspace_disabled():
                cold = T.conv2d(
                    Tensor(x), Tensor(w), Tensor(b), padding=2,
                    activation="leaky_relu",
                ).numpy()
            warm1 = T.conv2d(
                Tensor(x), Tensor(w), Tensor(b), padding=2,
                activation="leaky_relu",
            ).numpy()
            warm2 = T.conv2d(
                Tensor(x), Tensor(w), Tensor(b), padding=2,
                activation="leaky_relu",
            ).numpy()
        assert np.array_equal(cold, warm1)
        assert np.array_equal(cold, warm2)

    def test_backward_bit_identical(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        seed = rng.standard_normal((2, 4, 8, 8))

        def grads(fused):
            tx = Tensor(x, requires_grad=True)
            tw = Tensor(w, requires_grad=True)
            tb = Tensor(b, requires_grad=True)
            if fused:
                out = T.conv2d(
                    tx, tw, tb, padding=1,
                    activation="leaky_relu", negative_slope=0.1,
                )
            else:
                out = T.leaky_relu(
                    T.conv2d(tx, tw, tb, padding=1), negative_slope=0.1
                )
            out.backward(seed)
            return tx.grad, tw.grad, tb.grad

        for naive, fused in zip(grads(fused=False), grads(fused=True)):
            assert np.array_equal(naive, fused)

    def test_unknown_activation_raises(self, rng):
        with pytest.raises(ConfigurationError):
            T.conv2d(
                Tensor(rng.standard_normal((1, 1, 4, 4))),
                Tensor(rng.standard_normal((1, 1, 3, 3))),
                activation="gelu",
            )

    def test_training_forward_output_never_aliases_workspace(self, rng):
        """With requires_grad inputs the forward draws its strip scratch
        from the arena, but the escaping output must be freshly
        allocated — a later same-shape call would otherwise recycle it
        out from under the graph."""
        from repro.tensor.workspace import get_workspace

        ws = get_workspace()
        assert ws is not None
        tx = Tensor(rng.standard_normal((1, 2, 6, 6)), requires_grad=True)
        tw = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        out = T.conv2d(tx, tw, padding=1)
        kept = out.data.copy()
        assert not any(
            np.shares_memory(out.data, buf) for buf in ws._buffers.values()
        )
        T.conv2d(
            Tensor(rng.standard_normal((1, 2, 6, 6)), requires_grad=True), tw, padding=1
        )
        assert np.array_equal(out.data, kept)

    def test_backward_borrows_only_namespaced_scratch(self, rng):
        """The autograd path may draw scratch from the arena, but only
        from its own "conv2d.train.*" slots — never the slots a no-grad
        conv or an InferencePlan uses — and everything it hands back to
        autograd must be freshly allocated (no aliasing of arena
        storage)."""
        from repro.tensor.workspace import get_workspace

        ws = get_workspace()
        assert ws is not None
        tx = Tensor(rng.standard_normal((1, 2, 6, 6)), requires_grad=True)
        tw = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        slots_before = {key[0] for key in ws._buffers}
        T.conv2d(tx, tw, padding=1).sum().backward()
        new_slots = {key[0] for key in ws._buffers} - slots_before
        assert all(slot.startswith("conv2d.train.") for slot in new_slots), new_slots
        # The escaping gradients are copies, not views of arena buffers.
        arena_bases = {id(buf) for buf in ws._buffers.values()}
        for grad in (tx.grad, tw.grad):
            base = grad.base if grad.base is not None else grad
            assert id(base) not in arena_bases
