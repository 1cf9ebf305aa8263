"""Fused conv + leaky ReLU: bit-identity to the conv-then-activation ops."""

import numpy as np
import pytest

from repro import tensor as T
from repro.exceptions import ConfigurationError
from repro.tensor import Tensor, no_grad
from repro.tensor.ops_conv import leaky_relu_scale
from repro.tensor.workspace import workspace_disabled

#: Both strip-epilogue branches (max for slope <= 1, min above) and
#: their boundaries: plain ReLU, the paper's epsilon, identity, steep.
SLOPES = [0.0, 0.01, 1.0, 2.0]


class TestLeakyReluScale:
    def test_leaky_relu_scale(self, rng):
        z = np.array([-2.0, -0.0, 0.0, 3.0])
        assert np.array_equal(leaky_relu_scale(z, 0.1), [0.1, 1.0, 1.0, 1.0])


class TestFusedConv:
    """conv2d(activation="leaky_relu") vs conv-then-activation."""

    def _unfused(self, x, w, b, padding, slope):
        """Conv, then the standalone activation op, without an arena."""
        with workspace_disabled():
            tb = None if b is None else Tensor(b)
            out = T.conv2d(Tensor(x), Tensor(w), tb, padding=padding)
            return T.leaky_relu(out, negative_slope=slope)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("slope", SLOPES)
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_forward_bit_identical(self, rng, bias, padding, slope, dtype):
        """Valid, same-size and over-padded: the strip epilogue ``max(z,
        slope*z)`` (``min`` for ``slope > 1``) against the standalone op's
        ``z * where(z >= 0, 1, slope)``: fused and unfused, arena and no
        arena, agree to the bit."""
        x = rng.standard_normal((2, 3, 9, 9)).astype(dtype)
        w = rng.standard_normal((4, 3, 3, 3)).astype(dtype)
        b = rng.standard_normal(4).astype(dtype) if bias else None
        expected = self._unfused(x, w, b, padding, slope).numpy()
        with no_grad():
            fused = T.conv2d(
                Tensor(x),
                Tensor(w),
                None if b is None else Tensor(b),
                padding=padding,
                activation="leaky_relu",
                negative_slope=slope,
            ).numpy()
        assert fused.dtype == dtype
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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("slope", SLOPES)
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_backward_bit_identical(self, rng, padding, slope, dtype):
        """Under autograd the strip epilogue writes the ``z >= 0`` mask
        the backward keeps; output and gradients equal the two-op graph's
        whether the output shrinks, keeps or grows the input's size."""
        x, w, b = (rng.standard_normal(s).astype(dtype) for s in ((2, 3, 8, 8), (4, 3, 3, 3), (4,)))
        side = 8 - 2 + 2 * padding
        seed = rng.standard_normal((2, 4, side, side)).astype(dtype)

        def run(fused):
            tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
            if fused:
                out = T.conv2d(
                    tx, tw, tb, padding=padding, activation="leaky_relu", negative_slope=slope
                )
            else:
                out = T.leaky_relu(
                    T.conv2d(tx, tw, tb, padding=padding), negative_slope=slope
                )
            out.backward(seed)
            return out.data, tx.grad, tw.grad, tb.grad

        for naive, fused in zip(run(fused=False), run(fused=True)):
            assert fused.dtype == naive.dtype
            assert np.array_equal(naive, fused)

    @pytest.mark.parametrize("chained", [False, True], ids=["unchained", "chained"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("slope", SLOPES)
    def test_edge_values_bit_identical(self, rng, slope, dtype, chained):
        """IEEE edge cases through the strip epilogue and the mask: inputs
        and seed gradient hold ±0.0, NaN, ±inf and subnormals, sparsely,
        so with two bias-free channels the pre-activations hold NaN, ±inf,
        subnormals and zeros.  The forward (with and without autograd)
        and the input, weight and bias gradients equal the two-op graph's
        byte for byte; ``chained`` fuses into a conv that writes its
        follower's bordered input."""
        tiny = np.finfo(dtype).smallest_subnormal
        specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, tiny, -3 * tiny, 1.5, -2.0])

        def sprinkled(shape):
            a = np.where(rng.random(shape) < 0.15, rng.choice(specials, shape), 0.0)
            return a.astype(dtype)

        x, g = sprinkled((2, 3, 9, 8)), sprinkled((2, 2 if chained else 4, 9, 8))
        w, b = rng.standard_normal((4, 3, 3, 3)), np.array([0, 0, 1, -1])  # two bias-free
        params = [w.astype(dtype), b.astype(dtype)]
        with no_grad(), np.errstate(invalid="ignore", over="ignore"):
            z = T.conv2d(Tensor(x), *map(Tensor, params), padding=1).data
        small = np.abs(z[np.isfinite(z)])
        assert np.isnan(z).any() and {np.inf, -np.inf} <= set(z[np.isinf(z)])
        assert (small == 0).any() and ((small > 0) & (small < np.finfo(dtype).tiny)).any()
        if chained:
            params += [rng.standard_normal(s).astype(dtype) for s in ((2, 4, 3, 3), (2,))]

        def run(fused, grad):
            tx, *tp = leaves = [Tensor(a, requires_grad=grad) for a in (x, *params)]
            if fused:
                out = T.conv2d(
                    tx, tp[0], tp[1], padding=1, activation="leaky_relu",
                    negative_slope=slope, border=int(chained),
                )  # fmt: skip
            else:
                out = T.leaky_relu(T.conv2d(tx, tp[0], tp[1], padding=1), negative_slope=slope)
            if chained:
                out = T.conv2d(out, tp[2], tp[3], padding=1)
            if not grad:
                return [out.data]
            out.backward(g)
            return [out.data] + [t.grad for t in leaves]

        with np.errstate(invalid="ignore", over="ignore"):
            with no_grad():
                evaluated = zip(run(True, False), run(False, False))
            trained = zip(run(True, True), run(False, True))
            for got, want in [*evaluated, *trained]:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_unknown_activation_raises(self, rng):
        with pytest.raises(ConfigurationError):
            T.conv2d(
                Tensor(rng.standard_normal((1, 1, 4, 4))),
                Tensor(rng.standard_normal((1, 1, 3, 3))),
                activation="gelu",
            )

    @pytest.mark.parametrize("slope", [-0.1, np.nan])
    def test_slope_below_zero_raises(self, rng, slope):
        """The epilogue and the mask's rebuilt factor hold for slopes >= 0
        only (a negative one gave a wrong input gradient): refused."""
        x, w = (Tensor(rng.standard_normal(s)) for s in ((1, 1, 4, 4), (1, 1, 3, 3)))
        with pytest.raises(ConfigurationError, match="slope >= 0"):
            T.conv2d(x, w, padding=1, activation="leaky_relu", negative_slope=slope)

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
