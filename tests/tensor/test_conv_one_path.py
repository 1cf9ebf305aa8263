"""One stride-1 conv kernel at every size.

A sweep over the block sizes a strong-scaling run produces (8² … 132²,
both sides of the patch-matrix size that used to switch kernels),
batch sizes 1 / 4 / 16, the paper's four Table-I layers and both
precisions: the no-grad op agrees with ``conv2d_reference``, the
compiled plan is bit-equal to the module forward and stops allocating
after its first run, and no stride-1 shape ever reaches the monolithic
``im2col`` — with or without autograd, with or without an arena.
"""

import numpy as np
import pytest

import repro.tensor as T
from repro.core import InferencePlan, build_paper_cnn
from repro.tensor import Tensor, no_grad, ops_conv, precision, workspace_disabled

#: (C, F) of the paper's four Table-I layers, 5x5 kernels.
TABLE1 = [(4, 6), (6, 16), (16, 6), (6, 4)]
K = 5

#: (block side, batch): every batch size up to 32², then capped so the
#: reference's patch matrix stays ~50 MB (16 x 32², 4 x 64², 1 x 132²).
SHAPES = [
    (side, n)
    for side in (8, 16, 32, 64, 96, 132)
    for n in (1, 4, 16)
    if n * side * side <= 132 * 132
]


def summand_atol(x, w):
    """Worst-case rounding of a ``taps``-term dot product: every partial
    sum is bounded by ``taps * |x|max * |w|max``, whatever the output's
    own magnitude after cancellation."""
    taps = w[0].size
    return taps * np.finfo(x.dtype).eps * np.abs(x).max() * np.abs(w).max()


@pytest.fixture
def no_im2col(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("monolithic im2col reached from a stride-1 conv")

    monkeypatch.setattr(ops_conv, "im2col", refuse)


@pytest.mark.parametrize("mode", ["float64", "float32"])
@pytest.mark.parametrize(("c", "f"), TABLE1)
@pytest.mark.parametrize(("side", "n"), SHAPES)
def test_no_grad_op_matches_reference(rng, side, n, c, f, mode):
    with precision(mode), no_grad():
        x = Tensor(rng.standard_normal((n, c, side, side)))
        w = Tensor(rng.standard_normal((f, c, K, K)))
        b = Tensor(rng.standard_normal(f))
        got = T.conv2d(x, w, b, padding=2, activation="leaky_relu", negative_slope=0.1)
        want = ops_conv.conv2d_reference(
            x, w, b, (1, 1), (2, 2), "leaky_relu", 0.1, (x, w, b)
        )
    assert got.dtype == want.dtype == x.dtype
    np.testing.assert_allclose(
        got.data,
        want.data,
        rtol=1e-12 if mode == "float64" else 0.0,
        atol=summand_atol(x.data, w.data),
    )


@pytest.mark.parametrize("mode", ["float64", "float32"])
@pytest.mark.parametrize(("side", "n"), SHAPES)
def test_plan_is_the_module_forward_and_stops_allocating(rng, no_im2col, side, n, mode):
    with precision(mode):
        model = build_paper_cnn("neighbor_first", rng=np.random.default_rng(side + n))
        halo = model.input_halo
        x = Tensor(rng.standard_normal((n, 4, side + 2 * halo, side + 2 * halo))).data
        with no_grad():
            expected = model(Tensor(x)).data
            with workspace_disabled():
                cold = model(Tensor(x)).data
    plan = InferencePlan(model)
    first = plan.run(x)
    created = plan.workspace.stats.buffers_created
    second = plan.run(x)
    assert plan.workspace.stats.buffers_created == created
    for got in (first, second, cold):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("requires_grad", [False, True])
@pytest.mark.parametrize(("c", "f"), TABLE1)
def test_no_stride_one_shape_reaches_im2col(rng, no_im2col, c, f, requires_grad):
    for side, n in SHAPES:
        if n > 1 and side > 32:
            continue  # the rule does not look at the batch; keep training cases small
        x = Tensor(rng.standard_normal((n, c, side, side)), requires_grad=requires_grad)
        w = Tensor(rng.standard_normal((f, c, K, K)), requires_grad=requires_grad)
        for padding in (0, 2, 4):
            out = T.conv2d(x, w, padding=padding)
            with workspace_disabled():
                assert np.array_equal(T.conv2d(x, w, padding=padding).data, out.data)
        if requires_grad:
            out.sum().backward()
    with pytest.raises(AssertionError, match="im2col reached"):  # the fixture bites
        ops_conv.conv2d_reference(x, w, None, (1, 1), (0, 0), None, 0.01, (x, w))
