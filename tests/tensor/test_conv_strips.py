"""The stride-1 autograd conv2d path: strip forward, recompute-in-backward.

Parity is against :func:`repro.tensor.ops_conv.conv2d_reference` (the
monolithic im2col + col2im pair), with the strip budget shrunk so every
case is cut into several strips and a ragged last one.
"""

import tracemalloc
import types

import numpy as np
import pytest

import repro.tensor as T
from repro.analysis import gradcheck as gradcheck_fn
from repro.core import CNNConfig, PaddingStrategy, SubdomainCNN
from repro.exceptions import ConfigurationError, ShapeError
from repro.nn import fuse_leaky_relu
from repro.tensor import Tensor, blocked, ops_conv, precision, workspace_disabled

#: (C, F) of the paper's four Table-I layers, 5x5 kernels.
TABLE1 = [(4, 6), (6, 16), (16, 6), (6, 4)]
H, W, K = 13, 11, 5


def run_backward(op, x, w, b, seed_grad):
    tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = op(tx, tw, tb)
    out.backward(seed_grad)
    return out, (out.data, tx.grad, tw.grad, tb.grad)


def reference(padding, activation):
    def op(tx, tw, tb):
        return ops_conv.conv2d_reference(
            tx, tw, tb, (1, 1), (padding, padding), activation, 0.1, (tx, tw, tb)
        )

    return op


def strips(padding, activation):
    def op(tx, tw, tb):
        return T.conv2d(
            tx, tw, tb, padding=padding, activation=activation, negative_slope=0.1
        )

    return op


def case_arrays(rng, n, c, f, padding, dtype):
    oh, ow = H + 2 * padding - K + 1, W + 2 * padding - K + 1
    arrays = (
        rng.standard_normal((n, c, H, W)),
        rng.standard_normal((f, c, K, K)),
        rng.standard_normal(f),
        rng.standard_normal((n, f, oh, ow)),
    )
    return [a.astype(dtype) for a in arrays]


def set_budget(monkeypatch, nbytes):
    """Both strip budgets, forward-only and training, to ``nbytes``."""
    monkeypatch.setattr(blocked, "_FORWARD_STRIP_BYTES", nbytes)
    monkeypatch.setattr(blocked, "_TRAIN_STRIP_BYTES", nbytes)


@pytest.fixture
def tiny_strips(monkeypatch):
    """One output row (its K input rows) per strip for every shape in
    this file: the budget's floor."""
    set_budget(monkeypatch, 1 << 12)


def fix_strip_rows(monkeypatch, rows):
    """``rows`` output rows per strip whatever the shape: seams, and a
    ragged last strip where ``oh % rows != 0``."""
    monkeypatch.setattr(
        blocked, "_strip_rows", lambda budget, ow, width, kh, size, oh, extra=0: min(oh, rows)
    )


@pytest.fixture
def strips_drawn(monkeypatch):
    """Strips yielded by each ``patch_strips`` call made by the kernels."""
    drawn = []
    original = blocked.patch_strips

    def counting(*args, **kwargs):
        count = 0
        for strip in original(*args, **kwargs):
            count += 1
            yield strip
        drawn.append(count)

    monkeypatch.setattr(blocked, "patch_strips", counting)
    return drawn


class TestParityWithReference:
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("activation", [None, "leaky_relu"])
    @pytest.mark.parametrize("padding", [0, 2])
    @pytest.mark.parametrize(("c", "f"), TABLE1)
    @pytest.mark.parametrize(("mode", "rtol"), [("float64", 1e-10), ("float32", 1e-4)])
    def test_output_and_all_gradients(
        self, rng, monkeypatch, mode, rtol, c, f, padding, activation, n
    ):
        with precision(mode):
            dtype = T.default_dtype()
            x, w, b, g = case_arrays(rng, n, c, f, padding, dtype)
            oh, ow = g.shape[2:]
            # Two output rows (2 + K - 1 input rows of C*K taps and the
            # bias tap) per forward strip; oh is odd, so at least five
            # strips per image with a ragged last one.
            itemsize = np.dtype(dtype).itemsize
            budget = (2 + K - 1) * ow * (c * K + 1) * itemsize
            set_budget(monkeypatch, budget)
            assert blocked._strip_rows(budget, ow, c * K + 1, K, itemsize, oh) == 2
            assert oh >= 9 and oh % 2 == 1
            _, got = run_backward(strips(padding, activation), x, w, b, g)
            _, want = run_backward(reference(padding, activation), x, w, b, g)
        for name, a, r in zip(("out", "grad_x", "grad_w", "grad_b"), got, want):
            assert a.dtype == dtype, f"{name} left {mode}"
            assert a.shape == r.shape
            np.testing.assert_allclose(
                a, r, rtol=rtol, atol=rtol * np.abs(r).max(), err_msg=name
            )

    def test_partial_requires_grad(self, rng, tiny_strips):
        """Frozen input (the first layer) or frozen weights: the missing
        gradient is skipped, the others are unchanged."""
        x, w, b, g = case_arrays(rng, 2, 4, 6, 0, np.float64)
        _, (_, full_x, full_w, full_b) = run_backward(strips(0, None), x, w, b, g)
        tw, tb = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
        T.conv2d(Tensor(x), tw, tb).backward(g)
        assert np.array_equal(tw.grad, full_w) and np.array_equal(tb.grad, full_b)
        tx = Tensor(x, requires_grad=True)
        T.conv2d(tx, Tensor(w), Tensor(b)).backward(g)
        assert np.array_equal(tx.grad, full_x)

    def test_non_contiguous_seed_gradient(self, rng, tiny_strips):
        x, w, b, g = case_arrays(rng, 2, 6, 4, 2, np.float64)
        _, want = run_backward(strips(2, "leaky_relu"), x, w, b, g)
        strided = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        assert not strided.flags.c_contiguous
        _, got = run_backward(strips(2, "leaky_relu"), x, w, b, strided)
        for a, r in zip(got, want):
            assert np.array_equal(a, r)

    def test_arena_provenance_does_not_change_bits(self, rng, tiny_strips):
        """Thread-backed ranks each own an arena and ``workspace_disabled``
        has none: the arithmetic must not depend on where scratch lives."""
        x, w, b, g = case_arrays(rng, 3, 6, 16, 2, np.float64)
        _, warm = run_backward(strips(2, "leaky_relu"), x, w, b, g)
        with workspace_disabled():
            _, cold = run_backward(strips(2, "leaky_relu"), x, w, b, g)
        for a, r in zip(warm, cold):
            assert np.array_equal(a, r)


class TestBiasTap:
    """The bias is one more GEMM tap: every strip-buffer row ends in a
    run of 1.0, and the repacked weights hold the bias at ``dy = 0`` and
    zero at ``dy > 0``.  No pass adds it afterwards."""

    @staticmethod
    def arrays(rng, padding):
        x, w, b, g = case_arrays(rng, 2, 6, 16, padding, np.float64)
        return x, w, b + 3.0 * np.sign(b), g  # a bias that dominates the sum

    @pytest.mark.parametrize("grad", [False, True], ids=["no_grad", "training"])
    @pytest.mark.parametrize("activation", [None, "leaky_relu"])
    @pytest.mark.parametrize("padding", [0, 2])
    def test_matches_reference(self, rng, tiny_strips, padding, activation, grad):
        x, w, b, g = self.arrays(rng, padding)
        if grad:
            _, got = run_backward(strips(padding, activation), x, w, b, g)
            _, want = run_backward(reference(padding, activation), x, w, b, g)
        else:
            with T.no_grad():
                got = [strips(padding, activation)(*map(Tensor, (x, w, b))).data]
                want = [reference(padding, activation)(*map(Tensor, (x, w, b))).data]
        for a, r in zip(got, want):
            np.testing.assert_allclose(a, r, rtol=1e-10, atol=1e-10 * np.abs(r).max())

    @pytest.mark.parametrize("activation", [None, "leaky_relu"])
    def test_no_arena_and_garbage_scratch_change_no_bit(self, rng, monkeypatch, activation):
        """Without an arena ``scratch()`` is ``np.empty``, so the ones and
        the zero ``dy > 0`` weights must be written, not inherited from
        a zero-filled buffer; scratch full of NaN proves they are."""
        x, w, b, g = self.arrays(rng, 2)
        op = strips(2, activation)
        with T.no_grad():
            warm = op(*map(Tensor, (x, w, b))).data
            with workspace_disabled():
                cold = op(*map(Tensor, (x, w, b))).data
        _, trained = run_backward(op, x, w, b, g)
        monkeypatch.setattr(
            blocked,
            "scratch",
            lambda ws, slot, shape, dtype, shared=False: np.full(shape, np.nan, dtype),
        )
        with T.no_grad():
            garbage = op(*map(Tensor, (x, w, b))).data
        _, garbage_trained = run_backward(op, x, w, b, g)
        assert np.array_equal(cold, warm) and np.array_equal(garbage, warm)
        for a, r in zip(garbage_trained, trained):
            assert np.array_equal(a, r)

    def test_input_gradient_has_no_tap(self, rng, monkeypatch):
        """The bias tap widens a biased forward's strip rows by one; the
        input gradient is a bias-free forward and keeps ``C*kw`` taps."""
        widths = []
        original = blocked.patch_strips

        def spy(source, kernel, *args, bias_tap=False, **kwargs):
            widths.append((source.shape[1], bias_tap))
            return original(source, kernel, *args, bias_tap=bias_tap, **kwargs)

        monkeypatch.setattr(blocked, "patch_strips", spy)
        x, w, b, g = self.arrays(rng, 2)
        run_backward(strips(2, None), x, w, b, g)
        # forward (6 channels, biased), weight gradient, input gradient (16, none)
        assert widths == [(6, True), (6, False), (16, False)]


def closure_arrays(fn, seen=None):
    """Every ndarray reachable from a closure's cells (through tensors,
    containers and nested closures)."""
    seen = set() if seen is None else seen
    found = []
    stack = [cell.cell_contents for cell in (fn.__closure__ or ())]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, Tensor):
            stack.append(obj.data)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, types.FunctionType):
            found.extend(closure_arrays(obj, seen))
    return found


def owner(array):
    while array.base is not None and isinstance(array.base, np.ndarray):
        array = array.base
    return array


def owner_nbytes(array):
    return owner(array).nbytes


def graph_nodes(out):
    """Every recorded op output reachable from ``out``."""
    nodes, stack, seen = [], [out], set()
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


class TestRetention:
    @pytest.mark.parametrize("activation", [None, "leaky_relu"])
    def test_backward_closure_holds_nothing_patch_sized(self, rng, activation):
        x, w, b, _ = case_arrays(rng, 3, 16, 6, 2, np.float64)
        tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = T.conv2d(tx, tw, tb, padding=2, activation=activation)
        limit = max(x.nbytes, out.data.nbytes)
        held = closure_arrays(out._backward)
        assert held, "the walk found no arrays at all"
        assert max(owner_nbytes(a) for a in held) <= limit
        # ... which is far below the patch matrix the old path kept.
        assert out.data.size // 6 * 16 * K * K * 8 > 10 * limit

    @pytest.mark.parametrize("strategy", list(PaddingStrategy), ids=lambda s: s.value)
    def test_model_graph_holds_no_pre_activation(self, rng, strategy):
        """A whole network forward records one node per conv, and a conv
        node's closure holds, beside the parameters, only its input and —
        when a leaky ReLU is fused — one bool mask bordered like the
        output, a byte per element; the output is the node's own data.
        No pre-activation, and no float derivative, survives."""
        model = SubdomainCNN(CNNConfig(strategy=strategy), rng=rng)
        halo = model.input_halo
        x = rng.standard_normal((2, 4, 24 + 2 * halo, 24 + 2 * halo))
        out = model(Tensor(x, requires_grad=True))
        slopes = {id(m.weight): s for m, s in fuse_leaky_relu(model.layers)}
        params = {id(owner(p.data)) for p in model.parameters()}
        nodes = graph_nodes(out)
        ops = sorted(node.op_name for node in nodes)
        assert ops == ["conv2d"] * 4
        for node in (n for n in nodes if n.op_name == "conv2d"):
            source = owner(node._parents[0].data)
            held = {id(a): a for a in map(owner, closure_arrays(node._backward))}
            assert id(source) in held
            rest = [a for key, a in held.items() if key not in params and a is not source]
            assert len(rest) == (slopes[id(node._parents[1])] is not None)
            out = node.data if node.bordered is None else node.bordered
            assert all(a.shape == out.shape and a.dtype == np.bool_ for a in rest)

    def test_the_walk_sees_the_reference_patch_matrix(self, rng):
        """Guards the guard: on the reference path the same walk does
        find the retained ``(N*OH*OW, C*kh*kw)`` matrix."""
        x, w, b, _ = case_arrays(rng, 3, 16, 6, 2, np.float64)
        tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = reference(2, None)(tx, tw, tb)
        patch_elements = out.data.size // 6 * 16 * K * K
        assert any(a.size == patch_elements for a in closure_arrays(out._backward))


#: Outside the strip rule (stride 1 and padding < kernel): conv2d
#: keyword arguments with the (x, weight, bias) shapes to call it on.
OUTSIDE_THE_RULE = {
    "stride-2": (dict(stride=2, padding=1), ((2, 3, 7, 6), (4, 3, 3, 3), (4,))),
    "padding>=kernel": (dict(padding=(2, 1)), ((1, 2, 4, 5), (3, 2, 2, 3), (3,))),
    "stride-2-along-width": (dict(stride=(1, 2)), ((1, 2, 6, 6), (3, 2, 3, 3), (3,))),
    "padding>=kernel-width": (dict(padding=(0, 3)), ((1, 2, 4, 5), (3, 2, 2, 3), (3,))),
}


class TestKernelRule:
    """One observable rule, the same with and without autograd: stride 1
    and padding < kernel run the strip kernels, everything else is
    refused."""

    @pytest.fixture
    def no_strip_kernels(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("strip kernel reached from a reference-path shape")

        monkeypatch.setattr(ops_conv, "conv2d_forward_blocked", refuse)
        monkeypatch.setattr(ops_conv, "conv2d_weight_grad_blocked", refuse)

    @pytest.fixture
    def no_reference_kernels(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("reference kernel reached from a stride-1 shape")

        monkeypatch.setattr(ops_conv, "im2col", refuse)
        monkeypatch.setattr(ops_conv, "col2im", refuse)

    @pytest.mark.parametrize("label", OUTSIDE_THE_RULE)
    def test_outside_the_rule_raises(self, rng, no_strip_kernels, no_reference_kernels, label):
        """Refused before any kernel runs, with and without autograd."""
        kwargs, shapes = OUTSIDE_THE_RULE[label]
        x, w, b = (rng.standard_normal(s) for s in shapes)
        with pytest.raises(ConfigurationError, match="stride 1 and padding < kernel"):
            T.conv2d(*(Tensor(a, requires_grad=True) for a in (x, w, b)), **kwargs)
        with T.no_grad(), pytest.raises(ConfigurationError):
            T.conv2d(Tensor(x), Tensor(w), Tensor(b), **kwargs)

    @pytest.mark.parametrize("requires_grad", [True, False])
    def test_stride_one_does_use_the_strip_kernels(
        self, rng, no_strip_kernels, requires_grad
    ):
        x, w, b, _ = case_arrays(rng, 1, 4, 6, 0, np.float64)
        with pytest.raises(AssertionError, match="strip kernel reached"):
            T.conv2d(Tensor(x, requires_grad=requires_grad), Tensor(w), Tensor(b))

    @pytest.mark.parametrize("arena", [True, False])
    @pytest.mark.parametrize("requires_grad", [True, False])
    def test_stride_one_never_reaches_the_reference_kernels(
        self, rng, no_reference_kernels, requires_grad, arena
    ):
        """Neither the image size nor a missing arena sends a stride-1
        shape anywhere else."""
        x, w, b, g = case_arrays(rng, 2, 16, 6, 2, np.float64)
        tx = Tensor(x, requires_grad=requires_grad)
        if arena:
            out = T.conv2d(tx, Tensor(w), Tensor(b), padding=2)
        else:
            with workspace_disabled():
                out = T.conv2d(tx, Tensor(w), Tensor(b), padding=2)
        if requires_grad:
            out.backward(g)
            assert tx.grad.shape == x.shape


class TestPaddedScratch:
    def test_padded_slots_keyed_by_split(self, rng):
        """Two calls with the same padded shape but different (ph, pw)
        splits must not share a padded scratch buffer: the zero borders
        live in different places and only the interior is rewritten, so
        a shared buffer would leak one call's interior into the other's
        border."""
        ws = T.Workspace()
        w = rng.standard_normal((2, 1, 3, 3))
        x_a = rng.standard_normal((1, 1, 6, 8))  # padded to 8x8 via (1, 0)
        x_b = rng.standard_normal((1, 1, 8, 6))  # padded to 8x8 via (0, 1)

        def run(x, padding, workspace):
            return blocked.conv2d_forward_blocked(
                x, w, None, padding, workspace=workspace, slot_prefix="test"
            )

        ref_a, ref_b = run(x_a, (1, 0), None), run(x_b, (0, 1), None)
        assert np.array_equal(run(x_a, (1, 0), ws), ref_a)
        assert np.array_equal(run(x_b, (0, 1), ws), ref_b)
        assert np.array_equal(run(x_a, (1, 0), ws), ref_a)
        slots = {key[0] for key in ws._buffers}
        assert {"test.padded.1x0", "test.padded.0x1"} <= slots


class TestSeamGradcheckCase:
    @pytest.mark.parametrize("mode", ["float64", "float32"])
    def test_registry_case_crosses_a_seam_at_the_default_budget(self, strips_drawn, mode):
        """The ``strip-seam`` registry case must really be cut into
        several strips with the shipped budget, at both precisions —
        otherwise ``repro check`` would silently stop covering seams."""
        from repro.analysis.gradcheck import OP_CASES

        (seam,) = [case for case in OP_CASES["conv2d"] if case.label == "strip-seam"]
        with precision(mode):
            fn, arrays = seam.build(np.random.default_rng(7))
            out = fn(*[Tensor(a, requires_grad=True) for a in arrays])
            out.sum().backward()
        # forward, weight gradient, input gradient — each of one image
        assert len(strips_drawn) == 3 and min(strips_drawn) >= 2, strips_drawn


#: What the row layout makes special: (x shape, weight shape, padding).
#: The strip buffer holds whole input rows of ``kw`` shifts, so the
#: corner cases are few columns, few rows, non-square kernels and
#: padding on one axis only.
ROW_LAYOUT_CASES = {
    "ow=1<kw": ((2, 3, 9, 5), (4, 3, 5, 5), (0, 0)),
    "ow=3<kw": ((2, 3, 9, 7), (4, 3, 5, 5), (0, 0)),
    "one-output-row": ((2, 3, 5, 12), (4, 3, 5, 5), (0, 0)),
    "one-output-element": ((1, 2, 5, 5), (3, 2, 5, 5), (0, 0)),
    "kernel-3x5": ((2, 3, 9, 10), (4, 3, 3, 5), (1, 2)),
    "kernel-5x3": ((2, 3, 10, 9), (4, 3, 5, 3), (2, 1)),
    "pad-rows-only": ((2, 3, 8, 11), (4, 3, 5, 5), (2, 0)),
    "pad-cols-only": ((2, 3, 11, 8), (4, 3, 5, 5), (0, 2)),
    "n=3-ragged": ((3, 4, 15, 12), (6, 4, 5, 5), (0, 0)),
    # per-rank blocks of a (3, 3) pgrid on 32^2 (11 = ceil(32/3)) and of
    # a (2, 4) one, with the Table-I halo of 8
    "block-11x11": ((1, 4, 27, 27), (6, 4, 5, 5), (0, 0)),
    "block-16x8": ((1, 4, 32, 24), (6, 4, 5, 5), (0, 0)),
}


class TestRowLayoutCases:
    @pytest.fixture
    def three_row_strips(self, monkeypatch):
        fix_strip_rows(monkeypatch, 3)

    @staticmethod
    def arrays(rng, label, dtype):
        x_shape, w_shape, padding = ROW_LAYOUT_CASES[label]
        x, w = rng.standard_normal(x_shape), rng.standard_normal(w_shape)
        b = rng.standard_normal(w_shape[0])
        return [a.astype(dtype) for a in (x, w, b)], padding

    @pytest.mark.parametrize("label", ROW_LAYOUT_CASES)
    @pytest.mark.parametrize(("mode", "rtol"), [("float64", 1e-10), ("float32", 1e-4)])
    def test_matches_reference(self, rng, three_row_strips, mode, rtol, label):
        with precision(mode):
            (x, w, b), padding = self.arrays(rng, label, T.default_dtype())

            def strip_op(tx, tw, tb):
                return T.conv2d(tx, tw, tb, padding=padding, activation="leaky_relu")

            def reference_op(tx, tw, tb):
                return ops_conv.conv2d_reference(
                    tx, tw, tb, (1, 1), padding, "leaky_relu", 0.01, (tx, tw, tb)
                )

            g = rng.standard_normal(strip_op(Tensor(x), Tensor(w), Tensor(b)).shape)
            g = g.astype(x.dtype)
            _, got = run_backward(strip_op, x, w, b, g)
            _, want = run_backward(reference_op, x, w, b, g)
        for name, a, r in zip(("out", "grad_x", "grad_w", "grad_b"), got, want):
            assert a.dtype == r.dtype and a.shape == r.shape, name
            np.testing.assert_allclose(
                a, r, rtol=rtol, atol=rtol * np.abs(r).max(), err_msg=name
            )

    @pytest.mark.parametrize("label", ROW_LAYOUT_CASES)
    def test_gradchecks(self, rng, three_row_strips, label):
        (x, w, b), padding = self.arrays(rng, label, np.float64)
        gradcheck_fn(lambda tx, tw, tb: T.conv2d(tx, tw, tb, padding=padding), [x, w, b])

    @pytest.mark.parametrize(
        "label",
        # Conv2d modules take one kernel size and one padding
        [k for k, (_, w, p) in ROW_LAYOUT_CASES.items() if w[2] == w[3] and p[0] == p[1]],
    )
    def test_plan_op_and_no_arena_agree_bitwise(self, rng, label):
        from repro.core.inference import InferencePlan
        from repro.nn import Conv2d, LeakyReLU, Sequential

        (x, w, b), padding = self.arrays(rng, label, np.float64)
        layer = Conv2d(w.shape[1], w.shape[0], w.shape[2], padding=padding[0])
        layer.weight.data[...] = w
        layer.bias.data[...] = b
        model = Sequential(layer, LeakyReLU(0.01))
        with T.no_grad():
            op = model(Tensor(x)).data
            with workspace_disabled():
                cold = model(Tensor(x)).data
        plan = InferencePlan(model)
        assert np.array_equal(plan.run(x), op)
        assert np.array_equal(cold, op)


class TestGemmOperands:
    """``np.matmul`` hands an operand to BLAS only when its inner stride
    is one element and its row stride is a multiple of the itemsize
    and at least one row long (either way round: a transposed matrix
    counts); anything else silently runs NumPy's scalar loop, ~50x
    slower.  The stacked views must stay inside that class."""

    @staticmethod
    def blas_eligible(matrix_shape, matrix_strides, itemsize):
        (rows, cols), (row_stride, col_stride) = matrix_shape, matrix_strides

        def dense_rows(n_cols, outer, inner):
            return inner == itemsize and outer % itemsize == 0 and outer >= n_cols * itemsize

        return dense_rows(cols, row_stride, col_stride) or dense_rows(
            rows, col_stride, row_stride
        )

    @pytest.fixture
    def matmul_calls(self, monkeypatch):
        calls = []
        real = np.matmul

        def spy(a, b, out=None):
            calls.append((a, b, out))
            return real(a, b, out=out)

        monkeypatch.setattr(blocked.np, "matmul", spy)
        yield calls

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("padding", [0, 2])
    def test_every_operand_is_blas_eligible(
        self, rng, monkeypatch, matmul_calls, dtype, padding
    ):
        fix_strip_rows(monkeypatch, 4)
        x, w, b, g = case_arrays(rng, 2, 6, 16, padding, dtype)
        with precision("float32" if dtype == np.float32 else "float64"):
            run_backward(strips(padding, None), x, w, b, g)
        # forward and input gradient: 2 images x 3 strips (oh = 9 or
        # 13, the latter with a ragged last strip); weight gradient too
        assert len(matmul_calls) >= 18
        itemsize = np.dtype(dtype).itemsize
        for a, b_, out in matmul_calls:
            assert out is not None, "a matmul result was freshly allocated"
            for operand in (a, b_, out):
                assert operand.dtype == dtype
                assert self.blas_eligible(
                    operand.shape[-2:], operand.strides[-2:], itemsize
                ), (operand.shape, operand.strides)
            # The batch axis is walked by NumPy, one GEMM per index; it
            # only has to be a whole number of elements.
            for operand in (b_, out):
                if operand.ndim == 3:
                    assert operand.strides[0] % itemsize == 0

    def test_the_predicate_rejects_a_strided_inner_axis(self):
        full = np.zeros((4, 10))
        for eligible in (full, full.T, full[:, :5]):
            assert self.blas_eligible(eligible.shape, eligible.strides, 8)
        for strided in (full[:, ::2], full[:, ::2].T):
            assert not self.blas_eligible(strided.shape, strided.strides, 8)


class TestStripCount:
    def test_strips_per_plan_run_at_the_forward_budget(self, rng, strips_drawn):
        """``rollout_euler256``'s per-rank block, 256x128 under the
        default strategy: 1 MiB strips, which count an activated layer's
        work strip and its twin, cut its four layers into 10 + 19 + 37 +
        9 = 75 (the training budget would cut 181), all drawn when the
        plan binds and none by a warm run."""
        from repro.core.inference import InferencePlan
        from repro.core.model import SubdomainCNN
        from repro.scenarios import cnn_config

        model = SubdomainCNN(cnn_config("euler-gaussian"))
        halo = model.input_halo
        plan = InferencePlan(model)
        x = rng.standard_normal((1, 4, 256 + 2 * halo, 128 + 2 * halo))
        plan.run(x)
        assert strips_drawn == [10, 19, 37, 9], strips_drawn
        plan.run(x)
        assert sum(strips_drawn) == 75

    def test_strips_per_training_step_at_the_shipped_budget(self, rng, strips_drawn):
        """``train_seq96``'s step — the Table-I network on a 16x4x100x100
        batch — drew 7,296 strips of full patches (one output row each
        on the 16-channel layer); row patches fit about four times the
        output rows in the same 512 KiB."""
        from repro.core.model import SubdomainCNN
        from repro.scenarios import cnn_config

        model = SubdomainCNN(cnn_config("euler-gaussian"))
        images = 2  # strips are drawn per image: 16 images draw 8x as many
        out = model(Tensor(rng.standard_normal((images, 4, 100, 100))))
        out.sum().backward()
        assert out.shape == (images, 4, 96, 96)
        assert sum(strips_drawn) * 16 // images == 1824


class TestStripBudgets:
    """Forward-only calls cut 1 MiB strips, training calls 512 KiB; each
    output row is one GEMM either way, so the budgets change no bit."""

    @pytest.mark.parametrize("mode", ["float64", "float32"])
    def test_training_and_forward_only_strips_agree_bitwise(self, rng, strips_drawn, mode):
        with precision(mode):
            x = Tensor(rng.standard_normal((1, 6, 259, 132)))
            w = Tensor(rng.standard_normal((16, 6, K, K)))
            b = Tensor(rng.standard_normal(16))
            with T.no_grad():
                forward_only = T.conv2d(x, w, b, padding=2, activation="leaky_relu")
            w.requires_grad = True
            training = T.conv2d(x, w, b, padding=2, activation="leaky_relu")
        # The forward-only strip also holds its work strip and the
        # scaled twin, 2*F*OW elements per output row.
        rows = [
            blocked._strip_rows(budget, 132, 6 * K + 1, K, x.data.itemsize, 259, extra)
            for budget, extra in (
                (blocked._FORWARD_STRIP_BYTES, 2 * 16 * 132),
                (blocked._TRAIN_STRIP_BYTES, 0),
            )
        ]
        assert strips_drawn == [-(-259 // r) for r in rows]
        assert strips_drawn == {"float64": [20, 22], "float32": [9, 10]}[mode]
        # different seams, and a ragged last strip on both sides
        assert rows[0] > rows[1] and all(259 % r for r in rows), rows
        assert np.array_equal(forward_only.data, training.data)

    def test_out_of_another_dtype_is_refused(self, rng):
        x = rng.standard_normal((1, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        with pytest.raises(ShapeError, match="float64"):
            blocked.conv2d_forward_blocked(x, w, None, (1, 1), out=np.empty((1, 3, 6, 6), np.float32))
        out = np.empty((1, 3, 6, 6))
        assert blocked.conv2d_forward_blocked(x, w, None, (1, 1), out=out) is out


def chained_step(model, x, y):
    """One training step's output, input gradient and parameter
    gradients, then a no-grad forward of the same input."""
    model.zero_grad()
    tx = Tensor(x, requires_grad=True)
    out = model(tx)
    ((out - Tensor(y)) ** 2).sum().backward()
    with T.no_grad():
        evaluated = model(Tensor(x)).data
    return [out.data, tx.grad, evaluated] + [p.grad.copy() for p in model.parameters()]


def table1_case(rng, strategy, n=2, size=20):
    model = SubdomainCNN(CNNConfig(strategy=strategy), rng=rng)
    for param in model.parameters():
        if param.ndim == 1:
            param.data[...] = rng.uniform(-0.5, 0.5, param.shape)
    halo = model.input_halo
    x = rng.standard_normal((n, 4, size + 2 * halo, size + 3 + 2 * halo))
    y = rng.standard_normal((n, 4, size, size + 3))
    return model, x, y


#: The strategies whose padded convs chain (every other one is all-valid).
CHAINED = [PaddingStrategy.NEIGHBOR_FIRST, PaddingStrategy.ZERO]


class TestZeroBorderProvenance:
    """A conv reads its input as an already padded source only when the
    op that zeroed the border marked it on the tensor; any other input
    is pad-copied, whatever array its data is a view of."""

    @pytest.mark.parametrize("grad", [False, True], ids=["no_grad", "training"])
    def test_view_into_a_nonzero_border_is_pad_copied(self, rng, tiny_strips, grad):
        x, w, b, g = case_arrays(rng, 2, 6, 16, 2, np.float64)
        framed = np.full((2, 6, H + 4, W + 4), 7.0)  # the padding's shape, not zero
        framed[:, :, 2:-2, 2:-2] = x
        view = framed[:, :, 2:-2, 2:-2]
        op = strips(2, "leaky_relu")
        if grad:
            _, got = run_backward(op, view, w, b, g)
            _, want = run_backward(op, x.copy(), w, b, g)
        else:
            with T.no_grad():
                got = [op(Tensor(view), Tensor(w), Tensor(b)).data]
                want = [op(Tensor(x.copy()), Tensor(w), Tensor(b)).data]
        for a, r in zip(got, want):
            assert np.array_equal(a, r)

    @pytest.mark.parametrize("edit", ["other-padding", "flipped-view", "detached"])
    def test_a_mark_that_does_not_fit_is_not_used(self, rng, tiny_strips, edit):
        """A marked result fed to a conv of another padding, one whose
        data became another view of the same buffer, and its detached
        copy are all pad-copied."""
        x, w, b, _ = case_arrays(rng, 2, 6, 16, 2, np.float64)
        w2 = rng.standard_normal((3, 16, 3, 3))
        padding = 1 if edit == "other-padding" else 2
        with T.no_grad():
            lead = T.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=2, border=2)
            assert lead.bordered is not None and lead.bordered.shape == (2, 16, H + 4, W + 4)
            if edit == "flipped-view":
                lead.data = lead.bordered[:, :, ::-1, ::-1][:, :, 2:-2, 2:-2]
            elif edit == "detached":
                lead = lead.detach()
                assert lead.bordered is None
            want = T.conv2d(Tensor(lead.data.copy()), Tensor(w2), padding=padding).data
            got = T.conv2d(lead, Tensor(w2), padding=padding).data
        assert np.array_equal(got, want)

    def test_gradient_sources_are_keyed_by_split(self, rng, tiny_strips):
        """A same-padded and a valid conv of one input shape pad their
        output gradients to one shape, ``(N, F, H + 4, W + 4)``, with
        2 and 4 border lines.  Run alternately in one thread — one
        arena — each must still give the reference input gradient: a
        shared buffer would hand the valid conv the same-padded one's
        interior as border."""
        x, w, b, _ = case_arrays(rng, 2, 6, 16, 0, np.float64)
        for padding in (2, 0, 2, 0):
            g = rng.standard_normal((2, 16, H + 2 * padding - K + 1, W + 2 * padding - K + 1))
            _, got = run_backward(strips(padding, "leaky_relu"), x, w, b, g)
            _, want = run_backward(reference(padding, "leaky_relu"), x, w, b, g)
            np.testing.assert_allclose(got[1], want[1], rtol=1e-10, atol=1e-10)
        sources = [key for key in T.get_workspace()._buffers if key[0] == "conv2d.train.gsrc"]
        assert [key[2] for key in sources].count(np.float64) == 1  # both splits shared it

    @pytest.mark.parametrize("strategy", CHAINED, ids=lambda s: s.value)
    def test_no_arena_run_equals_arena_run_bitwise(self, rng, monkeypatch, strategy):
        """Without an arena every zero border must be freshly zeroed:
        the run also hands the kernels NaN-filled scratch, so a border
        taken from uninitialized memory would show."""
        model, x, y = table1_case(rng, strategy)
        warm = chained_step(model, x, y)
        monkeypatch.setattr(
            blocked,
            "scratch",
            lambda ws, slot, shape, dtype, shared=False: np.full(shape, np.nan, dtype),
        )
        with workspace_disabled():
            cold = chained_step(model, x, y)
        for a, r in zip(cold, warm):
            assert np.array_equal(a, r)


class TestChainAllocation:
    @pytest.mark.parametrize("strategy", CHAINED, ids=lambda s: s.value)
    def test_arena_holds_no_gradient_scratch_and_no_chained_pad_copy(self, rng, strategy):
        """After a training step and a no-grad forward of the Table-I
        model, the thread's arena holds no ``conv2d.train.grad`` scratch,
        no padded copy of any conv's input but the first layer's, and
        one gradient source, which all four layers shared."""
        model, x, y = table1_case(rng, strategy)
        workspace = T.get_workspace()
        workspace.clear()
        chained_step(model, x, y)
        slots = [(key[0], key[1]) for key in workspace._buffers]
        assert not [name for name, _ in slots if name == "conv2d.train.grad"]
        p = model.layers[0].padding
        first = {(2, 4, x.shape[2] + 2 * p, x.shape[3] + 2 * p)} if p else set()
        assert {shape for name, shape in slots if ".padded." in name} <= first
        assert [name for name, _ in slots if "gsrc" in name] == ["conv2d.train.gsrc"]

    def test_warm_step_keeps_one_byte_per_activation(self, rng):
        """A warm training step of the Table-I model peaks, in traced
        allocations, under its layer outputs, one byte per activated
        output element, two output-sized gradients alive at once and 64
        KiB: a float64 derivative per activation (8 B) does not fit."""
        model, x, y = table1_case(rng, PaddingStrategy.NEIGHBOR_FIRST, n=2, size=32)
        convs = [n for n in graph_nodes(model(Tensor(x))) if n.op_name == "conv2d"]
        outputs = [owner(node.data).nbytes for node in convs]
        activated = sum(node.data.size for node in convs[1:])  # all but the last layer
        bound = sum(outputs) + activated + 2 * max(outputs) + 64 * 1024

        def step():
            model.zero_grad()
            ((model(Tensor(x)) - Tensor(y)) ** 2).sum().backward()

        step()
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"warm step peaked at {peak} B, bound {bound} B"

    @pytest.mark.parametrize("input_grad", [False, True], ids=["data", "activation"])
    def test_input_without_gradient_gets_no_bordered_source(self, rng, input_grad):
        """The first layer's input is data: its output gradient is read
        by the weight and bias gradients only, so the thread's gradient
        source is not bordered for it.  A conv whose input needs a
        gradient borders it by ``k - 1 - p``."""
        x, w, b, g = case_arrays(rng, 2, 6, 16, 0, np.float64)
        workspace = T.get_workspace()
        workspace.clear()
        tx, tw, tb = Tensor(x, requires_grad=input_grad), Tensor(w, True), Tensor(b, True)
        T.conv2d(tx, tw, tb, activation="leaky_relu").backward(g)
        (size,) = [key[1][0] for key in workspace._buffers if key[0] == "conv2d.train.gsrc"]
        n, f, oh, ow = g.shape
        assert size == (n * f * (oh + 2 * K - 2) * (ow + 2 * K - 2) if input_grad else g.size)

    def test_registry_chain_case_reads_the_bordered_source(self, monkeypatch):
        """``repro check``'s ``chained-border`` case really chains: the
        follower's forward and weight gradient get the leader's buffer
        with no padding left to apply."""
        from repro.analysis.gradcheck import OP_CASES

        calls = []
        for name in ("conv2d_forward_blocked", "conv2d_weight_grad_blocked"):
            real = getattr(ops_conv, name)

            def spy(x, *args, _real=real, _name=name, **kwargs):
                calls.append((_name, x.shape, tuple(args[2])))  # args[2]: padding
                return _real(x, *args, **kwargs)

            monkeypatch.setattr(ops_conv, name, spy)
        (chain,) = [c for c in OP_CASES["conv2d"] if c.label == "chained-border"]
        fn, arrays = chain.build(np.random.default_rng(7))
        fn(*[Tensor(a, requires_grad=True) for a in arrays]).sum().backward()
        leader_out = (2, 4, 5 + 2, 6 + 4)  # 5x6 same-padded, bordered (1, 2)
        assert ("conv2d_forward_blocked", leader_out, (0, 0)) in calls
        assert ("conv2d_weight_grad_blocked", leader_out, (0, 0)) in calls
