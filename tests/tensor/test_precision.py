"""Precision policy: resolution, Tensor boundary casts, kernel parity.

The policy lives in :mod:`repro.tensor.precision` and is deliberately
process-global (worker threads of the thread-MPI backend must inherit
it).  Every test that flips the mode does so through the ``precision``
context manager or inside the conftest's per-test precision scope, so
test order never leaks a mode change.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import tensor as T
from repro.exceptions import ConfigurationError
from repro.tensor import (
    Tensor,
    default_dtype,
    get_precision,
    no_grad,
    precision,
    resolve_precision,
    set_precision,
)
from repro.tensor.blocked import conv2d_forward_blocked
from repro.tensor.workspace import Workspace

SRC = Path(__file__).resolve().parents[2] / "src"

#: float32 comparison bounds vs a float64 reference.  One conv layer
#: accumulates C*kh*kw ~ 1e2 products, each with ~6e-8 relative
#: rounding, so per-layer drift stays well under 1e-5 relative.
F32_RTOL = 1e-4
F32_ATOL = 1e-5


class TestResolution:
    def test_a_fresh_process_starts_in_float32(self):
        code = "import repro.tensor as T; print(T.get_precision(), T.default_dtype())"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.stdout.split() == ["float32", "float32"], proc.stderr
        assert T.DEFAULT_PRECISION == "float32"

    @pytest.mark.parametrize(
        "alias,expected",
        [
            ("float32", "float32"),
            ("fp32", "float32"),
            ("single", "float32"),
            ("float64", "float64"),
            ("fp64", "float64"),
            ("double", "float64"),
            (np.float32, "float32"),
            (np.dtype(np.float64), "float64"),
        ],
    )
    def test_aliases(self, alias, expected):
        assert resolve_precision(alias) == expected

    @pytest.mark.parametrize("bad", ["float16", "int32", "", None, 32])
    def test_unknown_raises(self, bad):
        with pytest.raises(ConfigurationError):
            resolve_precision(bad)

    def test_set_and_get(self):
        set_precision("fp32")
        assert get_precision() == "float32"
        assert default_dtype() == np.float32

    def test_context_manager_restores(self):
        with precision("float32") as dtype:
            assert dtype == np.float32
            assert get_precision() == "float32"
            with precision("float64"):
                assert get_precision() == "float64"
            assert get_precision() == "float32"
        assert get_precision() == "float64"

    def test_context_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with precision("float32"):
                raise RuntimeError("boom")
        assert get_precision() == "float64"


class TestTensorBoundary:
    def test_float64_input_casts_under_float32(self, rng):
        x = rng.standard_normal((3, 3))
        with precision("float32"):
            assert Tensor(x).dtype == np.float32

    def test_explicit_dtype_wins(self, rng):
        with precision("float32"):
            t = Tensor(rng.standard_normal(4), dtype=np.float64)
            assert t.dtype == np.float64

    def test_float32_input_untouched_under_float64(self, rng):
        x = rng.standard_normal(4).astype(np.float32)
        assert Tensor(x).dtype == np.float32

    def test_int_input_follows_policy(self):
        assert Tensor([1, 2, 3]).dtype == np.float64
        with precision("float32"):
            assert Tensor([1, 2, 3]).dtype == np.float32

    @pytest.mark.parametrize("mode", ["float64", "float32"])
    def test_factories_follow_policy(self, mode):
        with precision(mode):
            expected = default_dtype()
            assert T.zeros((2, 2)).dtype == expected
            assert T.ones((2, 2)).dtype == expected
            assert T.full((2, 2), 3.0).dtype == expected
            assert T.randn((2, 2), rng=np.random.default_rng(0)).dtype == expected

    def test_detach_and_copy_preserve_storage_dtype(self, rng):
        t = Tensor(rng.standard_normal(4), dtype=np.float64)
        with precision("float32"):
            # detach stays a view in the original dtype — never a cast
            # copy smuggled in by the boundary rule.
            assert t.detach().dtype == np.float64
            assert t.detach().data is t.data
            assert t.copy().dtype == np.float64

    def test_astype_drops_grad_by_default(self, rng):
        t = Tensor(rng.standard_normal(4), requires_grad=True)
        assert t.astype(np.float32).requires_grad is False
        assert t.astype(np.float32, requires_grad=True).requires_grad is True

    def test_astype_dtype_applied(self, rng):
        t = Tensor(rng.standard_normal(4))
        assert t.astype(np.float32).dtype == np.float32


class TestKernelParity:
    """Each kernel family runs at both precisions; float32 results must
    be float32 end-to-end and match the float64 reference within the
    documented tolerances."""

    def _conv_inputs(self, rng, n=2, c=3, hw=12, f=4, k=3):
        return (
            rng.standard_normal((n, c, hw, hw)),
            rng.standard_normal((f, c, k, k)),
            rng.standard_normal(f),
        )

    def test_conv2d_forward_float32(self, rng):
        x, w, b = self._conv_inputs(rng)
        ref = T.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1).numpy()
        with precision("float32"):
            got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1).numpy()
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, ref, rtol=F32_RTOL, atol=F32_ATOL)

    def test_conv2d_fused_forward_float32(self, rng):
        x, w, b = self._conv_inputs(rng)
        with no_grad():
            ref = T.conv2d(
                Tensor(x), Tensor(w), Tensor(b), padding=1,
                activation="leaky_relu", negative_slope=0.1,
            ).numpy()
            with precision("float32"):
                got = T.conv2d(
                    Tensor(x), Tensor(w), Tensor(b), padding=1,
                    activation="leaky_relu", negative_slope=0.1,
                ).numpy()
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, ref, rtol=F32_RTOL, atol=F32_ATOL)

    def test_conv2d_backward_float32(self, rng):
        x, w, b = self._conv_inputs(rng)

        def grads():
            tx = Tensor(x, requires_grad=True)
            tw = Tensor(w, requires_grad=True)
            tb = Tensor(b, requires_grad=True)
            T.conv2d(tx, tw, tb, padding=1).sum().backward()
            return tx.grad, tw.grad, tb.grad

        reference = grads()
        with precision("float32"):
            result = grads()
        for got, ref in zip(result, reference):
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, ref, rtol=1e-3, atol=1e-4)

    def test_fused_backward_float32_stays_float32(self, rng):
        """The leaky-ReLU backward scale must not promote a float32
        gradient back to float64 (the classic np.where leak)."""
        x, w, b = self._conv_inputs(rng)
        with precision("float32"):
            tx = Tensor(x, requires_grad=True)
            tw = Tensor(w, requires_grad=True)
            out = T.conv2d(
                tx, tw, Tensor(b), padding=1,
                activation="leaky_relu", negative_slope=0.1,
            )
            out.sum().backward()
            assert tx.grad.dtype == np.float32
            assert tw.grad.dtype == np.float32

    def test_im2col_preserves_float32(self, rng):
        from repro.tensor.im2col import col2im, im2col

        with precision("float32"):
            x = Tensor(rng.standard_normal((2, 3, 8, 8))).numpy()
            cols, spatial = im2col(x, (3, 3), (1, 1), (1, 1))
            assert cols.dtype == np.float32
            back = col2im(cols, x.shape, (3, 3), (1, 1), (1, 1))
            assert back.dtype == np.float32

    @pytest.mark.parametrize("mode", ["float64", "float32"])
    def test_strip_kernel_matches_reference(self, rng, mode):
        from repro.tensor.ops_conv import conv2d_reference

        with precision(mode):
            dtype = default_dtype()
            x = rng.standard_normal((2, 3, 20, 24)).astype(dtype)
            w = rng.standard_normal((5, 3, 3, 3)).astype(dtype)
            b = rng.standard_normal(5).astype(dtype)
            with no_grad():
                operands = (Tensor(x), Tensor(w), Tensor(b))
                ref = conv2d_reference(
                    *operands, (1, 1), (1, 1), "leaky_relu", 0.1, operands
                ).numpy()
            out = conv2d_forward_blocked(
                x, w, b, (1, 1),
                activation="leaky_relu", negative_slope=0.1,
                workspace=Workspace(),
            )
            assert out.dtype == dtype
            # The strip kernel sums the taps in (dy, c, dx) order, the
            # reference in (c, dy, dx): the same 27 products, rounded in
            # a different order.  At float32 a relative bound alone
            # fails where the taps cancel (|out| ~ 1e-2 from terms of
            # order 1 differs by 2e-6 absolute), so the float32 bound
            # is this file's absolute one.
            if mode == "float32":
                np.testing.assert_allclose(out, ref, rtol=1e-6, atol=F32_ATOL)
            else:
                np.testing.assert_allclose(out, ref, rtol=1e-12)

    def test_matmul_float32(self, rng):
        a, b = rng.standard_normal((4, 5)), rng.standard_normal((5, 3))
        ref = T.matmul(Tensor(a), Tensor(b)).numpy()
        with precision("float32"):
            got = T.matmul(Tensor(a), Tensor(b))
        assert got.dtype == np.float32
        np.testing.assert_allclose(got.numpy(), ref, rtol=F32_RTOL, atol=F32_ATOL)


class TestModelAndOptimizer:
    def test_model_parameters_follow_policy(self):
        from repro.core import CNNConfig, SubdomainCNN

        config = CNNConfig(channels=(4, 6, 4), kernel_size=3)
        with precision("float32"):
            model = SubdomainCNN(config, rng=np.random.default_rng(0))
            assert all(p.dtype == np.float32 for p in model.parameters())
            out = model(Tensor(np.random.default_rng(1).standard_normal((1, 4, 8, 8))))
            assert out.dtype == np.float32

    def test_adam_state_follows_param_dtype(self, rng):
        from repro.optim import Adam

        with precision("float32"):
            param = Tensor(rng.standard_normal(6), requires_grad=True)
            optimizer = Adam([param], lr=0.01)
            param.grad = np.ones(6, dtype=np.float32)
            optimizer.step()
            assert param.data.dtype == np.float32
            state = optimizer.state_dict()
            moments = [
                np.asarray(v)
                for value in state.values()
                if isinstance(value, list)
                for v in value
                if v is not None
            ]
            assert moments and all(m.dtype == np.float32 for m in moments)


class TestInferencePlanPrecision:
    def test_plan_casts_float64_input_to_model_dtype(self, rng):
        from repro.core import CNNConfig, InferencePlan, SubdomainCNN

        config = CNNConfig(channels=(4, 6, 4), kernel_size=3)
        with precision("float32"):
            model = SubdomainCNN(config, rng=np.random.default_rng(0))
            plan = InferencePlan(model)
        assert plan.compute_dtype == np.float32
        x64 = rng.standard_normal((1, 4, 10, 10))
        out = plan.run(x64)
        assert out.dtype == np.float32
        # Warmed up: repeat runs reuse the cast slot, results identical.
        assert np.array_equal(out.copy(), plan.run(x64))

    def test_plan_matches_module_forward_float32(self, rng):
        from repro.core import CNNConfig, InferencePlan, SubdomainCNN

        config = CNNConfig(channels=(4, 6, 4), kernel_size=3)
        with precision("float32"):
            model = SubdomainCNN(config, rng=np.random.default_rng(0))
            plan = InferencePlan(model)
            x = Tensor(rng.standard_normal((1, 4, 12, 12)))
            with no_grad():
                expected = model(x).numpy()
            got = plan.run(x.numpy())
        assert got.dtype == expected.dtype == np.float32
        # Bitwise, like the float64 pins: the plan and the op run the
        # same strip kernel, and the activation rounds in float32 both ways.
        assert np.array_equal(got, expected)


class TestProcessBackendPrecision:
    def test_rank_processes_inherit_float32(self):
        from repro import mpi

        def program(comm):
            return Tensor([1.0, 2.0]).dtype == np.float32

        with precision("float32"):
            results = mpi.run_parallel(program, 2, backend="processes")
        assert results == [True, True]


class TestRestorationPaths:
    """The mode must survive exceptions: a crashed scoped block or a
    rejected set_precision call may not leave the process stuck in the
    wrong compute mode (every later Tensor would inherit it)."""

    def test_context_restores_on_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with precision("float32"):
                assert get_precision() == "float32"
                raise RuntimeError("boom")
        assert get_precision() == "float64"

    def test_nested_contexts_restore_on_inner_exception(self):
        with precision("float32"):
            with pytest.raises(ValueError):
                with precision("float64"):
                    assert get_precision() == "float64"
                    raise ValueError("inner")
            assert get_precision() == "float32"
        assert get_precision() == "float64"

    def test_invalid_set_precision_leaves_mode_unchanged(self):
        set_precision("float32")
        with pytest.raises(ConfigurationError):
            set_precision("float16")
        assert get_precision() == "float32"

    def test_invalid_context_value_leaves_mode_unchanged(self):
        with pytest.raises(ConfigurationError):
            with precision("bfloat16"):
                pass  # pragma: no cover - never entered
        assert get_precision() == "float64"


class TestPlanWarmupAcrossModes:
    """A plan computes in its *parameters'* dtype, not the global mode
    at run time: warming up under a policy different from the
    checkpoint's recorded mode must not silently mix dtypes."""

    def test_float32_model_warmed_under_float64_policy(self, rng):
        from repro.core import CNNConfig, InferencePlan, SubdomainCNN

        config = CNNConfig(channels=(4, 6, 4), kernel_size=3)
        with precision("float32"):
            model = SubdomainCNN(config, rng=np.random.default_rng(0))
        # Global mode is float64 again here; the plan must still follow
        # the model's float32 parameters end to end.
        plan = InferencePlan(model)
        assert plan.compute_dtype == np.float32
        x64 = rng.standard_normal((1, 4, 10, 10))
        first = plan.run(x64).copy()
        assert first.dtype == np.float32
        # Warmed-up repeat under yet another mode: still float32, still
        # the same answer — no dtype leaks through the workspace slots.
        with precision("float32"):
            assert np.array_equal(plan.run(x64), first)

    def test_float64_model_warmed_under_float32_policy(self, rng):
        from repro.core import CNNConfig, InferencePlan, SubdomainCNN

        config = CNNConfig(channels=(4, 6, 4), kernel_size=3)
        model = SubdomainCNN(config, rng=np.random.default_rng(0))
        with precision("float32"):
            plan = InferencePlan(model)
            assert plan.compute_dtype == np.float64
            out = plan.run(rng.standard_normal((1, 4, 10, 10)).astype(np.float32))
        assert out.dtype == np.float64

    def test_checkpoint_roundtrip_keeps_recorded_mode(self, rng, tmp_path):
        from repro.core import (
            CNNConfig,
            InferencePlan,
            ParallelTrainer,
            TrainingConfig,
            load_checkpoint_precision,
            load_parallel_models,
            save_parallel_models,
        )

        from repro.data import SnapshotDataset

        data = SnapshotDataset(rng.standard_normal((4, 4, 12, 12)))
        with precision("float32"):
            trainer = ParallelTrainer(
                cnn_config=CNNConfig(channels=(4, 6, 4), kernel_size=3),
                training_config=TrainingConfig(epochs=1, batch_size=2, seed=0),
                num_ranks=1,
            )
            result = trainer.train(data)
        path = tmp_path / "model32.npz"
        save_parallel_models(path, result, precision="float32")
        assert load_checkpoint_precision(path) == "float32"
        # Loading under the default float64 process mode must rebuild
        # float32 parameters and a float32-computing plan.
        models, _decomposition, _config = load_parallel_models(
            path, precision=load_checkpoint_precision(path)
        )
        plan = InferencePlan(models[0])
        assert plan.compute_dtype == np.float32
        out = plan.run(rng.standard_normal((1, 4, 10, 10)))
        assert out.dtype == np.float32
