"""Runtime sanitizer tests: float, shape-contract, and MPI audit."""

import numpy as np
import pytest

from repro import mpi
from repro.analysis import (
    FloatSanitizer,
    MpiSanitizer,
    PrecisionSanitizer,
    ShapeContract,
)
from repro.exceptions import SanitizerError
from repro.mpi.router import MessageRouter
from repro.nn.module import Module
from repro.tensor import Tensor, precision


# ----------------------------------------------------------------------
# Zero-cost-when-off: the chokepoints are byte-identical outside a context
# ----------------------------------------------------------------------
def test_sanitizers_restore_chokepoints():
    before_from_op = Tensor.__dict__["from_op"]
    before_call = Module.__dict__["__call__"]
    before_post = MessageRouter.__dict__["post"]
    before_collect = MessageRouter.__dict__["collect"]
    with FloatSanitizer(), ShapeContract(), MpiSanitizer(strict=False):
        assert Tensor.__dict__["from_op"] is not before_from_op
        assert Module.__dict__["__call__"] is not before_call
        assert MessageRouter.__dict__["post"] is not before_post
    assert Tensor.__dict__["from_op"] is before_from_op
    assert Module.__dict__["__call__"] is before_call
    assert MessageRouter.__dict__["post"] is before_post
    assert MessageRouter.__dict__["collect"] is before_collect


def test_float_sanitizer_restores_after_error():
    before = Tensor.__dict__["from_op"]
    with pytest.raises(SanitizerError):
        with FloatSanitizer(), np.errstate(invalid="ignore"):
            Tensor(np.array([-1.0])).log()
    assert Tensor.__dict__["from_op"] is before


# ----------------------------------------------------------------------
# FloatSanitizer
# ----------------------------------------------------------------------
def test_float_sanitizer_names_op_on_nan_forward():
    t = Tensor(np.array([-1.0, 2.0]))
    with FloatSanitizer(), np.errstate(invalid="ignore"):
        with pytest.raises(SanitizerError, match=r"'log'.*forward") as err:
            t.log()
    assert "NaN" in str(err.value)


def test_float_sanitizer_checks_gradients():
    # Forward sqrt(0) = 0 is finite; backward 0.5 / sqrt(0) is Inf.
    t = Tensor(np.array([0.0, 1.0]), requires_grad=True)
    with FloatSanitizer(check_gradients=True), np.errstate(divide="ignore"):
        out = t ** 0.5
        with pytest.raises(SanitizerError, match="gradient"):
            out.sum().backward()


def test_float_sanitizer_clean_pass_is_silent():
    t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with FloatSanitizer():
        (t.exp() * 2.0).sum().backward()
    np.testing.assert_allclose(t.grad, 2.0 * np.exp(t.data))


# ----------------------------------------------------------------------
# PrecisionSanitizer
# ----------------------------------------------------------------------
def test_precision_sanitizer_restores_chokepoint():
    before = Tensor.__dict__["from_op"]
    with PrecisionSanitizer():
        assert Tensor.__dict__["from_op"] is not before
    assert Tensor.__dict__["from_op"] is before


def test_precision_sanitizer_flags_float64_leak_under_float32():
    """A float64 operand entering a float32 graph promotes the op
    output to float64 — exactly the silent up-cast the sanitizer
    exists to catch."""
    with precision("float32"), PrecisionSanitizer():
        t = Tensor(np.ones(3))  # float32 under the policy
        leak = Tensor(np.ones(3), dtype=np.float64)
        with pytest.raises(SanitizerError, match="float64.*float32"):
            t + leak


def test_precision_sanitizer_clean_float32_graph_is_silent():
    with precision("float32"), PrecisionSanitizer():
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        (t.exp() * 2.0).sum().backward()
    assert t.grad.dtype == np.float32


def test_precision_sanitizer_checks_gradients():
    """Gradient arrays produced by backward closures are checked too.
    A float64 seed alone can't trigger it (backward_pass casts the seed
    to the root's dtype), so the leak has to live inside a closure —
    here a backward that multiplies by a float64 constant."""
    with precision("float32"), PrecisionSanitizer(check_gradients=True):
        t = Tensor(np.ones(3), requires_grad=True)
        scale64 = np.full(3, 2.0, dtype=np.float64)  # backward-only leak
        out = Tensor.from_op(
            t.data * np.float32(1.0), [t], lambda grad: (grad * scale64,), "leaky-op"
        )
        with pytest.raises(SanitizerError, match="gradient"):
            out.sum().backward()


def test_precision_sanitizer_ignores_non_floating_outputs():
    with precision("float32"), PrecisionSanitizer():
        t = Tensor(np.array([1.0, -2.0]))
        assert (t > 0.0).dtype == np.bool_ or (t > 0.0) is not None


def test_precision_sanitizer_float64_mode_is_silent():
    with precision("float64"), PrecisionSanitizer():
        t = Tensor(np.ones(3), requires_grad=True)
        (t * 3.0).sum().backward()
    assert t.grad.dtype == np.float64


@pytest.mark.default_precision
def test_precision_sanitizer_default_float32_mode_is_silent():
    with PrecisionSanitizer():
        t = Tensor(np.ones(3), requires_grad=True)
        (t * 3.0).sum().backward()
    assert t.grad.dtype == np.float32


# ----------------------------------------------------------------------
# ShapeContract
# ----------------------------------------------------------------------
class _Identity(Module):
    def forward(self, x):
        return x


class _Untracked(Module):
    def forward(self, x):
        return x.data  # escapes the autograd tape


class _Drifting(Module):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def forward(self, x):
        self.calls += 1
        if self.calls > 1:
            return Tensor(np.zeros((1, self.calls)))
        return Tensor(np.zeros((1, 1)))


def test_shape_contract_rejects_integer_input():
    t = Tensor(np.zeros(3))
    t.data = np.arange(3)  # plant a non-floating buffer
    with ShapeContract():
        with pytest.raises(SanitizerError, match="non-floating"):
            _Identity()(t)


def test_shape_contract_rejects_non_tensor_output():
    with ShapeContract():
        with pytest.raises(SanitizerError, match="ndarray"):
            _Untracked()(Tensor(np.zeros(3)))


def test_shape_contract_detects_shape_drift():
    module = _Drifting()
    x = Tensor(np.zeros((2, 2)))
    with ShapeContract():
        module(x)
        with pytest.raises(SanitizerError, match="shape contract"):
            module(x)


def test_shape_contract_clean_module_passes():
    module = _Identity()
    with ShapeContract():
        for _ in range(3):
            module(Tensor(np.zeros((2, 2))))


# ----------------------------------------------------------------------
# MpiSanitizer
# ----------------------------------------------------------------------
def _orphan_program(comm):
    if comm.rank == 0:
        comm.send(1.0, dest=1, tag=5)
    return comm.rank


def test_mpi_sanitizer_detects_unmatched_message():
    with pytest.raises(SanitizerError) as err:
        with MpiSanitizer(strict=True):
            mpi.run_parallel(_orphan_program, 2)
    assert "source=0 dest=1 tag=5" in str(err.value)


def test_mpi_sanitizer_non_strict_reports_without_raising():
    with MpiSanitizer(strict=False) as sanitizer:
        mpi.run_parallel(_orphan_program, 2)
    assert sanitizer.report.unmatched == [((0, 1, 5), 1)]
    assert "UNMATCHED source=0 dest=1 tag=5" in sanitizer.report.format()


def test_mpi_sanitizer_clean_traffic_passes():
    def pingpong(comm):
        if comm.rank == 0:
            comm.send(np.arange(4.0), dest=1, tag=9)
        else:
            return comm.recv(source=0, tag=9)

    with MpiSanitizer(strict=True) as sanitizer:
        mpi.run_parallel(pingpong, 2)
    assert sanitizer.report.ok
    assert sum(a.messages_posted for a in sanitizer.report.audits) == 1


def test_mpi_sanitizer_audits_collectives():
    def allreduce_program(comm):
        return comm.allreduce(float(comm.rank))

    with MpiSanitizer(strict=True) as sanitizer:
        results = mpi.run_parallel(allreduce_program, 4)
    assert results == [6.0] * 4
    assert sanitizer.report.ok
