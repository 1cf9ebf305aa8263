"""Numerical-vs-analytic gradient verification for every registered op.

The harness keeps one (or more) *cases* per op in :data:`OP_CASES`; a
case builds kink-free sample inputs and a callable mapping input
tensors to the op's output.  :func:`check_all_ops` additionally
enforces **coverage**: an op registered in :mod:`repro.tensor` without
a case here fails the check, so new ops cannot land ungradchecked.

All inputs are float64 and chosen away from non-differentiable points
(kinks of ``abs``/``relu``, ties of ``max``/``maximum``, clip bounds),
so central finite differences with ``eps = 1e-6`` agree with the
analytic gradient to ~1e-8 and the default tolerances are tight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..exceptions import AnalysisError
from ..tensor import Tensor, get_op, registered_ops
from ..tensor.precision import default_dtype, precision

__all__ = [
    "OpCase",
    "OP_CASES",
    "numerical_gradient",
    "gradcheck",
    "check_op",
    "check_all_ops",
    "ops_by_module",
    "missing_cases",
]

#: Default finite-difference step / comparison tolerances (float64).
EPS = 1e-6
RTOL = 1e-4
ATOL = 1e-6

#: Tolerance floors under the float32 compute mode.  The numeric
#: reference is always computed in float64 (see :func:`gradcheck`), so
#: the only float32 contribution is the analytic backward pass itself —
#: per-op roundoff of ~1e-6 relative, amplified somewhat by long
#: reductions (conv/gemm accumulate hundreds of terms).  These floors
#: apply over the per-case values whenever the active policy is float32.
RTOL_FLOAT32 = 1e-3
ATOL_FLOAT32 = 1e-4


@dataclass
class OpCase:
    """One gradcheck scenario for a registered op."""

    op: str
    label: str
    build: Callable[[np.random.Generator], tuple[Callable[..., Tensor], list[np.ndarray]]]
    #: per-case tolerance overrides
    rtol: float = RTOL
    atol: float = ATOL

    @property
    def id(self) -> str:
        return f"{self.op}[{self.label}]"


OP_CASES: dict[str, list[OpCase]] = {}


def case(op: str, label: str = "default", rtol: float = RTOL, atol: float = ATOL):
    """Register a gradcheck case builder for ``op``."""

    def decorator(build: Callable) -> Callable:
        OP_CASES.setdefault(op, []).append(OpCase(op, label, build, rtol, atol))
        return build

    return decorator


# ----------------------------------------------------------------------
# Core machinery
# ----------------------------------------------------------------------
def numerical_gradient(
    fn: Callable[..., Tensor], arrays: list[np.ndarray], eps: float = EPS
) -> list[np.ndarray]:
    """Central-difference gradient of ``sum(fn(*arrays))`` per input."""

    def scalar() -> float:
        return float(fn(*[Tensor(a) for a in arrays]).sum().item())

    grads: list[np.ndarray] = []
    for target in arrays:
        grad = np.zeros_like(target)
        flat = target.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            plus = scalar()
            flat[i] = original - eps
            minus = scalar()
            flat[i] = original
            gflat[i] = (plus - minus) / (2.0 * eps)
        grads.append(grad)
    return grads


@dataclass
class GradcheckFailure:
    """Mismatch details for one input of one case."""

    case_id: str
    input_index: int
    max_abs_err: float
    max_rel_err: float

    def format(self) -> str:
        return (
            f"{self.case_id} input {self.input_index}: "
            f"max |analytic - numeric| = {self.max_abs_err:.3e} "
            f"(rel {self.max_rel_err:.3e})"
        )


def gradcheck(
    fn: Callable[..., Tensor],
    arrays: list[np.ndarray],
    eps: float = EPS,
    rtol: float = RTOL,
    atol: float = ATOL,
    case_id: str = "<anonymous>",
) -> None:
    """Raise :class:`AnalysisError` if analytic and numeric gradients differ.

    ``fn`` receives one :class:`Tensor` per input array and returns the
    op output; the comparison is on gradients of ``fn(...).sum()``.

    Under the float32 policy the analytic pass runs in float32 (the
    Tensors below inherit the policy) while the finite-difference
    reference is *forced to float64*: a central difference of a float32
    function would need a step wide enough (~1e-2) to cross activation
    kinks, whereas checking float32 gradients against a high-precision
    reference keeps ``eps`` tiny and only loosens the comparison by the
    float32 backward's own roundoff (the ``*_FLOAT32`` floors).
    """
    # Tolerance-tier check against the active policy, not a pinned
    # buffer dtype — no array is ever constructed at this width here.
    if default_dtype() == np.float32:  # noqa: REP014
        rtol = max(rtol, RTOL_FLOAT32)
        atol = max(atol, ATOL_FLOAT32)
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    out.sum().backward()
    with precision("float64"):
        numeric = numerical_gradient(fn, [a.copy() for a in arrays], eps=eps)

    failures: list[GradcheckFailure] = []
    for index, (tensor, num) in enumerate(zip(tensors, numeric)):
        analytic = tensor.grad
        if analytic is None:
            analytic = np.zeros_like(num)
        if not np.allclose(analytic, num, rtol=rtol, atol=atol):
            abs_err = np.abs(analytic - num)
            rel_err = abs_err / np.maximum(np.abs(num), 1e-12)
            failures.append(
                GradcheckFailure(case_id, index, float(abs_err.max()), float(rel_err.max()))
            )
    if failures:
        raise AnalysisError(
            "gradcheck failed:\n" + "\n".join(f.format() for f in failures)
        )


def check_op(name: str, rng: np.random.Generator | None = None) -> int:
    """Gradcheck every registered case of op ``name``; returns case count."""
    cases = OP_CASES.get(name)
    if not cases:
        raise AnalysisError(f"op {name!r} has no gradcheck case")
    generator = rng if rng is not None else np.random.default_rng(0)
    for op_case in cases:
        fn, arrays = op_case.build(generator)
        gradcheck(fn, arrays, rtol=op_case.rtol, atol=op_case.atol, case_id=op_case.id)
    return len(cases)


def ops_by_module() -> dict[str, list[str]]:
    """Registered op names grouped by their defining ``ops_*`` module."""
    groups: dict[str, list[str]] = {}
    for name in registered_ops():
        module = get_op(name).__module__.rsplit(".", 1)[-1]
        groups.setdefault(module, []).append(name)
    return groups


def missing_cases() -> list[str]:
    """Registered ops without any gradcheck case (should be empty)."""
    return [name for name in registered_ops() if name not in OP_CASES]


@dataclass
class GradcheckReport:
    """Summary of a full-registry gradcheck run."""

    checked: dict[str, int] = field(default_factory=dict)  # op -> cases run
    failures: dict[str, str] = field(default_factory=dict)  # op -> error

    @property
    def ok(self) -> bool:
        return not self.failures

    def format(self) -> str:
        total = sum(self.checked.values())
        lines = [
            f"gradcheck: {len(self.checked)} ops, {total} cases, "
            f"{len(self.failures)} failure(s)"
        ]
        for op, error in sorted(self.failures.items()):
            lines.append(f"  FAIL {op}: {error}")
        return "\n".join(lines)


def check_all_ops(rng: np.random.Generator | None = None) -> GradcheckReport:
    """Gradcheck the entire op registry, enforcing full coverage."""
    missing = missing_cases()
    if missing:
        raise AnalysisError(
            f"registered op(s) without gradcheck coverage: {missing}; add a "
            "case to repro.analysis.gradcheck.OP_CASES"
        )
    generator = rng if rng is not None else np.random.default_rng(0)
    report = GradcheckReport()
    for name in registered_ops():
        try:
            report.checked[name] = check_op(name, generator)
        except AnalysisError as exc:
            report.checked[name] = 0
            report.failures[name] = str(exc)
    return report


# ----------------------------------------------------------------------
# Sample-input helpers (kink-free by construction)
# ----------------------------------------------------------------------
def _normal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape)


def _away_from_zero(rng: np.random.Generator, *shape: int, low: float = 0.3, high: float = 1.5) -> np.ndarray:
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return sign * rng.uniform(low, high, shape)


def _distinct(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Pairwise-distinct values with gaps >> eps (tie-free extremum inputs)."""
    size = int(np.prod(shape))
    values = np.linspace(-2.0, 2.0, size)
    return rng.permutation(values).reshape(shape)


def _separated_pair(rng: np.random.Generator, *shape: int) -> tuple[np.ndarray, np.ndarray]:
    """Two arrays with |a - b| bounded away from zero everywhere."""
    a = _normal(rng, *shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    b = a + sign * rng.uniform(0.2, 1.0, shape)
    return a, b


# ----------------------------------------------------------------------
# ops_elementwise
# ----------------------------------------------------------------------
@case("add", "broadcast")
def _add(rng):
    return get_op("add"), [_normal(rng, 3, 4), _normal(rng, 4)]


@case("sub", "broadcast")
def _sub(rng):
    return get_op("sub"), [_normal(rng, 3, 4), _normal(rng, 3, 1)]


@case("mul", "broadcast")
def _mul(rng):
    return get_op("mul"), [_normal(rng, 3, 4), _normal(rng, 4)]


@case("div", "safe-denominator")
def _div(rng):
    return get_op("div"), [_normal(rng, 3, 4), _away_from_zero(rng, 3, 4)]


@case("neg")
def _neg(rng):
    return get_op("neg"), [_normal(rng, 3, 4)]


@case("pow", "fractional-exponent")
def _pow(rng):
    return (lambda a: get_op("pow")(a, 1.7)), [rng.uniform(0.3, 1.5, (3, 4))]


@case("pow", "sqrt")
def _pow_sqrt(rng):
    return (lambda a: get_op("pow")(a, 0.5)), [rng.uniform(0.5, 2.0, (3, 4))]


@case("exp")
def _exp(rng):
    return get_op("exp"), [_normal(rng, 3, 4)]


@case("log", "positive")
def _log(rng):
    return get_op("log"), [rng.uniform(0.2, 2.0, (3, 4))]


@case("abs", "away-from-kink")
def _abs(rng):
    return get_op("abs"), [_away_from_zero(rng, 3, 4)]


@case("maximum", "tie-free")
def _maximum(rng):
    a, b = _separated_pair(rng, 3, 4)
    return get_op("maximum"), [a, b]


@case("minimum", "tie-free")
def _minimum(rng):
    a, b = _separated_pair(rng, 3, 4)
    return get_op("minimum"), [a, b]


@case("clip", "away-from-bounds")
def _clip(rng):
    values = _distinct(rng, 3, 4)  # in [-2, 2]
    # Push any value within 0.05 of the clip bounds further away.
    for bound in (-1.0, 1.0):
        near = np.abs(values - bound) < 0.05
        values = np.where(near, values + 0.1 * np.sign(values - bound + 1e-9), values)
    return (lambda a: get_op("clip")(a, -1.0, 1.0)), [values]


@case("where", "constant-mask")
def _where(rng):
    mask = rng.random((3, 4)) < 0.5
    return (lambda a, b: get_op("where")(mask, a, b)), [_normal(rng, 3, 4), _normal(rng, 3, 4)]


@case("relu", "away-from-kink")
def _relu(rng):
    return get_op("relu"), [_away_from_zero(rng, 3, 4)]


@case("leaky_relu", "away-from-kink")
def _leaky_relu(rng):
    return (lambda a: get_op("leaky_relu")(a, 0.1)), [_away_from_zero(rng, 3, 4)]


@case("sigmoid")
def _sigmoid(rng):
    return get_op("sigmoid"), [_normal(rng, 3, 4)]


@case("tanh")
def _tanh(rng):
    return get_op("tanh"), [_normal(rng, 3, 4)]


# ----------------------------------------------------------------------
# ops_matmul (all promotion branches)
# ----------------------------------------------------------------------
@case("matmul", "matrix-matrix")
def _matmul_mm(rng):
    return get_op("matmul"), [_normal(rng, 3, 4), _normal(rng, 4, 2)]


@case("matmul", "batched")
def _matmul_batched(rng):
    return get_op("matmul"), [_normal(rng, 2, 3, 4), _normal(rng, 2, 4, 5)]


@case("matmul", "vector-matrix")
def _matmul_vm(rng):
    return get_op("matmul"), [_normal(rng, 4), _normal(rng, 4, 3)]


@case("matmul", "matrix-vector")
def _matmul_mv(rng):
    return get_op("matmul"), [_normal(rng, 3, 4), _normal(rng, 4)]


@case("matmul", "inner-product")
def _matmul_vv(rng):
    return get_op("matmul"), [_normal(rng, 4), _normal(rng, 4)]


# ----------------------------------------------------------------------
# ops_conv
# ----------------------------------------------------------------------
@case("conv2d", "padded-bias")
def _conv2d(rng):
    fn = lambda x, w, b: get_op("conv2d")(x, w, b, stride=1, padding=1)  # noqa: E731
    return fn, [_normal(rng, 2, 3, 5, 5), _normal(rng, 4, 3, 3, 3), _normal(rng, 4)]


@case("conv2d", "valid-no-bias")
def _conv2d_valid(rng):
    fn = lambda x, w: get_op("conv2d")(x, w, padding=0)  # noqa: E731
    return fn, [_normal(rng, 1, 2, 6, 6), _normal(rng, 3, 2, 3, 3)]


@case("conv2d", "fused-leaky-relu")
def _conv2d_fused(rng):
    fn = lambda x, w, b: get_op("conv2d")(  # noqa: E731
        x, w, b, stride=1, padding=1, activation="leaky_relu", negative_slope=0.1
    )
    return fn, [_normal(rng, 2, 3, 5, 5), _normal(rng, 4, 3, 3, 3), _normal(rng, 4)]


@case("conv2d", "fused-leaky-relu-steep")
def _conv2d_fused_steep(rng):
    # A slope above 1 takes the other branch of both strip epilogues:
    # min, not max, and the derivative built from 1 - (z >= 0).
    fn = lambda x, w, b: get_op("conv2d")(  # noqa: E731
        x, w, b, stride=1, padding=1, activation="leaky_relu", negative_slope=2.0
    )
    return fn, [_normal(rng, 2, 3, 5, 5), _normal(rng, 4, 3, 3, 3), _normal(rng, 4)]


@case("conv2d", "chained-border")
def _conv2d_chained(rng):
    # The leader writes its result into the interior of a buffer whose
    # zero border is the follower's (uneven) padding: the follower's
    # forward and weight gradient read that buffer with no pad copy,
    # the weight gradients copy their output gradient strip by strip,
    # and the leader's activation multiply writes the zero-bordered
    # source of its input-gradient correlation.
    conv2d = get_op("conv2d")

    def fn(x, w1, b1, w2):
        h = conv2d(
            x, w1, b1, padding=1, activation="leaky_relu", negative_slope=0.1, border=(1, 2)
        )
        return conv2d(h, w2, padding=(1, 2))

    return fn, [
        _normal(rng, 2, 3, 5, 6), _normal(rng, 4, 3, 3, 3), _normal(rng, 4),
        _normal(rng, 2, 4, 3, 5),
    ]  # fmt: skip


@case("conv2d", "strip-seam")
def _conv2d_strip_seam(rng):
    # The strip kernels cut the output rows so that a strip's input
    # rows — C*kw*OW elements each, kh - 1 more of them than it has
    # output rows — fit 512 KiB.  These rows are wide enough (29k and
    # 32k elements) that forward, weight gradient and input gradient
    # are each split into two-row strips or smaller at both precisions,
    # so seams and the ragged last strip are gradchecked.
    # A finite-difference sweep over all 10k inputs would take
    # seconds, so x and w are built from thin differentiated factors
    # times fixed random rows: every entry of grad_x and grad_w still
    # reaches the comparison, through its own random weight.
    row_x, row_w = _normal(rng, 1, 1, 1, 400), _normal(rng, 1, 1, 1, 40)
    mul, conv2d = get_op("mul"), get_op("conv2d")

    def fn(x_col, w_col, b):
        return conv2d(mul(x_col, row_x), mul(w_col, row_w), b, padding=(1, 2))

    return fn, [_normal(rng, 1, 2, 13, 1), _normal(rng, 2, 2, 3, 1), _normal(rng, 2)]


# ----------------------------------------------------------------------
# ops_reduce
# ----------------------------------------------------------------------
@case("sum", "all-axes")
def _sum(rng):
    return (lambda a: get_op("sum")(a)), [_normal(rng, 3, 4)]


@case("sum", "axis-keepdims")
def _sum_axis(rng):
    return (lambda a: get_op("sum")(a, axis=(0,), keepdims=True)), [_normal(rng, 3, 4)]


@case("mean", "axis")
def _mean(rng):
    return (lambda a: get_op("mean")(a, axis=1)), [_normal(rng, 3, 4)]


@case("max", "tie-free")
def _max(rng):
    return (lambda a: get_op("max")(a, axis=0)), [_distinct(rng, 3, 4)]


@case("min", "tie-free")
def _min(rng):
    return (lambda a: get_op("min")(a, axis=1, keepdims=True)), [_distinct(rng, 3, 4)]


# ----------------------------------------------------------------------
# ops_shape
# ----------------------------------------------------------------------
@case("reshape")
def _reshape(rng):
    return (lambda a: get_op("reshape")(a, (2, 6))), [_normal(rng, 3, 4)]


@case("transpose", "permutation")
def _transpose(rng):
    return (lambda a: get_op("transpose")(a, (2, 0, 1))), [_normal(rng, 2, 3, 4)]


@case("pad", "asymmetric")
def _pad(rng):
    return (lambda a: get_op("pad")(a, ((1, 2), (0, 1)), value=0.5)), [_normal(rng, 3, 4)]


@case("getitem", "advanced-repeated")
def _getitem_advanced(rng):
    index = np.array([0, 1, 1, 2])  # repeated row exercises scatter-add
    return (lambda a: get_op("getitem")(a, index)), [_normal(rng, 4, 3)]


@case("getitem", "basic-slice")
def _getitem_slice(rng):
    return (lambda a: get_op("getitem")(a, (slice(1, 3), slice(None, None, 2)))), [
        _normal(rng, 4, 5)
    ]


@case("stack", "new-axis")
def _stack(rng):
    fn = lambda a, b: get_op("stack")([a, b], axis=1)  # noqa: E731
    return fn, [_normal(rng, 3, 4), _normal(rng, 3, 4)]


@case("flip", "both-axes")
def _flip(rng):
    return (lambda a: get_op("flip")(a, axis=(0, 1))), [_normal(rng, 3, 4)]
