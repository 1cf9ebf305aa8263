"""Static analysis and runtime verification for the repro codebase.

Two halves (see ANALYSIS.md for the full guide):

**Static** — :func:`lint_paths` runs the repo-specific AST rule
catalogue, one module at a time: REP001 (in-place tape mutation),
REP002 (cross-thread communicator capture), REP004 (loop-variable
capture in closures) and the eight confinement rules (REP005-REP008,
REP013-REP016: "construct X only under path Y", one table), plus
optional ``ruff`` / ``mypy`` baseline passes.  It is exposed as the
``repro lint`` CLI subcommand, with ``# noqa`` suppressions for
intentional findings.

**Runtime** — opt-in, zero-cost-when-off sanitizers
(:class:`FloatSanitizer`, :class:`ShapeContract`, :class:`MpiSanitizer`)
and the :func:`check_all_ops` gradcheck harness covering every
registered differentiable op, exposed as ``repro check``.
"""

from .gradcheck import (
    OP_CASES,
    GradcheckReport,
    check_all_ops,
    check_op,
    gradcheck,
    missing_cases,
    numerical_gradient,
    ops_by_module,
)
from .lint import BaselineResult, LintReport, iter_python_files, lint_paths
from .mpi_audit import MpiAuditReport, MpiSanitizer, RouterAudit
from .rules import RULES, FileContext, Violation
from .sanitizers import FloatSanitizer, PrecisionSanitizer, ShapeContract

__all__ = [
    # static
    "RULES",
    "Violation",
    "FileContext",
    "LintReport",
    "BaselineResult",
    "lint_paths",
    "iter_python_files",
    # gradcheck
    "OP_CASES",
    "GradcheckReport",
    "gradcheck",
    "numerical_gradient",
    "check_op",
    "check_all_ops",
    "ops_by_module",
    "missing_cases",
    # sanitizers
    "FloatSanitizer",
    "PrecisionSanitizer",
    "ShapeContract",
    "MpiSanitizer",
    "MpiAuditReport",
    "RouterAudit",
]
