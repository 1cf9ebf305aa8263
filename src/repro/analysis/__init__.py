"""Static analysis and runtime verification for the repro codebase.

Two halves (see ANALYSIS.md for the full guide):

**Static** — :func:`lint_paths` runs the repo-specific AST rule
catalogue (REP001: in-place tape mutation, REP002: cross-thread
communicator capture, REP003: unmatched send/recv tags, REP004:
loop-variable capture in closures) plus optional ``ruff`` / ``mypy``
baseline passes, exposed as the ``repro lint`` CLI subcommand.
:func:`analyze_paths` runs the interprocedural, rank-abstracted flow
rules (REP009: collective divergence, REP010: blocking send/recv
cycles, REP012: allocation on the InferencePlan hot path) over a
project call graph, exposed as
``repro analyze`` with ``# noqa`` suppressions and a committed
``analysis-baseline.json`` for intentional findings.

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
from .flow import (
    BASELINE_FILENAME,
    FLOW_RULES,
    AnalysisReport,
    BaselineEntry,
    analyze_paths,
    find_baseline,
    load_baseline,
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
    # flow analysis
    "FLOW_RULES",
    "AnalysisReport",
    "BaselineEntry",
    "analyze_paths",
    "find_baseline",
    "load_baseline",
    "BASELINE_FILENAME",
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
