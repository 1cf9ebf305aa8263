"""Machine-readable emitters for ``repro lint`` and ``repro scenarios``.

``repro lint --format json`` prints one object with ``tool``, ``ok``,
``files_checked``, per-rule ``counts``, the optional ruff/mypy
``baseline_tools`` passes, and a ``violations`` list whose entries carry
a pre-rendered ``github_annotation`` string — printing that field
verbatim in a workflow step makes the finding appear inline on the
pull-request diff (GitHub's ``::error`` workflow command).

``repro scenarios --format json`` shares the envelope style (a ``tool``
tag plus a machine-readable body) via :func:`scenarios_payload`.
"""

from __future__ import annotations

import json
from typing import Any

from .rules import Violation

__all__ = [
    "github_annotation",
    "violation_payload",
    "lint_report_payload",
    "scenarios_payload",
    "to_json",
]


def github_annotation(violation: Violation) -> str:
    """One GitHub Actions ``::error`` workflow command for a finding."""
    # Properties are comma/newline-delimited; the message ends the line.
    message = f"{violation.rule} {violation.message}".replace("\n", " ")
    return (
        f"::error file={violation.path},line={violation.line},"
        f"col={violation.col},title={violation.rule}::{message}"
    )


def violation_payload(violation: Violation) -> dict[str, Any]:
    return {
        "rule": violation.rule,
        "path": violation.path,
        "line": violation.line,
        "col": violation.col,
        "message": violation.message,
        "github_annotation": github_annotation(violation),
    }


def _counts(violations: list[Violation]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for violation in violations:
        counts[violation.rule] = counts.get(violation.rule, 0) + 1
    return dict(sorted(counts.items()))


def lint_report_payload(report: Any) -> dict[str, Any]:
    """JSON payload for a :class:`~repro.analysis.lint.LintReport`."""
    return {
        "tool": "repro-lint",
        "ok": report.ok,
        "files_checked": report.files_checked,
        "counts": _counts(report.violations),
        "violations": [violation_payload(v) for v in report.violations],
        "baseline_tools": [
            {"tool": b.tool, "status": b.status, "detail": b.detail}
            for b in report.baseline
        ],
    }


def scenarios_payload(specs: list[Any]) -> dict[str, Any]:
    """JSON payload for ``repro scenarios --format json``.

    Same envelope family as the lint report (a ``tool`` tag
    plus a machine-readable body), so CI consumers parse one schema.
    Each entry is the spec's canonical dict — including the per-scenario
    parareal defaults — exactly what ``Scenario.from_dict`` accepts.
    """
    from ..scenarios import DEFAULT_SCENARIO  # lazy: avoid analysis<->scenarios cycle

    return {
        "tool": "repro-scenarios",
        "count": len(specs),
        "default": DEFAULT_SCENARIO,
        "scenarios": [spec.to_dict() for spec in specs],
    }


def to_json(payload: dict[str, Any]) -> str:
    return json.dumps(payload, indent=2, sort_keys=False)
