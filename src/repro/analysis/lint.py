"""Lint driver: file discovery, rule execution, baseline tool wiring.

The custom AST rules (see :mod:`repro.analysis.rules`) are
self-contained and always run.  The *baseline* passes — ``ruff`` and
``mypy --strict`` over :mod:`repro.tensor` — are best-effort: this
container-friendly repo does not vendor either tool, so a missing tool
is reported as ``skipped`` and does not fail the lint (their
configuration lives in ``pyproject.toml`` and takes effect wherever the
tools are installed).
"""

from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ..exceptions import AnalysisError
from .rules import RULES, FileContext, Violation, run_file_rules

__all__ = ["BaselineResult", "LintReport", "lint_paths", "iter_python_files"]

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist", "*.egg-info"}


def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if not any(part in _SKIP_DIRS or part.endswith(".egg-info") for part in p.parts)
            )
        elif path.suffix == ".py":
            files.append(path)
        elif not path.exists():
            raise AnalysisError(f"lint path does not exist: {path}")
    return files


@dataclass
class BaselineResult:
    """Outcome of one optional external tool pass."""

    tool: str
    status: str  # "passed" | "failed" | "skipped"
    detail: str = ""

    def format(self) -> str:
        suffix = f" ({self.detail})" if self.detail and self.status != "failed" else ""
        text = f"baseline {self.tool}: {self.status}{suffix}"
        if self.status == "failed" and self.detail:
            text += "\n" + self.detail
        return text


@dataclass
class LintReport:
    """Everything one lint invocation produced."""

    violations: list[Violation]
    files_checked: int
    baseline: list[BaselineResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and all(b.status != "failed" for b in self.baseline)

    def count(self, rule: str) -> int:
        return sum(1 for v in self.violations if v.rule == rule)

    def format(self) -> str:
        lines = [v.format() for v in self.violations]
        lines.extend(b.format() for b in self.baseline)
        # Every rule that fired, REP000 (a file that does not parse) included.
        by_rule = Counter(v.rule for v in self.violations)
        summary = ", ".join(f"{rule}: {n}" for rule, n in sorted(by_rule.items()))
        if self.violations:
            lines.append(
                f"{len(self.violations)} violation(s) in {self.files_checked} "
                f"file(s) [{summary}]"
            )
        else:
            lines.append(f"clean: {self.files_checked} file(s), 0 violations")
        return "\n".join(lines)


def _parse_contexts(files: list[Path]) -> tuple[list[FileContext], list[Violation]]:
    contexts: list[FileContext] = []
    violations: list[Violation] = []
    for path in files:
        source = path.read_text(encoding="utf-8")
        try:
            contexts.append(FileContext.parse(str(path), source))
        except SyntaxError as exc:
            violations.append(
                Violation(
                    "REP000",
                    str(path),
                    exc.lineno or 1,
                    exc.offset or 0,
                    f"file does not parse: {exc.msg}",
                )
            )
    return contexts, violations


def lint_paths(
    paths: Sequence[str | Path],
    rules: Sequence[str] | None = None,
    baseline: bool = False,
) -> LintReport:
    """Run the custom AST rules (and optionally the baseline tools).

    Parameters
    ----------
    paths:
        Files and/or directories; directories are walked recursively.
    rules:
        Subset of rule ids to run (default: every rule in ``RULES``).
    baseline:
        Also run ``ruff`` / ``mypy`` when they are installed.
    """
    enabled = set(rules) if rules is not None else None
    if enabled is not None:
        unknown = enabled - set(RULES)
        if unknown:
            raise AnalysisError(f"unknown rule id(s): {sorted(unknown)}")
    files = iter_python_files(paths)
    contexts, violations = _parse_contexts(files)

    for ctx in contexts:
        violations.extend(run_file_rules(ctx, enabled))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    report = LintReport(violations, files_checked=len(files))
    if baseline:
        report.baseline = run_baseline(paths)
    return report


# ----------------------------------------------------------------------
# Baseline tool wiring (ruff / mypy), gated on availability.
# ----------------------------------------------------------------------
def _run(cmd: list[str]) -> tuple[int, str]:
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    output = (proc.stdout + proc.stderr).strip()
    return proc.returncode, output


def run_baseline(paths: Sequence[str | Path]) -> list[BaselineResult]:
    """Run ruff and mypy if installed; report ``skipped`` otherwise."""
    results = [_baseline_ruff(paths), _baseline_mypy(paths)]
    return results


def _baseline_ruff(paths: Sequence[str | Path]) -> BaselineResult:
    exe = shutil.which("ruff")
    cmd: list[str] | None = None
    if exe is not None:
        cmd = [exe, "check", *map(str, paths)]
    elif importlib.util.find_spec("ruff") is not None:
        cmd = [sys.executable, "-m", "ruff", "check", *map(str, paths)]
    if cmd is None:
        return BaselineResult("ruff", "skipped", "not installed")
    code, output = _run(cmd)
    return BaselineResult("ruff", "passed" if code == 0 else "failed", output)


def _baseline_mypy(paths: Sequence[str | Path]) -> BaselineResult:
    if importlib.util.find_spec("mypy") is None:
        return BaselineResult("mypy", "skipped", "not installed")
    # --strict is scoped to the hand-rolled autograd engine, the layer
    # where a silent type confusion is most expensive.
    target: Path | None = None
    for raw in paths:
        candidate = Path(raw) / "tensor"
        if candidate.is_dir():
            target = candidate
            break
    if target is None:
        return BaselineResult("mypy", "skipped", "no tensor/ package under lint paths")
    code, output = _run([sys.executable, "-m", "mypy", "--strict", str(target)])
    return BaselineResult("mypy", "passed" if code == 0 else "failed", output)
