"""Tree-level lint gates: the clean tree stays clean, planted bugs are caught.

``test_source_tree_is_lint_clean`` is the CI gate the whole subsystem
exists for: any new REP00x violation in ``src/repro`` fails the suite.
"""

from pathlib import Path

import pytest

from repro.analysis import RULES, lint_paths
from repro.cli import main

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def test_source_tree_is_lint_clean(capsys):
    exit_code = main(["lint", str(SRC), "--no-baseline"])
    output = capsys.readouterr().out
    assert exit_code == 0, f"repro lint found violations:\n{output}"
    assert "0 violations" in output


def test_planted_fixtures_are_caught(capsys):
    """Every rule in the catalogue fires on its own planted fixture, so a
    rule (or confinement table row) added without one fails here."""
    exit_code = main(["lint", str(FIXTURES), "--no-baseline"])
    output = capsys.readouterr().out
    assert exit_code == 1
    for rule in RULES:
        fixture = f"planted_{rule.lower()}.py:"
        assert any(
            fixture in line and f" {rule} " in line for line in output.splitlines()
        ), f"{rule}: no finding in fixtures/{fixture[:-1]}"


def test_fixture_report_details():
    report = lint_paths([FIXTURES])
    assert not report.ok
    assert report.count("REP001") >= 1
    assert report.count("REP005") >= 1
    assert report.count("REP006") >= 3  # multiprocessing import + from-import, mmap
    rep001 = [v for v in report.violations if v.rule == "REP001"]
    assert rep001[0].path.endswith("planted_rep001.py")
    rep005 = [v for v in report.violations if v.rule == "REP005"]
    assert rep005[0].path.endswith("planted_rep005.py")
    rep006 = [v for v in report.violations if v.rule == "REP006"]
    assert rep006[0].path.endswith("planted_rep006.py")
    assert report.count("REP007") >= 2  # bare name AND module-qualified
    rep007 = [v for v in report.violations if v.rule == "REP007"]
    assert rep007[0].path.endswith("planted_rep007.py")
    assert report.count("REP008") >= 3  # from-import, bare call, qualified calls
    rep008 = [v for v in report.violations if v.rule == "REP008"]
    assert rep008[0].path.endswith("planted_rep008.py")
    assert report.count("REP014") >= 2  # np.float64 attribute AND dtype string
    rep014 = [v for v in report.violations if v.rule == "REP014"]
    assert rep014[0].path.endswith("planted_rep014.py")
    assert report.count("REP015") >= 2  # name chain AND attribute chain
    rep015 = [v for v in report.violations if v.rule == "REP015"]
    assert rep015[0].path.endswith("planted_rep015.py")


def test_rule_subset_runs_only_selected():
    report = lint_paths([FIXTURES], rules=["REP006"])
    assert report.count("REP001") == 0
    assert report.count("REP006") >= 3


@pytest.mark.parametrize("rule", sorted(RULES))
def test_rule_subset_reports_only_that_rule(rule):
    report = lint_paths([FIXTURES], rules=[rule])
    assert {v.rule for v in report.violations} == {rule}
    assert any(v.path.endswith(f"planted_{rule.lower()}.py") for v in report.violations)


def test_unparseable_file_is_counted_in_the_summary(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    report = lint_paths([broken])
    assert report.count("REP000") == 1
    assert report.format().splitlines()[-1] == "1 violation(s) in 1 file(s) [REP000: 1]"


def test_baseline_passes_skip_not_fail_when_tools_missing():
    report = lint_paths([SRC], baseline=True)
    assert report.ok, report.format()
    for result in report.baseline:
        assert result.status in {"passed", "skipped"}


def test_lint_json_format(capsys):
    import json

    exit_code = main(["lint", str(FIXTURES), "--no-baseline", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    assert payload["tool"] == "repro-lint"
    assert payload["ok"] is False
    assert payload["files_checked"] > 0
    assert payload["counts"]["REP001"] >= 1
    first = payload["violations"][0]
    assert set(first) == {"rule", "path", "line", "col", "message", "github_annotation"}
    annotation = first["github_annotation"]
    assert annotation.startswith("::error file=")
    assert f"title={first['rule']}" in annotation
    assert "\n" not in annotation


def test_lint_json_clean_tree(capsys):
    import json

    exit_code = main(["lint", str(SRC), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 0
    assert payload["ok"] is True
    assert payload["violations"] == []
    assert {b["tool"] for b in payload["baseline_tools"]} == {"ruff", "mypy"}
    assert all(b["status"] in {"passed", "skipped"} for b in payload["baseline_tools"])


def test_suppressed_tree_findings_are_documented():
    """Every # noqa: REPxxx comment in the tree must carry a rationale and
    name only rules that exist: a suppression outliving its rule is noise."""
    import io
    import re
    import tokenize

    pattern = re.compile(r"#\s*noqa:\s*REP\d+")
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        comments = {
            tok.start[0]: tok.string
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT and pattern.search(tok.string)
        }
        for lineno, comment in comments.items():
            unknown = set(re.findall(r"REP\d+", comment)) - set(RULES)
            assert not unknown, f"{path}:{lineno}: noqa names unknown rule(s) {sorted(unknown)}"
            # A rationale comment on one of the two preceding lines.
            context = " ".join(lines[max(0, lineno - 3) : lineno - 1])
            assert "#" in context, f"{path}:{lineno}: bare noqa without rationale"
