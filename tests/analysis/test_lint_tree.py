"""Tree-level lint gates: the clean tree stays clean, planted bugs are caught.

``test_source_tree_is_lint_clean`` is the CI gate the whole subsystem
exists for: any new REP00x violation in ``src/repro`` fails the suite.
"""

from pathlib import Path

from repro.analysis import lint_paths
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
    exit_code = main(["lint", str(FIXTURES), "--no-baseline"])
    output = capsys.readouterr().out
    assert exit_code == 1
    assert "REP001" in output
    assert "REP003" in output
    assert "REP005" in output
    assert "REP006" in output
    assert "REP007" in output
    assert "REP008" in output
    assert "REP014" in output
    assert "REP015" in output


def test_fixture_report_details():
    report = lint_paths([FIXTURES])
    assert not report.ok
    assert report.count("REP001") >= 1
    assert report.count("REP003") >= 2  # orphan send AND orphan recv
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
    report = lint_paths([FIXTURES], rules=["REP003"])
    assert report.count("REP001") == 0
    assert report.count("REP003") >= 2


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
    """Every # noqa: REPxxx comment in the tree must carry a rationale."""
    import io
    import re
    import tokenize

    pattern = re.compile(r"#\s*noqa:\s*REP\d+")
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        comment_lines = {
            tok.start[0]
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT and pattern.search(tok.string)
        }
        for lineno in comment_lines:
            # A rationale comment on one of the two preceding lines.
            context = " ".join(lines[max(0, lineno - 3) : lineno - 1])
            assert "#" in context, f"{path}:{lineno}: bare noqa without rationale"
