"""Row-by-row checks of the confinement table (REP005-REP008, REP013-REP016).

Every row of :data:`~repro.analysis.rules.CONFINEMENTS` is driven by the
one :func:`~repro.analysis.rules.rule_confined`, so each row must behave
the same way: its planted fixture is flagged outside the sanctioned
paths, clean under every sanctioned entry (and only under the real one,
not a lookalike), and silenced by its own ``# noqa`` code but not by
another rule's.
"""

from pathlib import Path

import pytest

from repro.analysis.rules import CONFINEMENTS, RULES, FileContext, _sanctioned, run_file_rules
from repro.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"
UNSANCTIONED = "src/repro/elsewhere/module.py"

ROWS = pytest.mark.parametrize("row", CONFINEMENTS, ids=[row.rule for row in CONFINEMENTS])
ENTRIES = pytest.mark.parametrize(
    "row, entry",
    [(row, entry) for row in CONFINEMENTS for entry in row.sanctioned],
    ids=[f"{row.rule}-{entry}" for row in CONFINEMENTS for entry in row.sanctioned],
)


def planted(row):
    return (FIXTURES / f"planted_{row.rule.lower()}.py").read_text()


def lint(source, path, row):
    return list(run_file_rules(FileContext.parse(path, source), {row.rule}))


def sanctioned_path(entry):
    # A directory entry sanctions any file beneath it; a ``.py`` entry is
    # a path suffix.
    return f"src/repro/{entry}" if entry.endswith(".py") else f"src/repro/{entry}/module.py"


def lookalike_path(entry):
    # The same shape with the sanctioned component renamed.
    head, _, tail = entry.rpartition("/")
    if entry.endswith(".py"):
        return f"src/repro/legacy_{head}/{tail}" if head else f"src/repro/legacy_{tail}"
    return f"src/repro/{entry}_extra/module.py"


def test_every_row_is_a_catalogued_rule():
    rules = [row.rule for row in CONFINEMENTS]
    assert len(set(rules)) == len(rules)
    assert set(rules) <= set(RULES)


@ROWS
def test_fixture_flagged_outside_sanctioned_paths(row):
    hits = lint(planted(row), UNSANCTIONED, row)
    assert hits, f"{row.rule}: planted fixture not flagged"
    for hit in hits:
        assert hit.rule == row.rule
        what, sep, advice = hit.message.partition(": ")
        assert what and sep
        assert advice == row.advice
        assert f"'# noqa: {row.rule}'" in advice


@ENTRIES
def test_fixture_clean_under_each_sanctioned_entry(row, entry):
    assert lint(planted(row), sanctioned_path(entry), row) == []


@ENTRIES
def test_lookalike_of_sanctioned_entry_is_flagged(row, entry):
    path = lookalike_path(entry)
    assert not _sanctioned(path, row.sanctioned)
    assert lint(planted(row), path, row)


@ROWS
def test_own_noqa_on_each_flagged_line_suppresses(row):
    source = planted(row)
    lines = source.splitlines()
    for line in {hit.line for hit in lint(source, UNSANCTIONED, row)}:
        lines[line - 1] += f"  # noqa: {row.rule}"
    assert lint("\n".join(lines) + "\n", UNSANCTIONED, row) == []


@ROWS
def test_other_rules_noqa_does_not_suppress(row):
    other = next(rule for rule in RULES if rule != row.rule)
    source = planted(row)
    hits = lint(source, UNSANCTIONED, row)
    lines = source.splitlines()
    for line in {hit.line for hit in hits}:
        lines[line - 1] += f"  # noqa: {other}"
    assert lint("\n".join(lines) + "\n", UNSANCTIONED, row) == hits


@pytest.mark.parametrize(
    "path, sanctioned, expected",
    [
        ("src/repro/mpi/process_backend.py", ("mpi",), True),
        ("src\\repro\\mpi\\process_backend.py", ("mpi",), True),
        ("src/repro/mpi_tools/process_backend.py", ("mpi",), False),
        ("src/repro/core/engine.py", ("core/engine.py",), True),
        ("src/repro/notcore/engine.py", ("core/engine.py",), False),
        ("src/repro/core/my_engine.py", ("core/engine.py",), False),
        ("src/repro/optim/sgd.py", ("optim",), True),
    ],
)
def test_sanctioned_matches_whole_components(path, sanctioned, expected):
    assert _sanctioned(path, sanctioned) is expected


@pytest.mark.parametrize("retired", ["REP003", "REP009", "REP010", "REP012"])
def test_retired_rule_id_is_a_one_line_user_error(retired, capsys):
    exit_code = main(["lint", str(FIXTURES), "--no-baseline", "--rules", retired])
    err = capsys.readouterr().err
    assert exit_code == 2
    assert err.strip().count("\n") == 0
    assert "unknown rule" in err and retired in err


def test_analyze_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", str(FIXTURES)])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
