"""Tests for the interprocedural flow analyzer (REP009, REP010, REP012).

Three layers: unit tests for the rank-guard classifier and the call
graph, rule tests over inline snippets and the committed fixture
corpus (planted bugs flagged at the right file:line, corrected twins
clean), and end-to-end CLI/baseline behavior including the tree gate
(``repro analyze src/repro`` is clean against the committed baseline).
"""

import ast
import json
from pathlib import Path

import pytest

from repro.analysis import (
    BASELINE_FILENAME,
    FLOW_RULES,
    analyze_paths,
    find_baseline,
    load_baseline,
)
from repro.analysis.callgraph import build_callgraph
from repro.analysis.flow import analyze_contexts
from repro.analysis.rankdomain import RankGuard, classify_guard
from repro.analysis.rules import FileContext
from repro.cli import main
from repro.exceptions import AnalysisError

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
FLOW_FIXTURES = Path(__file__).resolve().parent / "fixtures" / "flow"


def _ctx(source: str, path: str = "snippet.py") -> FileContext:
    return FileContext.parse(path, source)


def _analyze_source(source: str, rules: set[str] | None = None):
    return analyze_contexts([_ctx(source)], rules)


# ======================================================================
# rankdomain: guard classification
# ======================================================================
def _guard_of(expr: str) -> RankGuard | None:
    return classify_guard(ast.parse(expr, mode="eval").body)


class TestClassifyGuard:
    @pytest.mark.parametrize(
        "expr",
        [
            "rank == 0",
            "rank != 0",
            "rank % 2 == 0",
            "my_rank > 0",
            "comm.rank == 0",
            "comm.Get_rank() == 0",
            "rank == 0 and world_size > 1",
            "not rank",
            "rank",
        ],
    )
    def test_rank_dependent(self, expr):
        guard = _guard_of(expr)
        assert guard is not None
        assert expr.replace("not ", "") in guard.describe() or guard.negated

    @pytest.mark.parametrize(
        "expr",
        [
            "size == 0",
            "x > 1",
            "flag",
            "len(items) == 0",
            "mode == 'train'",
        ],
    )
    def test_rank_independent(self, expr):
        assert _guard_of(expr) is None

    def test_neighbor_guard(self):
        assert _guard_of("north_peer is not None") is not None
        assert _guard_of("neighbor is None") is not None
        assert _guard_of("handle is None") is None

    def test_complement_round_trip(self):
        guard = _guard_of("rank == 0")
        assert guard is not None
        flipped = guard.complement()
        assert flipped.negated != guard.negated
        assert flipped.complement() == guard
        assert "not (" in flipped.describe() or "not (" in guard.describe()


# ======================================================================
# callgraph: indexing and shape-aware resolution
# ======================================================================
_GRAPH_SRC = """
import numpy as np

class Plan:
    def run(self):
        self.helper()
        h = np.zeros(4)
        return h

    def helper(self):
        return free_fn()

class Other:
    def helper(self):
        return 2

def free_fn():
    def nested():
        return 1
    return nested

def zeros(n):
    return [0] * n
"""


class TestCallGraph:
    def setup_method(self):
        self.graph = build_callgraph([_ctx(_GRAPH_SRC)])

    def _info(self, qualname):
        return next(
            i for i in self.graph.functions.values() if i.qualname == qualname
        )

    def test_indexes_methods_and_nested(self):
        names = {i.qualname for i in self.graph.functions.values()}
        assert {"Plan.run", "Plan.helper", "Other.helper", "free_fn",
                "free_fn.nested", "zeros"} <= names

    def test_self_call_resolves_to_own_class_only(self):
        run = self._info("Plan.run")
        ref = next(r for r in run.calls if r.leaf == "helper")
        resolved = {i.qualname for i in self.graph.resolve_ref(ref, run)}
        assert resolved == {"Plan.helper"}

    def test_numpy_qualified_call_resolves_to_nothing(self):
        run = self._info("Plan.run")
        ref = next(r for r in run.calls if r.leaf == "zeros")
        assert ref.receiver == "np"
        assert self.graph.resolve_ref(ref, run) == []

    def test_containment_edge_reaches_nested(self):
        free = self._info("free_fn")
        callees = {i.qualname for i in self.graph.callees(free)}
        assert "free_fn.nested" in callees

    def test_reachable_parents_give_witness_chain(self):
        run = self._info("Plan.run")
        parents = self.graph.reachable([run])
        nested = self._info("free_fn.nested")
        assert nested.key in parents
        chain = self.graph.chain(parents, nested.key)
        assert chain == ["Plan.run", "Plan.helper", "free_fn", "free_fn.nested"]


# ======================================================================
# rule snippets
# ======================================================================
class TestRep009Snippets:
    def test_else_branch_runs_under_complement(self):
        found = _analyze_source(
            "def f(comm, rank):\n"
            "    if rank == 0:\n"
            "        pass\n"
            "    else:\n"
            "        comm.barrier()\n"
        )
        assert [v.rule for v in found] == ["REP009"]
        assert found[0].line == 5

    def test_unguarded_collective_is_clean(self):
        assert _analyze_source("def f(comm):\n    comm.allreduce(1)\n") == []

    def test_non_comm_receiver_ignored(self):
        # functools.reduce / df.gather are not collectives.
        assert (
            _analyze_source("def f(df, fn):\n    if rank == 0:\n        df.gather(fn)\n")
            == []
        )

    def test_noqa_suppresses_flow_finding(self):
        found = _analyze_source(
            "def f(comm, rank):\n"
            "    if rank == 0:\n"
            "        comm.barrier()  # noqa: REP009\n"
        )
        assert found == []


class TestRep012Snippets:
    def test_ndarray_method_spelling_does_not_grow_hot_path(self):
        # h.reshape(...) must not merge into a project function named
        # reshape that allocates.
        found = _analyze_source(
            "import numpy as np\n"
            "class InferencePlan:\n"
            "    def step(self, h):\n"
            "        return h.reshape(4)\n"
            "def reshape(x, n):\n"
            "    return np.zeros(n) + x\n"
        )
        assert found == []

    def test_method_alloc_flagged_at_call_site(self):
        found = _analyze_source(
            "class InferencePlan:\n"
            "    def run(self, h):\n"
            "        return h.copy()\n"
        )
        assert [v.rule for v in found] == ["REP012"]
        assert ".copy()" in found[0].message


# ======================================================================
# fixture corpus
# ======================================================================
def _fixture_findings():
    report = analyze_paths([FLOW_FIXTURES])
    return [(v.rule, Path(v.path).name, v.line) for v in report.violations]


class TestFixtureCorpus:
    def test_every_planted_bug_is_flagged_at_its_line(self):
        assert _fixture_findings() == [
            ("REP009", "planted_rep009.py", 12),
            ("REP009", "planted_rep009.py", 23),
            ("REP010", "planted_rep010.py", 13),
            ("REP010", "planted_rep010.py", 22),
            ("REP012", "planted_rep012.py", 21),
        ]

    def test_clean_twins_are_clean(self):
        for name in sorted(FLOW_FIXTURES.glob("clean_*.py")):
            report = analyze_paths([name])
            assert report.ok, f"{name.name}:\n{report.format()}"

    def test_rep012_reports_witness_chain(self):
        report = analyze_paths([FLOW_FIXTURES / "planted_rep012.py"])
        (violation,) = report.violations
        assert (
            "InferencePlan.step -> _advance_state -> _mix_buffers"
            in violation.message
        )

    def test_rule_subset(self):
        report = analyze_paths([FLOW_FIXTURES], rules=["REP010"])
        assert {v.rule for v in report.violations} == {"REP010"}

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(AnalysisError, match="REP999"):
            analyze_paths([FLOW_FIXTURES], rules=["REP999"])


# ======================================================================
# baseline handling
# ======================================================================
_VALID_ENTRY = {
    "rule": "REP012",
    "path": "planted_rep012.py",
    "line_text": 'scratch = np.zeros(state.shape, dtype=state.dtype)  # REP012: hot path',
    "justification": "fixture exercise",
}


class TestBaseline:
    def test_matching_entry_demotes_finding(self, tmp_path):
        baseline = tmp_path / BASELINE_FILENAME
        baseline.write_text(json.dumps([_VALID_ENTRY]))
        report = analyze_paths(
            [FLOW_FIXTURES / "planted_rep012.py"], baseline_path=baseline
        )
        assert report.ok
        assert len(report.baselined) == 1
        assert report.stale_entries == []
        assert "suppressed by baseline" in report.format()

    def test_stale_entry_is_reported_not_fatal(self, tmp_path):
        entry = dict(_VALID_ENTRY, line_text="never matches anything")
        baseline = tmp_path / BASELINE_FILENAME
        baseline.write_text(json.dumps([entry]))
        report = analyze_paths(
            [FLOW_FIXTURES / "clean_rep012.py"], baseline_path=baseline
        )
        assert report.ok  # stale entries inform, findings gate
        assert len(report.stale_entries) == 1
        assert "stale baseline entry" in report.format()

    @pytest.mark.parametrize(
        "payload",
        [
            "not json at all",
            '{"findings": 12}',
            json.dumps([{"rule": "REP012", "path": "x.py"}]),  # missing fields
            json.dumps([{**_VALID_ENTRY, "justification": "  "}]),  # blank why
        ],
    )
    def test_invalid_baseline_rejected(self, tmp_path, payload):
        baseline = tmp_path / BASELINE_FILENAME
        baseline.write_text(payload)
        with pytest.raises(AnalysisError):
            load_baseline(baseline)

    def test_find_baseline_walks_up_from_paths(self, tmp_path):
        (tmp_path / BASELINE_FILENAME).write_text("[]")
        nested = tmp_path / "pkg" / "sub"
        nested.mkdir(parents=True)
        (nested / "mod.py").write_text("x = 1\n")
        assert find_baseline([nested / "mod.py"]) == tmp_path / BASELINE_FILENAME

    def test_find_baseline_none_when_absent(self, tmp_path, monkeypatch):
        nested = tmp_path / "pkg"
        nested.mkdir()
        monkeypatch.chdir(tmp_path)  # keep the repo's own baseline out of reach
        assert find_baseline([nested]) is None


# ======================================================================
# CLI + tree gate
# ======================================================================
class TestAnalyzeCli:
    def test_findings_exit_1(self, capsys):
        code = main(["analyze", str(FLOW_FIXTURES), "--no-baseline"])
        out = capsys.readouterr().out
        assert code == 1
        for rule in FLOW_RULES:
            assert rule in out

    def test_clean_exit_0(self, capsys):
        code = main(
            ["analyze", str(FLOW_FIXTURES / "clean_rep009.py"), "--no-baseline"]
        )
        assert code == 0
        assert "0 findings" in capsys.readouterr().out

    def test_missing_baseline_exit_2(self, capsys):
        code = main(
            ["analyze", str(FLOW_FIXTURES), "--baseline", "/nonexistent/base.json"]
        )
        assert code == 2

    def test_json_format_schema(self, capsys):
        code = main(["analyze", str(FLOW_FIXTURES), "--no-baseline", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["tool"] == "repro-analyze"
        assert payload["ok"] is False
        assert payload["counts"]["REP009"] == 2
        first = payload["violations"][0]
        assert set(first) == {
            "rule", "path", "line", "col", "message", "github_annotation",
        }
        assert first["github_annotation"].startswith("::error file=")

    def test_rules_subset_flag(self, capsys):
        code = main(
            ["analyze", str(FLOW_FIXTURES), "--no-baseline", "--rules", "rep010"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "REP010" in out and "REP009" not in out

    def test_retired_rule_id_is_a_one_line_user_error(self, capsys):
        """REP011 analysed named-segment lifetimes; the runtime has none."""
        assert set(FLOW_RULES) == {"REP009", "REP010", "REP012"}
        code = main(["analyze", str(FLOW_FIXTURES), "--rules", "rep011"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "REP011" in err

    def test_source_tree_is_analyzer_clean(self, capsys):
        """The CI gate: src/repro has no findings beyond the baseline."""
        code = main(["analyze", str(SRC), "--baseline", str(REPO / BASELINE_FILENAME)])
        out = capsys.readouterr().out
        assert code == 0, f"repro analyze found violations:\n{out}"
        assert "0 findings" in out
