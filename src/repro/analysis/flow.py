"""Interprocedural, rank-abstracted flow analysis (REP009, REP010, REP012).

Where :mod:`repro.analysis.rules` checks one file at a time, this module
answers whole-program questions over the analyzed pool:

- **REP009 — collective divergence.**  A collective call (``barrier``,
  ``allreduce``, ``bcast``, ...) that executes only under a
  rank-dependent guard (see :mod:`repro.analysis.rankdomain`) is a
  guaranteed hang: the generic collectives are built from point-to-point
  messages that every rank must enter.  The rule is interprocedural —
  a rank-guarded call to a helper that *eventually* reaches a
  collective is flagged too, via per-function collective summaries
  propagated to a fixpoint over the project call graph.

- **REP010 — blocking send/recv deadlock cycles.**  An ordering-aware
  upgrade of REP003: instead of asking "does this tag have a
  counterpart anywhere?", it asks "do the two sides of a rank-guarded
  branch each block in ``recv`` before posting the send the *other*
  side is waiting for?" (mutual blocking), and "does a function make
  every rank receive a tag whose only matching sends appear later in
  the same function?" (self cycle).  Sends are buffered in this
  runtime, so send-before-recv orderings are always safe; only
  recv-before-matching-send cycles are flagged.

- **REP012 — allocation on the inference hot path.**  Statically pins
  the "allocation-free after warmup" contract that the perf-counter
  assertion checks only at runtime: any fresh-allocation call
  (``np.zeros``/``np.empty``/``.copy()``/``.astype()``/``Tensor(...)``)
  in a function reachable from ``InferencePlan.run``/``step``/
  ``__call__`` is flagged, except inside the Workspace arena, the perf
  registry, and the observability layer (whose spans are sampled, not
  per-element).

Intentional findings are suppressed per line (``# noqa: REP0xx``) or
per finding via a committed baseline file (``analysis-baseline.json``),
whose entries are matched by rule + path suffix + source-line text (so
they survive unrelated line drift) and must carry a justification.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from ..exceptions import AnalysisError
from .callgraph import (
    CallGraph,
    CallRef,
    FunctionInfo,
    _call_ref,
    build_callgraph,
    call_leaf,
)
from .lint import _parse_contexts, iter_python_files
from .rules import (
    FileContext,
    TagKey,
    Violation,
    _dotted_name,
    _module_constants,
    _resolve_tag,
    _tag_argument,
    collect_message_events,
)
from .rankdomain import RankGuard, classify_guard

__all__ = [
    "FLOW_RULES",
    "AnalysisReport",
    "BaselineEntry",
    "analyze_paths",
    "analyze_contexts",
    "load_baseline",
    "find_baseline",
    "BASELINE_FILENAME",
]

#: Flow-rule catalogue: id -> one-line summary (details in ANALYSIS.md).
FLOW_RULES: dict[str, str] = {
    "REP009": "collective call reachable only under a rank-dependent "
    "branch — ranks taking the other side never enter it and every "
    "participant hangs",
    "REP010": "blocking send/recv ordering forms a mutual wait cycle "
    "(each side receives before posting the send the other side needs)",
    "REP012": "fresh allocation (np.zeros/empty/copy/astype/Tensor) "
    "reachable from InferencePlan.run/step outside the Workspace arena",
}

BASELINE_FILENAME = "analysis-baseline.json"


# ======================================================================
# Guard-context traversal (shared by REP009)
# ======================================================================
def _terminates(stmts: list[ast.stmt]) -> bool:
    return bool(stmts) and isinstance(
        stmts[-1], (ast.Return, ast.Raise, ast.Break, ast.Continue)
    )


def _iter_calls(node: ast.AST) -> Iterator[ast.Call]:
    """Call nodes inside an expression/statement, skipping lambda bodies."""
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Lambda):
            continue
        if isinstance(current, ast.Call):
            yield current
        stack.extend(ast.iter_child_nodes(current))


GuardedCall = tuple[ast.Call, tuple[RankGuard, ...]]


def _collect_guarded(
    stmts: list[ast.stmt], guards: tuple[RankGuard, ...], out: list[GuardedCall]
) -> None:
    """Record every call with the rank guards governing its execution.

    Abstractly interprets rank-dependent control flow: the ``else``
    branch runs under the guard's complement, and statements *after* a
    rank-guarded early ``return``/``raise`` run under the complement
    too (``if rank != 0: return`` is the same split as ``if rank == 0``
    around the rest of the body).
    """
    active = guards
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(stmt, ast.If):
            guard = classify_guard(stmt.test)
            for call in _iter_calls(stmt.test):
                out.append((call, active))
            if guard is None:
                _collect_guarded(stmt.body, active, out)
                _collect_guarded(stmt.orelse, active, out)
            else:
                _collect_guarded(stmt.body, active + (guard,), out)
                _collect_guarded(stmt.orelse, active + (guard.complement(),), out)
                if _terminates(stmt.body) and not stmt.orelse:
                    active = active + (guard.complement(),)
        elif isinstance(stmt, ast.While):
            guard = classify_guard(stmt.test)
            for call in _iter_calls(stmt.test):
                out.append((call, active))
            inner = active + (guard,) if guard is not None else active
            _collect_guarded(stmt.body, inner, out)
            _collect_guarded(stmt.orelse, active, out)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            for call in _iter_calls(stmt.iter):
                out.append((call, active))
            _collect_guarded(stmt.body, active, out)
            _collect_guarded(stmt.orelse, active, out)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                for call in _iter_calls(item.context_expr):
                    out.append((call, active))
            _collect_guarded(stmt.body, active, out)
        elif isinstance(stmt, ast.Try):
            _collect_guarded(stmt.body, active, out)
            for handler in stmt.handlers:
                _collect_guarded(handler.body, active, out)
            _collect_guarded(stmt.orelse, active, out)
            _collect_guarded(stmt.finalbody, active, out)
        else:
            for call in _iter_calls(stmt):
                out.append((call, active))


def _function_calls(info: FunctionInfo) -> list[GuardedCall]:
    out: list[GuardedCall] = []
    _collect_guarded(info.node.body, (), out)
    return out


# ======================================================================
# REP009 — collective divergence
# ======================================================================
#: Methods that are collectives on this runtime's Communicator API.
_COLLECTIVE_METHODS = {
    "barrier",
    "bcast",
    "broadcast",
    "gather",
    "allgather",
    "scatter",
    "reduce",
    "allreduce",
    "alltoall",
    "split",
}

#: Receiver spellings treated as communicator-like endpoints; calls on
#: anything else (e.g. ``functools.reduce``, ``df.gather``) are ignored.
_COMM_RECEIVERS = {
    "comm",
    "communicator",
    "world",
    "world_comm",
    "rank_comm",
    "cart",
    "cart_comm",
    "subcomm",
    "sub_comm",
    "parent",
    "self",
}

#: The collective *implementations* are rank-guarded p2p by design.
_REP009_SANCTIONED_SUFFIXES = ("mpi/api.py",)


def _receiver_leaf(call: ast.Call) -> str:
    if isinstance(call.func, ast.Attribute):
        name = _dotted_name(call.func.value)
        return name.rsplit(".", 1)[-1] if name else ""
    return ""


def _direct_collective(call: ast.Call) -> str | None:
    if (
        isinstance(call.func, ast.Attribute)
        and call.func.attr in _COLLECTIVE_METHODS
        and _receiver_leaf(call) in _COMM_RECEIVERS
    ):
        return call.func.attr
    return None


def _sanctioned_rep009(path: str) -> bool:
    return path.replace("\\", "/").endswith(_REP009_SANCTIONED_SUFFIXES)


def _collective_summaries(
    graph: CallGraph, call_cache: dict[tuple[str, str], list[GuardedCall]]
) -> dict[tuple[str, str], set[str]]:
    """Collectives each function can reach (direct or via callees)."""
    summaries: dict[tuple[str, str], set[str]] = {}
    for key, info in graph.functions.items():
        direct = {
            name
            for call, _guards in call_cache[key]
            if (name := _direct_collective(call)) is not None
        }
        summaries[key] = direct
    changed = True
    while changed:
        changed = False
        for key, info in graph.functions.items():
            current = summaries[key]
            for callee in graph.callees(info):
                extra = summaries[callee.key] - current
                if extra:
                    current |= extra
                    changed = True
    return summaries


def _describe_guards(guards: tuple[RankGuard, ...]) -> str:
    return " and ".join(g.describe() for g in guards)


def rule_rep009(
    graph: CallGraph, call_cache: dict[tuple[str, str], list[GuardedCall]]
) -> Iterator[Violation]:
    summaries = _collective_summaries(graph, call_cache)
    for key, info in graph.functions.items():
        if _sanctioned_rep009(info.path):
            continue
        for call, guards in call_cache[key]:
            if not guards:
                continue
            desc = _describe_guards(guards)
            direct = _direct_collective(call)
            if direct is not None:
                yield Violation(
                    "REP009",
                    info.path,
                    call.lineno,
                    call.col_offset,
                    f"collective {direct}() executes only under the "
                    f"rank-dependent guard '{desc}': ranks taking the other "
                    "side never enter the collective, so every participating "
                    "rank hangs — hoist the collective out of the guard (all "
                    "ranks call it; guard only what differs), or suppress "
                    "with '# noqa: REP009' plus a justification",
                )
                continue
            leaf = call_leaf(call)
            ref = _call_ref(call)
            if ref is None:
                continue
            reached: set[str] = set()
            for callee in graph.resolve_ref(ref, info):
                reached |= summaries[callee.key]
            if reached:
                yield Violation(
                    "REP009",
                    info.path,
                    call.lineno,
                    call.col_offset,
                    f"call to {leaf}() reaches collective(s) "
                    f"{sorted(reached)} under the rank-dependent guard "
                    f"'{desc}': ranks taking the other side never enter the "
                    "collective, so every participating rank hangs — hoist "
                    "the call out of the guard, or suppress with "
                    "'# noqa: REP009' plus a justification",
                )


# ======================================================================
# REP010 — blocking send/recv wait cycles
# ======================================================================
#: Blocking endpoints only: isend/irecv/try_collect/peek return
#: immediately and sendrecv pairs both directions atomically.
_BLOCKING_SEND_SIGS = {"send": 2, "Send": 2}
_BLOCKING_RECV_SIGS = {"recv": 1, "recv_with_status": 1, "Recv": 2}


@dataclass(frozen=True)
class _CommEvent:
    kind: str  # "send" | "recv"
    key: TagKey
    line: int
    col: int
    conditional: bool  # nested under any if (data- or rank-dependent)


def _blocking_events(
    stmts: list[ast.stmt], consts: dict[str, int], conditional: bool = False
) -> list[_CommEvent]:
    """Ordered blocking comm events in a statement list (linearized)."""
    events: list[_CommEvent] = []

    def scan_expr(node: ast.AST, cond: bool) -> None:
        for call in _iter_calls(node):
            if not isinstance(call.func, ast.Attribute):
                continue
            if _receiver_leaf(call) not in _COMM_RECEIVERS:
                continue
            method = call.func.attr
            if method in _BLOCKING_SEND_SIGS:
                tag = _tag_argument(call, _BLOCKING_SEND_SIGS[method], "tag")
                key = _resolve_tag(tag, consts, recv=False) if tag is not None else None
                if key is not None:
                    events.append(
                        _CommEvent("send", key, call.lineno, call.col_offset, cond)
                    )
            elif method in _BLOCKING_RECV_SIGS:
                tag = _tag_argument(call, _BLOCKING_RECV_SIGS[method], "tag")
                key = _resolve_tag(tag, consts, recv=True)
                if key is not None:
                    events.append(
                        _CommEvent("recv", key, call.lineno, call.col_offset, cond)
                    )

    def walk(stmts: list[ast.stmt], cond: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, ast.If):
                scan_expr(stmt.test, cond)
                walk(stmt.body, True)
                walk(stmt.orelse, True)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                scan_expr(stmt.iter, cond)
                walk(stmt.body, cond)
                walk(stmt.orelse, cond)
            elif isinstance(stmt, ast.While):
                scan_expr(stmt.test, cond)
                walk(stmt.body, cond)
                walk(stmt.orelse, cond)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    scan_expr(item.context_expr, cond)
                walk(stmt.body, cond)
            elif isinstance(stmt, ast.Try):
                walk(stmt.body, cond)
                for handler in stmt.handlers:
                    walk(handler.body, True)
                walk(stmt.orelse, cond)
                walk(stmt.finalbody, cond)
            else:
                scan_expr(stmt, cond)

    walk(stmts, conditional)
    return events


def _describe_key(key: TagKey) -> str:
    if key[0] == "literal":
        return f"tag {key[1]}"
    if key[0] == "call":
        return f"tag {key[1]}(...)"
    return "any tag"


@dataclass(frozen=True)
class _SendSite:
    key: TagKey
    path: str
    line: int


def _stmt_range(stmts: list[ast.stmt]) -> tuple[int, int]:
    return stmts[0].lineno, max(s.end_lineno or s.lineno for s in stmts)


def _sends_confined(
    key: TagKey, pool_sends: list[_SendSite], path: str, lo: int, hi: int
) -> bool:
    """True when *every* pool send of ``key`` sits inside [lo, hi] of
    ``path`` — i.e. no third site could satisfy the receive."""
    sites = [s for s in pool_sends if s.key == key]
    return bool(sites) and all(
        s.path == path and lo <= s.line <= hi for s in sites
    )


def rule_rep010(
    graph: CallGraph,
    contexts: list[FileContext],
    consts_by_path: dict[str, dict[str, int]],
) -> Iterator[Violation]:
    pool_sends = [
        _SendSite(e.key, e.path, e.line)
        for ctx in contexts
        for e in collect_message_events(ctx)
        if e.kind == "send"
    ]

    # --- mutual cycle across the two sides of a rank-guarded branch ---
    for ctx in contexts:
        consts = consts_by_path[ctx.path]
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.If) or not node.orelse:
                continue
            if classify_guard(node.test) is None:
                continue
            body_events = _blocking_events(node.body, consts)
            orelse_events = _blocking_events(node.orelse, consts)
            body_lo, body_hi = _stmt_range(node.body)
            orelse_lo, orelse_hi = _stmt_range(node.orelse)
            guard = classify_guard(node.test)
            assert guard is not None
            hit = _find_mutual_cycle(body_events, orelse_events)
            if hit is None:
                continue
            recv_a, recv_b = hit
            if not (
                _sends_confined(recv_a.key, pool_sends, ctx.path, orelse_lo, orelse_hi)
                and _sends_confined(recv_b.key, pool_sends, ctx.path, body_lo, body_hi)
            ):
                continue
            yield Violation(
                "REP010",
                ctx.path,
                recv_a.line,
                recv_a.col,
                f"mutual blocking cycle: ranks where '{guard.describe()}' "
                f"receive {_describe_key(recv_a.key)} before posting "
                f"{_describe_key(recv_b.key)}, while the other ranks "
                f"receive {_describe_key(recv_b.key)} before posting "
                f"{_describe_key(recv_a.key)} — both sides block in recv "
                "and neither send is ever posted; post sends before "
                "receives (sends are buffered) or use sendrecv()",
            )

    # --- self cycle: every rank receives before any matching send ------
    for key, info in graph.functions.items():
        consts = consts_by_path.get(info.path, {})
        events = _blocking_events(info.node.body, consts)
        func_hi = info.node.end_lineno or info.node.lineno
        for idx, event in enumerate(events):
            if event.kind != "recv" or event.conditional or event.key[0] == "wildcard":
                continue
            later_sends = [
                e for e in events[idx + 1 :] if e.kind == "send" and e.key == event.key
            ]
            if not later_sends:
                continue
            if _sends_confined(
                event.key, pool_sends, info.path, event.line + 1, func_hi
            ):
                yield Violation(
                    "REP010",
                    info.path,
                    event.line,
                    event.col,
                    f"every rank blocks in this receive of "
                    f"{_describe_key(event.key)} before any matching send "
                    f"is posted (the only sends of that tag come later in "
                    f"{info.qualname}) — no rank ever reaches the send, so "
                    "the world deadlocks; post the send first (sends are "
                    "buffered) or use sendrecv()",
                )
                break  # one finding per function is enough


def _find_mutual_cycle(
    body: list[_CommEvent], orelse: list[_CommEvent]
) -> tuple[_CommEvent, _CommEvent] | None:
    for i, recv_a in enumerate(body):
        if recv_a.kind != "recv" or recv_a.key[0] == "wildcard":
            continue
        for j, recv_b in enumerate(orelse):
            if recv_b.kind != "recv" or recv_b.key[0] == "wildcard":
                continue
            send_for_a = any(
                k > j
                for k, e in enumerate(orelse)
                if e.kind == "send" and e.key == recv_a.key
            )
            send_for_b = any(
                k > i
                for k, e in enumerate(body)
                if e.kind == "send" and e.key == recv_b.key
            )
            if send_for_a and send_for_b:
                return recv_a, recv_b
    return None


# ======================================================================
# REP012 — allocation on the InferencePlan hot path
# ======================================================================
_REP012_ROOT_CLASS = "InferencePlan"
_REP012_ROOT_METHODS = {"run", "step", "__call__"}
#: Files whose internals are the sanctioned allocation machinery: the
#: arena itself, the perf registry, and the observability layer.
_REP012_EXEMPT_SUFFIXES = ("tensor/workspace.py", "tensor/perf.py")
_REP012_EXEMPT_DIRS = ("obs",)

_NP_ALLOC_FUNCS = {
    "zeros",
    "empty",
    "ones",
    "full",
    "zeros_like",
    "empty_like",
    "ones_like",
    "full_like",
    "array",
    "stack",
    "concatenate",
    "pad",
    "copy",
    "tile",
    "repeat",
}
_METHOD_ALLOCS = {"copy", "astype"}

#: Attribute calls with ndarray-method spellings do not grow the hot
#: path: on this numpy-backed runtime ``h.copy()`` / ``x.reshape(...)``
#: are overwhelmingly ndarray operations, and name-merging them into
#: same-named project functions (Tensor.copy, the reshape op) drags the
#: whole autograd layer into the walk.  Allocating ones (``.copy()``,
#: ``.astype()``) are still flagged directly at the call site.
_NDARRAY_METHOD_EDGE_SKIP = {
    "copy",
    "astype",
    "reshape",
    "transpose",
    "ravel",
    "flatten",
    "squeeze",
    "view",
    "fill",
    "sum",
    "mean",
    "min",
    "max",
    "clip",
    "round",
    "repeat",
    "tile",
    "item",
    "tolist",
}


def _rep012_edge(ref: CallRef) -> bool:
    return not (ref.is_attribute and ref.leaf in _NDARRAY_METHOD_EDGE_SKIP)


def _rep012_exempt(path: str) -> bool:
    posix = path.replace("\\", "/")
    if posix.endswith(_REP012_EXEMPT_SUFFIXES):
        return True
    return any(part in _REP012_EXEMPT_DIRS for part in posix.split("/"))


def _allocation_desc(call: ast.Call) -> str | None:
    name = _dotted_name(call.func)
    if not name:
        return None
    leaf = name.rsplit(".", 1)[-1]
    if name.startswith(("np.", "numpy.")) and leaf in _NP_ALLOC_FUNCS:
        return f"np.{leaf}(...)"
    if leaf == "Tensor":
        return "Tensor(...)"
    if (
        isinstance(call.func, ast.Attribute)
        and leaf in _METHOD_ALLOCS
        and _dotted_name(call.func.value) not in {"np", "numpy"}
    ):
        return f".{leaf}()"
    return None


def _own_call_nodes(func: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.Call]:
    """Call nodes in the body, excluding nested defs (they are their own
    graph nodes, reached via containment edges)."""
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def rule_rep012(graph: CallGraph) -> Iterator[Violation]:
    roots = [
        info
        for info in graph.functions.values()
        if info.class_name == _REP012_ROOT_CLASS and info.name in _REP012_ROOT_METHODS
    ]
    if not roots:
        return
    parents = graph.reachable(
        roots, stop=lambda f: _rep012_exempt(f.path), edge_filter=_rep012_edge
    )
    for key in parents:
        info = graph.functions[key]
        chain = " -> ".join(graph.chain(parents, key))
        for call in _own_call_nodes(info.node):
            desc = _allocation_desc(call)
            if desc is None:
                continue
            yield Violation(
                "REP012",
                info.path,
                call.lineno,
                call.col_offset,
                f"allocation {desc} on the InferencePlan hot path "
                f"(reached via {chain}): after warmup every rollout step "
                "must draw buffers from the plan's Workspace arena — use "
                "workspace.request(...) (or np.copyto into an arena "
                "buffer), or suppress with '# noqa: REP012' if this is a "
                "documented naive fallback or copy-out",
            )


# ======================================================================
# Baseline file handling
# ======================================================================
@dataclass(frozen=True)
class BaselineEntry:
    """One intentionally-accepted finding, with its justification."""

    rule: str
    path: str  # suffix-matched against violation paths
    line_text: str  # stripped source text of the flagged line
    justification: str

    def describe(self) -> str:
        return f"{self.rule} @ {self.path} ('{self.line_text}')"


def load_baseline(path: str | Path) -> list[BaselineEntry]:
    """Parse and validate ``analysis-baseline.json``."""
    raw = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise AnalysisError(f"baseline {path} is not valid JSON: {exc}") from exc
    findings = data.get("findings") if isinstance(data, dict) else data
    if not isinstance(findings, list):
        raise AnalysisError(
            f"baseline {path} must be a list of findings or "
            '{"findings": [...]}'
        )
    entries: list[BaselineEntry] = []
    for i, item in enumerate(findings):
        if not isinstance(item, dict):
            raise AnalysisError(f"baseline {path}: finding #{i} is not an object")
        missing = [
            k
            for k in ("rule", "path", "line_text", "justification")
            if not isinstance(item.get(k), str) or not item[k].strip()
        ]
        if missing:
            raise AnalysisError(
                f"baseline {path}: finding #{i} is missing non-empty "
                f"field(s) {missing} — every baselined finding must say "
                "why it is acceptable"
            )
        entries.append(
            BaselineEntry(
                item["rule"].upper(),
                item["path"],
                item["line_text"],
                item["justification"],
            )
        )
    return entries


def find_baseline(paths: Sequence[str | Path]) -> Path | None:
    """Discover the committed baseline by walking up from the analyzed
    paths (then the working directory), so ``repro analyze src/repro``
    from the repo root finds ``./analysis-baseline.json``."""
    starts: list[Path] = []
    for raw in list(paths) + ["."]:
        path = Path(raw).resolve()
        starts.append(path if path.is_dir() else path.parent)
    seen: set[Path] = set()
    for start in starts:
        for candidate_dir in [start, *start.parents]:
            if candidate_dir in seen:
                continue
            seen.add(candidate_dir)
            candidate = candidate_dir / BASELINE_FILENAME
            if candidate.is_file():
                return candidate
    return None


def _baseline_matches(entry: BaselineEntry, violation: Violation, line_text: str) -> bool:
    if entry.rule != violation.rule:
        return False
    vpath = violation.path.replace("\\", "/")
    epath = entry.path.replace("\\", "/")
    if not (vpath.endswith(epath) or epath.endswith(vpath)):
        return False
    return entry.line_text.strip() == line_text.strip()


# ======================================================================
# Driver
# ======================================================================
@dataclass
class AnalysisReport:
    """Everything one ``repro analyze`` invocation produced."""

    violations: list[Violation]
    files_checked: int
    baselined: list[Violation] = field(default_factory=list)
    baseline_path: str | None = None
    stale_entries: list[BaselineEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def count(self, rule: str) -> int:
        return sum(1 for v in self.violations if v.rule == rule)

    def format(self) -> str:
        lines = [v.format() for v in self.violations]
        if self.baselined:
            lines.append(
                f"{len(self.baselined)} finding(s) suppressed by baseline "
                f"({self.baseline_path})"
            )
        for entry in self.stale_entries:
            lines.append(f"stale baseline entry (no longer matches): {entry.describe()}")
        by_rule = {rule: self.count(rule) for rule in FLOW_RULES if self.count(rule)}
        if self.count("REP000"):
            by_rule["REP000"] = self.count("REP000")
        summary = ", ".join(f"{rule}: {n}" for rule, n in sorted(by_rule.items()))
        if self.violations:
            lines.append(
                f"{len(self.violations)} finding(s) in {self.files_checked} "
                f"file(s) [{summary}]"
            )
        else:
            lines.append(f"clean: {self.files_checked} file(s), 0 findings")
        return "\n".join(lines)


def analyze_contexts(
    contexts: list[FileContext], rules: set[str] | None = None
) -> list[Violation]:
    """Run the enabled flow rules over an already-parsed file pool,
    honouring per-line ``# noqa`` suppressions."""
    graph = build_callgraph(contexts)
    call_cache = {key: _function_calls(info) for key, info in graph.functions.items()}
    consts_by_path = {ctx.path: _module_constants(ctx.tree) for ctx in contexts}
    ctx_map = {ctx.path: ctx for ctx in contexts}

    raw: list[Violation] = []
    if rules is None or "REP009" in rules:
        raw.extend(rule_rep009(graph, call_cache))
    if rules is None or "REP010" in rules:
        raw.extend(rule_rep010(graph, contexts, consts_by_path))
    if rules is None or "REP012" in rules:
        raw.extend(rule_rep012(graph))

    kept: list[Violation] = []
    seen: set[tuple[str, str, int, int, str]] = set()
    for violation in raw:
        ctx = ctx_map.get(violation.path)
        if ctx is not None and ctx.suppressed(violation.rule, violation.line):
            continue
        ident = (
            violation.rule,
            violation.path,
            violation.line,
            violation.col,
            violation.message,
        )
        if ident in seen:
            continue
        seen.add(ident)
        kept.append(violation)
    return kept


def analyze_paths(
    paths: Sequence[str | Path],
    rules: Sequence[str] | None = None,
    baseline_path: str | Path | None = None,
) -> AnalysisReport:
    """Run the interprocedural flow rules over files/directories.

    Parameters
    ----------
    paths:
        Files and/or directories; directories are walked recursively.
    rules:
        Subset of flow-rule ids to run (default: all of ``FLOW_RULES``).
    baseline_path:
        Committed baseline file whose entries demote matching findings
        from failures to informational notes.  ``None`` disables
        baselining (every finding counts).
    """
    enabled = set(rules) if rules is not None else None
    if enabled is not None:
        unknown = enabled - set(FLOW_RULES)
        if unknown:
            raise AnalysisError(
                f"unknown flow rule id(s): {sorted(unknown)} "
                f"(repro analyze runs {sorted(FLOW_RULES)})"
            )
    files = iter_python_files(paths)
    contexts, violations = _parse_contexts(files)
    violations = list(violations)
    violations.extend(analyze_contexts(contexts, enabled))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))

    entries = load_baseline(baseline_path) if baseline_path is not None else []
    sources = {ctx.path: ctx.source.splitlines() for ctx in contexts}
    kept: list[Violation] = []
    baselined: list[Violation] = []
    matched: set[int] = set()
    for violation in violations:
        lines = sources.get(violation.path, [])
        line_text = (
            lines[violation.line - 1] if 0 < violation.line <= len(lines) else ""
        )
        hit = next(
            (
                i
                for i, entry in enumerate(entries)
                if _baseline_matches(entry, violation, line_text)
            ),
            None,
        )
        if hit is None:
            kept.append(violation)
        else:
            matched.add(hit)
            baselined.append(violation)
    stale = [entry for i, entry in enumerate(entries) if i not in matched]
    return AnalysisReport(
        kept,
        files_checked=len(files),
        baselined=baselined,
        baseline_path=str(baseline_path) if baseline_path is not None else None,
        stale_entries=stale,
    )
