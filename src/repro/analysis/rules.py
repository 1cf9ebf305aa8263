"""Repo-specific AST lint rules (the REP00x catalogue).

Each rule encodes an invariant of this codebase that generic linters
cannot know about — see ANALYSIS.md for the full catalogue with
rationale and examples.  Rules are deliberately heuristic: they match
the naming and calling conventions of this repository (``.data`` is a
:class:`~repro.tensor.Tensor` buffer, ``comm``/``router`` are
message-passing endpoints, ``tag=`` is an MPI message tag) and accept
``# noqa: REP00x`` suppressions for documented, intentional uses.

Every rule runs on one module at a time.  REP001, REP002 and REP004
have visitors of their own; the eight confinement rules (REP005-REP008,
REP013-REP016), each of the form "construct X only under path Y", are
rows of one :data:`CONFINEMENTS` table driven by :func:`rule_confined`.
"""

from __future__ import annotations

import ast
import re
import symtable
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

__all__ = ["Violation", "FileContext", "Confinement", "CONFINEMENTS", "RULES", "run_file_rules"]


@dataclass(frozen=True)
class Violation:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


#: Rule catalogue: id -> one-line summary (details in ANALYSIS.md).
RULES: dict[str, str] = {
    "REP001": "in-place mutation of a Tensor's .data buffer outside a "
    "sanctioned no_grad/copy idiom (corrupts the autograd tape)",
    "REP002": "communicator/router captured by a thread other than the "
    "owning rank's (endpoints are single-thread objects)",
    "REP004": "closure captures a loop variable by reference (late "
    "binding: every closure sees the final iteration's value)",
    "REP005": "hand-rolled training loop (backward + optimizer step inside "
    "a loop) outside core/engine.py — route it through the Engine",
    "REP006": "direct multiprocessing / mmap use outside "
    "src/repro/mpi/ — inter-rank communication must stay behind the "
    "Communicator API",
    "REP007": "Workspace arena constructed outside src/repro/tensor/ and "
    "src/repro/core/inference.py — callers must request buffers from an "
    "existing arena, not build private ones",
    "REP008": "raw time.perf_counter() outside the observability layer — "
    "timing must go through repro.obs.trace.clock so spans and ad-hoc "
    "timers share one clock and one trace timeline",
    "REP013": "hardcoded equation/IC/BC construction outside "
    "src/repro/scenarios/ and src/repro/solver/ — physics choices must "
    "be resolved through the scenario registry (get_scenario + the "
    "build_* helpers), not rebuilt inline",
    "REP014": "np.float64 / np.float32 dtype literal outside "
    "src/repro/tensor/ — compute dtypes must come from the precision "
    "policy (repro.tensor.default_dtype / the Tensor boundary), not be "
    "pinned inline",
    "REP015": "Parareal correction arithmetic outside "
    "src/repro/solver/parareal.py — the predictor-corrector update "
    "G(U_k+1) + F(U_k) - G(U_k) and its convergence bookkeeping live "
    "in PararealDriver, not at call sites",
    "REP016": "metric instrument (Counter/Gauge/Histogram) constructed "
    "outside src/repro/obs/ — instruments are process-wide singletons; "
    "call sites must use the repro.obs.metrics registry factories "
    "(metrics.counter/gauge/histogram), not build private instruments",
}

#: ruff-style suppression comment: bare ``# noqa`` (all rules) or
#: ``# noqa: REP001,REP004`` (specific rules).  The code list may be
#: separated by commas and/or whitespace and may be followed by prose
#: (``# noqa: REP014 float64 solver golden``) — parsing stops
#: at the first token that is not a rule code.
_NOQA_RE = re.compile(r"#\s*noqa(?P<colon>\s*:\s*(?P<codes>.*))?", re.IGNORECASE)
_NOQA_CODES_RE = re.compile(r"^\s*(?P<codes>[A-Z]+[0-9]+(?:[,\s]+[A-Z]+[0-9]+)*)", re.IGNORECASE)


def _parse_suppressions(source: str) -> dict[int, set[str]]:
    """Map line number -> set of suppressed rule ids ({'*'} = all)."""
    out: dict[int, set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "#" not in text:
            continue
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        if match.group("colon") is None:
            out[lineno] = {"*"}
            continue
        codes = _NOQA_CODES_RE.match(match.group("codes"))
        if codes is None:
            # ``# noqa:`` with no parseable code list: treat as blanket
            # suppression, matching ruff's lenient reading.
            out[lineno] = {"*"}
        else:
            out[lineno] = {
                c.upper() for c in re.split(r"[,\s]+", codes.group("codes")) if c
            }
    return out


@dataclass
class FileContext:
    """Parsed view of one source file handed to every rule."""

    path: str
    source: str
    tree: ast.Module
    suppressions: dict[int, set[str]] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str, source: str) -> "FileContext":
        tree = ast.parse(source, filename=path)
        return cls(path, source, tree, _parse_suppressions(source))

    def suppressed(self, rule: str, line: int) -> bool:
        codes = self.suppressions.get(line)
        return bool(codes) and ("*" in codes or rule in codes)


def _sanctioned(path: str, sanctioned: tuple[str, ...]) -> bool:
    """Whether ``path`` lies under a sanctioned directory name or, for an
    entry ending in ``.py``, ends with that path suffix — compared whole
    component by component, so ``notcore/engine.py`` is not ``core/engine.py``."""
    parts = path.replace("\\", "/").split("/")
    return any(
        parts[-len(entry.split("/")) :] == entry.split("/")
        if entry.endswith(".py")
        else entry in parts
        for entry in sanctioned
    )


# ======================================================================
# REP001 — in-place mutation of Tensor .data buffers
# ======================================================================
#: Module path fragments where in-place parameter updates are the
#: documented contract (optimizers update leaf buffers between steps,
#: when no graph references them).
_REP001_SANCTIONED_DIRS = ("optim",)

#: ndarray methods that mutate their receiver in place.
_INPLACE_NDARRAY_METHODS = {
    "fill",
    "sort",
    "partition",
    "put",
    "itemset",
    "setfield",
    "resize",
    "byteswap",
}


def _is_data_attribute(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "data"


def _is_data_subscript(node: ast.AST) -> bool:
    return isinstance(node, ast.Subscript) and _is_data_attribute(node.value)


class _Rep001Visitor(ast.NodeVisitor):
    def __init__(self) -> None:
        self.hits: list[tuple[int, int, str]] = []
        self._func_stack: list[str] = []
        self._no_grad_depth = 0

    # -- scope bookkeeping ------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_With(self, node: ast.With) -> None:
        sanctioned = any(
            isinstance(item.context_expr, ast.Call)
            and _dotted_name(item.context_expr.func).endswith("no_grad")
            for item in node.items
        )
        if sanctioned:
            self._no_grad_depth += 1
            self.generic_visit(node)
            self._no_grad_depth -= 1
        else:
            self.generic_visit(node)

    # -- mutation sites ---------------------------------------------------
    def _flag(self, node: ast.AST, what: str) -> None:
        if self._no_grad_depth:
            return
        self.hits.append((node.lineno, node.col_offset, what))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(node, target, allow_init_self=True)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_target(node, node.target, allow_init_self=True)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if _is_data_attribute(node.target) or _is_data_subscript(node.target):
            self._flag(node, "augmented assignment to .data")
        self.generic_visit(node)

    def _check_target(self, node: ast.AST, target: ast.AST, allow_init_self: bool) -> None:
        if _is_data_subscript(target):
            self._flag(node, "element assignment into .data")
        elif _is_data_attribute(target):
            # `self.data = ...` inside __init__ is the constructor binding
            # the buffer for the first time — the one sanctioned rebind.
            assert isinstance(target, ast.Attribute)
            is_ctor_bind = (
                allow_init_self
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and bool(self._func_stack)
                and self._func_stack[-1] == "__init__"
            )
            if not is_ctor_bind:
                self._flag(node, "rebinding .data on a live tensor")

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # t.data.sort() and friends
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _INPLACE_NDARRAY_METHODS
            and _is_data_attribute(func.value)
        ):
            self._flag(node, f".data.{func.attr}() mutates in place")
        # np.add.at(t.data, ...) / np.<ufunc>.at(t.data, ...)
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "at"
            and node.args
            and _is_data_attribute(node.args[0])
        ):
            self._flag(node, "ufunc.at() scatters into .data in place")
        self.generic_visit(node)


def rule_rep001(ctx: FileContext) -> Iterator[Violation]:
    if _sanctioned(ctx.path, _REP001_SANCTIONED_DIRS):
        return
    visitor = _Rep001Visitor()
    visitor.visit(ctx.tree)
    for line, col, what in visitor.hits:
        yield Violation(
            "REP001",
            ctx.path,
            line,
            col,
            f"{what}: in-place mutation of a Tensor's .data buffer corrupts "
            "the autograd tape; use out-of-place ops, wrap in no_grad() on a "
            "detached copy, or suppress with '# noqa: REP001' plus a comment "
            "explaining why the tape cannot reference this buffer",
        )


# ======================================================================
# REP002 — communicator endpoints crossing thread boundaries
# ======================================================================
#: Variable names treated as message-passing endpoints by convention.
_COMM_NAMES = {"comm", "communicator", "router", "world_comm", "rank_comm"}


def _dotted_name(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        prefix = _dotted_name(node.value)
        return f"{prefix}.{node.attr}" if prefix else node.attr
    return ""


def _function_frees(source: str, path: str) -> dict[str, set[str]]:
    """Free-variable sets of every function scope, keyed by name.

    Uses :mod:`symtable` so the closure analysis matches CPython's own
    (parameters, locals, and comprehension scopes are handled exactly).
    Same-named functions merge their free sets — acceptable for a lint
    heuristic.
    """
    frees: dict[str, set[str]] = {}
    try:
        table = symtable.symtable(source, path, "exec")
    except SyntaxError:  # pragma: no cover - parse errors caught earlier
        return frees

    def walk(tbl: symtable.SymbolTable) -> None:
        if tbl.get_type() == "function":
            frees.setdefault(tbl.get_name(), set()).update(tbl.get_frees())
        for child in tbl.get_children():
            walk(child)

    walk(table)
    return frees


def _lambda_captures(node: ast.Lambda) -> set[str]:
    params = {a.arg for a in node.args.args + node.args.posonlyargs + node.args.kwonlyargs}
    if node.args.vararg:
        params.add(node.args.vararg.arg)
    if node.args.kwarg:
        params.add(node.args.kwarg.arg)
    loads = {
        n.id
        for n in ast.walk(node.body)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return loads - params


def rule_rep002(ctx: FileContext) -> Iterator[Violation]:
    frees: dict[str, set[str]] | None = None  # computed lazily
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted_name(node.func)
        if not (name == "Thread" or name.endswith(".Thread")):
            continue
        target: ast.AST | None = None
        thread_args: ast.AST | None = None
        for kw in node.keywords:
            if kw.arg == "target":
                target = kw.value
            elif kw.arg == "args":
                thread_args = kw.value
        if target is None and len(node.args) >= 2:
            target = node.args[1]
        if thread_args is None and len(node.args) >= 3:
            thread_args = node.args[2]

        captured: set[str] = set()
        if isinstance(target, ast.Name):
            if frees is None:
                frees = _function_frees(ctx.source, ctx.path)
            captured |= frees.get(target.id, set()) & _COMM_NAMES
        elif isinstance(target, ast.Lambda):
            captured |= _lambda_captures(target) & _COMM_NAMES
        if isinstance(thread_args, (ast.Tuple, ast.List)):
            captured |= {
                elt.id
                for elt in thread_args.elts
                if isinstance(elt, ast.Name) and elt.id in _COMM_NAMES
            }
        if captured:
            yield Violation(
                "REP002",
                ctx.path,
                node.lineno,
                node.col_offset,
                f"thread target captures communication endpoint(s) "
                f"{sorted(captured)}: communicators belong to the owning "
                "rank's thread; create the endpoint inside the thread (or "
                "suppress with '# noqa: REP002' if the object is the "
                "thread-safe shared transport by design)",
            )


# ======================================================================
# REP004 — closures capturing loop variables by reference
# ======================================================================
def _loop_target_names(target: ast.AST) -> set[str]:
    return {
        n.id
        for n in ast.walk(target)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
    }


def _closure_free_names(node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> set[str]:
    """Names loaded inside the closure that it does not bind itself."""
    args = node.args
    bound = {a.arg for a in args.args + args.posonlyargs + args.kwonlyargs}
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    body = node.body if isinstance(node.body, list) else [node.body]
    loads: set[str] = set()
    for stmt in body:
        for n in ast.walk(stmt):
            if isinstance(n, ast.Name):
                if isinstance(n.ctx, ast.Store):
                    bound.add(n.id)
                elif isinstance(n.ctx, ast.Load):
                    loads.add(n.id)
    return loads - bound


def rule_rep004(ctx: FileContext) -> Iterator[Violation]:
    seen: set[tuple[int, int]] = set()
    for loop in ast.walk(ctx.tree):
        if not isinstance(loop, (ast.For, ast.AsyncFor)):
            continue
        targets = _loop_target_names(loop.target)
        if not targets:
            continue
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                captured = _closure_free_names(node) & targets
                where = (node.lineno, node.col_offset)
                if captured and where not in seen:
                    seen.add(where)
                    yield Violation(
                        "REP004",
                        ctx.path,
                        node.lineno,
                        node.col_offset,
                        f"closure captures loop variable(s) {sorted(captured)} "
                        "by reference: when invoked after the loop advances "
                        "(e.g. a stored backward closure) it sees the final "
                        "iteration's value; bind via a default argument "
                        "(lambda x=x: ...) or build the closure in a helper "
                        "function",
                    )




# ======================================================================
# Confinement rules — "construct X only under path Y"
# ======================================================================
#: A finder walks one module and yields ``(node, what)`` for each site it
#: flags; ``what`` opens the violation message.
Finder = Callable[[ast.Module], Iterator[tuple[ast.AST, str]]]


@dataclass(frozen=True)
class Confinement:
    """One confinement rule: the construct ``find`` flags may appear only
    in files under ``sanctioned`` — directory names (``"mpi"``) or path
    suffixes (``"core/engine.py"``)."""

    rule: str
    sanctioned: tuple[str, ...]
    find: Finder
    advice: str


def rule_confined(ctx: FileContext, row: Confinement) -> Iterator[Violation]:
    if _sanctioned(ctx.path, row.sanctioned):
        return
    for node, what in row.find(ctx.tree):
        yield Violation(
            row.rule, ctx.path, node.lineno, node.col_offset, f"{what}: {row.advice}"
        )


def _either(*finders: Finder) -> Finder:
    def find(tree: ast.Module) -> Iterator[tuple[ast.AST, str]]:
        for finder in finders:
            yield from finder(tree)

    return find


def _calls(names: set[str], module: str | None = None) -> Finder:
    """Calls whose last dotted component is in ``names``: under any
    qualification, or — given ``module`` — bare or ``module.<name>``."""

    def find(tree: ast.Module) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _dotted_name(node.func)
                leaf = name.rsplit(".", 1)[-1]
                if leaf in names and (module is None or name in (leaf, f"{module}.{leaf}")):
                    yield node, f"call to {name}()"

    return find


def _imports(roots: set[str], names: set[str] | None = None) -> Finder:
    """Imports of any module under ``roots``; given ``names``, only
    ``from <root> import <name>`` of one of those names."""

    def find(tree: ast.Module) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) and names is None:
                hit = next((a.name for a in node.names if a.name.split(".")[0] in roots), None)
                if hit is not None:
                    yield node, f"direct import of {hit!r}"
            elif (
                isinstance(node, ast.ImportFrom)
                and node.module
                and node.module.split(".")[0] in roots
            ):
                if names is None:
                    yield node, f"direct import of {node.module!r}"
                    continue
                for alias in node.names:
                    if alias.name in names:
                        yield node, f"'from {node.module} import {alias.name}'"

    return find


def _training_loops(tree: ast.Module) -> Iterator[tuple[ast.AST, str]]:
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
            continue
        calls = {
            node.func.attr
            for stmt in loop.body + loop.orelse
            for node in ast.walk(stmt)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        }
        # The signature of a training loop: a backward pass feeding an
        # optimizer step.  Either alone is innocent (gradcheck calls
        # backward; schedules call step).
        if "backward" in calls and "step" in calls:
            yield loop, "hand-rolled training loop (backward() + step() inside one loop)"


#: Concrete physics factories: any direct call is a hardcoded choice.
_PHYSICS_CONSTRUCTORS = {
    # equations
    "LinearizedEuler",
    "Diffusion2D",
    "AllenCahn",
    # initial conditions
    "paper_initial_condition",
    "gaussian_pulse",
    "multiple_pulses",
    "plane_wave",
    "scalar_gaussian",
    "scalar_blobs",
    "random_phase_field",
    # boundary stencils
    "make_sponge",
}

#: Name-based lookups: sanctioned when fed a spec field
#: (``get_equation(spec.equation)``), flagged only when the first
#: argument is a string literal — that is the hardcoded form.
_PHYSICS_LOOKUPS = {
    "get_equation",
    "get_boundary_condition",
    "get_field_boundary",
    "local_boundary",
}


def _hardcoded_lookups(tree: ast.Module) -> Iterator[tuple[ast.AST, str]]:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            leaf = _dotted_name(node.func).rsplit(".", 1)[-1]
            if leaf in _PHYSICS_LOOKUPS:
                yield node, f"{leaf}({node.args[0].value!r}) with a hardcoded name"


#: The two policy-managed float dtypes.
_FLOAT_DTYPES = {"float64", "float32"}


def _dtype_literals(tree: ast.Module) -> Iterator[tuple[ast.AST, str]]:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _FLOAT_DTYPES
            and _dotted_name(node.value) in {"np", "numpy"}
        ):
            yield node, f"np.{node.attr} literal"
        elif isinstance(node, ast.Call):
            for kw in node.keywords:
                if (
                    kw.arg == "dtype"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value in _FLOAT_DTYPES
                ):
                    yield node, f"dtype={kw.value.value!r} string literal"


def _addsub_leaves(node: ast.AST) -> list[ast.AST] | None:
    """Leaf operands of a pure ``+``/``-`` expression tree, or ``None``
    as soon as any other operator appears."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        left = _addsub_leaves(node.left)
        right = _addsub_leaves(node.right)
        if left is None or right is None:
            return None
        return left + right
    return [node]


def _parareal_corrections(tree: ast.Module) -> Iterator[tuple[ast.AST, str]]:
    # Only the outermost chain of a +/- tree counts, so a four-term
    # correction does not double-report through its sub-expressions.
    chains = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
    ]
    nested = {child for node in chains for child in (node.left, node.right)}
    for node in chains:
        if node in nested:
            continue
        leaves = _addsub_leaves(node)
        if leaves is None or len(leaves) < 3:
            continue
        names = [_dotted_name(leaf).lower() for leaf in leaves]
        if any("coarse" in name for name in names) and any("fine" in name for name in names):
            yield node, "a +/- chain mixing coarse- and fine-propagator terms"


_INSTRUMENTS = {"Counter", "Gauge", "Histogram"}


def _metric_instruments(tree: ast.Module) -> Iterator[tuple[ast.AST, str]]:
    # Bare ``Counter(...)`` is ambiguous (collections.Counter, or any
    # other module's Counter class): it counts only when this file
    # imports Counter from a metrics module.  Bare Gauge/Histogram have
    # no such doppelgangers; qualified calls count only through a
    # ``metrics`` module (``metrics.Gauge``, ``obs.metrics.Gauge``).
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module
        and node.module.rsplit(".", 1)[-1] == "metrics"
        for alias in node.names
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted_name(node.func)
        leaf = name.rsplit(".", 1)[-1]
        if leaf not in _INSTRUMENTS:
            continue
        if "." in name:
            if name.rsplit(".", 2)[-2] != "metrics":
                continue
        elif leaf == "Counter" and leaf not in imported:
            continue
        yield node, f"{name}(...) constructs a metric instrument"


#: The confinement rules, one row each.  Why each path is the sanctioned
#: home is in ANALYSIS.md; the advice is what the violation tells the
#: author to do instead.
CONFINEMENTS = (
    Confinement(
        "REP005",
        ("core/engine.py",),
        _training_loops,
        "the canonical epoch/batch loop lives in repro.core.engine.Engine — use "
        "Engine.fit with callbacks, or suppress with '# noqa: REP005' and a "
        "justification",
    ),
    Confinement(
        "REP006",
        ("mpi",),
        _imports({"multiprocessing", "mmap"}),
        "process-level transport (workers, queues, named segments, shared "
        "mappings) is the job of the MPI runtime in src/repro/mpi/ — use "
        "repro.mpi.run_parallel(backend='processes') and repro.mpi.shared_empty "
        "so inter-rank communication stays behind the Communicator API "
        "(watchdog, sanitizers), or suppress with '# noqa: REP006' plus a "
        "justification",
    ),
    Confinement(
        "REP007",
        ("tensor", "core/inference.py"),
        _calls({"Workspace"}),
        "a Workspace built outside src/repro/tensor/ and "
        "src/repro/core/inference.py splits the reuse accounting and can hand "
        "out scratch another owner still holds — request buffers via "
        "repro.tensor.get_workspace() or take an arena as a parameter, or "
        "suppress with '# noqa: REP007' plus a justification",
    ),
    Confinement(
        "REP008",
        ("obs", "benchmarks"),
        _either(
            _calls({"perf_counter", "perf_counter_ns"}, module="time"),
            _imports({"time"}, names={"perf_counter", "perf_counter_ns"}),
        ),
        "raw perf_counter readings cannot be aligned with the trace timeline — "
        "use repro.obs.trace.clock() (the same monotonic clock, shared with "
        "every span) or wrap the region in trace.span(...), or suppress with "
        "'# noqa: REP008' plus a justification",
    ),
    Confinement(
        "REP013",
        ("scenarios", "solver"),
        _either(_calls(_PHYSICS_CONSTRUCTORS), _hardcoded_lookups),
        "equation/IC/BC choices outside src/repro/scenarios/ and "
        "src/repro/solver/ bypass the scenario registry — resolve a Scenario "
        "(get_scenario / --scenario) and use the scenarios.build_* helpers, or "
        "suppress with '# noqa: REP013' plus a justification",
    ),
    Confinement(
        "REP014",
        ("tensor",),
        _dtype_literals,
        "a dtype pinned outside src/repro/tensor/ bypasses the precision policy "
        "— use repro.tensor.default_dtype() / compute_dtype(), or let the "
        "Tensor boundary cast; suppress with '# noqa: REP014' plus a comment "
        "for buffers that must stay at a fixed width (e.g. float64 solver "
        "goldens)",
    ),
    Confinement(
        "REP015",
        ("solver/parareal.py",),
        _parareal_corrections,
        "that is the Parareal correction, whose one sanctioned home is "
        "src/repro/solver/parareal.py — run the update through PararealDriver "
        "instead of re-deriving it; suppress with '# noqa: REP015' plus a "
        "rationale for genuine non-Parareal arithmetic",
    ),
    Confinement(
        "REP016",
        ("obs",),
        _metric_instruments,
        "outside src/repro/obs/ a private instrument is invisible to the "
        "registry's snapshot/merge/export path — use the repro.obs.metrics "
        "factories (metrics.counter(name) / metrics.gauge(name) / "
        "metrics.histogram(name)), or suppress with '# noqa: REP016' plus a "
        "justification",
    ),
)


#: Per-file rules, run by :func:`run_file_rules`.
_FILE_RULES: dict[str, Callable[[FileContext], Iterator[Violation]]] = {
    "REP001": rule_rep001,
    "REP002": rule_rep002,
    "REP004": rule_rep004,
    **{row.rule: partial(rule_confined, row=row) for row in CONFINEMENTS},
}


def run_file_rules(ctx: FileContext, rules: set[str] | None = None) -> Iterator[Violation]:
    """Run every enabled per-file rule, honouring ``# noqa`` suppressions."""
    for rule_id, rule in _FILE_RULES.items():
        if rules is not None and rule_id not in rules:
            continue
        for violation in rule(ctx):
            if not ctx.suppressed(violation.rule, violation.line):
                yield violation
