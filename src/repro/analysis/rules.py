"""Repo-specific AST lint rules (the REP00x catalogue).

Each rule encodes an invariant of this codebase that generic linters
cannot know about — see ANALYSIS.md for the full catalogue with
rationale and examples.  Rules are deliberately heuristic: they match
the naming and calling conventions of this repository (``.data`` is a
:class:`~repro.tensor.Tensor` buffer, ``comm``/``router`` are
message-passing endpoints, ``tag=`` is an MPI message tag) and accept
``# noqa: REP00x`` suppressions for documented, intentional uses.

Per-file rules (REP001, REP002, REP004) run on one module at a time;
the paired-message audit (REP003) is a whole-pool pass driven by
:mod:`repro.analysis.lint`, fed by :func:`collect_message_events`.
"""

from __future__ import annotations

import ast
import re
import symtable
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "Violation",
    "FileContext",
    "RULES",
    "run_file_rules",
    "collect_message_events",
    "audit_message_events",
    "MessageEvent",
]


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
    "REP003": "send/recv tag with no matching counterpart in the audited "
    "tree (message can never be delivered/received)",
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
#: (``# noqa: REP003 receiver lives outside the tree``) — parsing stops
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
    parts = ctx.path.replace("\\", "/").split("/")
    if any(fragment in parts for fragment in _REP001_SANCTIONED_DIRS):
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
# REP003 — paired-message audit (cross-file)
# ======================================================================
#: method name -> positional index of the tag argument.  Only attribute
#: calls (``obj.send(...)``) are considered, matching the Communicator /
#: MessageRouter API surface.
_SEND_SIGS = {"send": 2, "isend": 2, "Send": 2, "post": 2}
_RECV_SIGS = {
    "recv": 1,
    "recv_with_status": 1,
    "irecv": 1,
    "Recv": 2,
    "collect": 2,
    "try_collect": 2,
    "peek": 2,
}
# sendrecv(payload, dest, recv_source, send_tag, recv_tag) produces one
# event on each side.
_SENDRECV_SEND_POS = 3
_SENDRECV_RECV_POS = 4

#: tag-expression keys: ("literal", int) exact value, ("call", fname)
#: symbolic tag-builder, ("wildcard",) matches anything on the recv side.
TagKey = tuple


@dataclass(frozen=True)
class MessageEvent:
    """One send or receive site with a statically resolvable tag."""

    kind: str  # "send" | "recv"
    key: TagKey
    path: str
    line: int
    col: int

    def describe_tag(self) -> str:
        if self.key[0] == "literal":
            return f"tag {self.key[1]}"
        if self.key[0] == "call":
            return f"tag {self.key[1]}(...)"
        return "any tag"


def _module_constants(tree: ast.Module) -> dict[str, int]:
    """Module-level ``NAME = <int expr>`` bindings, constant-folded."""
    consts: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                value = _fold_int(node.value, consts)
                if value is not None:
                    consts[target.id] = value
    return consts


def _fold_int(node: ast.AST, consts: dict[str, int]) -> int | None:
    """Best-effort constant folding of integer expressions."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if isinstance(node, ast.Name):
        return consts.get(node.id)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _fold_int(node.operand, consts)
        if inner is None:
            return None
        return -inner if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.BinOp):
        left = _fold_int(node.left, consts)
        right = _fold_int(node.right, consts)
        if left is None or right is None:
            return None
        try:
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.LShift):
                return left << right
            if isinstance(node.op, ast.FloorDiv) and right != 0:
                return left // right
            if isinstance(node.op, ast.Mod) and right != 0:
                return left % right
        except (OverflowError, ValueError):  # pragma: no cover - defensive
            return None
    return None


def _resolve_tag(node: ast.AST | None, consts: dict[str, int], *, recv: bool) -> TagKey | None:
    """Resolve a tag expression to a matchable key, or ``None`` (dynamic)."""
    if node is None:
        # Omitted send tags default to 0 but are ignored (too noisy);
        # omitted recv tags default to the ANY_TAG wildcard.
        return ("wildcard",) if recv else None
    if isinstance(node, (ast.Name, ast.Attribute)):
        attr = node.id if isinstance(node, ast.Name) else node.attr
        if attr == "ANY_TAG":
            return ("wildcard",)
    folded = _fold_int(node, consts)
    if folded is not None:
        return ("literal", folded)
    if isinstance(node, ast.Call):
        name = _dotted_name(node.func)
        if name:
            return ("call", name.rsplit(".", 1)[-1])
    return None


def _tag_argument(node: ast.Call, pos: int, keyword: str) -> ast.AST | None:
    for kw in node.keywords:
        if kw.arg == keyword:
            return kw.value
    if len(node.args) > pos:
        return node.args[pos]
    return None


def collect_message_events(ctx: FileContext) -> list[MessageEvent]:
    """Extract every send/recv site with a statically resolvable tag."""
    consts = _module_constants(ctx.tree)
    events: list[MessageEvent] = []

    def add(kind: str, key: TagKey | None, node: ast.Call) -> None:
        if key is None:
            return
        events.append(MessageEvent(kind, key, ctx.path, node.lineno, node.col_offset))

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        method = node.func.attr
        if method in _SEND_SIGS:
            tag = _tag_argument(node, _SEND_SIGS[method], "tag")
            if tag is not None:  # omitted send tag: skipped (see _resolve_tag)
                add("send", _resolve_tag(tag, consts, recv=False), node)
        elif method in _RECV_SIGS:
            tag = _tag_argument(node, _RECV_SIGS[method], "tag")
            add("recv", _resolve_tag(tag, consts, recv=True), node)
        elif method == "sendrecv":
            send_tag = _tag_argument(node, _SENDRECV_SEND_POS, "send_tag")
            recv_tag = _tag_argument(node, _SENDRECV_RECV_POS, "recv_tag")
            if send_tag is not None:
                add("send", _resolve_tag(send_tag, consts, recv=False), node)
            add("recv", _resolve_tag(recv_tag, consts, recv=True), node)
    return events


def audit_message_events(events: list[MessageEvent]) -> Iterator[Violation]:
    """Whole-pool paired-message audit.

    A resolved send tag must have a matching recv tag somewhere in the
    audited pool (exact literal value or same symbolic tag-builder
    call); a wildcard receive matches sends *in the same file only* —
    a pool-wide wildcard would neuter the rule, since the generic
    collective layer legitimately receives with ``ANY_TAG``.
    Resolved recv tags symmetrically require a matching send.
    """
    sends = [e for e in events if e.kind == "send"]
    recvs = [e for e in events if e.kind == "recv"]
    send_keys = {e.key for e in sends}
    recv_keys = {e.key for e in recvs if e.key[0] != "wildcard"}
    wildcard_files = {e.path for e in recvs if e.key[0] == "wildcard"}

    for event in sends:
        if event.key in recv_keys or event.path in wildcard_files:
            continue
        yield Violation(
            "REP003",
            event.path,
            event.line,
            event.col,
            f"send with {event.describe_tag()} has no matching receive "
            "anywhere in the audited tree: the message would sit in the "
            "mailbox forever (check the counterpart module, or suppress "
            "with '# noqa: REP003' if the receiver is outside the tree)",
        )
    for event in recvs:
        if event.key[0] == "wildcard" or event.key in send_keys:
            continue
        yield Violation(
            "REP003",
            event.path,
            event.line,
            event.col,
            f"receive with {event.describe_tag()} has no matching send "
            "anywhere in the audited tree: the receive would block until "
            "the deadlock watchdog fires",
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
# REP005 — hand-rolled training loops outside the Engine
# ======================================================================
#: The one sanctioned home of the epoch/batch loop (posix-style suffix).
_REP005_SANCTIONED_SUFFIX = "core/engine.py"


def _loop_calls(loop: ast.For | ast.AsyncFor | ast.While) -> set[str]:
    """Attribute-method names called anywhere inside the loop body."""
    calls: set[str] = set()
    for stmt in loop.body + loop.orelse:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                calls.add(node.func.attr)
    return calls


def rule_rep005(ctx: FileContext) -> Iterator[Violation]:
    if ctx.path.replace("\\", "/").endswith(_REP005_SANCTIONED_SUFFIX):
        return
    for loop in ast.walk(ctx.tree):
        if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
            continue
        calls = _loop_calls(loop)
        # The signature of a training loop: a backward pass feeding an
        # optimizer step.  Either alone is innocent (gradcheck calls
        # backward; schedules call step).
        if "backward" in calls and "step" in calls:
            yield Violation(
                "REP005",
                ctx.path,
                loop.lineno,
                loop.col_offset,
                "hand-rolled training loop (backward() + step() inside one "
                "loop): the canonical epoch/batch loop lives in "
                "repro.core.engine.Engine — use Engine.fit with callbacks, "
                "or suppress with '# noqa: REP005' and a justification",
            )


# ======================================================================
# REP006 — multiprocessing / mmap outside the MPI runtime
# ======================================================================
#: The one sanctioned home of process-level transport code.  Everything
#: else must go through the Communicator API (repro.mpi.run_parallel),
#: otherwise rank programs grow private side channels that the deadlock
#: watchdog, the MPI sanitizer, and the REP003 message audit cannot see.
_REP006_SANCTIONED_DIRS = ("mpi",)

#: Top-level modules whose import signals process-level transport
#: (``mmap``: shared mappings are handed out by repro.mpi.shared_empty).
_REP006_FORBIDDEN_ROOTS = ("multiprocessing", "mmap")


def rule_rep006(ctx: FileContext) -> Iterator[Violation]:
    parts = ctx.path.replace("\\", "/").split("/")
    if any(fragment in parts for fragment in _REP006_SANCTIONED_DIRS):
        return
    for node in ast.walk(ctx.tree):
        imported: str | None = None
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _REP006_FORBIDDEN_ROOTS:
                    imported = alias.name
                    break
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            if node.module.split(".")[0] in _REP006_FORBIDDEN_ROOTS:
                imported = node.module
        if imported is None:
            continue
        yield Violation(
            "REP006",
            ctx.path,
            node.lineno,
            node.col_offset,
            f"direct import of {imported!r} outside src/repro/mpi/: "
            "process-level transport (workers, queues, named segments, shared "
            "mappings) is the MPI runtime's job — use repro.mpi.run_parallel("
            "backend='processes') and repro.mpi.shared_empty so inter-rank "
            "communication stays behind the Communicator API (watchdog, sanitizers, "
            "message audit), or suppress with '# noqa: REP006' plus a "
            "justification",
        )


# ======================================================================
# REP007 — Workspace arenas constructed outside the sanctioned modules
# ======================================================================
#: Where building a Workspace is legitimate: the tensor package (which
#: defines the arena and the per-thread default) and the inference plan
#: (which owns a private arena per compiled model).  Everywhere else,
#: constructing an arena forks the buffer-reuse accounting and invites
#: two owners handing out the same scratch — callers should use
#: repro.tensor.get_workspace() or accept an arena as a parameter.
_REP007_SANCTIONED_DIRS = ("tensor",)
_REP007_SANCTIONED_SUFFIX = "core/inference.py"


def rule_rep007(ctx: FileContext) -> Iterator[Violation]:
    posix = ctx.path.replace("\\", "/")
    parts = posix.split("/")
    if any(fragment in parts for fragment in _REP007_SANCTIONED_DIRS):
        return
    if posix.endswith(_REP007_SANCTIONED_SUFFIX):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted_name(node.func)
        if not (name == "Workspace" or name.endswith(".Workspace")):
            continue
        yield Violation(
            "REP007",
            ctx.path,
            node.lineno,
            node.col_offset,
            "Workspace construction outside src/repro/tensor/ and "
            "src/repro/core/inference.py: private arenas split the reuse "
            "accounting and can hand out scratch another owner still "
            "holds — request buffers via repro.tensor.get_workspace() or "
            "take an arena as a parameter, or suppress with "
            "'# noqa: REP007' plus a justification",
        )


# ======================================================================
# REP008 — raw perf_counter timing outside the observability layer
# ======================================================================
#: Where reading time.perf_counter() directly is legitimate: the obs
#: package (which *defines* the sanctioned clock and the wall-clock
#: anchor), the tensor perf registry (pre-dates obs; its counters feed
#: the same timeline), and benchmarks (standalone timing harnesses).
#: Everywhere else, a private perf_counter() reading produces timestamps
#: that cannot be aligned with the trace timeline — call
#: ``repro.obs.trace.clock()`` (the same function, re-exported) or open
#: a span instead.
_REP008_SANCTIONED_DIRS = ("obs", "benchmarks")
_REP008_SANCTIONED_SUFFIX = "tensor/perf.py"

#: Call spellings that read the raw monotonic clock.
_REP008_CLOCK_CALLS = {"perf_counter", "perf_counter_ns"}


def rule_rep008(ctx: FileContext) -> Iterator[Violation]:
    posix = ctx.path.replace("\\", "/")
    parts = posix.split("/")
    if any(fragment in parts for fragment in _REP008_SANCTIONED_DIRS):
        return
    if posix.endswith(_REP008_SANCTIONED_SUFFIX):
        return

    def hit(node: ast.AST, what: str) -> Violation:
        return Violation(
            "REP008",
            ctx.path,
            node.lineno,
            node.col_offset,
            f"{what}: raw perf_counter readings cannot be aligned with "
            "the trace timeline — use repro.obs.trace.clock() (the same "
            "monotonic clock, shared with every span) or wrap the region "
            "in trace.span(...), or suppress with '# noqa: REP008' plus "
            "a justification",
        )

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            name = _dotted_name(node.func)
            leaf = name.rsplit(".", 1)[-1]
            if leaf in _REP008_CLOCK_CALLS and (
                name == leaf or name.startswith("time.")
            ):
                yield hit(node, f"call to {name}()")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _REP008_CLOCK_CALLS:
                    yield hit(node, f"'from time import {alias.name}'")


# ======================================================================
# REP013 — physics construction outside the scenario registry
# ======================================================================
#: Where instantiating equations / initial conditions / boundary
#: stencils directly is legitimate: the solver package (which defines
#: them) and the scenarios package (whose build_* helpers are the one
#: sanctioned spec-string -> object resolution point).  Everywhere else
#: — CLI, experiments, data generation, examples — the physics must
#: come from a :class:`~repro.scenarios.Scenario`, otherwise "many
#: PDEs, one pipeline" decays back into per-script hardcoded setups
#: that the registry, the residual evaluator, and ``--scenario`` flags
#: cannot see.
_REP013_SANCTIONED_DIRS = ("scenarios", "solver")

#: Concrete physics factories: any direct call is a hardcoded choice.
_REP013_CONSTRUCTORS = {
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
_REP013_LOOKUPS = {
    "get_equation",
    "get_boundary_condition",
    "get_field_boundary",
    "local_boundary",
}


def rule_rep013(ctx: FileContext) -> Iterator[Violation]:
    parts = ctx.path.replace("\\", "/").split("/")
    if any(fragment in parts for fragment in _REP013_SANCTIONED_DIRS):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        leaf = _dotted_name(node.func).rsplit(".", 1)[-1]
        if leaf in _REP013_CONSTRUCTORS:
            what = f"direct call to {leaf}()"
        elif (
            leaf in _REP013_LOOKUPS
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            what = f"{leaf}({node.args[0].value!r}) with a hardcoded name"
        else:
            continue
        yield Violation(
            "REP013",
            ctx.path,
            node.lineno,
            node.col_offset,
            f"{what}: equation/IC/BC choices outside src/repro/scenarios/ "
            "and src/repro/solver/ bypass the scenario registry — resolve "
            "a Scenario (get_scenario / --scenario) and use the "
            "scenarios.build_* helpers, or suppress with '# noqa: REP013' "
            "plus a justification",
        )


# ======================================================================
# REP014 — hardcoded float dtype literals outside the precision policy
# ======================================================================
#: Where ``np.float64`` / ``np.float32`` literals are legitimate: the
#: tensor package, which *defines* the precision policy (the two-member
#: mode table in ``tensor/precision.py``) and casts at the Tensor
#: boundary.  Everywhere else a pinned dtype either silently up-casts a
#: float32 graph back to float64 (the exact leak PrecisionSanitizer
#: hunts at runtime — this rule is its static twin) or freezes a buffer
#: out of the ``--precision`` flag's reach.  Documented exceptions
#: (solver goldens that must stay bit-exact float64, tolerance-tier
#: comparisons) carry ``# noqa: REP014`` with a rationale.
_REP014_SANCTIONED_DIRS = ("tensor",)

#: Attribute spellings of the two policy-managed float dtypes.
_REP014_DTYPE_ATTRS = {"float64", "float32"}


def rule_rep014(ctx: FileContext) -> Iterator[Violation]:
    parts = ctx.path.replace("\\", "/").split("/")
    if any(fragment in parts for fragment in _REP014_SANCTIONED_DIRS):
        return

    def hit(node: ast.AST, what: str) -> Violation:
        return Violation(
            "REP014",
            ctx.path,
            node.lineno,
            node.col_offset,
            f"{what}: a dtype pinned outside src/repro/tensor/ bypasses "
            "the precision policy — use repro.tensor.default_dtype() / "
            "compute_dtype(), or let the Tensor boundary cast; suppress "
            "with '# noqa: REP014' plus a comment for buffers that must "
            "stay at a fixed width (e.g. float64 solver goldens)",
        )

    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _REP014_DTYPE_ATTRS
            and _dotted_name(node.value) in {"np", "numpy"}
        ):
            yield hit(node, f"np.{node.attr} literal")
        elif isinstance(node, ast.Call):
            for kw in node.keywords:
                if (
                    kw.arg == "dtype"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value in _REP014_DTYPE_ATTRS
                ):
                    yield hit(node, f"dtype={kw.value.value!r} string literal")


# ======================================================================
# REP015 — Parareal correction arithmetic outside the driver
# ======================================================================
#: The one sanctioned home of the Parareal predictor-corrector update
#: ``G(U_k+1) + F(U_k) - G(U_k)``.  Re-deriving the correction at call
#: sites forks the convergence semantics (tolerance handling, the
#: pipelined schedule, the exactness guarantee) away from the driver
#: the tests pin — use ``PararealDriver`` instead.
_REP015_SANCTIONED_SUFFIX = "solver/parareal.py"


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


def rule_rep015(ctx: FileContext) -> Iterator[Violation]:
    if ctx.path.replace("\\", "/").endswith(_REP015_SANCTIONED_SUFFIX):
        return

    # Only flag the outermost chain of a +/- tree so a four-term
    # correction does not double-report through its sub-expressions.
    nested: set[ast.AST] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            for child in (node.left, node.right):
                if isinstance(child, ast.BinOp) and isinstance(
                    child.op, (ast.Add, ast.Sub)
                ):
                    nested.add(child)

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.BinOp) or node in nested:
            continue
        leaves = _addsub_leaves(node)
        if leaves is None or len(leaves) < 3:
            continue
        names = [_dotted_name(leaf).lower() for leaf in leaves]
        if any("coarse" in name for name in names) and any(
            "fine" in name for name in names
        ):
            yield Violation(
                "REP015",
                ctx.path,
                node.lineno,
                node.col_offset,
                "a +/- chain mixing coarse- and fine-propagator terms is "
                "the Parareal correction, whose one sanctioned home is "
                "src/repro/solver/parareal.py — run the update through "
                "PararealDriver instead of re-deriving it; suppress with "
                "'# noqa: REP015' plus a rationale for genuine "
                "non-Parareal arithmetic",
            )


# ======================================================================
# REP016 — metric instruments constructed outside the obs layer
# ======================================================================
#: Where constructing Counter/Gauge/Histogram instruments directly is
#: legitimate: the obs package, whose :mod:`repro.obs.metrics` registry
#: owns the process-wide singletons.  Everywhere else a direct
#: ``metrics.Gauge(...)`` (or a bare ``Gauge(...)`` imported from the
#: metrics module) creates a private instrument the registry cannot
#: snapshot, merge across ranks, or export — call sites must go through
#: the lowercase factories ``metrics.counter/gauge/histogram`` instead.
_REP016_SANCTIONED_DIRS = ("obs",)

#: Instrument class names the rule looks for.
_REP016_INSTRUMENTS = {"Counter", "Gauge", "Histogram"}


def rule_rep016(ctx: FileContext) -> Iterator[Violation]:
    posix = ctx.path.replace("\\", "/")
    parts = posix.split("/")
    if any(fragment in parts for fragment in _REP016_SANCTIONED_DIRS):
        return

    # Bare ``Counter(...)`` is ambiguous (collections.Counter, the perf
    # registry's own Counter class): only flag it when this file imports
    # Counter from a metrics module.  Bare Gauge/Histogram have no such
    # stdlib/in-repo doppelgangers and are always flagged.
    metrics_imports: set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module.rsplit(".", 1)[-1] == "metrics":
                for alias in node.names:
                    if alias.name in _REP016_INSTRUMENTS:
                        metrics_imports.add(alias.asname or alias.name)

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted_name(node.func)
        leaf = name.rsplit(".", 1)[-1]
        if leaf not in _REP016_INSTRUMENTS:
            continue
        if "." in name:
            # Qualified: only the metrics module's attributes count
            # (``metrics.Gauge`` / ``obs.metrics.Gauge``), so e.g.
            # ``collections.Counter`` or ``perf.Counter`` stay clean.
            prefix_leaf = name.rsplit(".", 2)[-2]
            if prefix_leaf != "metrics":
                continue
        else:
            if leaf == "Counter" and leaf not in metrics_imports:
                continue
        yield Violation(
            "REP016",
            ctx.path,
            node.lineno,
            node.col_offset,
            f"{name}(...) constructs a metric instrument outside "
            "src/repro/obs/: a private instrument is invisible to the "
            "registry's snapshot/merge/export path — use the "
            "repro.obs.metrics factories (metrics.counter(name) / "
            "metrics.gauge(name) / metrics.histogram(name)), or "
            "suppress with '# noqa: REP016' plus a justification",
        )


#: Per-file rules, run by :func:`run_file_rules`.
_FILE_RULES = {
    "REP001": rule_rep001,
    "REP002": rule_rep002,
    "REP004": rule_rep004,
    "REP005": rule_rep005,
    "REP006": rule_rep006,
    "REP007": rule_rep007,
    "REP008": rule_rep008,
    "REP013": rule_rep013,
    "REP014": rule_rep014,
    "REP015": rule_rep015,
    "REP016": rule_rep016,
}


def run_file_rules(ctx: FileContext, rules: set[str] | None = None) -> Iterator[Violation]:
    """Run every enabled per-file rule, honouring ``# noqa`` suppressions."""
    for rule_id, rule in _FILE_RULES.items():
        if rules is not None and rule_id not in rules:
            continue
        for violation in rule(ctx):
            if not ctx.suppressed(violation.rule, violation.line):
                yield violation
