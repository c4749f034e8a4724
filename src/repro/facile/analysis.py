"""Static-analysis passes and the ``repro check`` pass manager.

The compiler's front half (sema, flattening, binding-time analysis)
guarantees that a program *can* be compiled.  The passes here answer the
questions the paper's restrictions leave to the simulator author:

* will this value be read before it is ever written? (``FAC101``)
* is this function / sem / global dead weight? (``FAC102``–``FAC105``)
* can this pattern or ``pat`` arm ever fire, and do arms overlap?
  (``FAC110``/``FAC111``)
* does the binding-time division actually hold — is any dynamic value
  steering control flow or reaching the rt-static step key without a
  dynamic result test? (``FAC200``–``FAC203``, the *BTA-soundness
  audit*; §4 of the paper is the correctness argument this enforces)
* will the rt-static key or an rt-static loop blow up the action cache?
  (``FAC301``/``FAC302``, the *cache-blowup predictor*; §6.2 is where
  the paper hits this in practice)

Passes are small functions registered with a stage:

``ast``
    After semantic analysis; sees the resolved :class:`ProgramInfo`.
``bta``
    After binding-time analysis but *before* dynamic result tests are
    inserted; sees the flattened body and the :class:`Division`.
``post``
    After result-test insertion; invariant checks only.
``ir``
    Below the AST: after code generation, over the replay-IR bodies the
    C backend would lower.  Bytecode verification (``FAC401``–``FAC405``),
    lowerability lint with why-not provenance (``FAC410``/``FAC411``),
    and the uarch module-protocol audit (``FAC5xx``).

:func:`run_check` drives the whole pipeline over one source text and
returns a :class:`CheckReport` (used by the ``repro check`` CLI and by
``inspect.explain_check``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from . import ast_nodes as A
from .bta import (
    DYNAMIC,
    Division,
    RT_STATIC,
    analyze_binding_times,
    insert_dynamic_result_tests,
)
from .builtins import BUILTIN_FUNCS, QUEUE_ATTRS
from .diagnostics import DiagnosticSink, Note
from .inline import FlatMain, flatten_program
from .ir_verify import (
    NATIVE_EXTERN_NAMES,
    audit_builtin_models,
    audit_model_classes,
    verify_body,
    wrap_census,
)
from .parser import parse
from .replay_ir import compile_bodies
from .patterns import PatternDef, pattern_shadowed_by, patterns_intersect
from .sema import ProgramInfo, analyze
from .source import FacileError, SourceBuffer, SourceSpan, UNKNOWN_SPAN


# -- pass registry -------------------------------------------------------------


@dataclass
class AnalysisContext:
    """Everything a pass may look at.  `flat`/`division` are None for
    ``ast``-stage passes; `n_inserted` is set only for ``post``."""

    info: ProgramInfo
    buffer: SourceBuffer | None = None
    flat: FlatMain | None = None
    division: Division | None = None
    n_inserted: int = -1
    # Set only for "ir"-stage passes: the generated simulator whose
    # replay bodies the IR tier verifies, plus a summary dict the ir
    # passes fill in (copied onto CheckReport.ir by run_check).
    compiled: object | None = None
    ir: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AnalysisPass:
    name: str
    stage: str  # "ast" | "bta" | "post" | "ir"
    run: Callable[[AnalysisContext, DiagnosticSink], None]
    description: str = ""


PASSES: list[AnalysisPass] = []


def _register(name: str, stage: str, description: str):
    def deco(fn):
        PASSES.append(AnalysisPass(name, stage, fn, description))
        return fn

    return deco


def run_passes(stage: str, ctx: AnalysisContext, sink: DiagnosticSink,
               only: set[str] | None = None) -> list[str]:
    ran: list[str] = []
    for p in PASSES:
        if p.stage != stage:
            continue
        if only is not None and p.name not in only:
            continue
        p.run(ctx, sink)
        ran.append(p.name)
    return ran


# -- helpers shared by passes --------------------------------------------------


def _original_name(unique: str) -> str:
    """Undo the flattener's ``name__N`` alpha-renaming for messages."""
    base, sep, tail = unique.rpartition("__")
    if sep and tail.isdigit():
        return base
    return unique


def _iter_nodes(node: A.Node):
    yield node
    for value in vars(node).values():
        if isinstance(value, A.Node):
            yield from _iter_nodes(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, A.Node):
                    yield from _iter_nodes(item)


def _is_dynamic_call(expr: A.Expr, info: ProgramInfo) -> str | None:
    """Return a human label if `expr` is an extern / dynamic-builtin call."""
    if isinstance(expr, A.Call):
        if expr.func in info.externs:
            return f"extern {expr.func!r}"
        sig = BUILTIN_FUNCS.get(expr.func)
        if sig is not None and sig.bt_class != "pure":
            return f"dynamic builtin {expr.func!r}"
    return None


# -- "why dynamic" provenance --------------------------------------------------


class DynamismProvenance:
    """Explains *why* a variable ended up dynamic in the division.

    Built once from the flat body: for every variable we record its
    defining assignments (span + the expression's variable sources and
    dynamic roots).  :meth:`chain` walks from a variable back to a root
    — an extern/dynamic-builtin call, or a global that enters the step
    dynamic — producing one :class:`Note` per hop.
    """

    def __init__(self, flat: FlatMain, division: Division):
        self.division = division
        self.info = flat.info
        # var -> list of (span, direct roots, source vars)
        self.defs: dict[str, list[tuple[SourceSpan, list[str], set[str]]]] = {}
        self._collect(flat.body)

    def _expr_deps(self, expr: A.Expr | None) -> tuple[list[str], set[str]]:
        roots: list[str] = []
        sources: set[str] = set()
        if expr is None:
            return roots, sources
        for node in _iter_nodes(expr):
            label = _is_dynamic_call(node, self.info)
            if label is not None:
                roots.append(f"value returned by {label}")
            elif isinstance(node, A.Attr) and node.name == "verify":
                # ?verify cuts the dynamic chain: its result is rt-static.
                return [], set()
            elif isinstance(node, A.Name):
                sources.add(node.ident)
        return roots, sources

    def _add_def(self, name: str, span: SourceSpan, *exprs: A.Expr | None) -> None:
        roots: list[str] = []
        sources: set[str] = set()
        for e in exprs:
            r, s = self._expr_deps(e)
            roots.extend(r)
            sources |= s
        self.defs.setdefault(name, []).append((span, roots, sources))

    def _collect(self, node: A.Node) -> None:
        for child in _iter_nodes(node):
            if isinstance(child, A.ValStmt) and child.init is not None:
                self._add_def(child.name, child.span, child.init)
            elif isinstance(child, A.Assign):
                target = child.target
                if isinstance(target, A.Name):
                    self._add_def(target.ident, child.span, child.value)
                elif isinstance(target, A.Index) and isinstance(target.base, A.Name):
                    self._add_def(
                        target.base.ident, child.span, child.value, target.index
                    )
            elif isinstance(child, A.ExprStmt):
                expr = child.expr
                if (
                    isinstance(expr, A.Attr)
                    and expr.name in QUEUE_ATTRS
                    and QUEUE_ATTRS[expr.name][1]
                    and isinstance(expr.base, A.Name)
                    and expr.args
                ):
                    self._add_def(expr.base.ident, child.span, expr.args[0])

    def _entry_dynamic_global(self, name: str) -> bool:
        d = self.division
        return (
            name in self.info.globals
            and name in d.assigned_globals
            and name not in d.local_like_globals
        )

    def chain(self, name: str, limit: int = 8) -> list[Note]:
        """Notes tracing `name` back to a dynamic root (possibly empty)."""
        notes: list[Note] = []
        visited: set[str] = set()
        current = name
        while len(notes) < limit:
            if current in visited:
                break
            visited.add(current)
            if self._entry_dynamic_global(current) and current != name:
                notes.append(
                    Note(
                        f"global {current!r} enters the step dynamic "
                        "(its previous-step value is not run-time static)"
                    )
                )
                break
            best: tuple[SourceSpan, str, str | None] | None = None
            for span, roots, sources in self.defs.get(current, []):
                if roots:
                    best = (span, roots[0], None)
                    break
                for src in sorted(sources):
                    if self.division.var_bt(src) == DYNAMIC and src not in visited:
                        best = (span, "", src)
                        break
                if best is not None:
                    break
            if best is None:
                if self._entry_dynamic_global(current):
                    notes.append(
                        Note(
                            f"global {current!r} enters the step dynamic "
                            "(its previous-step value is not run-time static)"
                        )
                    )
                break
            span, root, src = best
            pretty = _original_name(current)
            if src is None:
                notes.append(
                    Note(f"{pretty!r} becomes dynamic here: {root}", span)
                )
                break
            notes.append(
                Note(
                    f"{pretty!r} is assigned from dynamic "
                    f"{_original_name(src)!r} here",
                    span,
                )
            )
            current = src
        return notes


def why_dynamic(flat: FlatMain, division: Division, name: str) -> list[str]:
    """Human-readable provenance chain for a dynamic variable."""
    if division.var_bt(name) != DYNAMIC:
        return [f"{name!r} is run-time static"]
    prov = DynamismProvenance(flat, division)
    notes = prov.chain(name)
    if not notes:
        return [f"{name!r} is dynamic at step entry"]
    return [
        n.message + (f" ({n.span})" if n.span is not None and n.span.is_known else "")
        for n in notes
    ]


# -- pass: definite assignment / use before init (FAC101) ----------------------


@_register(
    "use-before-init",
    "bta",
    "locals declared without an initializer must be written before read",
)
def _pass_use_before_init(ctx: AnalysisContext, sink: DiagnosticSink) -> None:
    """Definite-assignment over the flat body.

    Same conservatism as BTA's local-like-global classification: loops
    are assumed to run zero times, branches intersect.  Only flat locals
    are checked — uninitialized *globals* are the host-interface idiom
    (``val init;``, stream PCs) and live in the runtime's slot store.
    """
    flat = ctx.flat
    assert flat is not None
    declared_uninit: dict[str, SourceSpan] = {}
    reported: set[str] = set()

    def scan_expr(expr: A.Expr | None, assigned: set[str]) -> None:
        if expr is None:
            return
        for node in _iter_nodes(expr):
            if (
                isinstance(node, A.Name)
                and node.ident in declared_uninit
                and node.ident not in assigned
                and node.ident not in reported
            ):
                reported.add(node.ident)
                sink.emit(
                    "FAC101",
                    f"{_original_name(node.ident)!r} may be read before "
                    "initialization",
                    node.span,
                    notes=(
                        Note(
                            "declared without an initializer here",
                            declared_uninit[node.ident],
                        ),
                    ),
                )

    def scan_stmt(stmt: A.Stmt, assigned: set[str]) -> set[str]:
        if isinstance(stmt, A.Block):
            for s in stmt.stmts:
                assigned = scan_stmt(s, assigned)
            return assigned
        if isinstance(stmt, A.ValStmt):
            scan_expr(stmt.init, assigned)
            if stmt.init is None:
                declared_uninit[stmt.name] = stmt.span
                return assigned
            return assigned | {stmt.name}
        if isinstance(stmt, A.Assign):
            scan_expr(stmt.value, assigned)
            target = stmt.target
            if isinstance(target, A.Name):
                if stmt.op != "=":
                    scan_expr(target, assigned)  # compound assign reads too
                return assigned | {target.ident}
            if isinstance(target, A.Index):
                scan_expr(target.index, assigned)
                scan_expr(target.base, assigned)  # element write reads binding
            return assigned
        if isinstance(stmt, A.ExprStmt):
            scan_expr(stmt.expr, assigned)
            return assigned
        if isinstance(stmt, A.If):
            scan_expr(stmt.cond, assigned)
            a_then = scan_stmt(stmt.then_body, set(assigned))
            a_else = (
                scan_stmt(stmt.else_body, set(assigned))
                if stmt.else_body is not None
                else set(assigned)
            )
            return a_then & a_else
        if isinstance(stmt, A.Switch):
            scan_expr(stmt.scrutinee, assigned)
            outcomes = []
            has_default = False
            for case in stmt.cases:
                for v in case.values:
                    scan_expr(v, assigned)
                if case.kind == "default":
                    has_default = True
                outcomes.append(scan_stmt(case.body, set(assigned)))
            if outcomes and has_default:
                result = outcomes[0]
                for o in outcomes[1:]:
                    result &= o
                return result
            return assigned
        if isinstance(stmt, A.While):
            scan_expr(stmt.cond, assigned)
            scan_stmt(stmt.body, set(assigned))
            return assigned  # loop may run zero times
        return assigned

    scan_stmt(flat.body, set())


# -- pass: dead code (FAC102-FAC105) -------------------------------------------


@_register(
    "dead-code",
    "ast",
    "functions never called from main, undispatched sems, unused globals",
)
def _pass_dead_code(ctx: AnalysisContext, sink: DiagnosticSink) -> None:
    info = ctx.info

    # Call edges (funs only; sem bodies can call funs too).
    def callees(node: A.Node) -> set[str]:
        return {
            n.func
            for n in _iter_nodes(node)
            if isinstance(n, A.Call) and n.func in info.functions
        }

    # Reachability from main, interleaving fun calls and sem dispatch:
    # any reachable ?exec makes every sem reachable; a reachable pat
    # switch makes the sems of its named patterns reachable.
    reachable_funs: set[str] = set()
    reachable_sems: set[str] = set()
    work: list[A.Node] = []
    if "main" in info.functions:
        reachable_funs.add("main")
        work.append(info.functions["main"].body)
    while work:
        body = work.pop()
        for node in _iter_nodes(body):
            if isinstance(node, A.Call) and node.func in info.functions:
                if node.func not in reachable_funs:
                    reachable_funs.add(node.func)
                    work.append(info.functions[node.func].body)
            elif isinstance(node, A.Attr) and node.name == "exec":
                for pat_name in info.sems:
                    if pat_name not in reachable_sems:
                        reachable_sems.add(pat_name)
                        work.append(info.sems[pat_name].body)
            elif isinstance(node, A.Case) and node.kind == "pat":
                for pat_name in node.pat_names:
                    if pat_name in info.sems and pat_name not in reachable_sems:
                        reachable_sems.add(pat_name)
                        work.append(info.sems[pat_name].body)

    for name, fun in info.functions.items():
        if name not in reachable_funs:
            sink.emit(
                "FAC102",
                f"function {name!r} is never called from 'main'",
                fun.span,
            )
    for pat_name, sem in info.sems.items():
        if pat_name not in reachable_sems:
            sink.emit(
                "FAC103",
                f"sem for pattern {pat_name!r} is never dispatched "
                "(no reachable ?exec or pat switch names it)",
                sem.span,
            )

    # Global read/write census over the whole program (dead funs
    # included, so a global used only by a dead fun gets one warning,
    # not two).  A Name occurrence is a read unless it is exactly the
    # target of a plain ``=`` or the receiver of a mutating queue op.
    reads: set[str] = set()
    writes: set[str] = set()

    bodies: list[A.Node] = [f.body for f in info.functions.values()]
    bodies += [s.body for s in info.sems.values()]
    bodies += [g.init for g in info.globals.values() if g.init is not None]

    write_only_nodes: set[int] = set()
    for body in bodies:
        for child in _iter_nodes(body):
            if isinstance(child, A.Assign):
                target = child.target
                if isinstance(target, A.Name) and target.ident in info.globals:
                    writes.add(target.ident)
                    if child.op == "=":
                        write_only_nodes.add(id(target))
                elif isinstance(target, A.Index):
                    base = target.base
                    if isinstance(base, A.Name) and base.ident in info.globals:
                        writes.add(base.ident)  # element write; binding is read too
            elif (
                isinstance(child, A.Attr)
                and child.name in QUEUE_ATTRS
                and QUEUE_ATTRS[child.name][1]
                and isinstance(child.base, A.Name)
                and child.base.ident in info.globals
            ):
                writes.add(child.base.ident)
                write_only_nodes.add(id(child.base))
    for body in bodies:
        for child in _iter_nodes(body):
            if (
                isinstance(child, A.Name)
                and child.ident in info.globals
                and id(child) not in write_only_nodes
            ):
                reads.add(child.ident)

    for name, decl in info.globals.items():
        if name == "init" or decl.type_name == "stream":
            # The step key and instruction streams are read by the
            # runtime itself; "unused" in Facile source is expected.
            continue
        if name not in reads and name not in writes:
            sink.emit("FAC104", f"global {name!r} is never used", decl.span)
        elif name in writes and name not in reads:
            sink.emit(
                "FAC105",
                f"global {name!r} is written but never read in Facile code "
                "(host-visible instrumentation?)",
                decl.span,
            )


# -- pass: pattern reachability and overlap (FAC110/FAC111) --------------------


@_register(
    "pattern-arms",
    "ast",
    "decode-shadowed patterns and overlapping pat arms",
)
def _pass_pattern_arms(ctx: AnalysisContext, sink: DiagnosticSink) -> None:
    info = ctx.info
    table = info.patterns

    # Dispatch-relevant patterns: those with a sem or named in a pat
    # switch arm.  Helper patterns exist only to be referenced by other
    # pattern definitions; being decode-shadowed is harmless for them.
    dispatch_relevant: set[str] = set(info.sems)
    switch_arms: list[tuple[list[str], SourceSpan]] = []
    for body in [f.body for f in info.functions.values()] + [
        s.body for s in info.sems.values()
    ]:
        for node in _iter_nodes(body):
            if isinstance(node, A.Case) and node.kind == "pat":
                names = [n for n in node.pat_names if n in table.by_name]
                dispatch_relevant.update(names)
                switch_arms.append((names, node.span))

    # FAC110: the reference decoder returns the first declared match, so
    # a dispatch-relevant pattern wholly inside an earlier one never
    # decodes.
    for pat in table.patterns:
        if pat.name not in dispatch_relevant:
            continue
        for earlier in table.patterns[: pat.index]:
            if pattern_shadowed_by(pat, earlier):
                sink.emit(
                    "FAC110",
                    f"pattern {pat.name!r} can never decode: every word it "
                    f"accepts is claimed by earlier pattern {earlier.name!r}",
                    pat.span,
                    notes=(Note(f"{earlier.name!r} declared here", earlier.span),),
                )
                break

    # FAC111: arms of one user switch whose patterns overlap — words in
    # the intersection decode to the earlier-declared pattern, so they
    # always dispatch to its arm.
    for fun in info.functions.values():
        _check_switch_arms(fun.body, table, sink)
    for sem in info.sems.values():
        _check_switch_arms(sem.body, table, sink)


def _check_switch_arms(body: A.Node, table, sink: DiagnosticSink) -> None:
    for node in _iter_nodes(body):
        if not isinstance(node, A.Switch):
            continue
        arms: list[tuple[PatternDef, SourceSpan]] = []
        for case in node.cases:
            if case.kind != "pat":
                continue
            for name in case.pat_names:
                pat = table.by_name.get(name)
                if pat is not None:
                    arms.append((pat, case.span))
        for i, (pat_b, span_b) in enumerate(arms):
            for pat_a, span_a in arms[:i]:
                if pat_a.name == pat_b.name or patterns_intersect(pat_a, pat_b):
                    which = (
                        "duplicates"
                        if pat_a.name == pat_b.name
                        else "overlaps"
                    )
                    sink.emit(
                        "FAC111",
                        f"pat arm {pat_b.name!r} {which} earlier arm "
                        f"{pat_a.name!r}; words matching both always dispatch "
                        "to the earlier arm",
                        span_b,
                        notes=(Note("earlier arm here", span_a),),
                    )
                    break


# -- pass: BTA-soundness audit (FAC200-FAC202) ---------------------------------


@_register(
    "bta-audit",
    "bta",
    "re-derive the dynamic/rt-static frontier; flag unsound key or control flow",
)
def _pass_bta_audit(ctx: AnalysisContext, sink: DiagnosticSink) -> None:
    flat, division = ctx.flat, ctx.division
    assert flat is not None and division is not None

    _audit_division(flat, division, sink)
    _audit_key_dynamism(flat, division, sink)
    _audit_dynamic_control(flat, division, sink)


def _audit_division(flat: FlatMain, division: Division, sink: DiagnosticSink) -> None:
    """FAC200: independently re-run the propagation fixpoint.

    Entry assumptions (params rt-static, globals classified by the
    assigned/local-like rules) are shared with the production analysis;
    what is re-derived here is the *propagation* — a worklist over
    explicit dependency edges instead of bta.py's iterate-to-fixpoint
    statement walk.  Any variable the two solvers label differently is
    a compiler bug worth failing the build over.
    """
    info = flat.info
    bt: dict[str, int] = {}
    for p in flat.params:
        bt[p] = RT_STATIC
    for g in info.globals:
        if g not in division.assigned_globals:
            bt[g] = RT_STATIC
        else:
            bt[g] = RT_STATIC if g in division.local_like_globals else DYNAMIC
    for name in flat.local_names:
        bt.setdefault(name, RT_STATIC)

    # target var -> dependency edges (floor, source vars)
    edges: list[tuple[str, int, set[str]]] = []

    def expr_floor(expr: A.Expr | None) -> tuple[int, set[str]]:
        floor = RT_STATIC
        sources: set[str] = set()
        if expr is None:
            return floor, sources
        stack = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, A.Attr) and node.name == "verify":
                continue  # rt-static by definition; do not descend
            if _is_dynamic_call(node, info) is not None:
                floor = DYNAMIC
            elif isinstance(node, A.Name):
                sources.add(node.ident)
            for value in vars(node).values():
                if isinstance(value, A.Node):
                    stack.append(value)
                elif isinstance(value, list):
                    stack.extend(v for v in value if isinstance(v, A.Node))
        return floor, sources

    for node in _iter_nodes(flat.body):
        if isinstance(node, A.ValStmt) and node.init is not None:
            floor, sources = expr_floor(node.init)
            edges.append((node.name, floor, sources))
        elif isinstance(node, A.Assign):
            target = node.target
            if isinstance(target, A.Name):
                floor, sources = expr_floor(node.value)
                edges.append((target.ident, floor, sources))
            elif isinstance(target, A.Index) and isinstance(target.base, A.Name):
                f1, s1 = expr_floor(node.value)
                f2, s2 = expr_floor(target.index)
                edges.append((target.base.ident, max(f1, f2), s1 | s2))
        elif isinstance(node, A.ExprStmt):
            expr = node.expr
            if (
                isinstance(expr, A.Attr)
                and expr.name in QUEUE_ATTRS
                and QUEUE_ATTRS[expr.name][1]
                and isinstance(expr.base, A.Name)
                and expr.args
            ):
                floor, sources = expr_floor(expr.args[0])
                edges.append((expr.base.ident, floor, sources))

    changed = True
    while changed:
        changed = False
        for target, floor, sources in edges:
            new = max(
                [floor] + [bt.get(s, DYNAMIC) for s in sources] + [bt.get(target, RT_STATIC)]
            )
            if new != bt.get(target, RT_STATIC):
                bt[target] = new
                changed = True

    labels = {RT_STATIC: "rt-static", DYNAMIC: "dynamic"}
    for name in sorted(division.bt):
        ours = bt.get(name)
        if ours is None:
            continue  # e.g. temps created after the audit snapshot
        theirs = division.bt[name]
        if ours != theirs:
            sink.emit(
                "FAC200",
                f"binding-time audit disagrees on {_original_name(name)!r}: "
                f"analysis says {labels[theirs]}, independent re-derivation "
                f"says {labels[ours]} (compiler bug — please report)",
                UNKNOWN_SPAN,
            )


def _audit_key_dynamism(flat: FlatMain, division: Division, sink: DiagnosticSink) -> None:
    """FAC201: the memoization key must be run-time static.

    The action cache is keyed on ``init``'s value at step entry; if
    dynamic data reaches ``init``, replayed steps would be looked up
    under a key the recorded actions never verified — fast-forwarding
    would silently diverge.  No result-test insertion can fix this (the
    tests pin control flow, not the key), so it is an error.
    """
    if "init" not in flat.info.globals:
        return
    if division.var_bt("init") != DYNAMIC:
        return
    prov = DynamismProvenance(flat, division)
    notes = tuple(prov.chain("init"))
    sink.emit(
        "FAC201",
        "dynamic data reaches the rt-static step key 'init'; the action "
        "cache would be keyed on a value no dynamic result test checks, "
        "so fast-forwarding cannot memoize this simulator",
        flat.info.globals["init"].span,
        notes=notes,
    )


def _audit_dynamic_control(flat: FlatMain, division: Division, sink: DiagnosticSink) -> None:
    """FAC202: dynamic-steered branches without an explicit result test.

    The compiler will auto-insert a ``?verify`` here (§4.2), which is
    sound but implicit: the author may not realize this branch forces a
    cache probe on every execution.  Surfacing it as a warning gives
    them the chance to hoist or restructure; an explicit ``?verify`` in
    the source acknowledges (and silences) it.
    """
    prov: DynamismProvenance | None = None
    for node in _iter_nodes(flat.body):
        cond: A.Expr | None = None
        what = ""
        if isinstance(node, A.If):
            cond, what = node.cond, "branch"
        elif isinstance(node, A.Switch):
            cond, what = node.scrutinee, "switch"
        elif isinstance(node, A.While):
            cond, what = node.cond, "loop"
        if cond is None or division.expr_bt(cond) != DYNAMIC:
            continue
        if prov is None:
            prov = DynamismProvenance(flat, division)
        first_var = next(
            (
                n.ident
                for n in _iter_nodes(cond)
                if isinstance(n, A.Name) and division.var_bt(n.ident) == DYNAMIC
            ),
            None,
        )
        notes = tuple(prov.chain(first_var)[:3]) if first_var is not None else ()
        sink.emit(
            "FAC202",
            f"{what} is steered by a dynamic value; an implicit dynamic "
            "result test will be inserted here — make it explicit with "
            "'?verify' if the cache probe is intended",
            node.span,
            notes=notes,
        )


@_register(
    "post-insert-invariant",
    "post",
    "no dynamic branch condition may survive result-test insertion",
)
def _pass_post_insert(ctx: AnalysisContext, sink: DiagnosticSink) -> None:
    """FAC203: after insertion every steering condition must be rt-static.

    This is the compiler invariant the fast engine's correctness rests
    on — a dynamic condition here means a control path the action cache
    would replay without verifying.
    """
    flat, division = ctx.flat, ctx.division
    assert flat is not None and division is not None
    for node in _iter_nodes(flat.body):
        cond: A.Expr | None = None
        if isinstance(node, (A.If, A.While)):
            cond = node.cond
        elif isinstance(node, A.Switch):
            cond = node.scrutinee
        if cond is not None and division.expr_bt(cond) == DYNAMIC:
            sink.emit(
                "FAC203",
                "dynamic steering condition survived result-test insertion "
                "(compiler invariant violated — the fast engine would replay "
                "an unverified path)",
                node.span,
            )


# -- pass: cache-blowup prediction (FAC301/FAC302) -----------------------------


def _affine_in_param(
    expr: A.Expr,
    params: set[str],
    defs: dict[str, A.Expr | None],
    depth: int = 0,
) -> tuple[str | None, int, int] | None:
    """Resolve `expr` to ``coef * param + offset`` if possible.

    Returns ``(param, coef, offset)`` — param None for constants — or
    None when the expression is not affine (which includes every
    bounded-domain operator: ``%``, ``&``, ``?bits``, comparisons) or
    resolves through a multiply-assigned local.
    """
    if depth > 16:
        return None
    if isinstance(expr, A.IntLit):
        return (None, 0, expr.value)
    if isinstance(expr, A.Name):
        if expr.ident in params:
            return (expr.ident, 1, 0)
        if expr.ident in defs:
            rhs = defs[expr.ident]
            if rhs is None:
                return None
            return _affine_in_param(rhs, params, defs, depth + 1)
        return None
    if isinstance(expr, A.Unary) and expr.op == "-":
        inner = _affine_in_param(expr.operand, params, defs, depth + 1)
        if inner is None:
            return None
        return (inner[0], -inner[1], -inner[2])
    if isinstance(expr, A.Binary):
        if expr.op not in ("+", "-", "*"):
            return None
        left = _affine_in_param(expr.left, params, defs, depth + 1)
        right = _affine_in_param(expr.right, params, defs, depth + 1)
        if left is None or right is None:
            return None
        lp, lc, lo = left
        rp, rc, ro = right
        if expr.op == "*":
            if lp is not None and rp is not None:
                return None  # param * param is not affine
            if lp is None:
                return (rp, rc * lo, ro * lo)
            return (lp, lc * ro, lo * ro)
        sign = 1 if expr.op == "+" else -1
        if lp is not None and rp is not None and lp != rp:
            return None  # mixes two key positions; out of scope
        param = lp if lp is not None else rp
        return (param, lc + sign * rc, lo + sign * ro)
    return None


def _single_def_locals(flat: FlatMain) -> dict[str, A.Expr | None]:
    """Map each local assigned exactly once to its defining expression."""
    counts: dict[str, int] = {}
    rhs: dict[str, A.Expr | None] = {}
    for node in _iter_nodes(flat.body):
        if isinstance(node, A.ValStmt):
            counts[node.name] = counts.get(node.name, 0) + 1
            rhs[node.name] = node.init
        elif isinstance(node, A.Assign) and isinstance(node.target, A.Name):
            counts[node.target.ident] = counts.get(node.target.ident, 0) + 1
            rhs[node.target.ident] = node.value
    return {name: rhs[name] for name, n in counts.items() if n == 1}


@_register(
    "cache-blowup",
    "bta",
    "rt-static keys that never repeat and key-dependent loop trip counts",
)
def _pass_cache_blowup(ctx: AnalysisContext, sink: DiagnosticSink) -> None:
    flat, division = ctx.flat, ctx.division
    assert flat is not None and division is not None
    params = set(flat.params)
    defs = _single_def_locals(flat)
    # Only consult defs for rt-static locals: a dynamic local's value is
    # not a function of the key, so resolving through it is meaningless.
    defs = {n: e for n, e in defs.items() if division.var_bt(n) == RT_STATIC}

    # FAC301: the key's next value as a function of its current value.
    # Step n+1's key equals the value assigned to 'init' during step n,
    # and 'init' at entry is the first parameter of main; `k' = a*k + b`
    # with (a, b) != (1, 0) means the key walks an arithmetic orbit —
    # unless the simulated program revisits values, every step mints a
    # fresh cache entry (the §6.2 blowup).  Identity (a, b) == (1, 0)
    # is the canonical re-dispatch and stays quiet; everything
    # non-affine (masking, modulo, table lookups) also stays quiet.
    key_param = flat.params[0] if flat.params else None
    if key_param is not None:
        for node in _iter_nodes(flat.body):
            if (
                isinstance(node, A.Assign)
                and isinstance(node.target, A.Name)
                and node.target.ident == "init"
            ):
                affine = _affine_in_param(node.value, {key_param}, defs)
                if affine is None:
                    continue
                param, coef, offset = affine
                if param is None or (coef, offset) == (1, 0):
                    continue
                formula = f"{coef} * {_original_name(param)} + {offset}"
                sink.emit(
                    "FAC301",
                    f"rt-static key 'init' advances as {formula} every step; "
                    "unless the simulated program revisits key values, each "
                    "step mints a fresh action-cache entry and the cache "
                    "grows without bound",
                    node.span,
                )

    # FAC302: rt-static loop whose trip count is a function of the key.
    # Each distinct key value then specializes a different unrolling;
    # cache size multiplies by the number of distinct trip counts.
    for node in _iter_nodes(flat.body):
        if not isinstance(node, A.While):
            continue
        cond = node.cond
        if division.expr_bt(cond) != RT_STATIC:
            continue
        if not isinstance(cond, A.Binary) or cond.op not in ("<", "<=", ">", ">="):
            continue
        for side in (cond.left, cond.right):
            if isinstance(side, A.IntLit):
                continue
            affine = _affine_in_param(side, params, defs)
            if affine is None or affine[0] is None or affine[1] == 0:
                continue
            param, _, _ = affine
            sink.emit(
                "FAC302",
                "trip count of this rt-static loop depends on step key "
                f"parameter {_original_name(param)!r}; every distinct key "
                "value records a differently-unrolled action sequence, "
                "multiplying action-cache size",
                node.span,
            )
            break


# -- ir-stage passes: below the AST, over the replay-IR bodies ----------------


def _ir_bodies(ctx: AnalysisContext):
    """Compile every action body to replay IR once per report, as the C
    backend's body library does (:func:`compile_bodies`).

    Returns ``(progs, failures, externs)`` where ``progs`` maps action
    number -> :class:`BodyProgram` for bodies that lower, ``failures``
    maps action number -> the :class:`Unlowerable` that pinned the body
    to the Python tier, and ``externs`` is the table of extern names
    interned while compiling (= externs reachable from replay bodies).
    """
    cached = getattr(ctx, "_ir_bodies_cache", None)
    if cached is not None:
        return cached
    assert ctx.compiled is not None
    ctx._ir_bodies_cache = compile_bodies(ctx.compiled)
    return ctx._ir_bodies_cache


def _ir_span(ctx: AnalysisContext, num: int) -> SourceSpan:
    spans = getattr(ctx.compiled, "action_spans", [])
    return spans[num] if num < len(spans) else UNKNOWN_SPAN


@_register(
    "ir-verify",
    "ir",
    "stack-effect/kind/bounds verifier over every compiled replay body",
)
def _pass_ir_verify(ctx: AnalysisContext, sink: DiagnosticSink) -> None:
    """Abstract interpretation of each body's stack bytecode.

    This is the same verdict :func:`ir_verify.assert_lowerable` enforces
    in front of the C emitter at replay time; running it here means a
    discipline violation surfaces as a ``repro check`` error before any
    simulation is attempted.  The 64-bit wrap/guard census is not a
    diagnostic — it lands in the report's ``ir`` summary so shipped
    sources stay clean under ``--werror``.
    """
    compiled = ctx.compiled
    assert compiled is not None
    progs, _failures, externs = _ir_bodies(ctx)
    census: dict[str, int] = {}
    n_failed = 0
    for num in sorted(progs):
        prog = progs[num]
        findings = verify_body(
            prog, n_slots=compiled.slot_count, externs=externs
        )
        span = _ir_span(ctx, num)
        for f in findings:
            sink.emit(
                f.code,
                f.message,
                span,
                notes=tuple(Note(text) for text in f.notes),
            )
        if any(f.is_error for f in findings):
            n_failed += 1
        for key, n in wrap_census(prog).items():
            census[key] = census.get(key, 0) + n
    ctx.ir["bodies_verified"] = len(progs) - n_failed
    ctx.ir["bodies_rejected"] = n_failed
    ctx.ir["wrap_census"] = census


@_register(
    "ir-lowerability",
    "ir",
    "why-not provenance for bodies and externs pinned to the Python tier",
)
def _pass_ir_lowerability(ctx: AnalysisContext, sink: DiagnosticSink) -> None:
    """FAC410/FAC411: nothing here is wrong, but the author should know
    which parts of the simulator never reach the C tier and *why* —
    mirroring the FAC201 why-dynamic provenance one tier down."""
    compiled = ctx.compiled
    assert compiled is not None
    progs, failures, externs = _ir_bodies(ctx)
    for num in sorted(failures):
        exc = failures[num]
        span = getattr(exc, "span", None) or _ir_span(ctx, num)
        sink.emit(
            "FAC410",
            f"action body {num} stays on the Python replay backend",
            span,
            notes=(Note(f"lowering declined: {exc}"),),
        )
    for name in externs.names:
        if name in NATIVE_EXTERN_NAMES:
            continue
        decl = ctx.info.externs.get(name)
        span = decl.span if decl is not None else ctx.info.program.span
        sink.emit(
            "FAC411",
            f"extern {name!r} always exits replay to the Python "
            "callback path",
            span,
            notes=(
                Note(
                    "only "
                    + ", ".join(sorted(NATIVE_EXTERN_NAMES))
                    + " have in-kernel native dispatch; bind-time "
                    "refusals are reported by cache_summary"
                ),
            ),
        )
    ctx.ir["bodies_python"] = len(failures)
    ctx.ir["bodies_lowerable"] = len(progs)
    ctx.ir["externs"] = list(externs.names)


@_register(
    "uarch-protocol",
    "ir",
    "uarch module-protocol conformance for natively dispatchable models",
)
def _pass_uarch_protocol(ctx: AnalysisContext, sink: DiagnosticSink) -> None:
    """FAC5xx: audit the shipped model suite whenever the program can
    reach the native extern registry.  A model that hides mutable state
    outside ``state_arrays()`` or under-keys ``config_key()`` would
    replay stale or mis-shared state through the kernel — the audit is
    static, so the bug surfaces in ``repro check`` rather than as a
    silently wrong simulation."""
    _progs, _failures, externs = _ir_bodies(ctx)
    if not any(name in NATIVE_EXTERN_NAMES for name in externs.names):
        return
    span = ctx.info.program.span
    for f in audit_builtin_models():
        sink.emit(
            f.code, f.message, span,
            notes=tuple(Note(text) for text in f.notes),
        )


# -- the check driver ----------------------------------------------------------


@dataclass
class CheckReport:
    """Everything ``repro check`` learned about one source file."""

    file: str
    sink: DiagnosticSink
    buffer: SourceBuffer | None = None
    passes: list[str] = field(default_factory=list)
    n_dynamic_result_tests: int = -1
    fatal: bool = False
    info: ProgramInfo | None = None
    flat: FlatMain | None = None
    division: Division | None = None
    # IR-tier summary (filled by the "ir" passes): bodies verified /
    # rejected / kept on Python, reachable externs, and the 64-bit
    # wrap/guard op census.  Empty when the ir stage did not run.
    ir: dict = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.fatal and not self.sink.diagnostics

    def exit_code(self, werror: bool = False) -> int:
        if self.fatal:
            return 2
        if self.sink.has_errors:
            return 1
        if werror and self.sink.warnings:
            return 1
        return 0

    def render_text(self) -> str:
        lines: list[str] = []
        for diag in self.sink.sorted():
            lines.append(diag.render(self.buffer))
        counts = self.sink.counts()
        summary = (
            f"{self.file}: {counts['error']} error(s), "
            f"{counts['warning']} warning(s), {counts['info']} info(s)"
        )
        if self.sink.suppressed:
            summary += f", {len(self.sink.suppressed)} suppressed"
        if self.n_dynamic_result_tests >= 0:
            summary += (
                f"; {self.n_dynamic_result_tests} implicit dynamic result "
                "test(s) inserted"
            )
        lines.append(summary)
        return "\n".join(lines)

    def to_json(self) -> dict:
        counts = self.sink.counts()
        return {
            "file": self.file,
            "clean": self.clean,
            "fatal": self.fatal,
            "counts": counts,
            "suppressed": len(self.sink.suppressed),
            "passes": list(self.passes),
            "n_dynamic_result_tests": self.n_dynamic_result_tests,
            "diagnostics": [d.to_json() for d in self.sink.sorted()],
            "ir": dict(self.ir),
        }


def run_check(
    source: str,
    filename: str = "<facile>",
    only: set[str] | None = None,
) -> CheckReport:
    """Parse, analyze, and lint one Facile source text.

    Never raises for problems *in the source* — they all land in the
    report's sink.  `only` restricts which analysis passes run (by pass
    name); the front-end checks always run.
    """
    buffer = SourceBuffer(source, filename)
    sink = DiagnosticSink(buffer)
    report = CheckReport(filename, sink, buffer)
    try:
        program = parse(source, filename)
    except FacileError as exc:
        sink.absorb(exc)
        return report

    info = analyze(program, require_main=True, sink=sink)
    report.info = info
    if sink.has_errors:
        return report

    ctx = AnalysisContext(info, buffer)
    report.passes += run_passes("ast", ctx, sink, only)

    try:
        flat = flatten_program(info)
        division = analyze_binding_times(flat, sink)
    except FacileError as exc:
        sink.absorb(exc)
        return report
    report.flat, report.division = flat, division
    ctx.flat, ctx.division = flat, division

    report.passes += run_passes("bta", ctx, sink, only)
    if sink.has_errors:
        return report

    ctx.n_inserted = insert_dynamic_result_tests(flat, division)
    report.n_dynamic_result_tests = ctx.n_inserted
    report.passes += run_passes("post", ctx, sink, only)
    if sink.has_errors:
        return report

    # The ir stage looks below the AST: it needs the generated
    # simulator's replay bodies, so the check driver runs codegen itself
    # (run_check is otherwise codegen-free).  Pure Python throughout —
    # the verdicts are identical with or without a C toolchain.
    ir_names = {p.name for p in PASSES if p.stage == "ir"}
    if only is None or (only & ir_names):
        from .codegen import CodeGenerator

        try:
            ctx.compiled = CodeGenerator(division, name=filename).build(
                with_plain=False
            )
        except FacileError as exc:
            sink.absorb(exc)
            return report
        report.passes += run_passes("ir", ctx, sink, only)
        report.ir = dict(ctx.ir)
    return report


def check_file(path: str, only: set[str] | None = None) -> CheckReport:
    """:func:`run_check` over a file; unreadable files are fatal."""
    try:
        with open(path) as fh:
            source = fh.read()
    except OSError as exc:
        sink = DiagnosticSink()
        report = CheckReport(path, sink, fatal=True)
        sink.emit("FAC030", f"cannot read {path}: {exc.strerror or exc}", severity="error")
        return report
    return run_check(source, filename=path, only=only)


def check_model_file(path: str) -> CheckReport:
    """Protocol-audit every uarch model class defined in a Python file.

    ``repro check`` routes ``.py`` arguments here: the file is executed
    in an isolated namespace and every class it *defines* (not imports)
    that exposes the module protocol surface — ``config_key`` plus
    ``state_arrays`` — is instantiated and audited (FAC5xx).  Files
    that fail to execute are fatal, mirroring unreadable sources.
    """
    sink = DiagnosticSink()
    report = CheckReport(path, sink)
    try:
        with open(path) as fh:
            source = fh.read()
    except OSError as exc:
        report.fatal = True
        sink.emit("FAC030", f"cannot read {path}: {exc.strerror or exc}", severity="error")
        return report
    namespace: dict = {"__name__": f"facile_model_audit_{abs(hash(path))}"}
    try:
        exec(compile(source, path, "exec"), namespace)
    except Exception as exc:
        report.fatal = True
        sink.emit(
            "FAC030",
            f"cannot execute {path}: {exc.__class__.__name__}: {exc}",
            severity="error",
        )
        return report
    classes = [
        obj
        for obj in namespace.values()
        if isinstance(obj, type)
        and getattr(obj, "__module__", None) == namespace["__name__"]
        and callable(getattr(obj, "config_key", None))
        and callable(getattr(obj, "state_arrays", None))
    ]
    for f in audit_model_classes(classes):
        sink.emit(f.code, f.message, notes=tuple(Note(t) for t in f.notes))
    report.passes.append("uarch-protocol")
    report.ir["model_classes_audited"] = len(classes)
    return report
