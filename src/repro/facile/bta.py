"""Binding-time analysis (paper §4.1).

The analysis divides the flattened step function into *run-time static*
code — a function of ``main``'s arguments only, memoizable and skippable
by fast-forwarding — and *dynamic* code, which must execute on every
replay.

Lattice and rules follow the paper:

* two binding times, ``rt-static ⊑ dynamic``; merges are monotone joins,
  so the fixed point exists and is reached in a bounded number of
  iterations (paper's termination argument, §4.1);
* literals and ``main``'s arguments start rt-static; global variables
  start dynamic, **except** globals that are provably written before any
  read on every path ("local-like" — the paper describes labelling a
  global rt-static "from the point at which it is assigned" — our
  variable-level division admits exactly the globals for which that
  point precedes every use);
* target instructions are run-time static (paper footnote 3), so token
  fetch/decode inherit the binding time of the address;
* extern calls and target-memory reads are dynamic;
* ``e?verify`` is rt-static regardless of ``e`` — it is the paper's
  *dynamic result test* surfaced as an operator (§4.2);
* containers (arrays, queues) carry a single binding time: storing a
  dynamic value (or storing at a dynamic index) makes the whole
  container dynamic.

Control flow needs no special poisoning: a dynamic branch condition is
converted (by :func:`insert_dynamic_result_tests`) into an explicit
verify, which pins the executed path in the specialized action cache —
exactly the paper's mechanism for replaying only recorded control-flow
paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast_nodes as A
from .builtins import BUILTIN_FUNCS, PURE_ATTRS, QUEUE_ATTRS, STREAM_ATTRS
from .diagnostics import DiagnosticSink
from .inline import FlatMain
from .source import SemanticError, SourceSpan

RT_STATIC = 0
DYNAMIC = 1

# Value shapes, for key freezing/thawing and flush code generation.
SHAPE_INT = "int"
SHAPE_ARRAY = "array"
SHAPE_QUEUE = "queue"
SHAPE_TUPLE = "tuple"
SHAPE_UNKNOWN = "unknown"


@dataclass
class Division:
    """The result of binding-time analysis over one step function."""

    flat: FlatMain
    bt: dict[str, int] = field(default_factory=dict)
    shape: dict[str, str] = field(default_factory=dict)
    local_like_globals: set[str] = field(default_factory=set)
    assigned_globals: set[str] = field(default_factory=set)
    read_globals: set[str] = field(default_factory=set)
    # main's parameters copied out of the frozen key (see copied_params).
    copied_params: set[str] = field(default_factory=set)
    sink: DiagnosticSink | None = None

    def _report(self, message: str, span: SourceSpan) -> None:
        """Escape hatch for malformed post-flattening trees.

        With a sink attached the problem is collected (and the caller
        recovers with a conservative answer); without one, raise as
        before.
        """
        if self.sink is not None:
            self.sink.emit("FAC030", message, span)
        else:
            raise SemanticError(message, span)

    def var_bt(self, name: str) -> int:
        return self.bt.get(name, DYNAMIC)

    def var_shape(self, name: str) -> str:
        return self.shape.get(name, SHAPE_UNKNOWN)

    def expr_bt(self, expr: A.Expr) -> int:
        """Binding time of a (pure, post-flattening) expression."""
        if isinstance(expr, (A.IntLit, A.BoolLit, A.StrLit, A.QueueNew)):
            return RT_STATIC
        if isinstance(expr, A.Name):
            return self.var_bt(expr.ident)
        if isinstance(expr, A.Unary):
            return self.expr_bt(expr.operand)
        if isinstance(expr, A.Binary):
            return max(self.expr_bt(expr.left), self.expr_bt(expr.right))
        if isinstance(expr, A.Index):
            return max(self.expr_bt(expr.base), self.expr_bt(expr.index))
        if isinstance(expr, A.ArrayNew):
            return max(self.expr_bt(expr.size), self.expr_bt(expr.init))
        if isinstance(expr, A.TupleLit):
            return max((self.expr_bt(i) for i in expr.items), default=RT_STATIC)
        if isinstance(expr, A.Call):
            sig = BUILTIN_FUNCS.get(expr.func)
            if sig is not None and sig.bt_class == "pure":
                return max((self.expr_bt(a) for a in expr.args), default=RT_STATIC)
            return DYNAMIC  # extern or dynamic builtin (lifted to stmt level)
        if isinstance(expr, A.Attr):
            if expr.name == "verify":
                return RT_STATIC
            if expr.name in PURE_ATTRS or expr.name in STREAM_ATTRS:
                base = self.expr_bt(expr.base)
                args = max((self.expr_bt(a) for a in expr.args), default=RT_STATIC)
                return max(base, args)
            if expr.name in QUEUE_ATTRS:
                return self.expr_bt(expr.base)
            self._report(f"attribute ?{expr.name} escaped flattening", expr.span)
            return DYNAMIC
        self._report(f"unhandled expression {type(expr).__name__}", expr.span)
        return DYNAMIC

    @property
    def flush_globals(self) -> list[str]:
        """Globals whose rt-static exit values must be flushed to slots.

        These are the paper's "extra statements at the end of the
        function to make their run-time static values dynamic for the
        next iteration" (§6.3 item 3).
        """
        return sorted(
            g
            for g in self.assigned_globals
            if self.var_bt(g) == RT_STATIC
        )


def analyze_binding_times(flat: FlatMain, sink: DiagnosticSink | None = None) -> Division:
    """Run the full binding-time analysis over a flattened step function."""
    division = Division(flat, sink=sink)
    global_names = set(flat.info.globals)
    division.assigned_globals = _assigned_globals(flat.body, global_names)
    division.read_globals = _read_globals(flat.body, global_names)
    division.local_like_globals = _local_like_globals(flat.body, global_names)

    # Initial division (paper §4.1): arguments rt-static, globals dynamic
    # unless provably safe.  Two exceptions to "globals are dynamic":
    # globals never assigned in the body are program constants (fixed
    # after setup, like the target text segment), and local-like globals
    # are written before any read on every path so their entry value is
    # irrelevant.
    for p in flat.params:
        division.bt[p] = RT_STATIC
    for g in global_names:
        if g not in division.assigned_globals:
            division.bt[g] = RT_STATIC  # program constant
        else:
            division.bt[g] = (
                RT_STATIC if g in division.local_like_globals else DYNAMIC
            )
    # Locals start rt-static; the fixpoint below raises them as needed.
    for name in flat.local_names:
        division.bt.setdefault(name, RT_STATIC)

    _fixpoint(flat, division)
    _infer_shapes(flat, division)
    division.copied_params = copied_params(flat)
    return division


# -- fixpoint over variable binding times ------------------------------------


def _fixpoint(flat: FlatMain, division: Division) -> None:
    changed = True
    guard = 0
    while changed:
        changed = False
        guard += 1
        if guard > len(division.bt) + len(flat.local_names) + 8:
            raise AssertionError("binding-time analysis failed to converge")
        changed = _walk_stmt_bt(flat.body, division)


def _walk_stmt_bt(stmt: A.Stmt, division: Division) -> bool:
    changed = False

    def raise_var(name: str, bt: int) -> None:
        nonlocal changed
        old = division.bt.get(name, RT_STATIC)
        new = max(old, bt)
        if new != old:
            division.bt[name] = new
            changed = True

    if isinstance(stmt, A.Block):
        for s in stmt.stmts:
            changed |= _walk_stmt_bt(s, division)
    elif isinstance(stmt, A.ValStmt):
        if stmt.init is not None:
            raise_var(stmt.name, division.expr_bt(stmt.init))
        else:
            division.bt.setdefault(stmt.name, RT_STATIC)
    elif isinstance(stmt, A.Assign):
        rhs = division.expr_bt(stmt.value)
        target = stmt.target
        if isinstance(target, A.Name):
            raise_var(target.ident, rhs)
        elif isinstance(target, A.Index):
            if not isinstance(target.base, A.Name):
                division._report("nested element assignment unsupported", stmt.span)
            else:
                raise_var(target.base.ident, max(rhs, division.expr_bt(target.index)))
    elif isinstance(stmt, A.ExprStmt):
        expr = stmt.expr
        if isinstance(expr, A.Attr) and expr.name in QUEUE_ATTRS:
            arity, mutates = QUEUE_ATTRS[expr.name]
            del arity
            if mutates and expr.args and isinstance(expr.base, A.Name):
                raise_var(expr.base.ident, division.expr_bt(expr.args[0]))
    elif isinstance(stmt, A.If):
        changed |= _walk_stmt_bt(stmt.then_body, division)
        if stmt.else_body is not None:
            changed |= _walk_stmt_bt(stmt.else_body, division)
    elif isinstance(stmt, A.Switch):
        for case in stmt.cases:
            changed |= _walk_stmt_bt(case.body, division)
    elif isinstance(stmt, A.While):
        changed |= _walk_stmt_bt(stmt.body, division)
    elif isinstance(stmt, (A.Break, A.Continue, A.Return)):
        pass
    else:
        division._report(
            f"unexpected statement {type(stmt).__name__} after flattening", stmt.span
        )
    return changed


# -- global variable classification -------------------------------------------


def _assigned_globals(body: A.Block, global_names: set[str]) -> set[str]:
    assigned: set[str] = set()
    for node in _iter_nodes(body):
        if isinstance(node, A.Assign):
            target = node.target
            if isinstance(target, A.Name) and target.ident in global_names:
                assigned.add(target.ident)
            elif (
                isinstance(target, A.Index)
                and isinstance(target.base, A.Name)
                and target.base.ident in global_names
            ):
                assigned.add(target.base.ident)
        elif isinstance(node, A.ExprStmt):
            expr = node.expr
            if (
                isinstance(expr, A.Attr)
                and expr.name in QUEUE_ATTRS
                and QUEUE_ATTRS[expr.name][1]
                and isinstance(expr.base, A.Name)
                and expr.base.ident in global_names
            ):
                assigned.add(expr.base.ident)
    return assigned


def _read_globals(body: A.Block, global_names: set[str]) -> set[str]:
    reads: set[str] = set()

    def visit_expr(expr: A.Expr) -> None:
        for node in _iter_nodes(expr):
            if isinstance(node, A.Name) and node.ident in global_names:
                reads.add(node.ident)

    for node in _iter_nodes(body):
        if isinstance(node, A.Assign):
            visit_expr(node.value)
            if isinstance(node.target, A.Index):
                visit_expr(node.target.index)
                # Element assignment *reads* the container binding.
                base = node.target.base
                if isinstance(base, A.Name) and base.ident in global_names:
                    reads.add(base.ident)
        elif isinstance(node, A.ValStmt) and node.init is not None:
            visit_expr(node.init)
        elif isinstance(node, A.ExprStmt):
            visit_expr(node.expr)
        elif isinstance(node, (A.If, A.While)):
            visit_expr(node.cond)
        elif isinstance(node, A.Switch):
            visit_expr(node.scrutinee)
            for case in node.cases:
                for v in case.values:
                    visit_expr(v)
    return reads


def _local_like_globals(body: A.Block, global_names: set[str]) -> set[str]:
    """Globals definitely written before any read on every path.

    The walk is conservative: loops are assumed to run zero times for
    the purpose of definite assignment, branches intersect.  A read (or
    an element/queue update, which reads the current binding) of a
    global not yet definitely assigned disqualifies it, as does reaching
    exit without assignment.
    """
    disqualified: set[str] = set()

    def scan_expr(expr: A.Expr | None, assigned: set[str]) -> None:
        if expr is None:
            return
        for node in _iter_nodes(expr):
            if isinstance(node, A.Name) and node.ident in global_names:
                if node.ident not in assigned:
                    disqualified.add(node.ident)

    def scan_stmt(stmt: A.Stmt, assigned: set[str]) -> set[str]:
        if isinstance(stmt, A.Block):
            for s in stmt.stmts:
                assigned = scan_stmt(s, assigned)
            return assigned
        if isinstance(stmt, A.ValStmt):
            scan_expr(stmt.init, assigned)
            return assigned
        if isinstance(stmt, A.Assign):
            scan_expr(stmt.value, assigned)
            target = stmt.target
            if isinstance(target, A.Name) and target.ident in global_names:
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
            a_else = scan_stmt(stmt.else_body, set(assigned)) if stmt.else_body else set(assigned)
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
        if isinstance(stmt, (A.Break, A.Continue, A.Return)):
            return assigned
        raise SemanticError(f"unexpected statement {type(stmt).__name__}", stmt.span)

    exit_assigned = scan_stmt(body, set())
    candidates = _assigned_globals(body, global_names)
    # A global must be assigned before exit as well, otherwise its slot
    # value (dynamic) flows into the next step and the variable cannot
    # be treated as rt-static.
    return {
        g
        for g in candidates
        if g not in disqualified and g in exit_assigned
    }


# -- shape inference -----------------------------------------------------------


_SHAPE_ORDER = [SHAPE_UNKNOWN, SHAPE_INT, SHAPE_ARRAY, SHAPE_QUEUE, SHAPE_TUPLE]


def _join_shape(a: str, b: str) -> str:
    if a == b:
        return a
    if a == SHAPE_UNKNOWN:
        return b
    if b == SHAPE_UNKNOWN:
        return a
    # Conflicting shapes: treat as opaque int-like value.
    return SHAPE_INT


def _infer_shapes(flat: FlatMain, division: Division) -> None:
    shape = division.shape
    for g, decl in flat.info.globals.items():
        if decl.type_name == "stream":
            shape[g] = SHAPE_INT
        if decl.init is not None:
            if isinstance(decl.init, A.ArrayNew):
                shape[g] = SHAPE_ARRAY
            elif isinstance(decl.init, A.QueueNew):
                shape[g] = SHAPE_QUEUE
            elif isinstance(decl.init, A.TupleLit):
                shape[g] = SHAPE_TUPLE

    def expr_shape(expr: A.Expr) -> str:
        if isinstance(expr, A.ArrayNew):
            return SHAPE_ARRAY
        if isinstance(expr, A.QueueNew):
            return SHAPE_QUEUE
        if isinstance(expr, A.TupleLit):
            return SHAPE_TUPLE
        if isinstance(expr, A.Name):
            return shape.get(expr.ident, SHAPE_UNKNOWN)
        if isinstance(expr, A.Attr) and expr.name == "copy":
            return expr_shape(expr.base)
        if isinstance(expr, (A.IntLit, A.BoolLit)):
            return SHAPE_INT
        if isinstance(expr, (A.Binary, A.Unary, A.Index, A.Call)):
            return SHAPE_INT
        if isinstance(expr, A.Attr):
            return SHAPE_INT
        return SHAPE_UNKNOWN

    changed = True
    while changed:
        changed = False
        for node in _iter_nodes(flat.body):
            target_name: str | None = None
            rhs: A.Expr | None = None
            if isinstance(node, A.ValStmt) and node.init is not None:
                target_name, rhs = node.name, node.init
            elif isinstance(node, A.Assign) and isinstance(node.target, A.Name):
                target_name, rhs = node.target.ident, node.value
            elif isinstance(node, A.Assign) and isinstance(node.target, A.Index):
                base = node.target.base
                if isinstance(base, A.Name):
                    new = _join_shape(shape.get(base.ident, SHAPE_UNKNOWN), SHAPE_ARRAY)
                    if new != shape.get(base.ident, SHAPE_UNKNOWN):
                        shape[base.ident] = new
                        changed = True
                continue
            elif isinstance(node, A.Attr) and node.name in QUEUE_ATTRS:
                if isinstance(node.base, A.Name):
                    new = _join_shape(shape.get(node.base.ident, SHAPE_UNKNOWN), SHAPE_QUEUE)
                    if new != shape.get(node.base.ident, SHAPE_UNKNOWN):
                        shape[node.base.ident] = new
                        changed = True
                continue
            elif isinstance(node, A.Index) and isinstance(node.base, A.Name):
                new = _join_shape(shape.get(node.base.ident, SHAPE_UNKNOWN), SHAPE_ARRAY)
                if new != shape.get(node.base.ident, SHAPE_UNKNOWN):
                    shape[node.base.ident] = new
                    changed = True
                continue
            else:
                continue
            new = _join_shape(shape.get(target_name, SHAPE_UNKNOWN), expr_shape(rhs))
            if new != shape.get(target_name, SHAPE_UNKNOWN):
                shape[target_name] = new
                changed = True
    for name in list(division.bt):
        shape.setdefault(name, SHAPE_INT)


# -- key parameters a step copies ---------------------------------------------


#: Attributes whose result is an element of the base container.
_ELEMENT_ATTRS = frozenset(("front", "back", "pop_front", "pop_back"))
#: Attributes whose result may be the base value itself.
_SAME_ATTRS = frozenset(("copy", "verify"))
#: Operators whose result may be a container built from an operand:
#: concatenation and repetition keep its type and share its elements.
_SEQUENCE_OPS = frozenset(("+", "*"))
#: Operators and builtins that set two values against each other: a
#: frozen tuple never equals a list and cannot be ordered against or
#: added to one, so there a parameter's container type shows.
_MEETING_OPS = frozenset(("==", "!=", "<", "<=", ">", ">=", "+"))
_MEETING_CALLS = frozenset(("min", "max"))
#: Nodes of a constant: built from literals by operators, it is never
#: a container, so meeting one shows no container's type.
_CONSTANT_NODES = (A.IntLit, A.BoolLit, A.StrLit, A.Unary, A.Binary)


def copied_params(flat: FlatMain) -> set[str]:
    """``main``'s parameters the generated code copies out of its key.

    The engines hand ``main`` its frozen key, nested tuples that a step
    must never change.  A parameter arrives as a copy (thawed to lists)
    where a step may change it in place, or where its container type
    may show: where it meets a value that is not a constant in a
    comparison, ``+``, ``min`` or ``max``.  Every other parameter is
    the key's own value.

    A mutation is an index store, a push, a pop or a clear.  Both it
    and a meeting reach other names along three kinds of edge:

    * ``a = b`` (or a ``select`` arm or any other call's argument, which
      the call may return; ``b?copy()``, which is ``b`` itself when
      ``b`` is frozen; ``b?verify``; an operand of ``+`` or ``*``):
      ``a`` may be ``b``'s object;
    * ``a = b[i]`` (or ``?front``, ``?back``, a pop): ``a`` may be an
      element of ``b``, so changing ``a`` changes ``b``'s contents;
    * ``a[i] = v``, ``a?push_back(v)``, ``a = (v, ...)``,
      ``a = array(n){v}``: ``a`` may hold ``v``, which changes only when
      ``a``'s contents do.

    Externs and dynamic code mutate nothing: they get values as
    recorded placeholder data, which is immutable.  Flow-insensitive
    and blind to types (an element may itself be an array, a number
    may meet a name), so it may copy a parameter no step mutates or
    shows, never the reverse.
    """
    same: dict[str, set[str]] = {}
    elem_of: dict[str, set[str]] = {}
    holds: dict[str, set[str]] = {}
    work: list[tuple[str, bool]] = []  # (name, its contents change)
    shown: set[str] = set()

    def edges(expr: A.Expr) -> tuple[set[str], set[str], set[str]]:
        """(may be, may be an element of, may hold) for ``expr``."""
        if isinstance(expr, A.Name):
            return {expr.ident}, set(), set()
        if isinstance(expr, A.Index) or (
                isinstance(expr, A.Attr) and expr.name in _ELEMENT_ATTRS):
            return set(), refs(expr.base), set()
        if isinstance(expr, A.Attr) and expr.name in _SAME_ATTRS:
            return edges(expr.base)
        if isinstance(expr, A.TupleLit):
            return set(), set(), set().union(*map(refs, expr.items))
        if isinstance(expr, A.ArrayNew):
            return set(), set(), refs(expr.init)
        if isinstance(expr, A.Binary) and expr.op in _SEQUENCE_OPS:
            return either([expr.left, expr.right])
        if isinstance(expr, A.Call):
            return either(expr.args[1:] if expr.func == "select" else expr.args)
        return set(), set(), set()

    def either(exprs: list[A.Expr]) -> tuple[set[str], set[str], set[str]]:
        """The edges of a value that may be any of ``exprs``."""
        be: set[str] = set()
        within: set[str] = set()
        held: set[str] = set()
        for expr in exprs:
            b, w, h = edges(expr)
            be |= b
            within |= w
            held |= h
        return be, within, held

    def refs(expr: A.Expr) -> set[str]:
        """Every name the value of ``expr`` may be, sit in or hold."""
        return set().union(*edges(expr))

    def assign(name: str, expr: A.Expr) -> None:
        be, within, held = edges(expr)
        same.setdefault(name, set()).update(be)
        elem_of.setdefault(name, set()).update(within)
        holds.setdefault(name, set()).update(held)

    def mutate(container: A.Expr, stored: list[A.Expr]) -> None:
        be, within, _ = edges(container)
        work.extend((n, False) for n in be)
        work.extend((n, True) for n in within)
        for n in be | within:
            for value in stored:
                holds.setdefault(n, set()).update(refs(value))

    def meet(*sides: A.Expr) -> None:
        if not any(all(isinstance(n, _CONSTANT_NODES) for n in _iter_nodes(side))
                   for side in sides):
            shown.update(*map(refs, sides))

    def visit(expr: A.Expr) -> None:
        if isinstance(expr, A.Binary) and expr.op in _MEETING_OPS:
            meet(expr.left, expr.right)
        elif isinstance(expr, A.Call) and expr.func in _MEETING_CALLS:
            meet(*expr.args)

    for node in _iter_nodes(flat.body):
        if isinstance(node, A.Assign):
            value = node.value
            if node.op != "=":  # ``t op= v`` is ``t = t op v``
                value = A.Binary(node.op[:-1], node.target, value)
                visit(value)
            if isinstance(node.target, A.Name):
                assign(node.target.ident, value)
            elif isinstance(node.target, A.Index):
                mutate(node.target.base, [value])
        elif isinstance(node, A.ValStmt) and node.init is not None:
            assign(node.name, node.init)
        elif (isinstance(node, A.Attr) and node.name in QUEUE_ATTRS
              and QUEUE_ATTRS[node.name][1]):
            mutate(node.base, node.args)
        elif isinstance(node, A.Expr):
            visit(node)
    changed: set[str] = set()
    deep: set[str] = set()
    while work:
        name, contents = work.pop()
        marks = deep if contents else changed
        if name in marks:
            continue
        marks.add(name)
        work.extend((n, contents) for n in same.get(name, ()))
        work.extend((n, True) for n in elem_of.get(name, ()))
        if contents:
            for n in holds.get(name, ()):
                work.extend(((n, False), (n, True)))
    # A value shows the types of all it may be, sit in or hold.
    pending = list(shown)
    while pending:
        name = pending.pop()
        for n in (same.get(name, set()) | elem_of.get(name, set())
                  | holds.get(name, set())) - shown:
            shown.add(n)
            pending.append(n)
    return {p for p in flat.params if p in changed or p in deep or p in shown}


# -- dynamic result test insertion (paper §4.2) --------------------------------


def insert_dynamic_result_tests(flat: FlatMain, division: Division) -> int:
    """Wrap dynamic branch/switch conditions in explicit ``?verify``.

    Returns the number of tests inserted.  New temporaries are
    registered in the division as rt-static ints.
    """
    inserted = [0]
    counter = [len(flat.local_names) + 100000]

    def fresh() -> str:
        counter[0] += 1
        name = f"_dv__{counter[0]}"
        flat.local_names.append(name)
        division.bt[name] = RT_STATIC
        division.shape[name] = SHAPE_INT
        return name

    def rewrite_block(block: A.Block) -> None:
        out: list[A.Stmt] = []
        for stmt in block.stmts:
            out.extend(rewrite_stmt(stmt))
        block.stmts = out

    def rewrite_stmt(stmt: A.Stmt) -> list[A.Stmt]:
        if isinstance(stmt, A.Block):
            rewrite_block(stmt)
            return [stmt]
        if isinstance(stmt, A.If):
            rewrite_block(_ensure_block(stmt, "then_body"))
            if stmt.else_body is not None:
                rewrite_block(_ensure_block(stmt, "else_body"))
            if division.expr_bt(stmt.cond) == DYNAMIC:
                inserted[0] += 1
                tmp = fresh()
                test = A.ValStmt(
                    tmp,
                    A.Attr(stmt.cond, "verify", [], span=stmt.span),
                    span=stmt.span,
                )
                stmt.cond = A.Name(tmp, span=stmt.span)
                return [test, stmt]
            return [stmt]
        if isinstance(stmt, A.Switch):
            for case in stmt.cases:
                rewrite_block(case.body)
            if division.expr_bt(stmt.scrutinee) == DYNAMIC:
                inserted[0] += 1
                tmp = fresh()
                test = A.ValStmt(
                    tmp,
                    A.Attr(stmt.scrutinee, "verify", [], span=stmt.span),
                    span=stmt.span,
                )
                stmt.scrutinee = A.Name(tmp, span=stmt.span)
                return [test, stmt]
            return [stmt]
        if isinstance(stmt, A.While):
            rewrite_block(_ensure_block(stmt, "body"))
            if division.expr_bt(stmt.cond) == DYNAMIC:
                # while (d) body  =>  while (true) { val t = d?verify;
                #                     if (!t) break; body }
                inserted[0] += 1
                tmp = fresh()
                test = A.ValStmt(
                    tmp,
                    A.Attr(stmt.cond, "verify", [], span=stmt.span),
                    span=stmt.span,
                )
                guard = A.If(
                    A.Unary("!", A.Name(tmp, span=stmt.span), span=stmt.span),
                    A.Block([A.Break(span=stmt.span)]),
                    None,
                    span=stmt.span,
                )
                body = stmt.body
                assert isinstance(body, A.Block)
                stmt.body = A.Block([test, guard] + body.stmts, span=stmt.span)
                stmt.cond = A.BoolLit(True, span=stmt.span)
            return [stmt]
        return [stmt]

    rewrite_block(flat.body)
    return inserted[0]


def _ensure_block(stmt: A.Stmt, attr: str) -> A.Block:
    value = getattr(stmt, attr)
    if not isinstance(value, A.Block):
        value = A.Block([value], span=value.span)
        setattr(stmt, attr, value)
    return value


def _iter_nodes(node: A.Node):
    """``node`` and every node under it, in preorder.  The passes here
    walk the whole flat body several times, so the walk keeps its own
    stack instead of nesting a generator per level."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        children = []
        for value in vars(node).values():
            if isinstance(value, A.Node):
                children.append(value)
            elif value.__class__ is list:
                for item in value:
                    if isinstance(item, A.Node):
                        children.append(item)
        children.reverse()
        stack += children
