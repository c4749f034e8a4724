"""Code generation: slow/complete, fast/residual, and plain simulators.

The paper's compiler generates C for two coupled simulators (§4.3); we
generate Python with the same structure:

* the **slow simulator** contains all source code plus memoization
  calls: ``_M.action(n, data)`` before each dynamic statement,
  placeholder data capture, ``if not _M.recover:`` guards so dynamic
  statements are skipped during miss recovery, and
  ``begin_verify``/``pop_verify``/``note_verify`` around dynamic result
  tests — a direct transliteration of Figure 10;
* the **fast simulator** is a table of per-action functions (the dynamic
  basic blocks of Figure 8/9): each receives the shared dynamic state
  and its recorded placeholder data; verify actions return the computed
  value so the driver can select the successor chain;
* the **plain simulator** (used for the "without memoization" bars of
  Figures 11/12) is the same source with no fast-forwarding machinery
  at all.

Variable placement follows the binding-time division: rt-static
variables are Python locals of the slow function (recomputed during
recovery); every dynamic variable lives in the shared slot vector
``ctx.S`` so values flow between the two engines — the paper's
"dynamic data to be passed from the fast simulator to the slow
simulator in global variables, not a stack" (§3.2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from . import ast_nodes as A
from .bta import (
    DYNAMIC,
    RT_STATIC,
    SHAPE_ARRAY,
    SHAPE_INT,
    SHAPE_QUEUE,
    SHAPE_TUPLE,
    SHAPE_UNKNOWN,
    Division,
)
from .builtins import BUILTIN_FUNCS, PURE_ATTRS, QUEUE_ATTRS, RUNTIME_HELPERS, STREAM_ATTRS
from .patterns import generate_decoder_source
from .runtime import CompiledSimulator, freeze, thaw
from .source import SemanticError, SourceSpan, UNKNOWN_SPAN

_BINOP_PY = {
    "+": "+",
    "-": "-",
    "*": "*",
    "&": "&",
    "|": "|",
    "^": "^",
    "<<": "<<",
    ">>": ">>",
    "==": "==",
    "!=": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}


def idiv(a: int, b: int) -> int:
    """C-style truncating integer division."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def imod(a: int, b: int) -> int:
    """C-style remainder: sign follows the dividend."""
    return a - idiv(a, b) * b


@dataclass
class _Action:
    num: int
    is_verify: bool
    body_lines: list[str] = field(default_factory=list)
    n_placeholders: int = 0
    # Span of the first source statement merged into this action, so
    # lowering diagnostics (Unlowerable, FAC4xx) can point at source.
    span: SourceSpan = UNKNOWN_SPAN
    # One character per placeholder: 'o' for a value codegen freezes
    # (the data tuple carries an object), 'i' for an int.
    shape: str = ""


class _Emitter:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 0

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class CodeGenerator:
    """Generates all three engine variants for one analyzed simulator."""

    def __init__(
        self,
        division: Division,
        name: str = "simulator",
        flush_policy: str = "all",
        keep_flushed: tuple[str, ...] = ("init",),
        coalesce: bool = True,
    ):
        """``flush_policy`` selects how rt-static globals are flushed to
        their slots at the end of each step:

        * ``"all"`` — flush every assigned rt-static global (the paper's
          base compiler behaviour, §6.3 item 3 calls out its cost);
        * ``"live"`` — flush only ``keep_flushed`` (the key variable
          ``init`` plus any globals the harness wants to observe): the
          liveness optimization the paper proposes, valid because
          local-like globals are always rewritten before being read.
        """
        if flush_policy not in ("all", "live"):
            raise ValueError(f"unknown flush policy {flush_policy!r}")
        self.division = division
        self.flat = division.flat
        self.info = division.flat.info
        self.name = name
        self.flush_policy = flush_policy
        self.keep_flushed = keep_flushed
        self.coalesce = coalesce
        self.actions: list[_Action] = []
        self.slots: dict[str, int] = {}
        self._tmp_counter = 0
        # Coalescing state: consecutive dynamic statements merge into one
        # action (the paper's Figure 8: "In a richer simulator, a basic
        # block would contain multiple statements").  Placeholder
        # computations are emitted eagerly at each statement's position
        # (they are rt-static), so rt-static bookkeeping may interleave
        # without breaking a merge; control flow, verifies, and block
        # boundaries flush the pending action.
        self._pending: _Action | None = None
        self._pending_ph_count = 0
        self._pending_slow: list[str] = []
        self._allocate_slots()

    # -- slot allocation ----------------------------------------------------

    def _allocate_slots(self) -> None:
        # All globals get slots (dynamic state, flushed rt-static state,
        # and program constants initialized once by setup()).
        for g in self.info.globals:
            self.slots[g] = len(self.slots)
        # Dynamic locals are shared between engines via slots too.
        for name in self.flat.local_names:
            if self.division.var_bt(name) == DYNAMIC:
                self.slots[name] = len(self.slots)

    @property
    def slot_count(self) -> int:
        return len(self.slots)

    def _fresh_tmp(self, base: str = "_c") -> str:
        self._tmp_counter += 1
        return f"{base}{self._tmp_counter}"

    # -- variable classification ---------------------------------------------

    def _is_global(self, name: str) -> bool:
        return name in self.info.globals

    def _is_const_global(self, name: str) -> bool:
        return self._is_global(name) and name not in self.division.assigned_globals

    def _var_ref(self, name: str, plain: bool) -> str:
        """Reference to a variable in slow/plain engine code."""
        if plain:
            if self._is_global(name):
                return f"_S[{self.slots[name]}]"
            return name
        if self._is_global(name):
            if self._is_const_global(name) or self.division.var_bt(name) == DYNAMIC:
                return f"_S[{self.slots[name]}]"
            return f"g_{name}"  # local-like rt-static global: a Python local
        if self.division.var_bt(name) == DYNAMIC:
            return f"_S[{self.slots[name]}]"
        return name

    # -- pure expression emission (slow/plain engines) -------------------------

    def _expr(self, e: A.Expr, plain: bool) -> str:
        if isinstance(e, A.IntLit):
            return repr(e.value)
        if isinstance(e, A.BoolLit):
            return "True" if e.value else "False"
        if isinstance(e, A.StrLit):
            return repr(e.value)
        if isinstance(e, A.Name):
            return self._var_ref(e.ident, plain)
        if isinstance(e, A.Unary):
            operand = self._expr(e.operand, plain)
            if e.op == "!":
                return f"(0 if {operand} else 1)"
            return f"({e.op}{operand})"
        if isinstance(e, A.Binary):
            left = self._expr(e.left, plain)
            right = self._expr(e.right, plain)
            if e.op == "&&":
                return f"(1 if ({left} and {right}) else 0)"
            if e.op == "||":
                return f"(1 if ({left} or {right}) else 0)"
            if e.op == "/":
                return f"idiv({left}, {right})"
            if e.op == "%":
                return f"imod({left}, {right})"
            return f"({left} {_BINOP_PY[e.op]} {right})"
        if isinstance(e, A.Index):
            return f"{self._expr(e.base, plain)}[{self._expr(e.index, plain)}]"
        if isinstance(e, A.ArrayNew):
            return f"([{self._expr(e.init, plain)}] * {self._expr(e.size, plain)})"
        if isinstance(e, A.QueueNew):
            return "_deque()"
        if isinstance(e, A.TupleLit):
            items = ", ".join(self._expr(i, plain) for i in e.items)
            return f"({items},)" if e.items else "()"
        if isinstance(e, A.Call):
            return self._call_expr(e, plain)
        if isinstance(e, A.Attr):
            return self._attr_expr(e, plain)
        raise SemanticError(f"cannot emit {type(e).__name__}", e.span)

    def _call_expr(self, e: A.Call, plain: bool) -> str:
        args = [self._expr(a, plain) for a in e.args]
        name = e.func
        if name in self.info.externs:
            joined = ", ".join([repr(name)] + args)
            return f"_ctx.call_extern({joined})"
        sig = BUILTIN_FUNCS.get(name)
        if sig is None:
            raise SemanticError(f"unknown call {name!r} at codegen", e.span)
        if name == "select":
            return f"(({args[1]}) if ({args[0]}) else ({args[2]}))"
        if sig.bt_class == "pure":
            return f"{name}({', '.join(args)})"
        return self._dyn_builtin(name, args, e)

    def _attr_expr(self, e: A.Attr, plain: bool) -> str:
        base = self._expr(e.base, plain)
        args = [self._expr(a, plain) for a in e.args]
        name = e.name
        if name in PURE_ATTRS:
            if name == "sext":
                return f"sext({base}, {args[0]})"
            if name == "zext":
                return f"zext({base}, {args[0]})"
            if name == "u32":
                return f"({base} & 0xFFFFFFFF)"
            if name == "s32":
                return f"s32({base})"
            if name == "bit":
                return f"(({base} >> {args[0]}) & 1)"
            if name == "bits":
                lo, hi = e.args
                if isinstance(lo, A.IntLit) and isinstance(hi, A.IntLit):
                    # Field extraction, the slow engine's commonest
                    # helper: inline the shift and mask.
                    mask = (1 << (hi.value - lo.value + 1)) - 1
                    return f"(({base} >> {lo.value}) & {mask:#x})"
                return f"bits({base}, {args[0]}, {args[1]})"
        if name in STREAM_ATTRS:
            if name == "word":
                return f"_ctx.text_word({base}, {self._token_bytes()})"
            if name == "decode":
                return f"_decode_at(_ctx, {base})"
        if name in QUEUE_ATTRS:
            queue_map = {
                "push_back": f"{base}.append({args[0] if args else ''})",
                "push_front": f"{base}.appendleft({args[0] if args else ''})",
                "pop_back": f"{base}.pop()",
                "pop_front": f"{base}.popleft()",
                "front": f"{base}[0]",
                "back": f"{base}[-1]",
                "size": f"len({base})",
                "empty": f"(0 if {base} else 1)",
                "clear": f"{base}.clear()",
                "copy": f"_copy_val({base})",
            }
            return queue_map[name]
        if name == "verify":
            # Verify on an rt-static value degenerates to the value; the
            # statement emitter handles the dynamic case before reaching
            # here (plain build also lands here).
            return base
        raise SemanticError(f"cannot emit attribute ?{name}", e.span)

    def _token_bytes(self) -> int:
        widths = list(self.info.patterns.token_widths.values())
        if not widths:
            return 4
        return max(1, widths[0] // 8)

    # -- dynamic expression emission with placeholder extraction ----------------

    def _dyn_expr(self, e: A.Expr, placeholders: list[tuple[str, str, str]]) -> str:
        """Emit a dynamic expression for action bodies.

        Maximal rt-static subtrees become placeholders: entries of
        ``placeholders`` are ``(name, slow_source, kind)`` triples, kind
        ``'o'`` when the value is frozen and ``'i'`` otherwise.  The returned
        source refers to placeholders by name; the slow engine computes
        them before recording, the fast engine unpacks them from the
        action's recorded data (Figure 8's ``s`` placeholders).
        """
        if self.division.expr_bt(e) == RT_STATIC:
            if isinstance(e, (A.IntLit, A.BoolLit)):
                return self._expr(e, plain=False)
            if isinstance(e, A.Name) and self._is_const_global(e.ident):
                # Program constants live in identical slots in both
                # engines: no need to record them.
                return f"_S[{self.slots[e.ident]}]"
            name = f"_ph{self._ph_base + len(placeholders)}"
            shape = self._expr_shape(e)
            src = self._expr(e, plain=False)
            kind = "i"
            if shape in (SHAPE_ARRAY, SHAPE_QUEUE, SHAPE_TUPLE, SHAPE_UNKNOWN):
                src = f"_freeze({src})"
                kind = "o"
            placeholders.append((name, src, kind))
            return name
        if isinstance(e, A.Name):
            return self._var_ref(e.ident, plain=False)
        if isinstance(e, A.Unary):
            operand = self._dyn_expr(e.operand, placeholders)
            if e.op == "!":
                return f"(0 if {operand} else 1)"
            return f"({e.op}{operand})"
        if isinstance(e, A.Binary):
            left = self._dyn_expr(e.left, placeholders)
            right = self._dyn_expr(e.right, placeholders)
            if e.op == "&&":
                return f"(1 if ({left} and {right}) else 0)"
            if e.op == "||":
                return f"(1 if ({left} or {right}) else 0)"
            if e.op == "/":
                return f"idiv({left}, {right})"
            if e.op == "%":
                return f"imod({left}, {right})"
            return f"({left} {_BINOP_PY[e.op]} {right})"
        if isinstance(e, A.Index):
            return f"{self._dyn_expr(e.base, placeholders)}[{self._dyn_expr(e.index, placeholders)}]"
        if isinstance(e, A.ArrayNew):
            return f"([{self._dyn_expr(e.init, placeholders)}] * {self._dyn_expr(e.size, placeholders)})"
        if isinstance(e, A.TupleLit):
            items = ", ".join(self._dyn_expr(i, placeholders) for i in e.items)
            return f"({items},)" if e.items else "()"
        if isinstance(e, A.Call):
            name = e.func
            args = [self._dyn_expr(a, placeholders) for a in e.args]
            if name in self.info.externs:
                joined = ", ".join([repr(name)] + args)
                return f"_ctx.call_extern({joined})"
            if name == "select":
                return f"(({args[1]}) if ({args[0]}) else ({args[2]}))"
            sig = BUILTIN_FUNCS.get(name)
            if sig is not None and sig.bt_class == "pure":
                return f"{name}({', '.join(args)})"
            return self._dyn_builtin(name, args, e)
        if isinstance(e, A.Attr):
            return self._dyn_attr(e, placeholders)
        raise SemanticError(f"cannot emit dynamic {type(e).__name__}", e.span)

    def _dyn_builtin(self, name: str, args: list[str], e: A.Expr) -> str:
        table = {
            "mem_read": "_ctx.mem.read32",
            "mem_read8": "_ctx.mem.read8",
            "mem_read16": "_ctx.mem.read16",
            "mem_write": "_ctx.mem.write32",
            "mem_write8": "_ctx.mem.write8",
            "mem_write16": "_ctx.mem.write16",
            "stat_retire": "_ctx.stat_retire",
            "stat_cycle": "_ctx.stat_cycle",
            "stat_count": "_ctx.stat_count",
            "halt": "_ctx.halt",
            "log_value": "_ctx.log_value",
        }
        if name not in table:
            raise SemanticError(f"cannot emit dynamic builtin {name!r}", e.span)
        return f"{table[name]}({', '.join(args)})"

    def _dyn_attr(self, e: A.Attr, placeholders: list[tuple[str, str, str]]) -> str:
        base = self._dyn_expr(e.base, placeholders)
        args = [self._dyn_expr(a, placeholders) for a in e.args]
        name = e.name
        if name in PURE_ATTRS:
            if name == "sext":
                return f"sext({base}, {args[0]})"
            if name == "zext":
                return f"zext({base}, {args[0]})"
            if name == "u32":
                return f"({base} & 0xFFFFFFFF)"
            if name == "s32":
                return f"s32({base})"
            if name == "bit":
                return f"(({base} >> {args[0]}) & 1)"
            if name == "bits":
                return f"bits({base}, {args[0]}, {args[1]})"
        if name in STREAM_ATTRS:
            if name == "word":
                return f"_ctx.text_word({base}, {self._token_bytes()})"
            if name == "decode":
                return f"_decode_at(_ctx, {base})"
        if name in QUEUE_ATTRS:
            queue_map = {
                "push_back": f"{base}.append({args[0] if args else ''})",
                "push_front": f"{base}.appendleft({args[0] if args else ''})",
                "pop_back": f"{base}.pop()",
                "pop_front": f"{base}.popleft()",
                "front": f"{base}[0]",
                "back": f"{base}[-1]",
                "size": f"len({base})",
                "empty": f"(0 if {base} else 1)",
                "clear": f"{base}.clear()",
                "copy": f"_copy_val({base})",
            }
            return queue_map[name]
        raise SemanticError(f"cannot emit dynamic attribute ?{name}", e.span)

    def _expr_shape(self, e: A.Expr) -> str:
        if isinstance(e, A.Name):
            return self.division.var_shape(e.ident)
        if isinstance(e, A.ArrayNew):
            return SHAPE_ARRAY
        if isinstance(e, A.QueueNew):
            return SHAPE_QUEUE
        if isinstance(e, A.TupleLit):
            return SHAPE_TUPLE
        if isinstance(e, A.Attr) and e.name == "copy":
            return self._expr_shape(e.base)
        return SHAPE_INT

    # -- slow (memoized) engine -------------------------------------------------

    def emit_slow(self) -> str:
        em = _Emitter()
        em.line("def slow_main(_ctx, _M, _key):")
        em.indent += 1
        self._emit_key_prologue(em)
        em.line("_S = _ctx.S")
        self._emit_block(self.flat.body, em)
        self._emit_flush(em)
        self._flush_pending(em)
        em.line("return")
        return em.source()

    def _emit_key_prologue(self, em: _Emitter) -> None:
        """Bind ``main``'s parameters from the frozen key ``_key``.  Only
        the ones BTA's ``copied_params`` names are copied (thawed to
        lists); the rest are the key's own immutable values."""
        params = self.flat.params
        if not params:
            return
        trailer = "," if len(params) == 1 else ""
        em.line(f"{', '.join(params)}{trailer} = _key")
        for p in params:
            if p in self.division.copied_params:
                em.line(f"{p} = _thaw({p})")

    # -- pending-action buffer (coalescing) ---------------------------------

    def _pending_action(self) -> _Action:
        if self._pending is None:
            self._pending = _Action(len(self.actions), False)
            self.actions.append(self._pending)
            self._pending_ph_count = 0
            self._pending_slow = []
        return self._pending

    def _take_placeholders(self, em: _Emitter, placeholders: list[tuple[str, str, str]]) -> None:
        """Eagerly emit placeholder computations at the current position."""
        for name, src, _ in placeholders:
            em.line(f"{name} = {src}")

    def _buffer_dynamic(self, em: _Emitter, build,
                        span: SourceSpan = UNKNOWN_SPAN) -> int:
        """Add one dynamic statement to the pending action.

        `build` receives a placeholder list (offset to continue the
        pending action's numbering) and returns the statement's source
        line, shared verbatim by both engines.
        """
        action = self._pending_action()
        if not action.span.is_known and span.is_known:
            action.span = span
        placeholders: list[tuple[str, str, str]] = []
        offset = self._pending_ph_count
        line = build(placeholders, offset)
        self._take_placeholders(em, placeholders)
        self._pending_ph_count += len(placeholders)
        action.shape += "".join(kind for _, _, kind in placeholders)
        action.body_lines.append(line)
        self._pending_slow.append(line)
        if not self.coalesce:
            return len(placeholders) + self._flush_pending(em)
        return len(placeholders)

    def _flush_pending(self, em: _Emitter) -> int:
        if self._pending is None:
            return 0
        action = self._pending
        action.n_placeholders = self._pending_ph_count
        data = ", ".join(f"_ph{i}" for i in range(self._pending_ph_count))
        tuple_src = f"({data},)" if self._pending_ph_count else "()"
        em.line(f"_M.action({action.num}, {tuple_src})")
        em.line("if not _M.recover:")
        em.indent += 1
        for line in self._pending_slow:
            em.line(line)
        em.indent -= 1
        lines = 2 + len(self._pending_slow)
        self._pending = None
        self._pending_slow = []
        self._pending_ph_count = 0
        return lines

    # -- statement emission ---------------------------------------------------

    def _emit_block(self, block: A.Block, em: _Emitter) -> None:
        emitted = 0
        for stmt in block.stmts:
            emitted += self._emit_stmt(stmt, em)
        emitted += self._flush_pending(em)
        if emitted == 0:
            em.line("pass")

    def _emit_stmt(self, stmt: A.Stmt, em: _Emitter) -> int:
        """Emit one statement; returns number of Python statements emitted."""
        if isinstance(stmt, A.Block):
            count = 0
            for s in stmt.stmts:
                count += self._emit_stmt(s, em)
            return count
        if isinstance(stmt, A.ValStmt):
            init = stmt.init if stmt.init is not None else A.IntLit(0, span=stmt.span)
            return self._emit_assign_like(A.Name(stmt.name, span=stmt.span), "=", init, em, stmt)
        if isinstance(stmt, A.Assign):
            return self._emit_assign_like(stmt.target, stmt.op, stmt.value, em, stmt)
        if isinstance(stmt, A.ExprStmt):
            return self._emit_expr_stmt(stmt, em)
        count = self._flush_pending(em)
        if isinstance(stmt, A.If):
            em.line(f"if {self._expr(stmt.cond, plain=False)}:")
            em.indent += 1
            self._emit_block(_as_block(stmt.then_body), em)
            em.indent -= 1
            if stmt.else_body is not None:
                em.line("else:")
                em.indent += 1
                self._emit_block(_as_block(stmt.else_body), em)
                em.indent -= 1
            return count + 1
        if isinstance(stmt, A.Switch):
            return count + self._emit_switch(stmt, em, plain=False)
        if isinstance(stmt, A.While):
            em.line(f"while {self._expr(stmt.cond, plain=False)}:")
            em.indent += 1
            self._emit_block(_as_block(stmt.body), em)
            em.indent -= 1
            return count + 1
        if isinstance(stmt, A.Break):
            em.line("break")
            return count + 1
        if isinstance(stmt, A.Continue):
            em.line("continue")
            return count + 1
        if isinstance(stmt, A.Return):
            raise SemanticError("return should have been eliminated", stmt.span)
        raise SemanticError(f"cannot emit statement {type(stmt).__name__}", stmt.span)

    def _emit_switch(self, stmt: A.Switch, em: _Emitter, plain: bool) -> int:
        scrutinee = self._expr(stmt.scrutinee, plain)
        tmp = self._fresh_tmp("_sw")
        em.line(f"{tmp} = {scrutinee}")
        first = True
        default_case: A.Case | None = None
        for case in stmt.cases:
            if case.kind == "default":
                default_case = case
                continue
            values = [self._expr(v, plain) for v in case.values]
            cond = " or ".join(f"{tmp} == {v}" for v in values)
            em.line(("if " if first else "elif ") + cond + ":")
            first = False
            em.indent += 1
            if plain:
                self._emit_plain_block(case.body, em)
            else:
                self._emit_block(case.body, em)
            em.indent -= 1
        if default_case is not None:
            if first:
                if plain:
                    self._emit_plain_block(default_case.body, em)
                else:
                    self._emit_block(default_case.body, em)
            else:
                em.line("else:")
                em.indent += 1
                if plain:
                    self._emit_plain_block(default_case.body, em)
                else:
                    self._emit_block(default_case.body, em)
                em.indent -= 1
        return 2

    # -- assignment / action emission ----------------------------------------

    def _emit_assign_like(
        self, target: A.Expr, op: str, value: A.Expr, em: _Emitter, stmt: A.Stmt
    ) -> int:
        # Desugar compound assignment.
        if op != "=":
            binop = op[:-1]
            value = A.Binary(binop, _clone(target), value, span=stmt.span)

        # Dynamic result test?  (val t = <dyn>?verify)
        if (
            isinstance(value, A.Attr)
            and value.name == "verify"
            and isinstance(target, A.Name)
            and self.division.expr_bt(value.base) == DYNAMIC
        ):
            return self._emit_verify(target, value.base, em, stmt)

        target_bt = self._target_bt(target)
        if target_bt == RT_STATIC:
            # Rt-static assignments interleave with a pending action
            # safely: placeholders snapshot values eagerly, and rt-static
            # code can never read dynamic state.
            lhs = self._lvalue(target, plain=False)
            em.line(f"{lhs} = {self._expr(value, plain=False)}")
            return 1
        return self._emit_dynamic_action(target, value, em, stmt)

    def _target_bt(self, target: A.Expr) -> int:
        if isinstance(target, A.Name):
            return self.division.var_bt(target.ident)
        if isinstance(target, A.Index) and isinstance(target.base, A.Name):
            return self.division.var_bt(target.base.ident)
        raise SemanticError("unsupported assignment target", target.span)

    def _lvalue(self, target: A.Expr, plain: bool) -> str:
        if isinstance(target, A.Name):
            return self._var_ref(target.ident, plain)
        assert isinstance(target, A.Index)
        base = self._lvalue(target.base, plain)
        return f"{base}[{self._expr(target.index, plain)}]"

    def _emit_dynamic_action(
        self, target: A.Expr, value: A.Expr, em: _Emitter, stmt: A.Stmt
    ) -> int:
        def build(placeholders: list[tuple[str, str, str]], offset: int) -> str:
            self._ph_base = offset
            rhs = self._dyn_expr(value, placeholders)
            if isinstance(target, A.Name):
                lhs = f"_S[{self.slots[target.ident]}]"
            else:
                assert isinstance(target, A.Index) and isinstance(target.base, A.Name)
                base_name = target.base.ident
                idx = self._dyn_expr(target.index, placeholders)
                lhs = f"_S[{self.slots[base_name]}][{idx}]"
            return f"{lhs} = {rhs}"

        return self._buffer_dynamic(em, build, span=stmt.span)

    def _emit_expr_stmt(self, stmt: A.ExprStmt, em: _Emitter) -> int:
        expr = stmt.expr
        bt = self.division.expr_bt(expr)
        effect = _has_effect(expr, self.info)
        if not effect:
            return 0  # pure expression statement: no effect, drop it
        if bt == RT_STATIC and not _touches_dynamic_state(expr, self.info, self.division):
            em.line(self._expr(expr, plain=False))
            return 1

        def build(placeholders: list[tuple[str, str, str]], offset: int) -> str:
            self._ph_base = offset
            return self._dyn_expr(expr, placeholders)

        return self._buffer_dynamic(em, build, span=stmt.span)

    def _emit_verify(self, target: A.Name, base: A.Expr, em: _Emitter, stmt: A.Stmt) -> int:
        count = self._flush_pending(em)
        placeholders: list[tuple[str, str, str]] = []
        self._ph_base = 0
        src = self._dyn_expr(base, placeholders)
        action = self._new_action(
            is_verify=True, n_placeholders=len(placeholders), span=stmt.span
        )
        action.shape = "".join(kind for _, _, kind in placeholders)
        lhs = self._var_ref(target.ident, plain=False)
        if self.division.var_bt(target.ident) == DYNAMIC:
            # The verified value is also consumed by dynamic code, so the
            # fast engine must store it into the shared slot before
            # returning it for path selection.
            action.body_lines.append(f"_v = {src}")
            action.body_lines.append(f"{lhs} = _v")
            action.body_lines.append("return _v")
        else:
            action.body_lines.append(f"return {src}")
        self._take_placeholders(em, placeholders)
        data = ", ".join(name for name, _, _ in placeholders)
        tuple_src = f"({data},)" if placeholders else "()"
        em.line(f"_M.begin_verify({action.num}, {tuple_src})")
        em.line("if _M.recover:")
        em.indent += 1
        em.line(f"{lhs} = _M.pop_verify()")
        em.indent -= 1
        em.line("else:")
        em.indent += 1
        em.line(f"{lhs} = {src}")
        em.line(f"_M.note_verify({lhs})")
        em.indent -= 1
        return count + 4

    def _new_action(self, is_verify: bool, n_placeholders: int,
                    span: SourceSpan = UNKNOWN_SPAN) -> _Action:
        action = _Action(
            len(self.actions), is_verify, n_placeholders=n_placeholders,
            span=span,
        )
        self.actions.append(action)
        return action

    # -- flush epilogue ---------------------------------------------------------

    def _emit_flush(self, em: _Emitter) -> None:
        """Flush rt-static globals to their slots at the end of a step.

        This is the paper's observation that rt-static globals must be
        "made dynamic for the next iteration" (§6.3 item 3): an action
        per global stores the recorded exit value into shared state.
        """
        flushed = self.division.flush_globals
        if self.flush_policy == "live":
            flushed = [g for g in flushed if g in self.keep_flushed]
        self._flushed_globals = list(flushed)
        for g in flushed:
            shape = self.division.var_shape(g)
            slot = self.slots[g]

            def build(placeholders, offset, g=g, shape=shape, slot=slot):
                ph = f"_ph{offset}"
                src = f"g_{g}"
                freeze_src, kind = src, "i"
                if shape in (SHAPE_ARRAY, SHAPE_QUEUE, SHAPE_TUPLE, SHAPE_UNKNOWN):
                    # The next key is sized by the walk that freezes it.
                    freezer = "_M.freeze_next" if g == "init" else "_freeze"
                    freeze_src, kind = f"{freezer}({src})", "o"
                placeholders.append((ph, freeze_src, kind))
                if shape == SHAPE_ARRAY:
                    return f"_S[{slot}] = list({ph})"
                if shape == SHAPE_QUEUE:
                    return f"_S[{slot}] = _deque({ph})"
                return f"_S[{slot}] = {ph}"

            # Flush actions are synthesized (no single owning statement);
            # point them at the program header.
            self._buffer_dynamic(em, build, span=self.info.program.span)

    # -- fast engine -----------------------------------------------------------

    def emit_fast(self) -> str:
        em = _Emitter()
        for action in self.actions:
            em.line(f"def _a{action.num}(_ctx, _S, _data):")
            em.indent += 1
            if action.n_placeholders:
                names = ", ".join(f"_ph{i}" for i in range(action.n_placeholders))
                trailer = "," if action.n_placeholders == 1 else ""
                em.line(f"({names}{trailer}) = _data")
            for line in action.body_lines:
                em.line(line)
            if not action.body_lines:
                em.line("pass")
            em.indent -= 1
            em.line("")
        entries = ", ".join(
            f"(_a{a.num}, {a.is_verify})" for a in self.actions
        )
        em.line(f"fast_actions = [{entries}]")
        return em.source()

    # -- plain (non-memoized) engine ---------------------------------------------

    def emit_plain(self) -> str:
        em = _Emitter()
        em.line("def plain_main(_ctx, _key):")
        em.indent += 1
        self._emit_key_prologue(em)
        em.line("_S = _ctx.S")
        self._emit_plain_block(self.flat.body, em)
        em.line("return")
        return em.source()

    def _emit_plain_block(self, block: A.Block, em: _Emitter) -> None:
        if not block.stmts:
            em.line("pass")
            return
        emitted = 0
        for stmt in block.stmts:
            emitted += self._emit_plain_stmt(stmt, em)
        if emitted == 0:
            em.line("pass")

    def _emit_plain_stmt(self, stmt: A.Stmt, em: _Emitter) -> int:
        if isinstance(stmt, A.Block):
            count = 0
            for s in stmt.stmts:
                count += self._emit_plain_stmt(s, em)
            return count
        if isinstance(stmt, A.ValStmt):
            init = stmt.init if stmt.init is not None else A.IntLit(0, span=stmt.span)
            em.line(f"{self._var_ref(stmt.name, plain=True)} = {self._expr(init, plain=True)}")
            return 1
        if isinstance(stmt, A.Assign):
            value = stmt.value
            op = stmt.op
            if op != "=":
                value = A.Binary(op[:-1], _clone(stmt.target), value, span=stmt.span)
            em.line(f"{self._lvalue(stmt.target, plain=True)} = {self._expr(value, plain=True)}")
            return 1
        if isinstance(stmt, A.ExprStmt):
            if not _has_effect(stmt.expr, self.info):
                return 0
            em.line(self._expr(stmt.expr, plain=True))
            return 1
        if isinstance(stmt, A.If):
            em.line(f"if {self._expr(stmt.cond, plain=True)}:")
            em.indent += 1
            self._emit_plain_block(_as_block(stmt.then_body), em)
            em.indent -= 1
            if stmt.else_body is not None:
                em.line("else:")
                em.indent += 1
                self._emit_plain_block(_as_block(stmt.else_body), em)
                em.indent -= 1
            return 1
        if isinstance(stmt, A.Switch):
            return self._emit_switch(stmt, em, plain=True)
        if isinstance(stmt, A.While):
            em.line(f"while {self._expr(stmt.cond, plain=True)}:")
            em.indent += 1
            self._emit_plain_block(_as_block(stmt.body), em)
            em.indent -= 1
            return 1
        if isinstance(stmt, A.Break):
            em.line("break")
            return 1
        if isinstance(stmt, A.Continue):
            em.line("continue")
            return 1
        if isinstance(stmt, A.Return):
            raise SemanticError("return should have been eliminated", stmt.span)
        raise SemanticError(f"cannot emit statement {type(stmt).__name__}", stmt.span)

    # -- setup -------------------------------------------------------------------

    def emit_setup(self) -> str:
        em = _Emitter()
        em.line("def setup(_ctx):")
        em.indent += 1
        em.line("_S = _ctx.S")
        any_init = False
        for name, decl in self.info.globals.items():
            slot = self.slots[name]
            if decl.init is not None:
                em.line(f"_S[{slot}] = {self._expr(decl.init, plain=True)}")
                any_init = True
            else:
                em.line(f"_S[{slot}] = 0")
                any_init = True
        if not any_init:
            em.line("pass")
        return em.source()

    # -- whole module assembly -----------------------------------------------------

    def build(self, with_plain: bool = True) -> CompiledSimulator:
        decoder_src = generate_decoder_source(self.info.patterns) if self.info.patterns.patterns else "def _decode(word):\n    return -1\n"
        preamble = (
            "def _decode_at(_ctx, addr):\n"
            "    p = _ctx._decode_cache.get(addr)\n"
            "    if p is None:\n"
            f"        p = _decode(_ctx.text_word(addr, {self._token_bytes()}))\n"
            "        _ctx._decode_cache[addr] = p\n"
            "    return p\n"
        )
        slow_src = self.emit_slow()
        fast_src = self.emit_fast()
        plain_src = self.emit_plain() if with_plain else ""
        setup_src = self.emit_setup()

        namespace: dict[str, object] = dict(RUNTIME_HELPERS)
        namespace.update(
            {
                "_deque": deque,
                "_freeze": freeze,
                "_thaw": thaw,
                "_copy_val": _copy_val,
                "idiv": idiv,
                "imod": imod,
                "min": min,
                "max": max,
                "abs": abs,
            }
        )
        full_src = "\n".join([decoder_src, preamble, setup_src, slow_src, fast_src, plain_src])
        exec(compile(full_src, f"<facile:{self.name}>", "exec"), namespace)

        if "init" not in self.slots:
            raise SemanticError(
                "simulator must declare a global 'init' key variable",
                self.info.program.span,
            )
        division_summary = {
            "n_actions": len(self.actions),
            "n_verify_actions": sum(1 for a in self.actions if a.is_verify),
            "dynamic_vars": sorted(
                n for n, bt in self.division.bt.items() if bt == DYNAMIC
            ),
            "flush_globals": self.division.flush_globals,
        }
        return CompiledSimulator(
            name=self.name,
            slow_main=namespace["slow_main"],  # type: ignore[arg-type]
            fast_actions=namespace["fast_actions"],  # type: ignore[arg-type]
            slot_count=self.slot_count,
            global_slots={g: self.slots[g] for g in self.info.globals},
            init_slot=self.slots["init"],
            param_count=len(self.flat.params),
            setup=namespace["setup"],  # type: ignore[arg-type]
            init_flushed="init" in getattr(self, "_flushed_globals", ()),
            source_slow=slow_src,
            source_fast=fast_src,
            plain_main=namespace.get("plain_main"),  # type: ignore[arg-type]
            source_plain=plain_src,
            division_summary=division_summary,
            action_bodies=[
                (list(a.body_lines), a.n_placeholders, a.is_verify)
                for a in self.actions
            ],
            action_spans=[a.span for a in self.actions],
            action_shapes=[a.shape for a in self.actions],
        )


# -- helpers -------------------------------------------------------------------


def _copy_val(value):
    if isinstance(value, deque):
        return deque(value)
    if isinstance(value, list):
        return list(value)
    return value


def _as_block(stmt: A.Stmt) -> A.Block:
    return stmt if isinstance(stmt, A.Block) else A.Block([stmt], span=stmt.span)


def _clone(expr: A.Expr) -> A.Expr:
    if isinstance(expr, A.Name):
        return A.Name(expr.ident, span=expr.span)
    if isinstance(expr, A.Index):
        return A.Index(_clone(expr.base), expr.index, span=expr.span)
    return expr


def _has_effect(expr: A.Expr, info) -> bool:
    if isinstance(expr, A.Call):
        if expr.func in info.externs:
            return True
        sig = BUILTIN_FUNCS.get(expr.func)
        return sig is not None and sig.bt_class == "dynamic"
    if isinstance(expr, A.Attr):
        if expr.name in QUEUE_ATTRS and QUEUE_ATTRS[expr.name][1]:
            return True
    return False


def _touches_dynamic_state(expr: A.Expr, info, division: Division) -> bool:
    """True if an effectful rt-static expression still needs an action.

    Queue mutations on rt-static queues are pure bookkeeping the fast
    engine can skip; extern calls and dynamic builtins always touch
    dynamic state.
    """
    if isinstance(expr, A.Call):
        return True
    if isinstance(expr, A.Attr) and expr.name in QUEUE_ATTRS:
        return division.expr_bt(expr.base) == DYNAMIC
    return False
