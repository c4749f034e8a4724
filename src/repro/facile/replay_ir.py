"""Backend-agnostic replay IR for action bodies.

The flat-packed action cache stores every complete entry as parallel
``nums``/``data``/``succ`` lanes plus an intern pool
(:class:`~repro.facile.runtime.PackedChain`); replay walks the lanes
slot by slot and runs one action body per slot.  The lanes are already
the chain format both backends read.  This module makes the per-slot
work explicit: the **body IR** (:class:`BodyProgram`) is each generated
action body — the restricted Python the code generator emits over
``_S``/``_ph<K>``/``_ctx`` — compiled by :func:`compile_body` into a
stack-machine bytecode whose operations are closed over 64-bit integer
arithmetic, target-memory access, statistics, and extern calls.
Programs are specialized per ``(action, placeholder shape)``, where a
shape has one character per value of a recorded data tuple: ``'i'`` for
an int or bool, ``'o'`` for anything else.

Two backends replay packed chains:

* the **Python backend** is the index-threaded loop
  (``FastForwardEngine._fast_step_packed``), which executes bodies as
  compiled Python functions.  It is the behavior-identical default and
  the fallback for everything below;
* the **C backend** (:mod:`repro.facile.cbackend`) registers each
  chain's lanes with a process-wide compiled kernel, which walks them
  and runs each body program translated to C
  (:mod:`repro.facile.replay_c`).

Lowering is *total or refused*: an action body that falls outside the
IR's closed operation set (host-object traffic, queue mutation,
``log_value``, non-integer arithmetic) raises :class:`Unlowerable`, and
every chain that contains it stays on the Python backend.  The
hand-coded FastSim twin (:mod:`repro.ooo.fastsim`) has no IR: its
packed cycles always replay on its own Python loop.

The reference interpreter (:func:`interpret_body`) executes body
programs with ordinary Python semantics; the tests run every generated
action body under it against the exec'd original to pin down the IR's
meaning independently of any backend.
"""

from __future__ import annotations

import ast
from typing import Any, Callable

# ---------------------------------------------------------------------------
# Body IR opcodes
# ---------------------------------------------------------------------------

# Every instruction is an (op, arg) pair; arg is 0 when unused.  The
# C emitter (replay_c.py) and interpret_body() implement exactly this
# list.
(
    OP_END, OP_CONST, OP_PH, OP_SLOT, OP_ELEM, OP_LOCAL,
    OP_STORE_SLOT, OP_STORE_SLOT_OBJ, OP_STORE_ELEM, OP_STORE_LOCAL,
    OP_ADD, OP_SUB, OP_MUL, OP_AND, OP_OR, OP_XOR, OP_SHL, OP_SHR,
    OP_NEG, OP_NOT, OP_EQ, OP_NE, OP_LT, OP_LE, OP_GT, OP_GE,
    OP_JMP, OP_JZ, OP_SELECT, OP_DROP,
    OP_SEXT, OP_ZEXT, OP_S32, OP_BIT, OP_BITS, OP_POPCOUNT,
    OP_MIN, OP_MAX, OP_ABS, OP_IDIV, OP_IMOD, OP_UMUL32, OP_UDIV32,
    OP_CC_ADD, OP_CC_SUB, OP_CC_LOGIC, OP_CC_BR,
    OP_MEM_R8, OP_MEM_R16, OP_MEM_R32, OP_MEM_W8, OP_MEM_W16, OP_MEM_W32,
    OP_STAT_RETIRE, OP_STAT_CYCLE, OP_STAT_COUNT, OP_HALT, OP_EXTERN,
    OP_RETURN,
) = range(59)

OP_NAMES = [
    "END", "CONST", "PH", "SLOT", "ELEM", "LOCAL",
    "STORE_SLOT", "STORE_SLOT_OBJ", "STORE_ELEM", "STORE_LOCAL",
    "ADD", "SUB", "MUL", "AND", "OR", "XOR", "SHL", "SHR",
    "NEG", "NOT", "EQ", "NE", "LT", "LE", "GT", "GE",
    "JMP", "JZ", "SELECT", "DROP",
    "SEXT", "ZEXT", "S32", "BIT", "BITS", "POPCOUNT",
    "MIN", "MAX", "ABS", "IDIV", "IMOD", "UMUL32", "UDIV32",
    "CC_ADD", "CC_SUB", "CC_LOGIC", "CC_BR",
    "MEM_R8", "MEM_R16", "MEM_R32", "MEM_W8", "MEM_W16", "MEM_W32",
    "STAT_RETIRE", "STAT_CYCLE", "STAT_COUNT", "HALT", "EXTERN",
    "RETURN",
]

#: Limits the compiler enforces so backends can use fixed frames.
MAX_LOCALS = 32
MAX_STACK = 120

_BIN_OPS = {
    ast.Add: OP_ADD, ast.Sub: OP_SUB, ast.Mult: OP_MUL,
    ast.BitAnd: OP_AND, ast.BitOr: OP_OR, ast.BitXor: OP_XOR,
    ast.LShift: OP_SHL, ast.RShift: OP_SHR,
}
_CMP_OPS = {
    ast.Eq: OP_EQ, ast.NotEq: OP_NE, ast.Lt: OP_LT, ast.LtE: OP_LE,
    ast.Gt: OP_GT, ast.GtE: OP_GE,
}
_HELPER_OPS = {
    # name -> (n_args, opcode); argument order matches the Python
    # helpers in repro.facile.builtins / codegen.
    "s32": (1, OP_S32), "popcount": (1, OP_POPCOUNT), "abs": (1, OP_ABS),
    "cc_logic": (1, OP_CC_LOGIC),
    "sext": (2, OP_SEXT), "zext": (2, OP_ZEXT), "bit": (2, OP_BIT),
    "min": (2, OP_MIN), "max": (2, OP_MAX),
    "idiv": (2, OP_IDIV), "imod": (2, OP_IMOD),
    "umul32": (2, OP_UMUL32), "udiv32": (2, OP_UDIV32),
    "cc_add": (2, OP_CC_ADD), "cc_sub": (2, OP_CC_SUB),
    "cc_branch_taken": (2, OP_CC_BR),
    "bits": (3, OP_BITS), "select": (3, OP_SELECT),
}
_MEM_READS = {"read8": OP_MEM_R8, "read16": OP_MEM_R16, "read32": OP_MEM_R32}
_MEM_WRITES = {"write8": OP_MEM_W8, "write16": OP_MEM_W16, "write32": OP_MEM_W32}
_STAT_OPS = {"stat_retire": OP_STAT_RETIRE, "stat_cycle": OP_STAT_CYCLE}

#: int64 range guard for constants and placeholder data.
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


class Unlowerable(Exception):
    """An action body (or chain) falls outside the replay IR.

    ``span`` is the source span of the owning action's statement when
    the caller threaded one through (``compile_body(..., span=...)``),
    so lowerability diagnostics can render caret blocks instead of
    ``<unknown>`` locations.
    """

    def __init__(self, message: str, span=None):
        super().__init__(message)
        self.span = span


class BodyProgram:
    """One compiled action body: straight-line stack bytecode.

    ``code`` is a flat ``[op, arg, op, arg, ...]`` list.  ``shapes`` is
    the placeholder type signature the program was specialized for: one
    character per placeholder, ``'i'`` for an int (the value travels in
    the data arena), ``'o'`` for anything else (the arena carries an
    opaque object reference, storable to a slot but not computable).
    ``externs`` is the :class:`ExternTable` the program's extern ids
    index.
    """

    __slots__ = (
        "num", "code", "n_locals", "max_stack", "shapes", "is_verify",
        "uses_extern", "source", "externs",
    )

    def __init__(self, num: int, code: list[int], n_locals: int,
                 max_stack: int, shapes: str, is_verify: bool,
                 uses_extern: bool, source: str,
                 externs: ExternTable | None = None):
        self.num = num
        self.code = code
        self.n_locals = n_locals
        self.max_stack = max_stack
        self.shapes = shapes
        self.is_verify = is_verify
        self.uses_extern = uses_extern
        self.source = source
        self.externs = externs

    def disassemble(self) -> str:
        out = []
        code = self.code
        for pc in range(0, len(code), 2):
            out.append(f"{pc:4d}  {OP_NAMES[code[pc]]} {code[pc + 1]}")
        return "\n".join(out)


class ExternTable:
    """Stable extern-name -> id assignment shared by a backend."""

    __slots__ = ("names", "_ids")

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}

    def intern(self, name: str) -> int:
        xid = self._ids.get(name)
        if xid is None:
            xid = len(self.names)
            self.names.append(name)
            self._ids[name] = xid
        return xid


# ---------------------------------------------------------------------------
# Body compiler: generated Python -> body IR
# ---------------------------------------------------------------------------


class _Emit:
    """Bytecode buffer with stack-depth accounting and backpatching."""

    def __init__(self) -> None:
        self.code: list[int] = []
        self.depth = 0
        self.max_depth = 0

    def op(self, op: int, arg: int = 0, pop: int = 0, push: int = 0) -> None:
        self.depth -= pop
        if self.depth < 0:
            raise Unlowerable("stack underflow (compiler bug)")
        self.depth += push
        if self.depth > self.max_depth:
            self.max_depth = self.depth
        self.code.append(op)
        self.code.append(arg)

    def jump(self, op: int, pop: int = 0) -> int:
        """Emit a jump with a to-be-patched target; returns patch site."""
        self.op(op, 0, pop=pop)
        return len(self.code) - 1

    def patch(self, site: int) -> None:
        self.code[site] = len(self.code)


class _BodyCompiler:
    def __init__(self, num: int, shapes: str, is_verify: bool,
                 externs: ExternTable, span=None):
        self.num = num
        self.shapes = shapes
        self.is_verify = is_verify
        self.externs = externs
        self.span = span
        self.e = _Emit()
        self.locals: dict[str, int] = {}
        self.uses_extern = False

    def fail(self, why: str) -> Unlowerable:
        return Unlowerable(f"action {self.num}: {why}", span=self.span)

    # -- expressions (each pushes exactly one value; returns 'i'/'o') ----

    def expr(self, node: ast.expr) -> str:
        e = self.e
        if isinstance(node, ast.Constant):
            v = node.value
            if type(v) is bool:
                v = int(v)
            if type(v) is not int or not _I64_MIN <= v <= _I64_MAX:
                raise self.fail(f"non-int constant {v!r}")
            e.op(OP_CONST, v, push=1)
            return "i"
        if isinstance(node, ast.Name):
            name = node.id
            if name.startswith("_ph"):
                k = int(name[3:])
                if k >= len(self.shapes):
                    raise self.fail(f"placeholder {name} out of range")
                e.op(OP_PH, k, push=1)
                return self.shapes[k]
            slot = self.locals.get(name)
            if slot is None:
                raise self.fail(f"unknown name {name!r}")
            e.op(OP_LOCAL, slot, push=1)
            return "i"
        if isinstance(node, ast.Subscript):
            base = node.value
            if isinstance(base, ast.Name) and base.id == "_S":
                k = self._const_index(node.slice)
                e.op(OP_SLOT, k, push=1)
                return "i"
            if (
                isinstance(base, ast.Subscript)
                and isinstance(base.value, ast.Name)
                and base.value.id == "_S"
            ):
                k = self._const_index(base.slice)
                if self.expr(node.slice) != "i":
                    raise self.fail("non-int element index")
                e.op(OP_ELEM, k, pop=1, push=1)
                return "i"
            raise self.fail("unsupported subscript")
        if isinstance(node, ast.BinOp):
            op = _BIN_OPS.get(type(node.op))
            if op is None:
                raise self.fail(f"operator {type(node.op).__name__}")
            self._int_expr(node.left)
            self._int_expr(node.right)
            e.op(op, pop=2, push=1)
            return "i"
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.UAdd):
                return self._int_expr(node.operand)
            self._int_expr(node.operand)
            if isinstance(node.op, ast.USub):
                e.op(OP_NEG, pop=1, push=1)
            elif isinstance(node.op, ast.Not):
                e.op(OP_NOT, pop=1, push=1)
            else:
                raise self.fail(f"unary {type(node.op).__name__}")
            return "i"
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                raise self.fail("chained comparison")
            op = _CMP_OPS.get(type(node.ops[0]))
            if op is None:
                raise self.fail(f"comparison {type(node.ops[0]).__name__}")
            self._int_expr(node.left)
            self._int_expr(node.comparators[0])
            e.op(op, pop=2, push=1)
            return "i"
        if isinstance(node, ast.IfExp):
            # Lazy conditional, like the Python original: only the
            # chosen arm executes (the other may divide by zero, etc.).
            self._int_expr(node.test)
            jz = e.jump(OP_JZ, pop=1)
            self._int_expr(node.body)
            e.depth -= 1  # both arms materialize the same single value
            jmp = e.jump(OP_JMP)
            e.patch(jz)
            self._int_expr(node.orelse)
            e.patch(jmp)
            return "i"
        if isinstance(node, ast.BoolOp):
            # a and b / a or b with int operands (codegen normally
            # pre-lowers these to IfExp; accept both spellings).
            op_is_and = isinstance(node.op, ast.And)
            values = node.values
            self._int_expr(values[0])
            sites = []
            for v in values[1:]:
                # keep value if it decides the result, else replace
                jz = e.jump(OP_JZ if op_is_and else OP_NOT, pop=0)
                if not op_is_and:
                    raise self.fail("or-expression (use IfExp lowering)")
                e.op(OP_DROP, pop=1)
                self._int_expr(v)
                sites.append(jz)
            end = len(e.code)
            for s in sites:
                # JZ target: jump past the recomputation, keeping 0...
                # Simple and-chains of tests are rare; bail out instead
                # of risking a subtle encoding.
                raise self.fail("and-expression (use IfExp lowering)")
            return "i"
        if isinstance(node, ast.Call):
            return self._call(node, as_stmt=False)
        raise self.fail(f"expression {type(node).__name__}")

    def _int_expr(self, node: ast.expr) -> str:
        t = self.expr(node)
        if t != "i":
            raise self.fail("object value used in computation")
        return t

    def _const_index(self, node: ast.expr) -> int:
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return node.value
        raise self.fail("non-constant slot index")

    def _call(self, node: ast.Call, as_stmt: bool) -> str:
        e = self.e
        func = node.func
        if node.keywords:
            raise self.fail("keyword arguments")
        if isinstance(func, ast.Name):
            name = func.id
            if name == "u32":
                if len(node.args) != 1:
                    raise self.fail("u32 arity")
                self._int_expr(node.args[0])
                e.op(OP_CONST, 0xFFFFFFFF, push=1)
                e.op(OP_AND, pop=2, push=1)
                return "i"
            sig = _HELPER_OPS.get(name)
            if sig is None:
                raise self.fail(f"call to {name!r}")
            nargs, op = sig
            if len(node.args) != nargs:
                raise self.fail(f"{name} arity")
            for a in node.args:
                self._int_expr(a)
            e.op(op, pop=nargs, push=1)
            return "i"
        if isinstance(func, ast.Attribute):
            owner = func.value
            attr = func.attr
            if (
                isinstance(owner, ast.Attribute)
                and isinstance(owner.value, ast.Name)
                and owner.value.id == "_ctx"
                and owner.attr == "mem"
            ):
                if attr in _MEM_READS:
                    if len(node.args) != 1:
                        raise self.fail(f"mem.{attr} arity")
                    self._int_expr(node.args[0])
                    e.op(_MEM_READS[attr], pop=1, push=1)
                    return "i"
                if attr in _MEM_WRITES:
                    if not as_stmt:
                        raise self.fail("memory write in an expression")
                    if len(node.args) != 2:
                        raise self.fail(f"mem.{attr} arity")
                    self._int_expr(node.args[0])
                    self._int_expr(node.args[1])
                    e.op(_MEM_WRITES[attr], pop=2)
                    return ""
                raise self.fail(f"mem.{attr}")
            if isinstance(owner, ast.Name) and owner.id == "_ctx":
                if attr in _STAT_OPS:
                    if not as_stmt:
                        raise self.fail(f"{attr} in an expression")
                    if len(node.args) != 1:
                        raise self.fail(f"{attr} arity")
                    self._int_expr(node.args[0])
                    e.op(_STAT_OPS[attr], pop=1)
                    return ""
                if attr == "stat_count":
                    if not as_stmt:
                        raise self.fail("stat_count in an expression")
                    if len(node.args) != 2:
                        raise self.fail("stat_count arity")
                    self._int_expr(node.args[0])
                    self._int_expr(node.args[1])
                    e.op(OP_STAT_COUNT, pop=2)
                    return ""
                if attr == "halt":
                    if not as_stmt:
                        raise self.fail("halt in an expression")
                    if node.args:
                        raise self.fail("halt arity")
                    e.op(OP_HALT)
                    return ""
                if attr == "call_extern":
                    if not node.args or not (
                        isinstance(node.args[0], ast.Constant)
                        and isinstance(node.args[0].value, str)
                    ):
                        raise self.fail("extern name must be a literal")
                    xargs = node.args[1:]
                    if len(xargs) > 8:
                        raise self.fail("extern arity > 8")
                    xid = self.externs.intern(node.args[0].value)
                    for a in xargs:
                        self._int_expr(a)
                    e.op(OP_EXTERN, xid * 256 + len(xargs),
                         pop=len(xargs), push=1)
                    self.uses_extern = True
                    if as_stmt:
                        e.op(OP_DROP, pop=1)
                        return ""
                    return "i"
                # text_word would read around the context's text cache;
                # log_value / queue traffic carry host objects.
                raise self.fail(f"_ctx.{attr}")
        raise self.fail("unsupported call")

    # -- statements ------------------------------------------------------

    def stmt(self, node: ast.stmt) -> None:
        e = self.e
        if isinstance(node, ast.Assign):
            if len(node.targets) != 1:
                raise self.fail("multiple assignment targets")
            tgt = node.targets[0]
            if isinstance(tgt, ast.Name):
                t = self.expr(node.value)
                if t != "i":
                    raise self.fail("object value stored to a local")
                slot = self.locals.get(tgt.id)
                if slot is None:
                    slot = len(self.locals)
                    if slot >= MAX_LOCALS:
                        raise self.fail("too many locals")
                    self.locals[tgt.id] = slot
                e.op(OP_STORE_LOCAL, slot, pop=1)
                return
            if isinstance(tgt, ast.Subscript):
                base = tgt.value
                if isinstance(base, ast.Name) and base.id == "_S":
                    k = self._const_index(tgt.slice)
                    t = self.expr(node.value)
                    if t == "o":
                        # Only a direct placeholder store may carry an
                        # object (the flush of a frozen init tuple);
                        # expr() already rejects 'o' inside arithmetic.
                        e.op(OP_STORE_SLOT_OBJ, k, pop=1)
                    else:
                        e.op(OP_STORE_SLOT, k, pop=1)
                    return
                if (
                    isinstance(base, ast.Subscript)
                    and isinstance(base.value, ast.Name)
                    and base.value.id == "_S"
                ):
                    k = self._const_index(base.slice)
                    if self.expr(tgt.slice) != "i":
                        raise self.fail("non-int element index")
                    if self.expr(node.value) != "i":
                        raise self.fail("object stored into an array slot")
                    e.op(OP_STORE_ELEM, k, pop=2)
                    return
            raise self.fail("unsupported assignment target")
        if isinstance(node, ast.Expr):
            if not isinstance(node.value, ast.Call):
                raise self.fail("bare expression statement")
            self._call(node.value, as_stmt=True)
            return
        if isinstance(node, ast.Return):
            if not self.is_verify or node.value is None:
                raise self.fail("return outside a verify body")
            if self.expr(node.value) != "i":
                raise self.fail("non-int verify result")
            e.op(OP_RETURN, pop=1)
            return
        raise self.fail(f"statement {type(node).__name__}")


def compile_body(num: int, body_lines: list[str], shapes: str,
                 is_verify: bool, externs: ExternTable,
                 span=None) -> BodyProgram:
    """Compile one generated action body to body IR.

    Raises :class:`Unlowerable` (with the offending construct named,
    and carrying ``span`` when given) when the body falls outside the
    IR; the caller keeps that chain on the Python backend.
    """
    source = "\n".join(body_lines)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:  # pragma: no cover - generated code parses
        raise Unlowerable(
            f"action {num}: unparsable body ({exc})", span=span) from None
    c = _BodyCompiler(num, shapes, is_verify, externs, span=span)
    for node in tree.body:
        c.stmt(node)
    if is_verify and (not c.e.code or c.e.code[-2] != OP_RETURN):
        raise Unlowerable(
            f"action {num}: verify body missing return", span=span)
    c.e.op(OP_END)
    if c.e.max_depth > MAX_STACK:
        raise Unlowerable(f"action {num}: expression too deep", span=span)
    return BodyProgram(
        num, c.e.code, len(c.locals), c.e.max_depth, shapes, is_verify,
        c.uses_extern, source, externs,
    )


def compile_bodies(compiled) -> tuple[dict, dict, ExternTable]:
    """Compile every action body of a compiled simulator to body IR,
    each in the one placeholder shape codegen records for it
    (``action_shapes``).  The C backend's body library and ``repro
    check`` both verify these programs.  Pure Python: nothing is built.

    Returns ``(progs, failures, externs)``: action number ->
    :class:`BodyProgram` for the bodies that lower, action number ->
    the :class:`Unlowerable` that keeps a body on the Python tiers, and
    the extern table the programs' extern ids index."""
    externs = ExternTable()
    spans = compiled.action_spans or ()
    shapes = compiled.action_shapes
    progs: dict[int, BodyProgram] = {}
    failures: dict[int, Unlowerable] = {}
    for num, (lines, n_ph, is_verify) in enumerate(compiled.action_bodies):
        span = spans[num] if num < len(spans) else None
        try:
            if num >= len(shapes) or len(shapes[num]) != n_ph:
                raise Unlowerable(
                    f"action {num}: no recorded placeholder shape", span=span)
            progs[num] = compile_body(num, lines, shapes[num], is_verify,
                                      externs, span=span)
        except Unlowerable as exc:
            failures[num] = exc
    return progs, failures, externs


# ---------------------------------------------------------------------------
# Reference interpreter (the IR's executable specification)
# ---------------------------------------------------------------------------


def interpret_body(prog: BodyProgram, ctx, S: list, data: tuple,
                   pc: int = 0, stack: list | None = None,
                   locals_: list | None = None) -> Any:
    """Execute one body program with ordinary Python semantics.

    ``data`` is the record's placeholder tuple (raw values, exactly
    what the generated body would receive).  Returns the verify value
    for verify programs, else None.  This is the IR's specification:
    both the Python loop (which runs the original compiled bodies) and
    the bodies compiled to C must agree with it on every lowerable
    body — the test suite checks the former exhaustively and the
    golden runs the latter.

    ``pc``, ``stack`` and ``locals_`` resume a body part-way through:
    a compiled body hands itself back at an op it cannot compute in
    i64, with its operand stack and locals as they were before that
    op.
    """
    from .builtins import (
        bit, bits, cc_add, cc_branch_taken, cc_logic, cc_sub, popcount,
        s32, sext, udiv32, umul32, zext,
    )
    from .codegen import idiv, imod

    code = prog.code
    if stack is None:
        stack = []
    push = stack.append
    pop = stack.pop
    if locals_ is None:
        locals_ = [0] * (prog.n_locals or 1)
    mem = ctx.mem
    while True:
        op = code[pc]
        arg = code[pc + 1]
        pc += 2
        if op == OP_CONST:
            push(arg)
        elif op == OP_PH:
            push(data[arg])
        elif op == OP_SLOT:
            push(S[arg])
        elif op == OP_ELEM:
            push(S[arg][pop()])
        elif op == OP_LOCAL:
            push(locals_[arg])
        elif op == OP_STORE_SLOT or op == OP_STORE_SLOT_OBJ:
            S[arg] = pop()
        elif op == OP_STORE_ELEM:
            v = pop()
            S[arg][pop()] = v
        elif op == OP_STORE_LOCAL:
            locals_[arg] = pop()
        elif op == OP_ADD:
            b = pop(); push(pop() + b)
        elif op == OP_SUB:
            b = pop(); push(pop() - b)
        elif op == OP_MUL:
            b = pop(); push(pop() * b)
        elif op == OP_AND:
            b = pop(); push(pop() & b)
        elif op == OP_OR:
            b = pop(); push(pop() | b)
        elif op == OP_XOR:
            b = pop(); push(pop() ^ b)
        elif op == OP_SHL:
            b = pop(); push(pop() << b)
        elif op == OP_SHR:
            b = pop(); push(pop() >> b)
        elif op == OP_NEG:
            push(-pop())
        elif op == OP_NOT:
            push(0 if pop() else 1)
        elif op == OP_EQ:
            b = pop(); push(1 if pop() == b else 0)
        elif op == OP_NE:
            b = pop(); push(1 if pop() != b else 0)
        elif op == OP_LT:
            b = pop(); push(1 if pop() < b else 0)
        elif op == OP_LE:
            b = pop(); push(1 if pop() <= b else 0)
        elif op == OP_GT:
            b = pop(); push(1 if pop() > b else 0)
        elif op == OP_GE:
            b = pop(); push(1 if pop() >= b else 0)
        elif op == OP_JMP:
            pc = arg
        elif op == OP_JZ:
            if not pop():
                pc = arg
        elif op == OP_SELECT:
            b = pop(); a = pop(); c = pop()
            push(a if c else b)
        elif op == OP_DROP:
            pop()
        elif op == OP_SEXT:
            b = pop(); push(sext(pop(), b))
        elif op == OP_ZEXT:
            b = pop(); push(zext(pop(), b))
        elif op == OP_S32:
            push(s32(pop()))
        elif op == OP_BIT:
            b = pop(); push(bit(pop(), b))
        elif op == OP_BITS:
            hi = pop(); lo = pop(); push(bits(pop(), lo, hi))
        elif op == OP_POPCOUNT:
            push(popcount(pop()))
        elif op == OP_MIN:
            b = pop(); push(min(pop(), b))
        elif op == OP_MAX:
            b = pop(); push(max(pop(), b))
        elif op == OP_ABS:
            push(abs(pop()))
        elif op == OP_IDIV:
            b = pop(); push(idiv(pop(), b))
        elif op == OP_IMOD:
            b = pop(); push(imod(pop(), b))
        elif op == OP_UMUL32:
            b = pop(); push(umul32(pop(), b))
        elif op == OP_UDIV32:
            b = pop(); push(udiv32(pop(), b))
        elif op == OP_CC_ADD:
            b = pop(); push(cc_add(pop(), b))
        elif op == OP_CC_SUB:
            b = pop(); push(cc_sub(pop(), b))
        elif op == OP_CC_LOGIC:
            push(cc_logic(pop()))
        elif op == OP_CC_BR:
            b = pop(); push(cc_branch_taken(pop(), b))
        elif op == OP_MEM_R8:
            push(mem.read8(pop()))
        elif op == OP_MEM_R16:
            push(mem.read16(pop()))
        elif op == OP_MEM_R32:
            push(mem.read32(pop()))
        elif op == OP_MEM_W8:
            v = pop(); mem.write8(pop(), v)
        elif op == OP_MEM_W16:
            v = pop(); mem.write16(pop(), v)
        elif op == OP_MEM_W32:
            v = pop(); mem.write32(pop(), v)
        elif op == OP_STAT_RETIRE:
            ctx.stat_retire(pop())
        elif op == OP_STAT_CYCLE:
            ctx.stat_cycle(pop())
        elif op == OP_STAT_COUNT:
            n = pop(); ctx.stat_count(pop(), n)
        elif op == OP_HALT:
            ctx.halt()
        elif op == OP_EXTERN:
            nargs = arg & 0xFF
            name = prog.externs.names[arg >> 8]
            args = stack[len(stack) - nargs:] if nargs else []
            del stack[len(stack) - nargs:]
            push(ctx.call_extern(name, *args))
        elif op == OP_RETURN:
            return pop()
        elif op == OP_END:
            return None
        else:  # pragma: no cover
            raise Unlowerable(f"bad opcode {op}")

