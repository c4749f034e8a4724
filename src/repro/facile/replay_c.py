"""C emitter for replay-IR body programs.

The C replay backend (:mod:`repro.facile.cbackend`) runs action bodies
as compiled C.  :func:`emit_bodies` translates the verified body
programs of one simulator (:class:`~repro.facile.replay_ir.BodyProgram`)
into one C function, ``ffb_run``, that switches over their action
numbers; the backend builds it into a small shared library per
simulator and the kernel's chain walker calls it for every slot.

The translation is one case per opcode over a stack whose depth is
known at every pc: stack slot ``k`` is the C local ``s<k>``, body local
``j`` is ``l<j>``, and a jump is a ``goto``.  The verifier
(:func:`~repro.facile.ir_verify.assert_lowerable`) is what makes that
sound, and no program reaches this module without passing it: jumps go
forward only, paths join at equal depths, locals are written before
they are read and the depth stays within ``MAX_STACK``.

:func:`~repro.facile.replay_ir.interpret_body` stays the IR's
specification.  Its integers are unbounded and the C code computes in
i64, so every op the C code cannot compute as the spec does is
guarded: a result outside i64 (``E_OVF``), a shift or width outside
``[0, 63]`` (``E_SHIFT``), a zero divisor (``E_DIV0``), an address
outside the 32-bit page table (``E_ADDR``), a counter outside the
kernel table (``E_COUNTER``) and an object slot read as an int or an
element index out of range (``E_SLOT``).  A failed guard *hands the
body back*: it records the reason, the pc just past the op and the
depth before it, then stores that many stack slots and every local
into the kernel state (``r_stack``/``r_loc``) and returns -1.  Guards
check before anything is written, so the stored operands are the op's
own, and ``interpret_body`` resumes the body at that op.
"""

from __future__ import annotations

from .ir_verify import STACK_EFFECT
from .replay_ir import (
    OP_ABS, OP_ADD, OP_AND, OP_BIT, OP_BITS, OP_CC_ADD, OP_CC_BR,
    OP_CC_LOGIC, OP_CC_SUB, OP_CONST, OP_DROP, OP_ELEM, OP_END, OP_EQ,
    OP_EXTERN, OP_GE, OP_GT, OP_HALT, OP_IDIV, OP_IMOD, OP_JMP, OP_JZ,
    OP_LE, OP_LOCAL, OP_LT, OP_MAX, OP_MEM_R8, OP_MEM_R16, OP_MEM_R32,
    OP_MEM_W8, OP_MEM_W16, OP_MEM_W32, OP_MIN, OP_MUL, OP_NE, OP_NEG,
    OP_NOT, OP_OR, OP_PH, OP_POPCOUNT, OP_RETURN, OP_S32, OP_SELECT,
    OP_SEXT, OP_SHL, OP_SHR, OP_SLOT, OP_STAT_COUNT, OP_STAT_CYCLE,
    OP_STAT_RETIRE, OP_STORE_ELEM, OP_STORE_LOCAL, OP_STORE_SLOT,
    OP_STORE_SLOT_OBJ, OP_SUB, OP_UDIV32, OP_UMUL32, OP_XOR, OP_ZEXT,
    BodyProgram,
)

#: What the body library compiles after the kernel's prelude (the
#: ``St`` layout and the shared constants): the memory and
#: condition-code helpers the bodies call.  Their Python twins are
#: ``Memory`` (runtime.py) and repro/facile/builtins.py.
BODY_HELPERS = r"""
#define UNLIKELY(x) __builtin_expect(!!(x), 0)

/* Record a hand-back: reason, detail, the pc just past the op and the
 * stack depth before it.  The site then jumps into its body's save
 * cascade, which stores that many stack slots and every local. */
#define HANDBACK(e, detail, pc, sp) \
    (st->err = (e), st->err_a = (detail), st->r_pc = (pc), st->r_sp = (sp))

static unsigned char *get_page(St *st, u64 pn) {
    unsigned char **l2 = st->pt[pn >> 10];
    if (!l2) {
        l2 = (unsigned char **)calloc(PT2, sizeof(unsigned char *));
        if (!l2) return 0;
        st->pt[pn >> 10] = l2;
    }
    unsigned char *p = l2[pn & 1023];
    if (!p) {
        p = st->page_cb(pn);
        l2[pn & 1023] = p;
    }
    return p;
}

/* 0, or -1 for an address outside the 32-bit page table or a page the
 * page callback could not supply. */
static int mem_read(St *st, i64 addr, int nbytes, i64 *out) {
    if (addr < 0 || (u64)addr + nbytes > 0x100000000ULL) return -1;
    u64 off = (u64)addr & (PAGE_SIZE - 1);
    u64 v = 0;
    if (off + nbytes <= PAGE_SIZE) {
        unsigned char *p = get_page(st, (u64)addr >> 12);
        if (!p) return -1;
        for (int i = nbytes - 1; i >= 0; i--) v = (v << 8) | p[off + i];
    } else {
        for (int i = nbytes - 1; i >= 0; i--) {
            u64 a = (u64)addr + i;
            unsigned char *p = get_page(st, a >> 12);
            if (!p) return -1;
            v = (v << 8) | p[a & (PAGE_SIZE - 1)];
        }
    }
    *out = (i64)v;
    return 0;
}

static int mem_write(St *st, i64 addr, int nbytes, i64 value) {
    if (addr < 0 || (u64)addr + nbytes > 0x100000000ULL) return -1;
    u64 off = (u64)addr & (PAGE_SIZE - 1);
    u64 v = (u64)value;
    if (off + nbytes <= PAGE_SIZE) {
        unsigned char *p = get_page(st, (u64)addr >> 12);
        if (!p) return -1;
        for (int i = 0; i < nbytes; i++) { p[off + i] = v & 0xFF; v >>= 8; }
        return 0;
    }
    for (int i = 0; i < nbytes; i++) {
        u64 a = (u64)addr + i;
        unsigned char *p = get_page(st, a >> 12);
        if (!p) return -1;
        p[a & (PAGE_SIZE - 1)] = v & 0xFF;
        v >>= 8;
    }
    return 0;
}

static i64 h_cc_add(i64 a, i64 b) {
    u64 ua = (u64)a & M32, ub = (u64)b & M32;
    u64 total = ua + ub, r = total & M32;
    i64 fl = 0;
    if (r & 0x80000000ULL) fl |= 8;
    if (r == 0) fl |= 4;
    if ((~(ua ^ ub) & (ua ^ r)) & 0x80000000ULL) fl |= 2;
    if (total > M32) fl |= 1;
    return fl;
}

static i64 h_cc_sub(i64 a, i64 b) {
    u64 ua = (u64)a & M32, ub = (u64)b & M32;
    u64 r = (ua - ub) & M32;
    i64 fl = 0;
    if (r & 0x80000000ULL) fl |= 8;
    if (r == 0) fl |= 4;
    if (((ua ^ ub) & (ua ^ r)) & 0x80000000ULL) fl |= 2;
    if (ua < ub) fl |= 1;
    return fl;
}

static i64 h_cc_logic(i64 a) {
    u64 r = (u64)a & M32;
    i64 fl = 0;
    if (r & 0x80000000ULL) fl |= 8;
    if (r == 0) fl |= 4;
    return fl;
}

static i64 h_cc_br(i64 cond, i64 cc) {
    int n = !!(cc & 8), z = !!(cc & 4), v = !!(cc & 2), c = !!(cc & 1);
    switch (cond & 0xF) {
        case 8: return 1;
        case 0: return 0;
        case 9: return !z;
        case 1: return z;
        case 10: return !(z || (n != v));
        case 2: return z || (n != v);
        case 11: return n == v;
        case 3: return n != v;
        case 12: return !(c || z);
        case 4: return c || z;
        case 13: return !c;
        case 5: return c;
        case 14: return !n;
        case 6: return n;
        case 15: return !v;
        case 7: return v;
    }
    return 0;
}

/* Floor (Python) right shift of an i64: arithmetic, clamped width. */
static i64 asr(i64 a, i64 b) {
    if (b > 63) b = 63;
    return a >> b;
}

/* sext(a, b) for a width b in [1, 63]. */
static i64 h_sext(i64 a, i64 b) {
    u64 v = (u64)a & ((1ULL << b) - 1);
    return (v >> (b - 1)) & 1 ? (i64)(v - (1ULL << b)) : (i64)v;
}

static i64 h_s32(i64 a) {
    u64 v = (u64)a & M32;
    return (v >> 31) & 1 ? (i64)(v - 0x100000000ULL) : (i64)v;
}
"""

_ARITH = {OP_ADD: "add", OP_SUB: "sub", OP_MUL: "mul"}
_BITWISE = {OP_AND: "&", OP_OR: "|", OP_XOR: "^"}
_COMPARE = {OP_EQ: "==", OP_NE: "!=", OP_LT: "<", OP_LE: "<=",
            OP_GT: ">", OP_GE: ">="}
_CC2 = {OP_CC_ADD: "h_cc_add", OP_CC_SUB: "h_cc_sub", OP_CC_BR: "h_cc_br"}
_MEM_READS = {OP_MEM_R8: 1, OP_MEM_R16: 2, OP_MEM_R32: 4}
_MEM_WRITES = {OP_MEM_W8: 1, OP_MEM_W16: 2, OP_MEM_W32: 4}


def _lit(v: int) -> str:
    return "INT64_MIN" if v == -(1 << 63) else f"{v}LL"


def _depths(code: list[int]) -> dict[int, int]:
    """Stack depth before each reachable pc (forward jumps only, equal
    depths at joins: the verifier's guarantees)."""
    depth = {0: 0}
    for pc in range(0, len(code), 2):
        d = depth.get(pc)
        if d is None:
            continue  # unreachable, e.g. the END after a RETURN
        op, arg = code[pc], code[pc + 1]
        if op == OP_END or op == OP_RETURN:
            continue
        if op == OP_JMP:
            depth.setdefault(arg, d)
            continue
        if op == OP_JZ:
            depth.setdefault(arg, d - 1)
            depth.setdefault(pc + 2, d - 1)
            continue
        if op == OP_EXTERN:
            pops, pushes = arg & 0xFF, 1
        else:
            pops, pushes = STACK_EFFECT[op]
        depth.setdefault(pc + 2, d - pops + pushes)
    return depth


class _Case:
    """The C statements of one body."""

    def __init__(self, prog: BodyProgram):
        self.prog = prog
        self.num = prog.num
        self.lines: list[str] = []
        self.max_hb = -1  # deepest hand-back site (-1: none)

    def emit(self, text: str) -> None:
        self.lines.append("        " + text)

    def guard(self, cond: str, err: str, detail: str, pc: int, d: int) -> None:
        self.max_hb = max(self.max_hb, d)
        self.emit(f"if (UNLIKELY({cond})) {{ HANDBACK({err}, {detail}, "
                  f"{pc + 2}, {d}); goto hb{self.num}_{d}; }}")

    def op(self, pc: int, op: int, arg: int, d: int) -> None:
        s = [f"s{k}" for k in range(max(d, 1))]
        top = s[d - 1] if d else ""
        nxt = f"s{d}"
        below = s[d - 2] if d >= 2 else ""
        emit, guard = self.emit, self.guard
        if op == OP_END:
            emit("return 0;")
        elif op == OP_RETURN:
            emit(f"*ret = {top}; return 1;")
        elif op == OP_CONST:
            emit(f"{nxt} = {_lit(arg)};")
        elif op == OP_PH:
            emit(f"{nxt} = ph[{arg}];")
        elif op == OP_SLOT:
            guard(f"st->isobj[{arg}]", "E_SLOT", str(arg), pc, d)
            emit(f"{nxt} = st->slots[{arg}];")
        elif op == OP_ELEM:
            guard(f"!st->arrp[{arg}] || {top} < 0 || {top} >= st->arrlen[{arg}]",
                  "E_SLOT", str(arg), pc, d)
            emit(f"{top} = st->arrp[{arg}][{top}];")
        elif op == OP_LOCAL:
            emit(f"{nxt} = l{arg};")
        elif op == OP_STORE_SLOT or op == OP_STORE_SLOT_OBJ:
            isobj = int(op == OP_STORE_SLOT_OBJ)
            emit(f"st->slots[{arg}] = {top}; st->isobj[{arg}] = {isobj}; "
                 f"st->arrp[{arg}] = 0;")
        elif op == OP_STORE_ELEM:
            guard(f"!st->arrp[{arg}] || {below} < 0 || {below} >= st->arrlen[{arg}]",
                  "E_SLOT", str(arg), pc, d)
            emit(f"st->arrp[{arg}][{below}] = {top};")
        elif op == OP_STORE_LOCAL:
            emit(f"l{arg} = {top};")
        elif op in _ARITH:
            guard(f"__builtin_{_ARITH[op]}_overflow({below}, {top}, &t)",
                  "E_OVF", top, pc, d)
            emit(f"{below} = t;")
        elif op in _BITWISE:
            emit(f"{below} {_BITWISE[op]}= {top};")
        elif op in _COMPARE:
            emit(f"{below} = {below} {_COMPARE[op]} {top};")
        elif op == OP_SHL:
            guard(f"{top} < 0 || {top} > 63", "E_SHIFT", top, pc, d)
            emit(f"t = (i64)((u64){below} << {top});")
            guard(f"(t >> {top}) != {below}", "E_OVF", top, pc, d)
            emit(f"{below} = t;")
        elif op == OP_SHR:
            guard(f"{top} < 0", "E_SHIFT", top, pc, d)
            emit(f"{below} = asr({below}, {top});")
        elif op == OP_NEG:
            guard(f"{top} == INT64_MIN", "E_OVF", "0", pc, d)
            emit(f"{top} = -{top};")
        elif op == OP_NOT:
            emit(f"{top} = !{top};")
        elif op == OP_JMP:
            emit(f"goto L{self.num}_{arg};")
        elif op == OP_JZ:
            emit(f"if (!{top}) goto L{self.num}_{arg};")
        elif op == OP_SELECT:
            cnd = s[d - 3]
            emit(f"{cnd} = {cnd} ? {below} : {top};")
        elif op == OP_DROP:
            pass
        elif op == OP_SEXT:
            guard(f"{top} < 1 || {top} > 63", "E_SHIFT", top, pc, d)
            emit(f"{below} = h_sext({below}, {top});")
        elif op == OP_ZEXT:
            guard(f"{top} < 0 || {top} > 63", "E_SHIFT", top, pc, d)
            emit(f"{below} = (i64)((u64){below} & ((1ULL << {top}) - 1));")
        elif op == OP_S32:
            emit(f"{top} = h_s32({top});")
        elif op == OP_BIT:
            guard(f"{top} < 0", "E_SHIFT", top, pc, d)
            emit(f"{below} = asr({below}, {top}) & 1;")
        elif op == OP_BITS:
            # value, lo, hi: 64 or more bits of a negative value are a
            # positive result of 64 bits or more.
            x, lo, hi = s[d - 3], below, top
            emit(f"w = {hi} - {lo} + 1;")
            guard(f"{lo} < 0 || w < 1", "E_SHIFT", lo, pc, d)
            emit(f"t = asr({x}, {lo});")
            guard("w >= 64 && t < 0", "E_OVF", "w", pc, d)
            emit(f"{x} = (i64)((u64)t & (w >= 64 ? ~0ULL : (1ULL << w) - 1));")
        elif op == OP_POPCOUNT:
            emit(f"{top} = __builtin_popcountll((u64){top} & M32);")
        elif op == OP_MIN:
            emit(f"if ({top} < {below}) {below} = {top};")
        elif op == OP_MAX:
            emit(f"if ({top} > {below}) {below} = {top};")
        elif op == OP_ABS:
            guard(f"{top} == INT64_MIN", "E_OVF", "0", pc, d)
            emit(f"if ({top} < 0) {top} = -{top};")
        elif op == OP_IDIV:
            guard(f"{top} == 0", "E_DIV0", "0", pc, d)
            guard(f"{top} == -1 && {below} == INT64_MIN", "E_OVF", top, pc, d)
            emit(f"{below} = {below} / {top};")
        elif op == OP_IMOD:
            guard(f"{top} == 0", "E_DIV0", "0", pc, d)
            emit(f"{below} = {top} == -1 ? 0 : {below} % {top};")
        elif op == OP_UMUL32:
            emit(f"{below} = (i64)((((u64){below} & M32) * ((u64){top} & M32)) "
                 "& M32);")
        elif op == OP_UDIV32:
            # udiv32(a, 0) is 0; a divisor whose low word is 0 raises in
            # the spec.
            emit(f"if ({top} == 0) {below} = 0; else {{")
            guard(f"((u64){top} & M32) == 0", "E_DIV0", top, pc, d)
            emit(f"{below} = (i64)((((u64){below} & M32) / ((u64){top} & M32)) "
                 "& M32); }")
        elif op in _CC2:
            emit(f"{below} = {_CC2[op]}({below}, {top});")
        elif op == OP_CC_LOGIC:
            emit(f"{top} = h_cc_logic({top});")
        elif op in _MEM_READS:
            guard(f"mem_read(st, {top}, {_MEM_READS[op]}, &t)", "E_ADDR", top,
                  pc, d)
            emit(f"{top} = t;")
        elif op in _MEM_WRITES:
            guard(f"mem_write(st, {below}, {_MEM_WRITES[op]}, {top})", "E_ADDR",
                  below, pc, d)
        elif op == OP_STAT_RETIRE:
            emit(f"st->retired_total += {top}; st->retired_fast += {top};")
        elif op == OP_STAT_CYCLE:
            emit(f"st->cycles += {top};")
        elif op == OP_STAT_COUNT:
            guard(f"{below} < 0 || {below} >= NCOUNTERS", "E_COUNTER", below,
                  pc, d)
            emit(f"st->counters[{below}] += {top}; st->cdirty[{below}] = 1;")
        elif op == OP_HALT:
            emit("st->halted = 1;")
        elif op == OP_EXTERN:
            # A Python callback that raised sets st->err (E_EXTERN).
            nargs, xid = arg & 0xFF, arg >> 8
            args = ", ".join(s[d - nargs:d]) if nargs else "0"
            emit(f"{{ i64 xa[] = {{{args}}}; "
                 f"t = st->xcall(st, {xid}, {nargs}, xa); }}")
            emit("if (UNLIKELY(st->err)) return -1;")
            emit(f"s{d - nargs} = t;")
        else:  # pragma: no cover - the verifier admits no other opcode
            raise ValueError(f"action {self.num}: no C for opcode {op}")

    def text(self) -> list[str]:
        prog = self.prog
        code = prog.code
        depths = _depths(code)
        targets = {code[pc + 1] for pc in range(0, len(code), 2)
                   if code[pc] in (OP_JMP, OP_JZ) and pc in depths}
        for pc in range(0, len(code), 2):
            d = depths.get(pc)
            if d is None:
                continue
            if pc in targets:
                self.lines.append(f"      L{self.num}_{pc}: ;")
            self.op(pc, code[pc], code[pc + 1], d)
        head = [f"    case {self.num}: {{  /* shape {prog.shapes!r} */"]
        width = max(prog.max_stack, 1)
        head.append("        i64 " + ", ".join(f"s{k} = 0" for k in range(width))
                    + ";")
        if prog.n_locals:
            head.append("        i64 " + ", ".join(
                f"l{j} = 0" for j in range(prog.n_locals)) + ";")
        # The save cascade: a hand-back at depth d enters at hb<num>_<d>
        # and falls through the stores of stack slots d-1 .. 0.
        tail = []
        for k in range(self.max_hb, 0, -1):
            tail.append(f"      hb{self.num}_{k}: st->r_stack[{k - 1}] = s{k - 1};")
        if self.max_hb >= 0:
            tail.append(f"      hb{self.num}_0: ;")
            tail += [f"        st->r_loc[{j}] = l{j};"
                     for j in range(prog.n_locals)]
            tail.append("        return -1;")
        return head + self.lines + tail + ["    }"]


def emit_bodies(progs: list[BodyProgram]) -> str:
    """The C function ``ffb_run(st, action, ph, ret)`` over ``progs``
    (verified programs, one per action number, in action order).  It
    runs action ``action`` on placeholder words ``ph`` and returns 0
    at END, 1 at RETURN (``*ret`` set), or -1 with ``st->err`` set:
    a hand-back (``st->r_pc`` set), an extern that raised, or an
    action it has no body for."""
    out = [
        "int ffb_run(St *st, i64 action, const i64 *ph, i64 *ret) {",
        "    i64 t, w;",
        "    switch (action) {",
    ]
    for prog in progs:
        out += _Case(prog).text()
    out += [
        "    }",
        "    st->err = E_BADOP;",
        "    st->err_a = action;",
        "    return -1;",
        "}",
        "",
    ]
    return "\n".join(out)
