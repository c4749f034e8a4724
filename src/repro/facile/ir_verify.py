"""Replay-IR verifier, lowering lint, and uarch-protocol audit.

The C replay backend runs action bodies as C translated from their
stack bytecode (``replay_ir.py`` to ``replay_c.py``): stack slot ``k``
becomes one C local, a jump a ``goto``, and the C code checks no stack
depth or index at run time.  That fixed-depth translation is sound
only for programs this module accepts: jumps go forward only, every
path reaches a join at the same depth, every local is written before
it is read, the depth never exceeds ``MAX_STACK`` and every index is
in range.  Every body passes :func:`assert_lowerable` before the
emitter sees it.

* :func:`verify_body` — abstract interpretation of one
  :class:`~repro.facile.replay_ir.BodyProgram`: stack-effect balance
  (no underflow, depth bounded by the kernel's ``VM_STACK`` frame),
  local definite-initialization, operand-kind discipline (an ``'o'``
  placeholder may only flow into ``STORE_SLOT_OBJ``), jump-target
  sanity (forward-only, instruction-aligned), slot/placeholder/local
  index bounds, i64 constant range, and an audit that flags the ops
  the C kernel provably cannot compute as
  :func:`~repro.facile.replay_ir.interpret_body` (unbounded Python
  ints) does, so it hands the body back to that interpreter every time
  it runs: constant shift amounts outside ``[0, 63]``, constant zero
  divisors, constant counter keys outside the kernel's table.
* :func:`wrap_census` — which C-guarded / overflow-checked operations
  a body uses at all (``repro check`` reports the aggregate per file).
* :func:`assert_lowerable` — the gate the C backend calls on each body
  before translating it to C: any error-severity finding raises
  :class:`~repro.facile.replay_ir.Unlowerable`, so a bad program can
  never reach the emitter.  Chain-level checks (lane indices, slot
  kinds, jump-table successors) live in the kernel's lane registration
  (:mod:`repro.facile.cbackend`).
* :func:`audit_model` / :func:`audit_config_key` /
  :func:`builtin_model_suite` — the uarch module-protocol conformance
  audit (FAC5xx): every mutable ``array('q')`` reachable from a model
  must be declared in ``state_arrays()`` (else a native run silently
  diverges from the Python model), no mutable containers may sit
  outside the protocol, and ``config_key()`` must move when any
  behavior-changing constructor parameter moves (else two differently
  configured models share snapshots and action-cache entries).

Everything here is pure Python over the IR — no C toolchain needed —
so ``repro check`` produces identical diagnostics with ``FACILE_NO_CC``
set, which CI asserts.
"""

from __future__ import annotations

import dataclasses
import inspect as _inspect
from array import array
from dataclasses import dataclass

from .diagnostics import CODES, ERROR
from .replay_ir import (
    MAX_LOCALS, MAX_STACK,
    OP_ABS, OP_ADD, OP_AND, OP_BIT, OP_BITS, OP_CC_ADD, OP_CC_BR,
    OP_CC_LOGIC, OP_CC_SUB, OP_CONST, OP_DROP, OP_ELEM, OP_END, OP_EQ,
    OP_EXTERN, OP_GE, OP_GT, OP_HALT, OP_IDIV, OP_IMOD, OP_JMP, OP_JZ,
    OP_LE, OP_LOCAL, OP_LT, OP_MAX, OP_MEM_R8, OP_MEM_R16, OP_MEM_R32,
    OP_MEM_W8, OP_MEM_W16, OP_MEM_W32, OP_MIN, OP_MUL, OP_NE, OP_NEG,
    OP_NOT, OP_OR, OP_PH, OP_POPCOUNT, OP_RETURN, OP_S32, OP_SELECT,
    OP_SEXT, OP_SHL, OP_SHR, OP_SLOT, OP_STAT_COUNT, OP_STAT_CYCLE,
    OP_STAT_RETIRE, OP_STORE_ELEM, OP_STORE_LOCAL, OP_STORE_SLOT,
    OP_STORE_SLOT_OBJ, OP_SUB, OP_UDIV32, OP_UMUL32, OP_XOR, OP_ZEXT,
    OP_NAMES,
    BodyProgram, ExternTable, Unlowerable,
)

#: The C kernel's frame limits, defined here only: this verifier
#: enforces them, and repro.facile.cbackend writes them into the C
#: prelude's ``#define``s and its ctypes mirror of the kernel state.
KERNEL_MAX_SLOTS = 64
KERNEL_NCOUNTERS = 256
KERNEL_VM_STACK = 128
KERNEL_VM_LOCALS = 32

N_OPS = len(OP_NAMES)

#: op -> (pops, pushes) for every fixed-arity opcode (EXTERN pops its
#: ``arg & 0xFF`` arguments and pushes one result).
STACK_EFFECT = {
    OP_CONST: (0, 1), OP_PH: (0, 1), OP_SLOT: (0, 1), OP_LOCAL: (0, 1),
    OP_ELEM: (1, 1),
    OP_STORE_SLOT: (1, 0), OP_STORE_SLOT_OBJ: (1, 0),
    OP_STORE_ELEM: (2, 0), OP_STORE_LOCAL: (1, 0),
    OP_ADD: (2, 1), OP_SUB: (2, 1), OP_MUL: (2, 1), OP_AND: (2, 1),
    OP_OR: (2, 1), OP_XOR: (2, 1), OP_SHL: (2, 1), OP_SHR: (2, 1),
    OP_NEG: (1, 1), OP_NOT: (1, 1),
    OP_EQ: (2, 1), OP_NE: (2, 1), OP_LT: (2, 1), OP_LE: (2, 1),
    OP_GT: (2, 1), OP_GE: (2, 1),
    OP_SELECT: (3, 1), OP_DROP: (1, 0),
    OP_SEXT: (2, 1), OP_ZEXT: (2, 1), OP_S32: (1, 1),
    OP_BIT: (2, 1), OP_BITS: (3, 1), OP_POPCOUNT: (1, 1),
    OP_MIN: (2, 1), OP_MAX: (2, 1), OP_ABS: (1, 1),
    OP_IDIV: (2, 1), OP_IMOD: (2, 1), OP_UMUL32: (2, 1), OP_UDIV32: (2, 1),
    OP_CC_ADD: (2, 1), OP_CC_SUB: (2, 1), OP_CC_LOGIC: (1, 1),
    OP_CC_BR: (2, 1),
    OP_MEM_R8: (1, 1), OP_MEM_R16: (1, 1), OP_MEM_R32: (1, 1),
    OP_MEM_W8: (2, 0), OP_MEM_W16: (2, 0), OP_MEM_W32: (2, 0),
    OP_STAT_RETIRE: (1, 0), OP_STAT_CYCLE: (1, 0), OP_STAT_COUNT: (2, 0),
    OP_HALT: (0, 0),
}

#: Ops where the C kernel guards an operand (E_SHIFT/E_DIV0/E_COUNTER)
#: that Python takes unbounded — the audit census.
GUARDED_OPS = (OP_SHL, OP_SHR, OP_IDIV, OP_IMOD, OP_UDIV32, OP_STAT_COUNT)
#: Ops whose result can leave i64 (the kernel checks them and hands the
#: body back, E_OVF) or that wrap to 32 bits in both backends; the
#: census makes usage visible.
WRAPPING_OPS = (OP_ADD, OP_SUB, OP_MUL, OP_NEG, OP_SHL,
                OP_UMUL32, OP_CC_ADD, OP_CC_SUB)

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

#: Extern names the C kernel's native dispatch registry can take over
#: when a protocol-conformant uarch model is bound; every other extern
#: always exits to the Python callback path (FAC411).  Mirrors the
#: name checks in ``cbackend._nx_explain``.
NATIVE_EXTERN_NAMES = frozenset({"xbpred", "xbind", "xbcall", "xcache"})


@dataclass(frozen=True)
class IRFinding:
    """One verifier/audit finding, keyed by its FACnnn code."""

    code: str
    message: str
    notes: tuple[str, ...] = ()

    @property
    def severity(self) -> str:
        return CODES[self.code].severity

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR


# ---------------------------------------------------------------------------
# Body verifier: abstract interpretation of the stack bytecode
# ---------------------------------------------------------------------------

# Abstract stack values: ('i', const-or-None) for kernel ints,
# ('o', None) for opaque object references (only OP_PH of an 'o'-shaped
# placeholder produces one, only OP_STORE_SLOT_OBJ may consume it).
_TOP_I = ("i", None)
_OBJ = ("o", None)

_MAX_FINDINGS = 25


class _Verify:
    def __init__(self, prog: BodyProgram, n_slots: int | None,
                 externs: ExternTable | None):
        self.prog = prog
        self.n_slots = n_slots
        self.externs = externs
        self.findings: list[IRFinding] = []
        self.max_depth = 0

    def bad(self, code: str, pc: int, why: str) -> None:
        if len(self.findings) >= _MAX_FINDINGS:
            return
        op = self.prog.code[pc] if pc < len(self.prog.code) else -1
        name = OP_NAMES[op] if 0 <= op < N_OPS else f"op{op}"
        self.findings.append(IRFinding(
            code,
            f"action {self.prog.num}: {why} (pc {pc}, {name})",
        ))

    def run(self) -> list[IRFinding]:
        prog = self.prog
        code = prog.code
        if not code or len(code) % 2:
            self.findings.append(IRFinding(
                "FAC402",
                f"action {prog.num}: truncated bytecode "
                f"({len(code)} words)"))
            return self.findings
        if code[-2] != OP_END:
            self.bad("FAC402", len(code) - 2, "program does not end in END")
        if prog.n_locals > MAX_LOCALS or prog.n_locals > KERNEL_VM_LOCALS:
            self.findings.append(IRFinding(
                "FAC404",
                f"action {prog.num}: {prog.n_locals} locals exceed the "
                f"kernel frame ({KERNEL_VM_LOCALS})"))
        # states[pc] = (stack tuple, initialized-locals frozenset)
        states: dict[int, tuple[tuple, frozenset]] = {0: ((), frozenset())}
        returned = False
        for pc in range(0, len(code), 2):
            state = states.pop(pc, None)
            if state is None:
                continue  # unreachable (e.g. the END after a RETURN)
            stack, inited = state
            op, arg = code[pc], code[pc + 1]
            if not 0 <= op < N_OPS:
                self.bad("FAC402", pc, f"unknown opcode {op}")
                continue
            nxt = pc + 2

            if op == OP_END:
                if stack:
                    self.bad("FAC401", pc,
                             f"END with {len(stack)} values on the stack")
                continue
            if op in (OP_JMP, OP_JZ):
                if arg % 2 or not 0 <= arg < len(code):
                    self.bad("FAC402", pc, f"jump target {arg} misaligned "
                             "or out of range")
                    continue
                if arg <= pc:
                    self.bad("FAC402", pc, f"backward jump to {arg} "
                             "(straight-line IR only)")
                    continue
                if op == OP_JZ:
                    stack = self._pop(stack, pc, 1)
                    if stack is None:
                        continue
                    self._merge(states, nxt, stack, inited, pc)
                self._merge(states, arg, stack, inited, pc)
                continue
            if op == OP_RETURN:
                if not prog.is_verify:
                    self.bad("FAC402", pc, "RETURN in a non-verify body")
                if len(stack) != 1:
                    self.bad("FAC401", pc,
                             f"RETURN with stack depth {len(stack)}")
                elif stack[-1][0] != "i":
                    self.bad("FAC403", pc, "RETURN of an object value")
                returned = True
                continue

            # -- fixed-arity ops ----------------------------------------
            if op == OP_EXTERN:
                nargs = arg & 0xFF
                xid = arg >> 8
                if nargs > 8:
                    self.bad("FAC402", pc, f"extern arity {nargs} > 8")
                    continue
                if self.externs is not None and not (
                        0 <= xid < len(self.externs.names)):
                    self.bad("FAC404", pc, f"extern id {xid} not interned")
                    continue
                pops, pushes = nargs, 1
            else:
                eff = STACK_EFFECT.get(op)
                if eff is None:  # pragma: no cover - table is total
                    self.bad("FAC402", pc, "no stack effect recorded")
                    continue
                pops, pushes = eff

            self._check_arg(op, arg, pc)
            if op == OP_LOCAL and 0 <= arg < MAX_LOCALS and arg not in inited:
                self.bad("FAC403", pc,
                         f"local {arg} read before definite initialization")
            if len(stack) < pops:
                self.bad("FAC401", pc,
                         f"stack underflow (depth {len(stack)}, pops {pops})")
                continue
            operands = stack[len(stack) - pops:] if pops else ()
            stack = stack[:len(stack) - pops]
            self._check_kinds(op, operands, pc)
            self._audit_consts(op, operands, pc)
            if pushes:
                stack = stack + (self._result(op, arg, operands),)
            if len(stack) > self.max_depth:
                self.max_depth = len(stack)
            if op == OP_STORE_LOCAL and 0 <= arg < MAX_LOCALS:
                inited = inited | {arg}
            self._merge(states, nxt, stack, inited, pc)

        if prog.is_verify and not returned and not self.findings:
            self.bad("FAC402", 0, "verify body has no reachable RETURN")
        if self.max_depth > MAX_STACK:
            self.findings.append(IRFinding(
                "FAC401",
                f"action {prog.num}: max stack depth {self.max_depth} "
                f"exceeds the compiler bound {MAX_STACK} "
                f"(kernel frame is {KERNEL_VM_STACK})"))
        elif self.max_depth > prog.max_stack:
            self.findings.append(IRFinding(
                "FAC401",
                f"action {prog.num}: declared max_stack {prog.max_stack} "
                f"below the verified depth {self.max_depth}"))
        return self.findings

    # -- transfer helpers ---------------------------------------------------

    def _pop(self, stack, pc, n):
        if len(stack) < n:
            self.bad("FAC401", pc,
                     f"stack underflow (depth {len(stack)}, pops {n})")
            return None
        return stack[:len(stack) - n]

    def _merge(self, states, pc, stack, inited, from_pc) -> None:
        old = states.get(pc)
        if old is None:
            states[pc] = (stack, inited)
            return
        ostack, oinit = old
        if len(ostack) != len(stack):
            self.bad("FAC401", from_pc,
                     f"stack depth mismatch at join pc {pc} "
                     f"({len(ostack)} vs {len(stack)})")
            return
        joined = []
        for a, b in zip(ostack, stack):
            if a[0] != b[0]:
                self.bad("FAC403", from_pc,
                         f"operand kind mismatch at join pc {pc}")
                joined.append(_OBJ)
            else:
                joined.append(a if a[1] == b[1] else (a[0], None))
        states[pc] = (tuple(joined), oinit & inited)

    def _result(self, op, arg, operands):
        if op == OP_CONST:
            return ("i", arg)
        if op == OP_PH:
            shapes = self.prog.shapes
            if 0 <= arg < len(shapes) and shapes[arg] == "o":
                return _OBJ
            return _TOP_I
        return _TOP_I

    def _check_arg(self, op, arg, pc) -> None:
        n_slots = self.n_slots
        if op in (OP_SLOT, OP_STORE_SLOT, OP_STORE_SLOT_OBJ,
                  OP_ELEM, OP_STORE_ELEM):
            limit = n_slots if n_slots is not None else KERNEL_MAX_SLOTS
            if not 0 <= arg < min(limit, KERNEL_MAX_SLOTS):
                self.bad("FAC404", pc,
                         f"slot index {arg} outside [0, {limit})")
        elif op == OP_PH:
            if not 0 <= arg < len(self.prog.shapes):
                self.bad("FAC404", pc,
                         f"placeholder {arg} outside the data shape "
                         f"{self.prog.shapes!r}")
        elif op in (OP_LOCAL, OP_STORE_LOCAL):
            if not 0 <= arg < min(self.prog.n_locals, MAX_LOCALS):
                self.bad("FAC404", pc,
                         f"local index {arg} outside "
                         f"[0, {self.prog.n_locals})")
        elif op == OP_CONST:
            if not _I64_MIN <= arg <= _I64_MAX:
                self.bad("FAC404", pc, f"constant {arg} outside i64")

    def _check_kinds(self, op, operands, pc) -> None:
        if not operands:
            return
        if op == OP_STORE_SLOT_OBJ:
            if operands[-1][0] != "o":
                self.bad("FAC403", pc,
                         "STORE_SLOT_OBJ of a plain int (the kernel "
                         "would tag the slot as an object reference)")
            return
        if op == OP_DROP:
            return  # either kind may be discarded
        for val in operands:
            if val[0] != "i":
                self.bad("FAC403", pc,
                         "object placeholder used in computation "
                         "(only STORE_SLOT_OBJ may consume it)")
                return

    def _audit_consts(self, op, operands, pc) -> None:
        """Flag constant operands the kernel always hands back."""
        if not operands:
            return
        top = operands[-1]
        if top[1] is None:
            return
        c = top[1]
        if op == OP_SHL and not 0 <= c <= 63:
            self.bad("FAC405", pc,
                     f"shift amount {c}: the kernel hands the body back "
                     "(E_SHIFT) every time; Python computes an unbounded "
                     "shift")
        elif op == OP_SHR and c < 0:
            self.bad("FAC405", pc,
                     f"shift amount {c}: the kernel hands the body back "
                     "(E_SHIFT) every time; Python raises ValueError")
        elif op in (OP_IDIV, OP_IMOD, OP_UDIV32) and c == 0:
            self.bad("FAC405", pc,
                     "constant zero divisor: the kernel hands the body "
                     "back (E_DIV0) and Python raises ZeroDivisionError "
                     "mid-replay")
        elif op == OP_STAT_COUNT:
            key = operands[0][1]
            if key is not None and not 0 <= key < KERNEL_NCOUNTERS:
                self.bad("FAC405", pc,
                         f"counter key {key} outside the kernel table "
                         f"[0, {KERNEL_NCOUNTERS}): the kernel hands the "
                         "body back (E_COUNTER) every time; Python counts it")


def verify_body(prog: BodyProgram, *, n_slots: int | None = None,
                externs: ExternTable | None = None) -> list[IRFinding]:
    """Abstractly interpret one body program; returns all findings.

    Error-severity findings (FAC401–FAC404) mean the program must not
    reach the C emitter; FAC405 warnings mark ops the kernel provably
    hands back to the Python spec every time they run.
    """
    return _Verify(prog, n_slots, externs).run()


def wrap_census(prog: BodyProgram) -> dict[str, int]:
    """Count the C-guarded / wrapping operations one body uses."""
    out: dict[str, int] = {}
    code = prog.code
    interesting = set(GUARDED_OPS) | set(WRAPPING_OPS)
    for pc in range(0, len(code), 2):
        op = code[pc]
        if op in interesting:
            name = OP_NAMES[op]
            out[name] = out.get(name, 0) + 1
    return out


# ---------------------------------------------------------------------------
# The emitter gate
# ---------------------------------------------------------------------------


def assert_lowerable(prog: BodyProgram, *, n_slots: int | None,
                     externs: ExternTable | None) -> None:
    """The C backend's per-body gate: raise :class:`Unlowerable` if the
    verifier finds any error in ``prog``.  The backend builds each
    simulator's bodies into C once per process, so this runs once per
    body; chain-level checks (lane indices, slot kinds, successors)
    happen in the kernel's lane registration."""
    errors = [f for f in verify_body(prog, n_slots=n_slots, externs=externs)
              if f.is_error]
    if errors:
        raise Unlowerable(
            f"action {prog.num}: rejected by the replay-IR verifier: "
            + "; ".join(f.message for f in errors[:3]))


# ---------------------------------------------------------------------------
# Uarch module-protocol conformance (FAC5xx)
# ---------------------------------------------------------------------------

#: Attribute walk depth: model -> component -> sub-component.
_WALK_DEPTH = 4
_MUTABLE_CONTAINERS = (list, dict, set, bytearray)


def _declared_arrays(model) -> tuple[set[int], list[IRFinding]]:
    findings: list[IRFinding] = []
    name = type(model).__name__
    try:
        declared = model.state_arrays()
    except Exception as exc:
        return set(), [IRFinding(
            "FAC504", f"{name}.state_arrays() raised {exc!r}")]
    if not isinstance(declared, dict):
        return set(), [IRFinding(
            "FAC504",
            f"{name}.state_arrays() returned {type(declared).__name__}, "
            "not a name -> array('q') dict")]
    ids: set[int] = set()
    for key, buf in declared.items():
        if not isinstance(buf, array) or buf.typecode != "q":
            findings.append(IRFinding(
                "FAC504",
                f"{name}.state_arrays()[{key!r}] is "
                f"{type(buf).__name__}, not array('q') — the kernel "
                "binds i64 buffers only"))
            continue
        ids.add(id(buf))
    return ids, findings


def audit_model(model, name: str | None = None) -> list[IRFinding]:
    """Audit one model *instance* against the uarch module protocol.

    Walks the attribute graph (components included) and checks that
    every reachable ``array('q')`` is declared in ``state_arrays()``
    (by identity, so the kernel mutates exactly the buffers a snapshot
    or a Python fallback run would see) and that no mutable container
    state sits outside the protocol.  Stats dataclasses (drained via
    ``drain_stats``) and frozen config dataclasses are exempt.
    """
    name = name or type(model).__name__
    declared, findings = _declared_arrays(model)
    if any(f.code == "FAC504" for f in findings):
        return findings
    if getattr(model, "config_key", None) is None:
        findings.append(IRFinding(
            "FAC504", f"{name} has no config_key(); the native registry "
            "cannot match it and snapshots cannot address its state"))
    seen: set[int] = set()
    queue: list[tuple[object, str, int]] = [(model, name, 0)]
    while queue:
        obj, path, depth = queue.pop()
        if id(obj) in seen or depth > _WALK_DEPTH:
            continue
        seen.add(id(obj))
        for attr, val in sorted(vars(obj).items()):
            where = f"{path}.{attr}"
            if isinstance(val, array):
                if val.typecode == "q" and id(val) not in declared:
                    findings.append(IRFinding(
                        "FAC501",
                        f"{where} is mutable array('q') state missing "
                        f"from {name}.state_arrays(); a native run would "
                        "mutate kernel-side copies the Python model and "
                        "snapshots never see"))
                elif val.typecode != "q":
                    findings.append(IRFinding(
                        "FAC501",
                        f"{where} is array({val.typecode!r}); protocol "
                        "state must be array('q') to bind zero-copy"))
            elif isinstance(val, _MUTABLE_CONTAINERS):
                findings.append(IRFinding(
                    "FAC502",
                    f"{where} is a mutable {type(val).__name__} outside "
                    "the module protocol; native replay cannot keep it "
                    "coherent (move it into an array('q') buffer or a "
                    "drained stats dataclass)"))
            elif dataclasses.is_dataclass(val) and not isinstance(val, type):
                continue  # stats mirrors / frozen configs
            elif hasattr(val, "state_arrays") and hasattr(val, "config_key"):
                queue.append((val, where, depth + 1))
    return findings


def audit_config_key(cls, base_kwargs: dict | None = None,
                     variants: list[dict] | None = None) -> list[IRFinding]:
    """Check that ``config_key()`` moves when constructor parameters move.

    Every int/bool keyword with a default is perturbed automatically;
    ``variants`` supplies extra keyword sets for composite parameters
    (component models, config dataclasses).  A perturbation that leaves
    the key unchanged means two behaviorally different models would
    share snapshot addresses and native dispatch plans — FAC503.
    """
    base_kwargs = dict(base_kwargs or {})
    findings: list[IRFinding] = []
    try:
        base_key = cls(**base_kwargs).config_key()
    except Exception as exc:
        return [IRFinding(
            "FAC504", f"{cls.__name__}(**{base_kwargs!r}) or its "
            f"config_key() raised {exc!r}")]

    def check(kwargs: dict, what: str) -> None:
        try:
            key = cls(**kwargs).config_key()
        except Exception:
            return  # the perturbed value is simply invalid for this class
        if key == base_key:
            findings.append(IRFinding(
                "FAC503",
                f"{cls.__name__}.config_key() does not change when "
                f"{what} changes; differently configured models would "
                "share snapshot addresses and native dispatch plans"))

    try:
        params = _inspect.signature(cls.__init__).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins only
        params = {}
    for pname, p in params.items():
        if pname == "self" or pname in base_kwargs:
            continue
        d = p.default
        if d is _inspect.Parameter.empty:
            continue
        if type(d) is bool:
            check({**base_kwargs, pname: not d}, f"{pname}={not d}")
        elif type(d) is int:
            check({**base_kwargs, pname: d + 1}, f"{pname}={d + 1}")
    for kwargs in variants or []:
        check({**base_kwargs, **kwargs},
              ", ".join(f"{k}={v!r}" for k, v in kwargs.items()))
    return findings


def builtin_model_suite() -> list[tuple[str, object, list]]:
    """Every model class reachable from the native extern registry, as
    ``(label, instance, config-key variants)`` triples.

    This is the population the ``uarch-protocol`` analysis pass audits:
    the shipped direction predictors, the BTB/RAS front end, and the
    cache hierarchy — exactly what ``cbackend._nx_lower`` can bind into
    the kernel.
    """
    from repro.uarch.branch import (
        AlwaysNotTaken, AlwaysTaken, BimodalPredictor, BranchTargetBuffer,
        FrontEndPredictor, GSharePredictor, ReturnAddressStack,
        TournamentPredictor,
    )
    from repro.uarch.cache import CacheHierarchy, HierarchyConfig

    fe_variants = [
        {"direction": GSharePredictor(history_bits=8)},
        {"btb": BranchTargetBuffer(entries=1024)},
        {"ras": ReturnAddressStack(depth=8)},
    ]
    cfg = HierarchyConfig()
    cache_variants = [
        {"config": dataclasses.replace(cfg, memory_latency=cfg.memory_latency + 1)},
        {"config": dataclasses.replace(cfg, mshr_entries=cfg.mshr_entries + 1)},
        {"config": dataclasses.replace(
            cfg, prefetch_next_line=not cfg.prefetch_next_line)},
    ]
    suite: list[tuple[str, object, list]] = [
        ("BimodalPredictor", BimodalPredictor(), []),
        ("GSharePredictor", GSharePredictor(), []),
        ("TournamentPredictor", TournamentPredictor(), []),
        ("AlwaysTaken", AlwaysTaken(), []),
        ("AlwaysNotTaken", AlwaysNotTaken(), []),
        ("BranchTargetBuffer", BranchTargetBuffer(), []),
        ("ReturnAddressStack", ReturnAddressStack(), []),
        ("FrontEndPredictor", FrontEndPredictor(), fe_variants),
        ("CacheHierarchy", CacheHierarchy(), cache_variants),
    ]
    return suite


def audit_builtin_models() -> list[IRFinding]:
    """Protocol-audit the whole shipped registry population."""
    findings: list[IRFinding] = []
    for label, model, variants in builtin_model_suite():
        findings.extend(audit_model(model, label))
        findings.extend(audit_config_key(type(model), variants=variants))
    return findings


def audit_model_classes(classes: list[type]) -> list[IRFinding]:
    """Audit user-supplied model classes (``repro check models.py``).

    Classes must be constructible with their defaults; construction
    failure is reported as FAC504 rather than raised.
    """
    findings: list[IRFinding] = []
    for cls in classes:
        try:
            model = cls()
        except Exception as exc:
            findings.append(IRFinding(
                "FAC504",
                f"{cls.__name__}() is not default-constructible "
                f"({exc!r}); the protocol audit needs a baseline instance"))
            continue
        findings.extend(audit_model(model, cls.__name__))
        findings.extend(audit_config_key(cls))
    return findings
