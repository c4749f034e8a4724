"""Functional (architectural) simulator for SPARC-lite, in Python.

This is the golden model: the OOO timing simulators and the Facile-
generated simulators are all co-simulated against it in the tests.  It
implements the full user-visible semantics: delay slots via the
``(PC, nPC)`` pair, annulled branches, condition codes, loads/stores,
``call``/``jmpl`` linkage, and the ``halt`` instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..facile.builtins import cc_add, cc_branch_taken, cc_logic, cc_sub
from ..facile.run import DEFAULT_MAX_STEPS, RunReport
from ..facile.runtime import Memory
from . import sparclite as S
from .program import Program

_U32 = 0xFFFFFFFF


@dataclass
class StepInfo:
    """What one instruction did — consumed by the timing models."""

    pc: int
    word: int
    decoded: S.Decoded
    next_pc: int
    next_npc: int
    is_branch: bool = False
    taken: bool = False
    target: int = 0
    annulled_slot: bool = False
    mem_addr: int | None = None
    halted: bool = False


@dataclass
class FunctionalSim:
    """Architectural state plus a single-instruction step function."""

    mem: Memory = field(default_factory=Memory)
    regs: list[int] = field(default_factory=lambda: [0] * S.NUM_REGS)
    cc: int = 0
    pc: int = 0
    npc: int = 0
    halted: bool = False
    instret: int = 0
    _annul_next: bool = False

    @classmethod
    def for_program(cls, program: Program) -> "FunctionalSim":
        sim = cls()
        program.load_into(sim.mem)
        sim.pc = program.entry
        sim.npc = program.entry + 4
        sim.regs[14] = program.stack_top  # %sp
        return sim

    # -- register helpers ------------------------------------------------------

    def read_reg(self, n: int) -> int:
        return 0 if n == 0 else self.regs[n]

    def write_reg(self, n: int, value: int) -> None:
        if n != 0:
            self.regs[n] = value & _U32

    # -- one architectural step ---------------------------------------------------

    def step(self) -> StepInfo:
        """Execute the instruction at PC; advance (PC, nPC)."""
        pc = self.pc
        if self._annul_next:
            # The delay-slot instruction was annulled: skip it without
            # executing, charging no architectural effect.
            self._annul_next = False
            info = StepInfo(pc, 0, S.Decoded(kind="annulled", cls=S.CLS_IALU), self.npc, self.npc + 4)
            info.annulled_slot = True
            self.pc = self.npc
            self.npc = self.npc + 4
            return info
        word = self.mem.read32(pc)
        d = S.decode(word)
        return self.exec_decoded(d, pc, word)

    def exec_decoded(self, d: S.Decoded, pc: int, word: int = 0) -> StepInfo:
        """Execute an already-decoded instruction at `pc`.

        This is the fast path used by memoizing replay: the fetch and
        decode work is skipped because target text is run-time static.
        The caller guarantees ``self.pc == pc`` and that this step is
        not an annulled delay slot.
        """
        new_pc = self.npc
        new_npc = self.npc + 4
        info = StepInfo(pc, word, d, new_pc, new_npc)

        if d.kind == "arith":
            self._arith(d)
        elif d.kind == "mem":
            info.mem_addr = self._mem(d)
        elif d.kind == "sethi":
            self.write_reg(d.rd, d.imm << 10)
        elif d.kind == "call":
            self.write_reg(15, pc)
            info.is_branch = True
            info.taken = True
            info.target = (pc + d.disp) & _U32
            new_npc = info.target
        elif d.kind == "branch":
            info.is_branch = True
            taken = cc_branch_taken(d.cond, self.cc)
            info.taken = taken
            info.target = (pc + d.disp) & _U32
            if taken:
                new_npc = info.target
                if d.annul and d.cond == 0b1000:  # ba,a annuls its slot
                    self._annul_next = True
            else:
                if d.annul:
                    self._annul_next = True
        elif d.kind == "halt":
            self.halted = True
            info.halted = True
        elif d.kind == "illegal":
            self.halted = True
            info.halted = True
        else:  # pragma: no cover - decode covers all kinds
            raise AssertionError(d.kind)

        if d.name == "jmpl":
            op2 = d.imm if d.use_imm else self.read_reg(d.rs2)
            target = (self.read_reg(d.rs1) + op2) & _U32
            self.write_reg(d.rd, pc)
            info.is_branch = True
            info.taken = True
            info.target = target
            new_npc = target

        info.next_pc = new_pc
        info.next_npc = new_npc
        self.pc = new_pc
        self.npc = new_npc
        self.instret += 1
        return info

    @property
    def report(self) -> RunReport:
        """The golden run, read off its counters."""
        return RunReport(retired=self.instret, halted=self.halted)

    def run(self, max_steps: int = DEFAULT_MAX_STEPS) -> int:
        steps = 0
        while not self.halted and steps < max_steps:
            self.step()
            steps += 1
        return steps

    # -- instruction groups -----------------------------------------------------------

    def _arith(self, d: S.Decoded) -> None:
        spec = S.ARITH_BY_NAME[d.name]
        if d.name == "jmpl":
            return  # handled by the caller for (PC, nPC) sequencing
        a = self.read_reg(d.rs1)
        b = d.imm if d.use_imm else self.read_reg(d.rs2)
        b &= _U32
        if spec.kind == "shift":
            shift = b & 31
            if d.name == "sll":
                result = (a << shift) & _U32
            elif d.name == "srl":
                result = (a & _U32) >> shift
            else:  # sra
                result = (S._sext(a, 32) >> shift) & _U32
            self.write_reg(d.rd, result)
            return
        base = d.name[:-2] if spec.sets_cc else d.name
        if base == "add":
            result = (a + b) & _U32
            if spec.sets_cc:
                self.cc = cc_add(a, b)
        elif base == "sub":
            result = (a - b) & _U32
            if spec.sets_cc:
                self.cc = cc_sub(a, b)
        elif base == "and":
            result = a & b
        elif base == "or":
            result = a | b
        elif base == "xor":
            result = a ^ b
        elif base == "umul":
            result = (a * b) & _U32
        elif base == "udiv":
            result = (a // b) & _U32 if b else 0
        else:  # pragma: no cover
            raise AssertionError(d.name)
        if spec.sets_cc and base not in ("add", "sub"):
            self.cc = cc_logic(result)
        self.write_reg(d.rd, result)

    def _mem(self, d: S.Decoded) -> int:
        spec = S.MEM_BY_NAME[d.name]
        offset = d.imm if d.use_imm else self.read_reg(d.rs2)
        addr = (self.read_reg(d.rs1) + offset) & _U32
        if spec.is_store:
            value = self.read_reg(d.rd)
            if spec.width == 4:
                self.mem.write32(addr, value)
            elif spec.width == 2:
                self.mem.write16(addr, value)
            else:
                self.mem.write8(addr, value)
        else:
            if spec.width == 4:
                value = self.mem.read32(addr)
            elif spec.width == 2:
                value = self.mem.read16(addr)
            else:
                value = self.mem.read8(addr)
            self.write_reg(d.rd, value)
        return addr
