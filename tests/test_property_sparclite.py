"""Property-based co-simulation over random SPARC-lite programs.

Hypothesis generates random (but always-terminating) programs; every
simulator in the repo must agree on the architectural outcome, and the
three pipeline models must agree on cycle counts.  The compiled Facile
simulators run on both replay backends.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import sparclite as S
from repro.isa.assembler import assemble
from repro.isa.funcsim import FunctionalSim
from repro.isa.simulate import run_facile_functional
from repro.ooo.facile_ooo import run_facile_ooo
from repro.ooo.fastsim import run_fastsim
from repro.ooo.reference import run_reference

from .simrun import requires_cc

ARITH = ["add", "sub", "and", "or", "xor", "addcc", "subcc", "sll", "srl", "umul"]
BRANCHES = ["be", "bne", "bg", "bl", "bge", "ble", "bgu", "bcs", "bpos", "bneg"]
#: The replay backends the compiled simulators run on.
BACKENDS = pytest.mark.parametrize(
    "backend", ["python", pytest.param("c", marks=requires_cc)])


@st.composite
def random_programs(draw):
    """Straight-line code with forward branches only: always terminates.

    Every generated instruction carries its own label ``I<k>``;
    branches target a strictly later label, so control only moves
    forward.  A scratch region in .data absorbs all loads/stores, and
    %o0 holds its base (set outside the branch-reachable region).
    """
    n = draw(st.integers(min_value=4, max_value=30))
    body: list[str] = []
    # %r8 (%o0) is reserved as the scratch-memory base so stores can
    # never stray into the text segment (target text must stay static,
    # paper footnote 3).
    dest_regs = [r for r in range(1, 16) if r != 8]
    for i in range(n):
        kind = draw(st.sampled_from(["arith", "arith_imm", "mem", "branch", "cmp"]))
        rd = draw(st.sampled_from(dest_regs))
        rs1 = draw(st.integers(0, 15))
        rs2 = draw(st.integers(0, 15))
        if kind == "arith":
            op = draw(st.sampled_from(ARITH))
            body.append(f"I{i}:    {op} %r{rs1}, %r{rs2}, %r{rd}")
        elif kind == "arith_imm":
            op = draw(st.sampled_from(ARITH))
            imm = draw(st.integers(0, 255))
            body.append(f"I{i}:    {op} %r{rs1}, {imm}, %r{rd}")
        elif kind == "mem":
            offset = draw(st.integers(0, 15)) * 4
            if draw(st.booleans()):
                body.append(f"I{i}:    st %r{rd}, [%o0 + {offset}]")
            else:
                body.append(f"I{i}:    ld [%o0 + {offset}], %r{rd}")
        elif kind == "cmp":
            body.append(f"I{i}:    cmp %r{rs1}, %r{rs2}")
        else:
            target = draw(st.integers(min_value=i + 1, max_value=n))
            op = draw(st.sampled_from(BRANCHES))
            annul = ",a" if draw(st.booleans()) else ""
            body.append(f"I{i}:    {op}{annul} I{target}")
            body.append("        nop")  # delay slot
    lines = ["        set scratch, %o0"] + body
    lines.append(f"I{n}:    halt")
    lines.append("        .data")
    lines.append("scratch: .space 512")
    return "\n".join(lines) + "\n"


def golden(src):
    sim = FunctionalSim.for_program(assemble(src))
    sim.run(100_000)
    assert sim.halted
    return sim


class TestRandomProgramEquivalence:
    @BACKENDS
    @settings(max_examples=40, deadline=None)
    @given(random_programs())
    def test_facile_functional_matches_golden(self, backend, src):
        g = golden(src)
        program = assemble(src)
        memo = run_facile_functional(program, memoized=True, max_steps=100_000,
                                     replay_backend=backend)
        assert memo.engine.backend_status["active"] == backend
        assert memo.halted
        assert memo.regs == g.regs
        assert memo.retired == g.instret

    @BACKENDS
    @settings(max_examples=25, deadline=None)
    @given(random_programs())
    def test_ooo_simulators_cycle_exact(self, backend, src):
        program = assemble(src)
        ref = run_reference(program, max_cycles=200_000)
        fast = run_fastsim(program, max_cycles=200_000)
        facile = run_facile_ooo(program, max_steps=200_000,
                                replay_backend=backend)
        assert facile.engine.backend_status["active"] == backend
        assert ref.stats.cycles == fast.stats.cycles == facile.stats.cycles
        assert ref.stats.retired == fast.stats.retired == facile.stats.retired
        assert ref.stats.mispredicts == fast.stats.mispredicts == facile.stats.mispredicts

    @settings(max_examples=25, deadline=None)
    @given(random_programs())
    def test_ooo_architectural_state_matches_golden(self, src):
        g = golden(src)
        facile = run_facile_ooo(assemble(src), max_steps=200_000)
        assert list(facile.ctx.read_global("R")) == g.regs
