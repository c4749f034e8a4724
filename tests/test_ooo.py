"""Co-simulation tests for the three out-of-order simulator
implementations: reference (conventional), FastSim (hand-coded
memoizing), and the Facile-compiled simulator must be **cycle-exact**
with each other and architecturally exact with the golden functional
simulator."""

import pytest

from repro.isa.assembler import assemble
from repro.isa.funcsim import FunctionalSim
from repro.ooo.common import MachineConfig
from repro.ooo.facile_ooo import run_facile_ooo
from repro.ooo.fastsim import run_fastsim
from repro.ooo.reference import run_reference
from repro.workloads.suite import WORKLOADS, build_cached

LOOP_SRC = """
        set 40, %o0
        clr %o1
        set buf, %o2
loop:   ld [%o2], %o3
        add %o1, %o3, %o1
        st %o1, [%o2 + 4]
        subcc %o0, 1, %o0
        bne loop
        nop
        halt
        .data
buf:    .word 3
        .space 12
"""

CALL_SRC = """
        set 5, %o0
        clr %o5
outer:  call work
        nop
        add %o5, %o0, %o5
        subcc %o0, 1, %o0
        bne outer
        nop
        halt
work:   set 3, %o1
inner:  subcc %o1, 1, %o1
        bne inner
        nop
        ret
        nop
"""

ANNUL_SRC = """
        set 10, %o0
        clr %o1
loop:   subcc %o0, 1, %o0
        bne,a loop
        add %o1, 2, %o1   ! annulled when fall-through
        halt
"""

MUL_DIV_SRC = """
        set 12, %o0
        set 240, %o1
        clr %o2
loop:   umul %o0, 3, %o3
        udiv %o1, %o0, %o4
        add %o2, %o3, %o2
        add %o2, %o4, %o2
        subcc %o0, 1, %o0
        bne loop
        nop
        halt
"""


def stat_sig(stats):
    return (
        stats.cycles,
        stats.retired,
        stats.branches,
        stats.mispredicts,
        stats.loads,
        stats.stores,
    )


def run_all_three(program, config=None):
    ref = run_reference(program, config)
    fast = run_fastsim(program, config, memoized=True)
    facile = run_facile_ooo(program, config, memoized=True)
    return ref, fast, facile


@pytest.mark.parametrize(
    "src", [LOOP_SRC, CALL_SRC, ANNUL_SRC, MUL_DIV_SRC], ids=["loop", "call", "annul", "muldiv"]
)
class TestCycleExactAgreement:
    def test_all_simulators_agree(self, src):
        program = assemble(src)
        ref, fast, facile = run_all_three(program)
        assert stat_sig(ref.stats) == stat_sig(fast.stats)
        assert stat_sig(ref.stats) == stat_sig(facile.stats)

    def test_architectural_state_matches_golden(self, src):
        program = assemble(src)
        golden = FunctionalSim.for_program(program)
        golden.run()
        ref, fast, facile = run_all_three(program)
        assert ref.func.regs == golden.regs
        assert fast.func.regs == golden.regs
        assert list(facile.ctx.read_global("R")) == golden.regs
        assert ref.stats.retired == golden.instret

    def test_memoized_equals_nonmemoized(self, src):
        program = assemble(src)
        memo = run_fastsim(program, memoized=True)
        plain = run_fastsim(program, memoized=False)
        assert stat_sig(memo.stats) == stat_sig(plain.stats)
        facile_m = run_facile_ooo(program, memoized=True)
        facile_p = run_facile_ooo(program, memoized=False)
        assert stat_sig(facile_m.stats) == stat_sig(facile_p.stats)


class TestTimingBehaviour:
    def test_ooo_faster_than_sequential(self):
        program = assemble(LOOP_SRC)
        sim = run_reference(program)
        assert sim.stats.ipc > 1.0  # out-of-orderness visible

    def test_dependence_chain_limits_ipc(self):
        chain = "\n".join(["        add %o0, 1, %o0"] * 40)
        src = f"        clr %o0\n{chain}\n        halt\n"
        sim = run_reference(assemble(src))
        # A pure dependence chain cannot exceed 1 instruction per cycle
        # (plus pipeline fill).
        assert sim.stats.ipc < 1.3

    def test_independent_ops_reach_high_ipc(self):
        body = []
        for i in range(10):
            for r in range(4):
                body.append(f"        add %l{r}, 1, %l{r}")
        src = "\n".join(body) + "\n        halt\n"
        sim = run_reference(assemble(src))
        assert sim.stats.ipc > 2.0

    def test_mispredict_costs_cycles(self):
        cfg_cheap = MachineConfig(mispredict_penalty=0)
        cfg_dear = MachineConfig(mispredict_penalty=10)
        # Alternating branch the bimodal predictor cannot learn.
        src = """
            set 40, %o0
            clr %o1
        loop:
            and %o0, 1, %o2
            cmp %o2, 0
            be skip
            nop
            add %o1, 1, %o1
        skip:
            subcc %o0, 1, %o0
            bne loop
            nop
            halt
        """
        cheap = run_reference(assemble(src), cfg_cheap)
        dear = run_reference(assemble(src), cfg_dear)
        assert dear.stats.cycles > cheap.stats.cycles
        assert dear.stats.mispredicts == cheap.stats.mispredicts > 0

    def test_cache_misses_slow_down_loads(self):
        # Stride through a large range (every line misses) vs hitting
        # one line repeatedly.
        def src(stride):
            return f"""
            set 200, %o0
            set buf, %o2
        loop:
            ld [%o2], %o3
            add %o2, {stride}, %o2
            subcc %o0, 1, %o0
            bne loop
            nop
            halt
            .data
        buf:    .space 16384
        """

        hot = run_reference(assemble(src(0)))
        cold = run_reference(assemble(src(64)))
        assert cold.stats.cycles > hot.stats.cycles

    def test_window_fills_under_long_latency(self):
        cfg = MachineConfig(window_size=4)
        big = MachineConfig(window_size=32)
        src = """
            set 30, %o0
        loop:
            udiv %o0, 3, %o1
            add %o1, 1, %o2
            add %o2, 1, %o3
            add %o3, 1, %o4
            subcc %o0, 1, %o0
            bne loop
            nop
            halt
        """
        small_sim = run_reference(assemble(src), cfg)
        big_sim = run_reference(assemble(src), big)
        assert small_sim.stats.cycles >= big_sim.stats.cycles


class TestFastForwardingBehaviour:
    LONG_LOOP = LOOP_SRC.replace("set 40, %o0", "set 500, %o0")

    def test_fastsim_replays_most_cycles(self):
        program = assemble(self.LONG_LOOP)
        sim = run_fastsim(program, memoized=True)
        assert sim.mstats.cycles_fast > 5 * sim.mstats.cycles_slow

    def test_facile_replays_most_cycles(self):
        program = assemble(self.LONG_LOOP)
        run = run_facile_ooo(program, memoized=True)
        assert run.run_stats.steps_fast > 5 * run.run_stats.steps_slow

    def test_fastsim_memo_limit_preserves_results(self):
        program = assemble(LOOP_SRC)
        limited = run_fastsim(program, memoized=True, cache_limit_bytes=4000)
        unlimited = run_fastsim(program, memoized=True)
        assert limited.mstats.clears > 0
        assert stat_sig(limited.stats) == stat_sig(unlimited.stats)

    def test_facile_cache_limit_preserves_results(self):
        program = assemble(LOOP_SRC)
        limited = run_facile_ooo(program, memoized=True, cache_limit_bytes=30_000)
        unlimited = run_facile_ooo(program, memoized=True)
        assert limited.engine.cache.stats.clears > 0
        assert stat_sig(limited.stats) == stat_sig(unlimited.stats)

    def test_ablation_flags_do_not_change_results(self):
        program = assemble(LOOP_SRC)
        base = run_facile_ooo(program, memoized=True)
        no_coalesce = run_facile_ooo(program, memoized=True, coalesce=False)
        no_links = run_facile_ooo(program, memoized=True, index_links=False)
        flush_all = run_facile_ooo(program, memoized=True, flush_policy="all")
        for variant in (no_coalesce, no_links, flush_all):
            assert stat_sig(variant.stats) == stat_sig(base.stats)


@pytest.mark.parametrize("name", ["compress", "li", "vortex", "mgrid"])
class TestWorkloadAgreement:
    """Cross-simulator agreement on real (minic-compiled) workloads."""

    def test_three_way_cycle_exact(self, name):
        program = build_cached(name, WORKLOADS[name].test_scale)
        ref = run_reference(program)
        fast = run_fastsim(program, memoized=True)
        facile = run_facile_ooo(program, memoized=True)
        assert stat_sig(ref.stats) == stat_sig(fast.stats) == stat_sig(facile.stats)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(WORKLOADS))
class TestFullMatrixAgreement:
    """The full 18-workload three-way cycle-exactness matrix."""

    def test_three_way_cycle_exact(self, name):
        program = build_cached(name, WORKLOADS[name].test_scale)
        ref = run_reference(program)
        fast = run_fastsim(program, memoized=True)
        facile = run_facile_ooo(program, memoized=True)
        assert stat_sig(ref.stats) == stat_sig(fast.stats) == stat_sig(facile.stats)
