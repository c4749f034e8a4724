"""Stress tests for the hand-coded memoizing simulator's recovery
machinery — the part the paper calls "complicated" (§2.1).

Each scenario is engineered to hit a different dynamic-result-test
fork repeatedly (branch directions flipping against the predictor,
indirect targets alternating, cache latencies drifting), and asserts
cycle-exactness against the conventional reference simulator, which has
no memoization machinery to get wrong."""

import pytest

from repro.isa.assembler import assemble
from repro.ooo.facile_ooo import run_facile_ooo
from repro.ooo.fastsim import run_fastsim
from repro.ooo.reference import run_reference


def sig(stats):
    return (stats.cycles, stats.retired, stats.branches, stats.mispredicts,
            stats.loads, stats.stores)


def assert_all_agree(src):
    program = assemble(src)
    ref = run_reference(program)
    fast = run_fastsim(program, memoize=True)
    facile = run_facile_ooo(program, memoized=True)
    assert sig(ref.stats) == sig(fast.stats), "fastsim diverged"
    assert sig(ref.stats) == sig(facile.stats), "facile diverged"
    assert ref.func.regs == fast.func.regs
    return ref, fast, facile


class TestAlternatingBranch:
    """A data-dependent branch that alternates every iteration keeps
    flipping against the 2-bit predictor, so the BPRED result test sees
    both (taken, correct) combinations at the same key."""

    SRC = """
        set 64, %o0
        clr %o1
    loop:
        and %o0, 1, %o2
        cmp %o2, 0
        be even
        nop
        add %o1, 3, %o1
        b join
        nop
    even:
        add %o1, 5, %o1
    join:
        subcc %o0, 1, %o0
        bne loop
        nop
        halt
    """

    def test_agreement(self):
        ref, fast, _ = assert_all_agree(self.SRC)
        assert ref.stats.mispredicts > 5  # the pattern defeats bimodal

    def test_both_paths_recorded_then_replayed(self):
        program = assemble(self.SRC)
        fast = run_fastsim(program, memoize=True)
        # After warm-up the alternation replays without further misses,
        # because both successor chains exist.
        assert fast.mstats.cycles_fast > fast.mstats.cycles_slow
        assert fast.mstats.misses_check >= 1


class TestAlternatingIndirect:
    """jmpl through a register that alternates between two targets:
    the BIND (target, correct) result test forks."""

    SRC = """
        set 40, %o0
        clr %o1
        set t_a, %o2
        set t_b, %o3
    loop:
        and %o0, 1, %o4
        cmp %o4, 0
        be pick_b
        nop
        jmpl %o2, %g0
        nop
    pick_b:
        jmpl %o3, %g0
        nop
    t_a:
        add %o1, 1, %o1
        b join
        nop
    t_b:
        add %o1, 100, %o1
    join:
        subcc %o0, 1, %o0
        bne loop
        nop
        halt
    """

    def test_agreement(self):
        ref, fast, _ = assert_all_agree(self.SRC)
        assert ref.func.regs[9] == 20 * 1 + 20 * 100

    def test_indirect_forks_replayed(self):
        program = assemble(self.SRC)
        fast = run_fastsim(program, memoize=True)
        assert fast.mstats.cycles_fast > 0
        assert fast.mstats.misses_check >= 1


class TestCacheLatencyDrift:
    """A pointer walking a large array: each new line misses, warm
    lines hit — the CACHE latency result test keeps forking until the
    pattern stabilizes."""

    SRC = """
        set 300, %o0
        set buf, %o2
        clr %o1
    loop:
        and %o0, 63, %o3
        sll %o3, 2, %o3
        add %o2, %o3, %o4
        ld [%o4], %o5
        add %o1, %o5, %o1
        subcc %o0, 1, %o0
        bne loop
        nop
        halt
        .data
    buf:
        .space 4096
    """

    def test_agreement(self):
        ref, fast, _ = assert_all_agree(self.SRC)
        assert ref.stats.loads == 300

    def test_recoveries_happen_and_converge(self):
        program = assemble(self.SRC)
        fast = run_fastsim(program, memoize=True)
        assert fast.mstats.misses_check >= 1
        # Once the cache is warm, the hit-latency paths replay cleanly.
        assert fast.mstats.cycles_fast > fast.mstats.cycles_recovered


class TestRecoveryMidGroup:
    """Misses that occur on the second or third instruction of a fetch
    group exercise recovery's resequencing of already-applied EXEC
    events (the _peek_value lookahead)."""

    SRC = """
        set 48, %o0
        clr %o1
        set buf, %o2
    loop:
        add %o1, 1, %o1
        and %o0, 3, %o3
        cmp %o3, 0
        be skip
        nop
        add %o1, 1, %o1
    skip:
        subcc %o0, 1, %o0
        bne loop
        nop
        halt
        .data
    buf:
        .word 0
    """

    def test_agreement(self):
        assert_all_agree(self.SRC)


class TestMemoLimitUnderChurn:
    """Clearing the memo table mid-run (tight limit) while forks keep
    happening must never change results."""

    SRC = TestAlternatingBranch.SRC

    @pytest.mark.parametrize("limit", [4_000, 20_000, 100_000])
    def test_limited_matches_reference(self, limit):
        program = assemble(self.SRC)
        ref = run_reference(program)
        fast = run_fastsim(program, memoize=True, memo_limit_bytes=limit)
        assert sig(ref.stats) == sig(fast.stats)

    def test_clears_observed(self):
        program = assemble(self.SRC)
        fast = run_fastsim(program, memoize=True, memo_limit_bytes=4_000)
        assert fast.mstats.clears > 0

    def test_accounting_leak_free(self):
        program = assemble(self.SRC)
        fast = run_fastsim(program, memoize=True, memo_limit_bytes=4_000)
        assert fast.mstats.bytes_estimate == fast.recount_bytes()
