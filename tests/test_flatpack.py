"""Packed action cache tests: one chain format from the first record.

Covers the contracts the packed layout must keep:

* reopening an entry for recovery and sealing it again keeps its
  lanes, its ``EndRecord`` objects (so ``likely_next`` identity links
  survive) and its bytes;
* packed replay produces the same simulation as an independent oracle
  (the toy simulator's non-memoized build, ``FunctionalSim`` for
  SPARC-lite), including through verify-miss recovery (which reopens
  the entry, appends the new path to its lanes, and seals it again),
  with self-consistent ``RunStats``;
* accounting stays exact under interning — every release path (full
  clears, stale-entry overwrite) leaves ``bytes_current`` equal to a
  from-scratch recount;
* the interning pool itself: refcounts, free-list recycling, and a
  randomized intern/release audit;
* the iterative ``freeze``/``thaw``/``value_bytes`` survive structures
  far deeper than the recursion limit (the depth-torture satellite);
* the same guarantees for the hand-coded FastSim port, checked
  against ``ooo.reference``.
"""

import pytest
from hypothesis import given, strategies as st

from repro.facile.runtime import (
    DICT_TAG,
    ENDMARK,
    ActionCache,
    InternPool,
    Memoizer,
    PackedChain,
    SimulationError,
    freeze,
    thaw,
    value_bytes,
)

from .accounting import assert_billing, assert_memo_billing
from .toyisa import (
    HALT_WORD,
    add_imm,
    bz,
    compile_toy,
    countdown_program,
    run_memoized,
    run_plain,
)


@pytest.fixture(scope="module")
def toy():
    return compile_toy().simulator


def registers(ctx):
    return list(ctx.read_global("R"))


def multi_loop_program(n_loops: int, iters: int) -> list[int]:
    """Sequential countdown loops with varied preambles (distinct hot
    working sets over time — the cache-limit stress shape)."""
    words: list[int] = []
    for k in range(n_loops):
        words += [add_imm(2, 2, j + 1) for j in range(k % 3)]
        words += [
            add_imm(1, 0, iters),
            add_imm(1, 1, 0x1FFF),
            bz(1, 8),
            bz(0, -8),
        ]
    return words + [HALT_WORD]


def lanes(chain):
    """A chain's canonical lanes and jump tables, as plain values."""
    return (
        list(chain.nums), list(chain.data), list(chain.succ),
        [dict(t) for t in chain.tables],
    )


def run_stats_tuple(stats):
    return (
        stats.steps_total,
        stats.steps_fast,
        stats.steps_slow,
        stats.steps_recovered,
        stats.actions_replayed,
    )


# -- pack/unpack (seal/reopen) round trip ---------------------------------------


class TestPackUnpackRoundTrip:
    def recorded_cache(self, toy, words):
        ctx, engine, _ = run_memoized(toy, words)
        return engine.cache

    def test_round_trip_preserves_structure_and_bytes(self, toy):
        cache = self.recorded_cache(toy, countdown_program(30))
        entries = [e for e in cache.entries.values() if e.complete]
        assert entries
        sealed_bytes = cache.stats.bytes_current
        live = cache.pool.live_values()
        packs, unpacks = cache.stats.packs, cache.stats.unpacks
        shapes = {}
        for entry in entries:
            chain = entry.packed
            shapes[id(entry)] = (lanes(chain), list(chain.ends))
            cache.unpack_entry(entry)
            assert not entry.complete and chain.knums is None
            assert_billing(cache)
        # Reopening keeps every pool reference and every byte.
        assert cache.pool.live_values() == live
        assert cache.stats.bytes_current == sealed_bytes
        for entry in entries:
            cache.pack_entry(entry)
            assert entry.complete
            assert_billing(cache)
            chain = entry.packed
            # EndRecord objects stay by identity, so likely_next links
            # into this entry's step boundaries stay valid.
            assert (lanes(chain), list(chain.ends)) == shapes[id(entry)]
            assert chain.knums == list(chain.nums)
        assert cache.stats.bytes_current == sealed_bytes
        assert cache.stats.packs - packs == len(entries)
        assert cache.stats.unpacks - unpacks == len(entries)

    def test_inspection_reads_lanes_without_accounting(self, toy):
        from repro.facile.inspect import cache_summary, dump_entry

        cache = self.recorded_cache(toy, countdown_program(10))
        before = (cache.stats.bytes_current, cache.pool.hits,
                  cache.pool.misses)
        shapes = [lanes(e.packed) for e in cache.entries.values()]
        assert "END" in dump_entry(next(iter(cache.entries.values())))
        assert "records walked" in cache_summary(cache)
        assert (cache.stats.bytes_current, cache.pool.hits,
                cache.pool.misses) == before
        assert [lanes(e.packed) for e in cache.entries.values()] == shapes

    def test_pack_records_interns_repeated_data(self):
        cache = ActionCache()
        m = Memoizer(cache)
        data = (0x1000, 0x1000, 7)
        for key in ((1,), (2,)):
            m.begin_step(key)
            m.action(0, data)
            m.action(1, data)
            m.end_step()
        # Four records, one pooled value, billed once.
        pool = cache.pool
        assert pool.live_values() == 1
        assert pool.hits == 3
        for entry in cache.entries.values():
            assert entry.packed.datavals[:2] == [data, data]
        assert_billing(cache)

    def test_incomplete_chain_refuses_to_pack(self):
        cache = ActionCache()
        m = Memoizer(cache)
        m.begin_step((1,))
        m.action(0, (1,))
        # No end_step: the chain has no end marker.
        with pytest.raises(SimulationError, match="end marker"):
            cache.pack_entry(cache.entries[(1,)])


# -- packed replay equivalence --------------------------------------------------


class TestPackedReplayEquivalence:
    """Packed replay against the toy simulator's non-memoized build
    (``PlainEngine``: no recording, no replay), and the SPARC-lite
    functional simulator against ``FunctionalSim``."""

    def run_both(self, toy, words, **kw):
        packed = run_memoized(toy, words, **kw)
        oracle = run_plain(toy, words)
        return packed, oracle

    @staticmethod
    def assert_consistent(stats):
        assert (
            stats.steps_fast + stats.steps_slow + stats.steps_recovered
            == stats.steps_total
        )

    def test_identical_simulation_and_run_stats(self, toy):
        (pc, pe, ps), (oc, _, os_) = self.run_both(toy, countdown_program(200))
        assert pc.halted and oc.halted
        assert registers(pc) == registers(oc)
        assert pc.retired_total == oc.retired_total
        assert ps.steps_total == os_.steps_total
        self.assert_consistent(ps)
        assert pe.cache.stats.packs > 0
        # Steady-state loop replays come from the packed form.
        assert ps.steps_fast > ps.steps_slow

    def test_recovery_unpacks_and_repacks(self, toy):
        # The countdown's bz verify forks (not-taken on the back edge,
        # taken at exit), so the entry must reopen for recovery and
        # seal again with the new path appended.
        (pc, pe, ps), (oc, _, os_) = self.run_both(toy, countdown_program(50))
        assert registers(pc) == registers(oc)
        assert ps.steps_total == os_.steps_total
        assert ps.steps_recovered > 0
        stats = pe.cache.stats
        assert stats.unpacks == ps.steps_recovered
        assert stats.packs > stats.unpacks  # sealed again after recovery
        for entry in pe.cache.entries.values():
            assert entry.complete and entry.packed.knums is not None
        assert any(e.packed.tables for e in pe.cache.entries.values())
        assert_billing(pe.cache)

    def test_accounting_exact_after_run(self, toy):
        (pc, pe, _), (oc, _, _) = self.run_both(toy, multi_loop_program(4, 40))
        assert registers(pc) == registers(oc)
        cache = pe.cache
        assert_billing(cache)
        for entry in list(cache.entries.values()):
            cache.unpack_entry(entry)
        assert_billing(cache)

    def test_packed_replay_with_profile(self, toy):
        ctx, engine, _ = run_memoized(toy, countdown_program(5), max_steps=0)
        engine.profile()
        stats = engine.run(max_steps=10_000)
        assert ctx.halted
        assert stats.steps_fast > 0
        # The profiled packed path attributes every replayed action.
        assert sum(engine.action_profile.values()) == stats.actions_replayed

    def test_chunked_run_matches_single_run(self, toy):
        # The chained packed loop must respect max_steps budgets.
        words = countdown_program(120)
        one_ctx, _, one_stats = run_memoized(toy, words)
        ctx, engine, _ = run_memoized(toy, words, max_steps=0)
        while not ctx.halted:
            engine.run(max_steps=7)
        assert registers(ctx) == registers(one_ctx)
        # run() returns cumulative stats; the chained packed loop must
        # have respected every 7-step budget yet covered the same run.
        assert engine.stats.steps_total == one_stats.steps_total

    def test_functional_sim_matches_isa_oracle(self):
        from repro.isa.assembler import assemble
        from repro.isa.funcsim import FunctionalSim
        from repro.isa.simulate import run_facile_functional

        program = assemble(TestFastSimFlatPack.SRC)
        run = run_facile_functional(program)
        oracle = FunctionalSim.for_program(program)
        oracle.run()
        assert run.halted and oracle.halted
        assert run.retired == oracle.instret
        assert list(run.regs) == oracle.regs
        cache = run.engine.cache
        assert cache.stats.packs > cache.stats.unpacks > 0
        assert_billing(cache)


# -- cache limits under interning -----------------------------------------------


class TestPackedEviction:
    def test_limited_run_matches_unlimited(self, toy):
        words = multi_loop_program(5, 30)
        base_ctx, base_engine, _ = run_memoized(toy, words)
        limit = base_engine.cache.stats.bytes_current // 3
        ctx, engine, _ = run_memoized(toy, words, cache_limit_bytes=limit)
        assert registers(ctx) == registers(base_ctx)
        assert ctx.retired_total == base_ctx.retired_total
        assert engine.cache.stats.clears > 0
        assert_billing(engine.cache)

    def test_full_clear_empties_pool(self, toy):
        ctx, engine, _ = run_memoized(
            toy, multi_loop_program(4, 30), cache_limit_bytes=1_200,
        )
        cache = engine.cache
        assert cache.stats.clears > 0
        cache.limit_bytes = 0  # over budget now: force one more clear
        assert cache.reclaim()
        assert cache.pool.bytes_live == 0
        assert cache.pool.live_values() == 0
        assert cache.stats.bytes_current == 0
        assert_billing(cache)

    def test_stale_overwrite_releases_pool_refs(self):
        cache = ActionCache()
        m = Memoizer(cache)
        m.begin_step((1,))
        m.action(0, (42, 42))
        m.end_step()
        assert cache.entries[(1,)].complete
        live = cache.pool.live_values()
        assert live > 0
        # Re-recording the same key must refund the sealed entry,
        # pool references included.
        cache.create_entry((1,))
        assert cache.pool.live_values() < live
        assert_billing(cache)

    def test_interrupted_step_refunded_exactly(self):
        """An interrupted step leaves an open entry that may end in a
        verify with no observed value yet; overwriting it refunds every
        byte and pool reference it holds."""
        cache = ActionCache()
        m = Memoizer(cache)
        m.begin_step((1,))
        m.action(0, (42, 42))
        m.begin_verify(1, (43,))
        m.note_verify(5)
        m.begin_verify(2, (44,))  # the step dies before note_verify
        assert_billing(cache)
        cum = cache.stats.bytes_cumulative
        m.begin_step((1,))
        key_cost = cache.entries[(1,)].key_cost
        assert cache.pool.live_values() == 0
        assert cache.stats.bytes_current == key_cost
        assert cache.stats.bytes_cumulative - cum == key_cost
        assert_billing(cache)

    def test_interrupted_recovery_refunded_exactly(self):
        """A recovery that dies after its fork leaves a reopened entry
        with a half-recorded arm; overwriting it is exact too."""
        cache = ActionCache()
        m = Memoizer(cache)
        m.begin_step((1,))
        m.begin_verify(1, ())
        m.note_verify(0)
        m.action(2, (7,))
        m.end_step()
        entry = cache.entries[(1,)]
        m.begin_recovery(entry, [1])
        m.begin_verify(1, ())
        m.pop_verify()
        m.action(3, (8,))  # ... and the step dies here
        assert not entry.complete
        assert_billing(cache)
        m.begin_step((1,))
        assert entry.generation == -1
        assert cache.pool.live_values() == 0
        assert_billing(cache)


# -- the interning pool ---------------------------------------------------------


class TestInternPool:
    def test_second_reference_is_free(self):
        pool = InternPool()
        idx1, charged1 = pool.intern((1, 2, 3))
        idx2, charged2 = pool.intern((1, 2, 3))
        assert idx1 == idx2
        assert charged1 > 0 and charged2 == 0
        assert pool.hits == 1 and pool.misses == 1
        assert pool.bytes_saved == charged1

    def test_release_refunds_only_last_reference(self):
        pool = InternPool()
        idx, charged = pool.intern(("x", 9))
        pool.intern(("x", 9))
        assert pool.release(idx) == 0
        assert pool.bytes_live == charged
        assert pool.release(idx) == charged
        assert pool.bytes_live == 0
        assert pool.live_values() == 0

    def test_free_list_recycles_slots(self):
        pool = InternPool()
        idx, _ = pool.intern((1,))
        pool.release(idx)
        idx2, _ = pool.intern((2,))
        assert idx2 == idx  # the freed slot is reused
        assert pool.values[idx2] == (2,)

    def test_equality_keying_conflates_equal_values(self):
        # True == 1: the pool keys by equality, same as the verify
        # successor dicts downstream, so both map to one slot.
        pool = InternPool()
        a, _ = pool.intern(True)
        b, _ = pool.intern(1)
        assert a == b

    def test_clear_keeps_cumulative_counters(self):
        pool = InternPool()
        pool.intern((1,))
        pool.intern((1,))
        saved = pool.bytes_saved
        pool.clear()
        assert pool.bytes_live == 0 and pool.live_values() == 0
        assert pool.bytes_saved == saved and pool.hits == 1
        idx, _ = pool.intern((3,))
        assert pool.values[idx] == (3,)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["intern", "release"]),
                st.integers(min_value=0, max_value=7),
            ),
            max_size=60,
        )
    )
    def test_randomized_audit(self, ops):
        """Any intern/release sequence keeps the incremental ledger
        equal to a from-scratch recount, and refunds sum exactly."""
        pool = InternPool()
        live_refs: dict[int, int] = {}
        charged = freed = 0
        for op, v in ops:
            if op == "intern":
                idx, c = pool.intern((v, v * 2))
                charged += c
                live_refs[idx] = live_refs.get(idx, 0) + 1
            else:
                held = [i for i, n in live_refs.items() if n > 0]
                if not held:
                    continue
                idx = held[v % len(held)]
                freed += pool.release(idx)
                live_refs[idx] -= 1
            assert pool.bytes_live == pool.recount()
            assert pool.bytes_live == charged - freed


# -- dict placeholder data ------------------------------------------------------


class TestDictPlaceholderData:
    def test_dict_data_survives_pack_round_trip(self):
        cache = ActionCache()
        m = Memoizer(cache)
        data = freeze({"pc": 0x1000, "regs": [1, 2]})
        assert data[0] is DICT_TAG
        m.begin_step((1,))
        m.action(0, data)
        m.begin_verify(1, data)
        m.note_verify(freeze({"taken": True}))
        m.action(2, ())
        m.end_step()
        entry = cache.entries[(1,)]
        chain = entry.packed
        assert entry.complete
        sig = lanes(chain)
        cache.unpack_entry(entry)
        assert lanes(chain) == sig
        assert thaw(cache.pool.values[chain.data[0]]) == {
            "pc": 0x1000, "regs": [1, 2]}
        cache.pack_entry(entry)
        assert lanes(chain) == sig
        assert chain.sux[1] == freeze({"taken": True})
        assert_billing(cache)

    def test_frozen_values_are_never_dicts(self):
        # The packed replay loop discriminates a single-successor
        # expected value from a jump table by class, which is only
        # sound because freeze never emits a dict.
        for v in ({}, {"a": 1}, {"a": {"b": [1, {"c": 2}]}}, [1, {2: 3}]):
            assert not isinstance(freeze(v), dict)

    def test_thaw_inverts_freeze_on_nested_dicts(self):
        v = {"a": [1, {"b": (2, 3)}], "c": {"d": [4]}}
        assert thaw(freeze(v)) == {"a": [1, {"b": [2, 3]}], "c": {"d": [4]}}


# -- depth torture --------------------------------------------------------------


class TestDepthTorture:
    DEPTH = 50_000

    def nested_list(self):
        v = 7
        for _ in range(self.DEPTH):
            v = [v]
        return v

    def test_freeze_thaw_beyond_recursion_limit(self):
        frozen = freeze(self.nested_list())
        depth = 0
        while isinstance(frozen, tuple):
            frozen = frozen[0]
            depth += 1
        assert depth == self.DEPTH and frozen == 7

    def test_value_bytes_beyond_recursion_limit(self):
        frozen = freeze(self.nested_list())
        # 8 for the root, 8 per nested element (scalar included).
        assert value_bytes(frozen) == 8 * (self.DEPTH + 1)

    def test_thaw_beyond_recursion_limit(self):
        thawed = thaw(freeze(self.nested_list()))
        depth = 0
        while isinstance(thawed, list):
            thawed = thawed[0]
            depth += 1
        assert depth == self.DEPTH and thawed == 7

    def test_deep_dict_nesting(self):
        v = 1
        for _ in range(5_000):
            v = {"k": v}
        frozen = freeze(v)
        assert value_bytes(frozen) > 0
        thawed = thaw(frozen)
        depth = 0
        while isinstance(thawed, dict):
            thawed = thawed["k"]
            depth += 1
        assert depth == 5_000 and thawed == 1


# -- the FastSim port -----------------------------------------------------------


class TestFastSimFlatPack:
    SRC = """
        set 48, %o0
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

    def run_pair(self, **kw):
        from repro.isa.assembler import assemble
        from repro.ooo.fastsim import run_fastsim
        from repro.ooo.reference import run_reference

        program = assemble(self.SRC)
        packed = run_fastsim(program, memoized=True, **kw)
        oracle = run_reference(program)
        return packed, oracle

    @staticmethod
    def sig(stats):
        return (stats.cycles, stats.retired, stats.branches,
                stats.mispredicts, stats.loads, stats.stores)

    def test_identical_cycles_and_exact_accounting(self):
        packed, oracle = self.run_pair()
        assert self.sig(packed.stats) == self.sig(oracle.stats)
        assert packed.func.regs == oracle.func.regs
        assert packed.mstats.packs > 0
        assert_memo_billing(packed)

    def test_check_miss_unpacks_and_repacks(self):
        # The alternating branch defeats the predictor, so sealed
        # cycles hit check misses -> reopen, recover, seal again.
        packed, oracle = self.run_pair()
        assert self.sig(packed.stats) == self.sig(oracle.stats)
        assert packed.mstats.misses_check > 0
        assert packed.mstats.unpacks == packed.mstats.misses_check
        assert packed.mstats.packs > packed.mstats.unpacks
        for chain in packed.memo.values():
            # Sealed: the lanes end at a cycle boundary and carry a
            # replay view again.
            assert chain.nums[-1] == ENDMARK
            assert chain.knums == list(chain.nums)
        assert packed.pool.live_values() > 0

    def test_first_miss_forks_the_check_into_a_table(self):
        """After the first check miss, the missed test's successor lane
        is ``~t``: ``tables[t]`` sends the old value on to ``slot + 1``
        and the new one to the first slot recovery appended, and the
        cycle's ``ends`` hold both next keys."""
        from repro.isa.assembler import assemble
        from repro.ooo.fastsim import FastSimOoo

        sim = FastSimOoo(assemble(self.SRC))
        before = {}
        while sim.mstats.misses_check == 0:
            before = {
                key: (list(c.nums), list(c.sux), list(c.ends))
                for key, c in sim.memo.items()
            }
            sim.run(sim.stats.cycles + 1)  # one cycle at a time
        (key,) = [k for k, c in sim.memo.items() if c.tables]
        chain = sim.memo[key]
        nums, sux, ends = before[key]
        assert list(chain.nums[:len(nums)]) == nums
        (slot,) = [i for i, s in enumerate(chain.succ) if s < 0]
        assert chain.succ[slot] == ~0
        old = sux[slot]
        (new,) = [v for v in chain.tables[0] if v != old]
        assert chain.tables == [{old: slot + 1, new: len(nums)}]
        assert chain.nums[-1] == ENDMARK and len(chain.nums) > len(nums)
        assert chain.ends == ends + [sim.state_key()]
        assert len(ends) == 1 and ends[0] != sim.state_key()
        assert_memo_billing(sim)

    def test_limited_matches_unlimited(self):
        base, oracle = self.run_pair()
        limit = base.mstats.bytes_estimate // 3
        packed, _ = self.run_pair(cache_limit_bytes=limit)
        assert self.sig(packed.stats) == self.sig(base.stats)
        assert self.sig(packed.stats) == self.sig(oracle.stats)
        assert packed.mstats.clears > 0
        assert_memo_billing(packed)


# -- the packed stream encoding itself ------------------------------------------


class TestStreamEncoding:
    def pack_one(self, build):
        cache = ActionCache()
        m = Memoizer(cache)
        build(m)
        return cache.entries[(1,)].packed, cache.pool

    def test_straight_line_layout(self):
        def build(m):
            m.begin_step((1,))
            m.action(3, (10,))
            m.action(4, (11,))
            m.end_step()

        chain, pool = self.pack_one(build)
        assert list(chain.nums) == [3, 4, ENDMARK]
        assert chain.nums.tolist() == chain.knums
        assert chain.data[-1] == -1 and chain.datavals[-1] is None
        assert chain.sux[0] is None and chain.sux[1] is None
        assert chain.sux[2] is chain.ends[0]
        assert chain.local_bytes == 3 * 12

    def test_single_successor_verify_falls_through(self):
        def build(m):
            m.begin_step((1,))
            m.begin_verify(2, (5,))
            m.note_verify((7, 7))
            m.action(0, ())
            m.end_step()

        chain, pool = self.pack_one(build)
        assert chain.nums[0] == ~2  # verify slots store ~num
        # Canonical lane: pool index of the expected value; replay
        # view: the pooled value itself (== fall-through, no dict).
        assert pool.values[chain.succ[0]] == (7, 7)
        assert chain.sux[0] == (7, 7)
        assert not isinstance(chain.sux[0], dict)
        assert len(chain.tables) == 0

    def test_multi_successor_verify_builds_jump_table(self):
        def build(m):
            m.begin_step((1,))
            m.begin_verify(2, ())
            m.note_verify(0)
            m.action(0, ())
            m.end_step()

        cache = ActionCache()
        m = Memoizer(cache)
        build(m)
        entry = cache.entries[(1,)]
        # Grow a second successor at the verify fork, the way miss
        # recovery does: replay to the forking verify, feed back the
        # missed value, then record the new arm.
        m.begin_recovery(entry, [1])
        m.begin_verify(2, ())
        assert m.pop_verify() == 1
        m.action(1, ())
        m.end_step()
        chain = entry.packed
        # The old arm falls through; the new one was appended at the
        # end of the lanes.
        assert list(chain.nums) == [~2, 0, ENDMARK, 1, ENDMARK]
        assert chain.tables == [{0: 1, 1: 3}]
        assert chain.sux[0] is chain.tables[0]  # the view shares the dict
        assert chain.succ[0] == ~0
        assert chain.local_bytes == 5 * 12 + 16 + 2 * 8
        # The expected value's pool reference went with the conversion.
        assert_billing(cache)
