"""Unit and property tests for the fast-forwarding runtime."""

from collections import deque, namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.facile.runtime import (
    DICT_TAG,
    ENDMARK,
    ActionCache,
    Memoizer,
    Memory,
    SimulationError,
    freeze,
    freeze_sized,
    thaw,
    value_bytes,
)

from .accounting import assert_billing


# -- plain recursive references for freeze / thaw / value_bytes ---------------


def ref_freeze(v):
    if isinstance(v, dict):
        return (DICT_TAG,) + tuple(
            (k, ref_freeze(x)) for k, x in sorted(v.items())
        )
    if isinstance(v, (list, deque, tuple)):
        return tuple(ref_freeze(x) for x in v)
    return v


def ref_thaw(v):
    if not isinstance(v, tuple):
        return v
    if v and v[0] is DICT_TAG:
        return {k: ref_thaw(x) for k, x in v[1:]}
    return [ref_thaw(x) for x in v]


def ref_value_bytes(v):
    if isinstance(v, tuple):
        return 8 + sum(ref_value_bytes(x) for x in v)
    return 8


def assert_identical(got, want):
    """Equal, and equal in every type: ``repr`` tells True from 1, a
    namedtuple from a tuple and ``[DICT_TAG]`` from ``{}``."""
    assert got == want
    assert repr(got) == repr(want)


Pair = namedtuple("Pair", "a b")

scalars = st.one_of(
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.floats(allow_nan=False),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(deque),
        st.builds(Pair, children, children),
        st.dictionaries(st.integers(-3, 3), children, max_size=3),
        st.dictionaries(st.text(max_size=2), children, max_size=3),
        st.just({}),
    )


#: Every shape rt-static values take: scalars, lists, tuples, deques,
#: namedtuples and dicts (the empty one included), nested.
values = st.recursive(scalars, _containers, max_leaves=24) | st.just({})

#: The values ``thaw`` inverts exactly: freezing turns tuples, deques and
#: namedtuples into tuples, which thaw back as lists.
thawable = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.integers(-3, 3), children, max_size=3),
        st.just({}),
    ),
    max_leaves=24,
) | st.just({})


# -- freeze / thaw -------------------------------------------------------------


class TestFreezeThaw:
    def test_freeze_list(self):
        assert freeze([1, [2, 3]]) == (1, (2, 3))

    def test_freeze_is_hashable(self):
        hash(freeze([1, [2, [3, 4]], 5]))

    def test_thaw_inverts_freeze_for_lists(self):
        original = [1, [2, 3], [4, [5]]]
        assert thaw(freeze(original)) == original

    def test_scalars_pass_through(self):
        assert freeze(7) == 7
        assert thaw(7) == 7

    nested = st.recursive(
        st.integers(),
        lambda children: st.lists(children, max_size=4),
        max_leaves=16,
    )

    @given(nested)
    def test_property_roundtrip(self, value):
        assert thaw(freeze(value)) == value

    @given(nested)
    def test_property_frozen_hashable(self, value):
        hash(freeze(value))

    def test_empty_dict_round_trips(self):
        # ``(DICT_TAG,)`` has no tuple element, yet must thaw to a dict.
        assert freeze({}) == (DICT_TAG,)
        assert_identical(thaw(freeze({})), {})
        assert_identical(thaw(freeze([1, {}, [{}]])), [1, {}, [{}]])

    def test_namedtuple_freezes_to_plain_tuple(self):
        assert_identical(freeze(Pair(1, 2)), (1, 2))
        assert_identical(freeze([Pair(1, [2])]), ((1, (2,)),))

    @given(values)
    def test_property_freeze_matches_reference(self, value):
        frozen = freeze(value)
        assert_identical(frozen, ref_freeze(value))
        hash(frozen)

    @given(values)
    def test_property_thaw_matches_reference(self, value):
        frozen = ref_freeze(value)
        assert_identical(thaw(frozen), ref_thaw(frozen))

    @given(thawable)
    def test_property_thaw_inverts_freeze(self, value):
        thawed = thaw(freeze(value))
        assert thawed == value
        # Types too (dict order aside, which freezing sorts).
        assert_identical(thawed, ref_thaw(ref_freeze(value)))


class TestValueBytes:
    def test_scalar(self):
        assert value_bytes(5) == 8

    def test_tuple_counts_elements(self):
        assert value_bytes((1, 2, 3)) == 8 + 24

    def test_nested(self):
        assert value_bytes(((1, 2), 3)) == 8 + (8 + 16) + 8

    @given(values)
    def test_property_matches_reference(self, value):
        assert value_bytes(value) == ref_value_bytes(value)
        frozen = freeze(value)
        assert value_bytes(frozen) == ref_value_bytes(frozen)


class TestFreezeSized:
    """``freeze_sized`` is ``freeze`` plus the frozen value's
    ``value_bytes``, from the one walk."""

    @given(values)
    def test_property_is_freeze_and_its_size(self, value):
        frozen, size = freeze_sized(value)
        assert_identical(frozen, ref_freeze(value))
        assert size == ref_value_bytes(frozen)

    def test_tuple_dict_keys_and_numbers_that_are_not_scalars(self):
        # Tuple keys of a frozen dict are sized too; a level of numbers
        # of any type is flat, and every walk copies them as they are.
        value = [{(1, (2, 3)): [4]}, [Fraction(1, 2), True, 2.5], (7,)]
        frozen, size = freeze_sized(value)
        assert_identical(frozen, ref_freeze(value))
        assert size == ref_value_bytes(frozen) == value_bytes(frozen)
        assert_identical(thaw(frozen), ref_thaw(frozen))


# -- memory ---------------------------------------------------------------------


class TestMemory:
    def test_read_default_zero(self):
        assert Memory().read32(0x1234) == 0

    def test_write_read_roundtrip(self):
        m = Memory()
        m.write32(0x1000, 0xDEADBEEF)
        assert m.read32(0x1000) == 0xDEADBEEF

    def test_little_endian_bytes(self):
        m = Memory()
        m.write32(0, 0x11223344)
        assert [m.read8(i) for i in range(4)] == [0x44, 0x33, 0x22, 0x11]

    def test_cross_page_access(self):
        m = Memory()
        addr = Memory.PAGE_SIZE - 2
        m.write32(addr, 0xCAFEBABE)
        assert m.read32(addr) == 0xCAFEBABE

    def test_write8_masks(self):
        m = Memory()
        m.write8(0, 0x1FF)
        assert m.read8(0) == 0xFF

    def test_load_bytes(self):
        m = Memory()
        m.load_bytes(0x2000, b"\x01\x02\x03\x04")
        assert m.read32(0x2000) == 0x04030201

    def test_load_bytes_across_a_page_boundary(self):
        """Bytes from an unaligned address over three pages land where
        byte-by-byte writes put them, and nothing else changes."""
        data = bytes((7 * i + 3) & 0xFF for i in range(Memory.PAGE_SIZE + 9))
        addr = 2 * Memory.PAGE_SIZE - 5
        m, ref = Memory(), Memory()
        m.load_bytes(addr, data)
        for i, b in enumerate(data):
            ref.write8(addr + i, b)
        assert m._pages == ref._pages and len(m._pages) == 3
        assert m.read8(addr - 1) == m.read8(addr + len(data)) == 0
        assert bytes(m.read8(addr + i) for i in range(len(data))) == data

    def test_program_image_loads_as_word_writes(self):
        from repro.isa.program import Program

        program = Program(text_base=Memory.PAGE_SIZE - 8,
                          text_words=[0xDEADBEEF, 1, -1, 0x12345678],
                          data_bytes=bytearray(b"\x01\x02\x03"))
        m, ref = Memory(), Memory()
        program.load_into(m)
        for i, word in enumerate(program.text_words):
            ref.write32(program.text_base + 4 * i, word)
        ref.load_bytes(program.data_base, bytes(program.data_bytes))
        assert m._pages == ref._pages

    def test_read16(self):
        m = Memory()
        m.write16(10, 0xABCD)
        assert m.read16(10) == 0xABCD

    @given(st.integers(min_value=0, max_value=1 << 20), st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_property_write_read32(self, addr, value):
        m = Memory()
        m.write32(addr, value)
        assert m.read32(addr) == value


# -- action cache -----------------------------------------------------------------


class TestActionCache:
    def test_lookup_missing(self):
        cache = ActionCache()
        assert cache.lookup((1,)) is None
        assert cache.stats.lookups == 1

    def test_incomplete_entry_not_returned(self):
        cache = ActionCache()
        cache.create_entry((1,))
        assert cache.lookup((1,)) is None

    def test_complete_entry_found(self):
        cache = ActionCache()
        entry = cache.create_entry((1,))
        entry.complete = True
        assert cache.lookup((1,)) is entry
        assert cache.stats.hits == 1

    def test_byte_accounting_grows(self):
        cache = ActionCache()
        before = cache.stats.bytes_current
        cache.create_entry((1, 2, 3))
        assert cache.stats.bytes_current > before

    def test_limit_clears_cache(self):
        cache = ActionCache(limit_bytes=50)
        entry = cache.create_entry((1,) * 32)
        entry.complete = True
        assert cache.reclaim()
        assert cache.lookup((1,) * 32) is None
        assert cache.stats.clears == 1
        assert cache.stats.bytes_current == 0

    def test_cumulative_bytes_survive_clear(self):
        cache = ActionCache(limit_bytes=50)
        cache.create_entry((1,) * 32)
        total = cache.stats.bytes_cumulative
        assert cache.reclaim()
        assert cache.stats.bytes_cumulative == total

    def test_no_limit_never_clears(self):
        cache = ActionCache()
        cache.create_entry((1,) * 1000)
        assert not cache.reclaim()
        assert cache.stats.clears == 0


# -- memoizer recording protocol ----------------------------------------------------


def record_simple_chain(cache, key=(1,), nums=(0, 1, 2)):
    m = Memoizer(cache)
    m.begin_step(key)
    for num in nums:
        m.action(num, (num * 10,))
    m.end_step()
    return m


class TestMemoizerRecording:
    def test_records_linked_in_order(self):
        """Records follow each other in the lanes in recording order:
        contiguity is the link."""
        cache = ActionCache()
        record_simple_chain(cache)
        entry = cache.lookup((1,))
        chain = entry.packed
        assert list(chain.nums) == [0, 1, 2, ENDMARK]
        assert [chain.pool.values[d] for d in chain.data[:3]] == [
            (0,), (10,), (20,)]
        assert chain.data[3] == -1
        assert chain.ends[chain.succ[3]] is chain.sux[3]
        assert_billing(cache)

    def test_every_record_billed_as_it_is_appended(self):
        """Each record charges ``bytes_cumulative`` the record-model cost
        and ``bytes_current`` its packed slot (plus any new pool value)
        the moment it is recorded, not when the step ends."""
        cache = ActionCache()
        m = Memoizer(cache)
        m.begin_step((1,))
        entry = cache.entries[(1,)]
        cum = cache.stats.bytes_cumulative
        m.action(0, (5, 6))
        # RECORD_BYTES + value_bytes((5, 6)).
        assert cache.stats.bytes_cumulative - cum == 12 + 24
        assert entry.nbytes == entry.key_cost + 12
        assert_billing(cache)
        m.begin_verify(1, ())
        # A verify's expected value is still pending: no pool reference.
        assert_billing(cache)
        m.note_verify([1, 2])
        assert cache.pool.values[entry.packed.succ[1]] == (1, 2)
        assert_billing(cache)
        m.end_step()
        assert cache.stats.records_created == 3
        assert_billing(cache)

    def test_entry_completed(self):
        cache = ActionCache()
        record_simple_chain(cache)
        assert cache.lookup((1,)).complete

    def test_verify_creates_successor_map(self):
        cache = ActionCache()
        m = Memoizer(cache)
        m.begin_step((2,))
        m.begin_verify(5, ())
        m.note_verify(1)
        m.action(6, ())
        m.end_step()
        chain = cache.lookup((2,)).packed
        assert chain.nums[0] == ~5
        # One successor: the expected value's pool index, falling
        # through to the next slot.
        assert chain.pool.values[chain.succ[0]] == 1
        assert chain.nums[1] == 6
        assert not chain.tables
        assert_billing(cache)

    def test_end_while_recovering_is_error(self):
        cache = ActionCache()
        m = Memoizer(cache)
        record_simple_chain(cache, key=(3,), nums=())
        m.begin_recovery(cache.lookup((3,)), [0])
        with pytest.raises(SimulationError):
            m.end_step()


class TestMemoizerRecovery:
    def build_branchy_entry(self, cache):
        """Record: action 0; verify 1 (value 0); action 2; end."""
        m = Memoizer(cache)
        m.begin_step((9,))
        m.action(0, ())
        m.begin_verify(1, ())
        m.note_verify(0)
        m.action(2, ())
        m.end_step()
        return cache.lookup((9,))

    def test_recovery_replays_action_numbers(self):
        cache = ActionCache()
        entry = self.build_branchy_entry(cache)
        m = Memoizer(cache)
        # The fast engine saw verify 1 produce value 7 (a miss).
        m.begin_recovery(entry, [7])
        assert not entry.complete  # reopened for recovery
        assert entry.packed.knums is None
        assert_billing(cache)
        m.action(0, ())  # verified against recorded chain
        m.begin_verify(1, ())
        value = m.pop_verify()
        assert value == 7
        assert m.recover is False
        # The verify became a jump table; the new arm targets the end
        # of the lanes, where recording resumes.
        chain = entry.packed
        assert chain.tables == [{0: 2, 7: 4}]
        assert chain.succ[1] == ~0
        assert_billing(cache)
        m.action(3, ())
        assert_billing(cache)
        m.end_step()
        assert entry.complete  # sealed again
        assert list(chain.nums) == [0, ~1, 2, ENDMARK, 3, ENDMARK]
        assert_billing(cache)

    def test_second_miss_adds_an_arm(self):
        cache = ActionCache()
        entry = self.build_branchy_entry(cache)
        m = Memoizer(cache)
        for value, num in ((7, 3), (8, 4)):
            m.begin_recovery(entry, [value])
            m.action(0, ())
            m.begin_verify(1, ())
            m.pop_verify()
            m.action(num, ())
            m.end_step()
            assert_billing(cache)
        assert entry.packed.tables == [{0: 2, 7: 4, 8: 6}]
        assert cache.stats.unpacks == 2 and cache.stats.packs == 3

    def test_recovery_follows_a_jump_table(self):
        cache = ActionCache()
        entry = self.build_branchy_entry(cache)
        m = Memoizer(cache)
        m.begin_recovery(entry, [7])
        m.action(0, ())
        m.begin_verify(1, ())
        m.pop_verify()
        m.begin_verify(5, ())
        m.note_verify(1)
        m.end_step()
        # Recover down the recorded 7-arm, then miss at its verify.
        m.begin_recovery(entry, [7, 2])
        m.action(0, ())
        m.begin_verify(1, ())
        assert m.pop_verify() == 7
        assert m.recover is True
        m.begin_verify(5, ())
        assert m.pop_verify() == 2
        m.end_step()
        assert_billing(cache)

    def test_unrecorded_result_path_detected(self):
        cache = ActionCache()
        entry = self.build_branchy_entry(cache)
        m = Memoizer(cache)
        m.begin_recovery(entry, [3, 5])
        m.action(0, ())
        m.begin_verify(1, ())
        with pytest.raises(SimulationError, match="unrecorded result path"):
            m.pop_verify()

    def test_result_fed_back_at_a_plain_action_is_desync(self):
        cache = ActionCache()
        entry = self.build_branchy_entry(cache)
        m = Memoizer(cache)
        m.begin_recovery(entry, [0])
        with pytest.raises(SimulationError, match="desync"):
            m.pop_verify()

    def test_recovery_desync_detected(self):
        cache = ActionCache()
        entry = self.build_branchy_entry(cache)
        m = Memoizer(cache)
        m.begin_recovery(entry, [7])
        with pytest.raises(SimulationError, match="desync"):
            m.action(99, ())

    def test_recovery_through_known_verify(self):
        cache = ActionCache()
        entry = self.build_branchy_entry(cache)
        m = Memoizer(cache)
        # Two results: first follows the recorded 0-branch, second (the
        # miss) is a new value at a later verify... simulate by walking
        # the recorded 0-branch then missing at its end is not possible
        # here, so instead verify the first pop follows succ correctly.
        m.begin_recovery(entry, [0, 5])
        m.action(0, ())
        m.begin_verify(1, ())
        assert m.pop_verify() == 0
        assert m.recover is True  # still recovering (one more result)

    def test_pop_verify_underflow(self):
        cache = ActionCache()
        entry = self.build_branchy_entry(cache)
        m = Memoizer(cache)
        m.begin_recovery(entry, [])
        with pytest.raises(SimulationError, match="underflow"):
            m.pop_verify()
