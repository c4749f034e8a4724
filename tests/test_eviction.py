"""Cache-entry refund and engine-edge regressions.

Stale-entry refunds in ``create_entry`` (an overwritten entry's bytes
and pool references come back exactly, and links to it are rejected),
dict freezing, the ``pop_verify`` desync guard, and the mutable-init
``likely_next`` identity-check soundness fix.  Clearing a full cache is
covered in ``test_runtime.py``, ``test_flatpack.py`` and
``test_cbackend.py``.
"""

import pytest

from repro.facile import FastForwardEngine, SimulationError
from repro.facile.runtime import (
    DICT_TAG,
    ActionCache,
    CompiledSimulator,
    Memoizer,
    freeze,
    thaw,
)

from .accounting import assert_billing


# -- stale-entry refunds --------------------------------------------------------


class TestCreateEntryRefund:
    def test_overwrite_refunds_stale_entry(self):
        cache = ActionCache()
        m = Memoizer(cache)
        m.begin_step((1, 2, 3))
        m.action(0, (5, 6))  # interrupted: no end_step
        # The incomplete entry is billed record by record, like any.
        assert_billing(cache)
        baseline = None
        for _ in range(5):
            m2 = Memoizer(cache)
            m2.begin_step((1, 2, 3))
            m2.action(0, (5, 6))
            m2.end_step()
            if baseline is None:
                baseline = cache.stats.bytes_current
        # Re-recording the same key must not drift the accounting.
        assert cache.stats.bytes_current == baseline
        assert_billing(cache)

    def test_stale_entry_rejected_by_links(self):
        cache = ActionCache()
        stale = cache.create_entry((7,))
        cache.create_entry((7,))
        assert stale.generation == -1  # likely_next guard fails on it


# -- freeze() on dicts ----------------------------------------------------------


class TestFreezeDict:
    def test_dict_frozen_to_tagged_sorted_items(self):
        assert freeze({"b": 1, "a": [2]}) == (DICT_TAG, ("a", (2,)), ("b", 1))

    def test_frozen_dict_hashable(self):
        hash(freeze({"x": {"y": [1, 2]}, "w": 3}))

    def test_thaw_restores_dict(self):
        original = {"b": 1, "a": [2, {"c": 3}]}
        assert thaw(freeze(original)) == original

    def test_unorderable_keys_raise_simulation_error(self):
        with pytest.raises(SimulationError, match="freeze"):
            freeze({1: "a", "b": 2})


# -- pop_verify desync guard ----------------------------------------------------


class TestPopVerifyGuard:
    def build_plain_chain(self, cache):
        m = Memoizer(cache)
        m.begin_step((1,))
        m.action(0, ())
        m.end_step()
        return cache.lookup((1,))

    def test_desync_at_action_record(self):
        cache = ActionCache()
        entry = self.build_plain_chain(cache)
        m = Memoizer(cache)
        m.begin_recovery(entry, [5])
        with pytest.raises(SimulationError, match="recovery desync"):
            m.pop_verify()

    def test_desync_at_end_record(self):
        cache = ActionCache()
        entry = self.build_plain_chain(cache)
        m = Memoizer(cache)
        m.begin_recovery(entry, [5])
        m.action(0, ())  # cursor now at the end record
        with pytest.raises(SimulationError, match="end of the recorded chain"):
            m.pop_verify()


# -- likely_next identity soundness with mutable init ---------------------------


def _mutable_init_sim() -> CompiledSimulator:
    """A hand-built simulator whose init slot holds a *mutable* list
    mutated in place, with a transition that depends on a counter that
    is outside the cache key.  The object's identity is then a lie:
    trusting ``likely_next`` by ``is`` replays a stale entry."""

    def do(ctx, v):
        ctx.log.append(v)
        n = ctx.counters.get("n", 0)
        ctx.counters["n"] = n + 1
        if n % 3 != 2:
            ctx.S[0][0] = 1 - v  # in-place: same object, new contents

    def slow_main(ctx, M, key):
        (box,) = key
        v = box[0]
        M.action(0, (v,))
        if not M.recover:
            do(ctx, v)

    def setup(ctx):
        ctx.S[0] = [0]

    return CompiledSimulator(
        name="mutable-init",
        slow_main=slow_main,
        fast_actions=[(lambda ctx, S, data: do(ctx, data[0]), False)],
        slot_count=1,
        global_slots={"init": 0},
        init_slot=0,
        param_count=1,
        setup=setup,
        init_flushed=False,
    )


class TestMutableInitLinks:
    def expected_log(self, steps):
        v, out = 0, []
        for n in range(steps):
            out.append(v)
            if n % 3 != 2:
                v = 1 - v
        return out

    @pytest.mark.parametrize("index_links", [True, False])
    def test_identity_links_not_trusted_without_flushed_init(self, index_links):
        sim = _mutable_init_sim()
        ctx = sim.make_context()
        engine = FastForwardEngine(sim, ctx, index_links=index_links)
        engine.run(max_steps=12)
        assert ctx.log == self.expected_log(12)
