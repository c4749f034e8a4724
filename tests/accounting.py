"""The byte-accounting audits shared by the tests: one for the action
cache, one for FastSim's memo, over the same lane encoding."""

from collections import Counter

from repro.facile.runtime import ENDMARK, ActionCache, lane_bytes


def assert_pool_refs(pool, chains) -> None:
    """The pool's reference counts match the lanes: every live index is
    referenced exactly as often as slots across ``chains`` hold it as
    data, plus single-successor verifies hold it as their expected
    value, no lane points at an emptied index, and ``pool.emptied``
    counts the emptied slots, each holding ``None``."""
    held: Counter = Counter()
    for chain in chains:
        for num, d, s in zip(chain.nums, chain.data, chain.succ):
            if num == ENDMARK:
                continue
            held[d] += 1
            if num < 0 and s >= 0:
                held[s] += 1
    empty = {i for i, n in enumerate(pool._refs) if n == 0}
    assert len(empty) == pool.emptied
    assert all(pool.values[i] is None for i in empty)
    assert not empty & held.keys(), sorted(empty & held.keys())
    live = {i: n for i, n in enumerate(pool._refs) if n > 0}
    assert live == dict(held)


def assert_billing(cache: ActionCache) -> None:
    """The incremental ledger matches from-scratch walks: the cache's
    ``bytes_current`` and ``bytes_shared`` equal their recounts, every
    surviving entry's billed ``nbytes`` equals
    ``ActionCache.entry_bytes``, and the pool's reference counts match
    the entries' lanes."""
    assert cache.stats.bytes_current == cache.recount_bytes()
    assert cache.stats.bytes_shared == cache.recount_shared_bytes()
    for entry in cache.entries.values():
        assert entry.nbytes == ActionCache.entry_bytes(entry), entry.key
    assert_pool_refs(cache.pool, (e.packed for e in cache.entries.values()))


def assert_memo_billing(sim) -> None:
    """FastSim's twin of :func:`assert_billing`: ``bytes_estimate`` and
    ``bytes_shared`` equal their from-scratch recounts, every chain's
    ``local_bytes`` matches its lanes, and the pool's reference counts
    match the memo's lanes."""
    assert sim.mstats.bytes_estimate == sim.recount_bytes()
    assert sim.mstats.bytes_shared == sim.recount_shared_bytes()
    for chain in sim.memo.values():
        assert chain.local_bytes == lane_bytes(len(chain.nums), chain.tables)
    assert_pool_refs(sim.pool, sim.memo.values())
