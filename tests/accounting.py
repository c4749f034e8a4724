"""The action-cache byte-accounting audit shared by the tests."""

from collections import Counter

from repro.facile.runtime import ENDMARK, ActionCache


def assert_billing(cache: ActionCache) -> None:
    """The incremental ledger matches from-scratch walks: the cache's
    ``bytes_current`` equals ``recount_bytes()``, and every surviving
    entry's billed ``nbytes`` equals ``ActionCache.entry_bytes``.

    The pool's reference counts match the lanes: every live index is
    referenced exactly as often as slots across surviving entries hold
    it as data, plus single-successor verifies hold it as their expected
    value, and no lane points at a free index."""
    assert cache.stats.bytes_current == cache.recount_bytes()
    held: Counter = Counter()
    for entry in cache.entries.values():
        assert entry.nbytes == ActionCache.entry_bytes(entry), entry.key
        chain = entry.packed
        for num, d, s in zip(chain.nums, chain.data, chain.succ):
            if num == ENDMARK:
                continue
            held[d] += 1
            if num < 0 and s >= 0:
                held[s] += 1
    pool = cache.pool
    free = set(pool._free)
    assert not free & held.keys(), sorted(free & held.keys())
    live = {i: n for i, n in enumerate(pool._refs) if n > 0}
    assert live == dict(held)
