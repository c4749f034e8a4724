"""Fast-forwarding run-time system (paper §2, §4.3).

This module implements the machinery shared by every compiled
simulator:

* the **specialized action cache** — entries keyed by ``main``'s
  run-time static input, each holding its action chain as packed
  lanes (action number, interned placeholder data, successor); actions
  that test dynamic values (*dynamic result tests*) have one successor
  path per observed result value (Figure 2);
* the **memoizer** driving the slow/complete engine — it appends slots
  to an entry's lanes while recording, and during **miss recovery**
  walks the existing slots with a cursor, verifying action numbers and
  feeding previously replayed dynamic results back to the slow
  simulator from the *recovery stack* (Figure 10's emboldened code);
* the **fast/residual engine driver** — a loop that reads action
  numbers and dispatches to compiled dynamic basic blocks (Figure 9);
* the **simulation context** — all dynamic simulator state (slots,
  target memory, statistics, extern bindings), shared by both engines.
"""

from __future__ import annotations

from array import array
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import Any, Callable

from .run import RunConfig, RunReport


class SimulationError(Exception):
    """Raised for runtime protocol violations (compiler bugs, bad keys)."""


# ---------------------------------------------------------------------------
# Value freezing (keys and placeholder data must be immutable)
# ---------------------------------------------------------------------------


class _DictTag:
    """Sentinel heading a frozen dict, so :func:`thaw` can restore it."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<frozen-dict>"


#: First element of every frozen dict: ``freeze({..})`` yields
#: ``(DICT_TAG, (k1, v1), (k2, v2), ...)`` with sorted keys, and
#: ``thaw`` rebuilds a dict instead of a list of pairs.
DICT_TAG = _DictTag()

_CONTAINERS = (list, deque, tuple, dict)

#: Plain scalar types.  ``_only_scalars(map(type, seq))`` is the C-speed
#: test for a *flat* sequence — every element one of these, so nothing
#: to convert or descend into — which ``freeze``, ``thaw`` and
#: ``value_bytes`` handle in one call (``tuple()``, ``list()``,
#: ``8 * len``) instead of walking it; anything else takes the walk.
_SCALARS = frozenset((int, bool, float, str, type(None)))
_only_scalars = _SCALARS.issuperset

#: ``isinstance(v, tuple)`` as a C callable, for ``filter``.
_is_tuple = tuple.__instancecheck__


def _freeze_frame(value: Any) -> list:
    """One work-stack frame for :func:`freeze`: [children, out, keys]."""
    if isinstance(value, dict):
        try:
            items = sorted(value.items())
        except TypeError as exc:
            raise SimulationError(
                f"cannot freeze dict with unorderable keys for a cache key: {exc}"
            ) from None
        return [[v for _, v in items], [], [k for k, _ in items]]
    return [list(value), [], None]


def freeze(value: Any) -> Any:
    """Deep-convert mutable containers to hashable tuples.

    Dicts become ``(DICT_TAG, (key, frozen_value), ...)`` with sorted
    items so they can serve as cache keys and verify successor keys (the
    tag lets :func:`thaw` restore a dict, not a list of pairs); a dict
    whose keys cannot be ordered is reported here, at the freeze site,
    instead of surfacing as a bare ``TypeError`` deep inside a cache
    lookup.  The conversion runs on an explicit work stack, so deeply
    nested rt-static structures cannot hit Python's recursion limit
    mid-record.  Flat sequences of scalars, at the root or nested,
    skip the walk: one ``tuple()`` call freezes them.
    """
    if type(value) is int:
        return value
    if not isinstance(value, _CONTAINERS):
        return value
    if not isinstance(value, dict) and _only_scalars(map(type, value)):
        return tuple(value)
    stack = [_freeze_frame(value)]
    while True:
        children, out, keys = stack[-1]
        i = len(out)
        if i == len(children):
            if keys is None:
                result: Any = tuple(out)
            else:
                result = (DICT_TAG,) + tuple(zip(keys, out))
            stack.pop()
            if not stack:
                return result
            stack[-1][1].append(result)
            continue
        child = children[i]
        if type(child) is int or not isinstance(child, _CONTAINERS):
            out.append(child)
        elif not isinstance(child, dict) and _only_scalars(map(type, child)):
            out.append(tuple(child))
        else:
            stack.append(_freeze_frame(child))


def _thaw_frame(value: tuple) -> list:
    """One work-stack frame for :func:`thaw`: [children, out, keys]."""
    if value and value[0] is DICT_TAG:
        items = value[1:]
        return [[v for _, v in items], [], [k for k, _ in items]]
    return [list(value), [], None]


def thaw(value: Any) -> Any:
    """Deep-convert frozen tuples back to mutable form (inverse of
    :func:`freeze`): tagged dict freezes become dicts again, plain
    tuples become lists.  Iterative, like ``freeze``; a flat tuple
    thaws by one ``list()`` call.  ``DICT_TAG`` is no plain scalar, so
    every frozen dict, even the empty ``(DICT_TAG,)``, takes the walk."""
    if not isinstance(value, tuple):
        return value
    if _only_scalars(map(type, value)):
        return list(value)
    stack = [_thaw_frame(value)]
    while True:
        children, out, keys = stack[-1]
        i = len(out)
        if i == len(children):
            result: Any = out if keys is None else dict(zip(keys, out))
            stack.pop()
            if not stack:
                return result
            stack[-1][1].append(result)
            continue
        child = children[i]
        if not isinstance(child, tuple):
            out.append(child)
        elif _only_scalars(map(type, child)):
            out.append(list(child))
        else:
            stack.append(_thaw_frame(child))


def value_bytes(value: Any) -> int:
    """Approximate memoized size of a value, in bytes.

    Models the paper's compact C layout: 8 bytes per scalar, recursively
    for containers (the paper's example compresses an instruction queue
    into "fewer than 40 bytes"; our accounting is similarly structural,
    not Python ``sys.getsizeof``, so Table 2 is comparable in spirit).
    Equivalently: 8 for the root plus ``8 * len(t)`` for every tuple
    ``t`` in it, so each level costs one ``len``, and a level that is
    not flat one C-speed ``filter`` for its nested tuples.  Iterative
    (explicit stack) for the same recursion-limit reason as
    :func:`freeze`.
    """
    if not isinstance(value, tuple):
        return 8
    total = 8
    stack = [value]
    while stack:
        t = stack.pop()
        total += 8 * len(t)
        if not _only_scalars(map(type, t)):
            stack.extend(filter(_is_tuple, t))
    return total


# ---------------------------------------------------------------------------
# Placeholder-data interning pool
# ---------------------------------------------------------------------------


#: Accounted overhead of one live pool value (index + refcount lane).
POOL_SLOT_BYTES = 8


class InternPool:
    """Process-wide interning pool for recorded placeholder data.

    Packed entries do not store their data tuples inline: each slot
    holds an index into this pool, and equal values — however many
    records across however many entries reference them — are stored
    **once** and billed once.  The pool is reference-counted so jump
    table conversions and stale overwrites stay exact: :meth:`release`
    returns the refunded bytes when (and only when) the last reference
    dies.

    Keys are compared by equality, like the verify successor dicts they
    feed, so ``True``/``1`` conflate — harmless, since every consumer
    already compares these values with ``==``.

    ``on_release`` (when set) is called with each index whose last
    reference dies, before the index can be reused: the C replay
    backend's mirror of the pool forgets it.

    A snapshot load installs values without their value -> index map
    (``_index`` None); the first :meth:`intern` or :meth:`release`
    builds it, so a warm run that records nothing never hashes them.
    """

    __slots__ = (
        "_index", "values", "_refs", "_costs", "_free",
        "hits", "misses", "bytes_live", "bytes_saved", "on_release",
    )

    def __init__(self) -> None:
        self._index: dict[Any, int] = {}
        self.values: list[Any] = []
        self._refs: list[int] = []
        self._costs: list[int] = []
        self._free: list[int] = []
        self.hits = 0
        self.misses = 0
        self.bytes_live = 0
        self.bytes_saved = 0
        self.on_release: Callable[[int], None] | None = None

    def intern(self, value: Any) -> tuple[int, int]:
        """Return ``(index, charged_bytes)`` for one more reference to
        ``value``; ``charged_bytes`` is 0 when the value was already
        pooled (the accounting win interning exists for)."""
        index = self._index
        if index is None:
            index = self._build_index()
        idx = index.get(value)
        if idx is not None:
            self._refs[idx] += 1
            self.hits += 1
            self.bytes_saved += self._costs[idx]
            return idx, 0
        self.misses += 1
        cost = POOL_SLOT_BYTES + value_bytes(value)
        if self._free:
            idx = self._free.pop()
            self.values[idx] = value
            self._refs[idx] = 1
            self._costs[idx] = cost
        else:
            idx = len(self.values)
            self.values.append(value)
            self._refs.append(1)
            self._costs.append(cost)
        index[value] = idx
        self.bytes_live += cost
        return idx, cost

    def _build_index(self) -> dict:
        refs = self._refs
        self._index = dict(zip(compress(self.values, refs),
                               compress(range(len(refs)), refs)))
        return self._index

    def release(self, idx: int) -> int:
        """Drop one reference; returns the bytes freed (0 unless this
        was the last reference)."""
        refs = self._refs[idx] - 1
        self._refs[idx] = refs
        if refs:
            return 0
        cost = self._costs[idx]
        index = self._index
        if index is None:
            index = self._build_index()
        del index[self.values[idx]]
        self.values[idx] = None
        self._costs[idx] = 0
        self._free.append(idx)
        self.bytes_live -= cost
        if self.on_release is not None:
            self.on_release(idx)
        return cost

    def live_values(self) -> int:
        return len(self.values) - len(self._free)

    def recount(self) -> int:
        """Recompute ``bytes_live`` from scratch (accounting audits)."""
        return sum(
            POOL_SLOT_BYTES + value_bytes(self.values[i])
            for i in range(len(self.values))
            if self._refs[i] > 0
        )

    def clear(self) -> None:
        """Drop every value (a full cache clear kills all references).
        Cumulative hit/miss/saved counters survive; live state resets."""
        self._index = {}
        self.values.clear()
        self._refs.clear()
        self._costs.clear()
        self._free.clear()
        self.bytes_live = 0


# ---------------------------------------------------------------------------
# The specialized action cache: entries as packed lanes
# ---------------------------------------------------------------------------


class EndRecord:
    """Marks the end of one simulator step (the INDEX_ACTION boundary).

    ``likely_next`` implements the paper's observation that "it is
    faster to follow the link to the next entry" than to do a full
    cache lookup: it caches ``(raw_init_value, entry)`` so a replayed
    chain can continue by identity comparison alone.
    """

    __slots__ = ("likely_next",)

    def __init__(self) -> None:
        self.likely_next: tuple | None = None


#: ``nums`` value marking an end-of-step slot.  Far outside the action
#: number range, and distinct from every ``~num`` verify encoding.
ENDMARK = -(1 << 62)

#: ``succ`` value of a verify slot whose result has not been observed
#: yet (recorded by ``begin_verify``, filled in by ``note_verify``).
#: Only an entry whose step was interrupted keeps one; it is negative,
#: so nothing reads it as a pool index.
PENDING = ENDMARK

#: Accounted cost of one packed slot.  The lanes model the paper's C
#: layout — a 4-byte action number, 4-byte pool index, and 4-byte
#: successor lane — with the next-pointer replaced by contiguity.  (The
#: Python ``array('q')`` backing spends 8 bytes per lane; the
#: accounting, like ``value_bytes``, models the compact layout, not
#: CPython overhead.)
PACKED_SLOT_BYTES = 12
#: Accounted cost of one multi-successor jump table, plus one entry per
#: recorded successor value (value ref + target slot).
PACKED_TABLE_OVERHEAD = 16
PACKED_JUMP_BYTES = 8


def lane_bytes(n_slots: int, tables: list[dict]) -> int:
    """Entry-local accounted size of ``n_slots`` packed slots plus their
    jump tables (the shared pool bytes are billed by the pool)."""
    return PACKED_SLOT_BYTES * n_slots + sum(
        PACKED_TABLE_OVERHEAD + PACKED_JUMP_BYTES * len(t) for t in tables
    )


class PackedChain:
    """One entry's action chain as packed lanes, from its first record.

    Parallel lanes, one slot per record.  The slow engine appends to
    them while it records, and miss recovery appends each new path at
    their end, so every straight-line run is contiguous:

    * ``nums[i]``  — action number: ``num`` (>= 0) for a plain action,
      ``~num`` (< 0) for a dynamic result test, :data:`ENDMARK` for a
      step boundary;
    * ``data[i]``  — :class:`InternPool` index of the record's
      placeholder data (-1 for end slots);
    * ``succ[i]``  — successor lane.  Plain actions fall through to
      ``i + 1`` (unused, 0).  A verify with one recorded successor holds
      the pool index of the expected value and falls through on match —
      the overwhelmingly common case costs one ``==`` and no dict.  A
      verify with several successors holds ``~t`` where ``tables[t]``
      maps observed value -> jump slot.  End slots hold an index into
      ``ends``: the entry's :class:`EndRecord` objects in the action
      cache, so ``likely_next`` links survive recovery by identity, and
      the next cycle's key in FastSim's memo (:mod:`repro.ooo.fastsim`,
      whose accounting never bills them).

    ``knums``/``datavals``/``sux`` are the *replay view*: the canonical
    lanes with their pool indices resolved once at seal time, so the
    hot loop never touches the pool.  ``knums`` mirrors ``nums`` as a
    plain list (list indexing skips the array's per-read boxing);
    ``datavals[i]`` is the pooled placeholder value itself; ``sux[i]``
    is None for plain actions, the expected value for a
    single-successor verify or the shared jump table, and the
    :class:`EndRecord` for end slots.  Every reference in the view
    aliases a pooled value or a canonical-lane object, so it carries no
    accounted bytes of its own — accounting and release read the
    canonical ``data``/``succ`` lanes.  An open entry (recording or
    recovering) has no view.

    ``n_records``/``depth`` give the chain's shape (record count, max
    multi-successor nesting) for the trace compiler, set at seal time;
    ``local_bytes`` is the entry-local accounted size (slots + jump
    tables), excluding the shared pool bytes, kept current as the lanes
    grow.

    ``shared`` marks a chain whose canonical lanes are read-only
    ``memoryview`` slices of an mmap-backed snapshot (see
    :mod:`repro.facile.snapshot`) rather than private arrays.  Shared
    chains arrive with no replay view (``knums is None``); the view is
    built lazily by :func:`build_replay_view` on the entry's first
    replay, so unused snapshot entries cost no private RSS.  Everything
    that reads the canonical lanes (replay, recovery, release, the
    trace compiler) indexes them identically either way; reopening an
    entry for recovery copies shared lanes into private arrays
    (copy-on-miss).

    The lane operations that run once per step or per recovery live
    here, shared by both memoizers: :meth:`end`, :meth:`fork` and
    :meth:`reopen`.  They keep ``local_bytes`` current; the memoizer
    bills one slot for :meth:`end` and what the other two return.
    """

    __slots__ = (
        "nums", "data", "succ", "tables", "ends", "pool",
        "knums", "datavals", "sux",
        "n_records", "depth", "local_bytes", "shared",
    )

    @classmethod
    def empty(cls, pool: InternPool) -> PackedChain:
        """Private lanes with no slots yet, for a new entry."""
        chain = cls()
        chain.nums = array("q")
        chain.data = array("q")
        chain.succ = array("q")
        chain.tables = []
        chain.ends = []
        chain.pool = pool
        chain.knums = chain.datavals = chain.sux = None
        chain.n_records = chain.depth = chain.local_bytes = 0
        chain.shared = False
        return chain

    def end(self, successor: Any) -> None:
        """Append an end slot whose successor lane indexes ``successor``
        in ``ends``."""
        self.nums.append(ENDMARK)
        self.data.append(-1)
        self.succ.append(len(self.ends))
        self.ends.append(successor)
        self.local_bytes += PACKED_SLOT_BYTES

    def fork(self, slot: int, value: Any) -> int:
        """Grow an arm for ``value`` at the verify in ``slot`` (a miss
        fork), targeting the end of the lanes where recovery appends the
        new path.  A single-successor verify becomes a jump table
        ``{expected: slot + 1, value: end}`` and releases its pool
        reference to the expected value.  Returns the change in billed
        bytes: the table growth less any pool refund."""
        target = len(self.nums)
        s = self.succ[slot]
        if s >= 0:
            pool = self.pool
            self.succ[slot] = ~len(self.tables)
            self.tables.append({pool.values[s]: slot + 1, value: target})
            grown = PACKED_TABLE_OVERHEAD + 2 * PACKED_JUMP_BYTES
            self.local_bytes += grown
            return grown - pool.release(s)
        self.tables[~s][value] = target
        self.local_bytes += PACKED_JUMP_BYTES
        return PACKED_JUMP_BYTES

    def reopen(self) -> int:
        """Drop the replay view so recovery can append, copying
        mmap-shared lanes into private arrays (copy-on-miss).  Returns
        the bytes leaving the shared tier (0 for private lanes)."""
        self.knums = self.datavals = self.sux = None
        if not self.shared:
            return 0
        self.nums = array("q", self.nums.tobytes())
        self.data = array("q", self.data.tobytes())
        self.succ = array("q", self.succ.tobytes())
        self.shared = False
        return self.local_bytes


def build_replay_view(chain: PackedChain) -> None:
    """Materialize the resolved replay view (``knums``/``datavals``/
    ``sux``) from the canonical lanes.

    Sealing an entry builds its view; mmap-loaded chains arrive
    without one and call this lazily on their first replay.  Pool
    indices become the pooled values themselves, single-successor
    verifies resolve to the expected value, jump tables and end records
    alias the canonical lane objects.  Frozen values are never dicts
    (freeze converts them to ``DICT_TAG`` tuples), so the replay loop
    tells an expected value from a jump table by class.
    """
    knums = list(chain.nums)
    dstream = chain.data
    sstream = chain.succ
    values = chain.pool.values
    tables = chain.tables
    ends = chain.ends
    n = len(knums)
    datavals: list = [None] * n
    sux: list = [None] * n
    for i in range(n):
        num = knums[i]
        if num == ENDMARK:
            sux[i] = ends[sstream[i]]
            continue
        datavals[i] = values[dstream[i]]
        if num < 0:
            s = sstream[i]
            sux[i] = values[s] if s >= 0 else tables[~s]
    chain.knums = knums
    chain.datavals = datavals
    chain.sux = sux


def _table_depth(chain: PackedChain) -> int:
    """Deepest nesting of jump tables along any path of a chain: the
    trace compiler's ``max_depth`` gate."""
    nums = chain.nums
    sstream = chain.succ
    tables = chain.tables
    deepest = 0
    stack = [(0, 0)]
    while stack:
        i, depth = stack.pop()
        while True:
            num = nums[i]
            if num == ENDMARK:
                break
            if num < 0 and sstream[i] < 0:
                depth += 1
                if depth > deepest:
                    deepest = depth
                stack.extend((j, depth) for j in tables[~sstream[i]].values())
                break
            i += 1
    return deepest


class CacheEntry:
    """One action-cache entry.

    ``packed`` holds the entry's lanes from its first record on;
    ``complete`` says whether they are sealed (replayable) or open
    (recording, or reopened by miss recovery).  ``key_cost`` is the
    key's accounted size plus ``ENTRY_OVERHEAD``, computed once when
    the entry is recorded (a snapshot load passes the saved one).
    ``nbytes`` is the entry's billed local size, ``key_cost`` plus the
    lanes' ``local_bytes``, so no refund re-walks a key or a chain."""

    __slots__ = (
        "key", "packed", "complete", "generation", "hot",
        "trace", "cnative", "key_cost",
    )

    def __init__(self, key: tuple, chain: PackedChain, generation: int = 0,
                 key_cost: int | None = None):
        self.key = key
        self.key_cost = (value_bytes(key) + ENTRY_OVERHEAD
                         if key_cost is None else key_cost)
        self.packed = chain
        self.complete = False
        self.generation = generation
        # Trace-JIT bookkeeping: interpreted-replay count and the
        # compiled Trace (or NO_TRACE sentinel) rooted at this entry.
        self.hot = 0
        self.trace: object | None = None
        # C replay backend: None = not yet lowered, -1 = unlowerable,
        # else the kernel-side chain id (repro.facile.cbackend).
        self.cnative: int | None = None

    @property
    def nbytes(self) -> int:
        return self.key_cost + self.packed.local_bytes


@dataclass
class CacheStats:
    entries_created: int = 0
    records_created: int = 0
    bytes_current: int = 0
    bytes_cumulative: int = 0
    clears: int = 0
    lookups: int = 0
    hits: int = 0
    misses_new_key: int = 0
    misses_verify: int = 0
    # Seals (completed slow or recovered steps) and reopens (recoveries).
    packs: int = 0
    unpacks: int = 0
    # Snapshot (warm-start) accounting.  ``bytes_shared`` is the slice
    # of ``bytes_current`` billed to mmap-backed (shared) chains; the
    # rest is process-private.  A copy-on-miss reopen or a stale
    # overwrite of a shared entry moves its bytes out of the shared
    # bucket; a clear empties it.
    bytes_shared: int = 0
    snapshot_entries: int = 0
    snapshot_rejected: int = 0


#: Fixed accounted cost of one cache entry beyond its key.
ENTRY_OVERHEAD = 24
#: Record-model cost of one record beyond its data (action number, data
#: and next pointers), and the extra a verify pays for its successor
#: map.  An end record bills ``RECORD_BYTES`` plus its empty data.
#: ``bytes_cumulative`` (Table 2) charges every recorded record this
#: way; ``bytes_current`` bills the packed lanes that hold it.
RECORD_BYTES = 12
VERIFY_BYTES = 16
_END_BYTES = RECORD_BYTES + value_bytes(())
#: A pooled value costs ``POOL_SLOT_BYTES + value_bytes(data)``, so a
#: record's model cost is its data's pool cost plus this.
_RECORD_OVER_POOL = RECORD_BYTES - POOL_SLOT_BYTES


class ActionCache:
    """The specialized action cache, with byte-limited reclamation.

    Every entry holds packed lanes (:class:`PackedChain`) from its first
    record on.  :class:`Memoizer` appends slots while the slow engine
    records (:meth:`append`, :meth:`expect`, :meth:`append_end`) and
    seals the entry when its step completes (:meth:`pack_entry`); miss
    recovery reopens it (:meth:`unpack_entry`), grows an arm at the
    missed verify (:meth:`fork`) and appends the new path at the end of
    the lanes.  Each slot, jump-table arm and new pool value is billed
    as it is added.

    ``limit_bytes`` mirrors the paper's 256 MB cap (§6.2): once the
    accounted size exceeds it, :meth:`reclaim` drops everything and
    recording starts over, "just as when the program starts".
    """

    def __init__(self, limit_bytes: int | None = None):
        self.limit_bytes = limit_bytes
        # Interned placeholder data of every entry's lanes.
        self.pool = InternPool()
        self.entries: dict[tuple, CacheEntry] = {}
        self.stats = CacheStats()
        # The C replay backend (repro.facile.cbackend.CReplayBackend)
        # when one is driving this cache; lowered chains must die in
        # lockstep with reopens, stale overwrites, and clears.
        self.native = None
        # Keep-alive handles for mmap-backed snapshots whose lanes
        # live entries may still reference (repro.facile.snapshot).
        self.snapshots: list = []
        # Identity-link epoch: bumped only by a full clear, compared by
        # the engine before trusting ``likely_next`` links and compiled
        # traces.  Overwritten stale entries are marked with generation
        # -1 so links to them are rejected individually.
        self.generation = 0

    def lookup(self, key: tuple) -> CacheEntry | None:
        self.stats.lookups += 1
        entry = self.entries.get(key)
        if entry is not None and entry.complete:
            self.stats.hits += 1
            return entry
        return None

    def create_entry(self, key: tuple) -> CacheEntry:
        stale = self.entries.get(key)
        if stale is not None:
            # An interrupted step left an incomplete entry behind (or a
            # caller is re-recording a key).  Refund its charged bytes
            # (releasing the pool references its lanes hold) before
            # replacing it, or ``bytes_current`` drifts upward and
            # triggers spurious reclaims.
            self._release_entry(stale)
            stale.generation = -1
        entry = CacheEntry(key, PackedChain.empty(self.pool), self.generation)
        stats = self.stats
        stats.bytes_current += entry.key_cost
        stats.bytes_cumulative += entry.key_cost
        self.entries[key] = entry
        stats.entries_created += 1
        return entry

    # -- recording -------------------------------------------------------

    def append(self, entry: CacheEntry, num: int, data: Any) -> int:
        """Append one record to ``entry``'s lanes and return its slot:
        ``num`` for a plain action, ``~num`` for a dynamic result test
        (its successor lane stays :data:`PENDING` until :meth:`expect`).
        ``bytes_cumulative`` gets the record-model charge, with the
        data's size read from the pool; ``bytes_current`` gets the slot
        plus whatever the pool newly charged."""
        pool = self.pool
        idx, charged = pool.intern(data)
        chain = entry.packed
        nums = chain.nums
        slot = len(nums)
        nums.append(num)
        chain.data.append(idx)
        cost = _RECORD_OVER_POOL + pool._costs[idx]
        if num < 0:
            chain.succ.append(PENDING)
            cost += VERIFY_BYTES
        else:
            chain.succ.append(0)
        chain.local_bytes += PACKED_SLOT_BYTES
        stats = self.stats
        stats.records_created += 1
        stats.bytes_cumulative += cost
        stats.bytes_current += PACKED_SLOT_BYTES + charged
        return slot

    def expect(self, entry: CacheEntry, slot: int, value: Any) -> None:
        """Intern ``value`` (frozen) as the single expected result of the
        verify at ``slot``."""
        idx, charged = self.pool.intern(value)
        entry.packed.succ[slot] = idx
        self.stats.bytes_current += charged

    def append_end(self, entry: CacheEntry) -> None:
        """Append the end-of-step slot, with a fresh :class:`EndRecord`."""
        entry.packed.end(EndRecord())
        stats = self.stats
        stats.records_created += 1
        stats.bytes_cumulative += _END_BYTES
        stats.bytes_current += PACKED_SLOT_BYTES

    def fork(self, entry: CacheEntry, slot: int, value: Any) -> None:
        """Grow an arm for ``value`` at the verify in ``slot``
        (:meth:`PackedChain.fork`) and bill it."""
        self.stats.bytes_current += entry.packed.fork(slot, value)

    # -- sealing and reopening -------------------------------------------

    def pack_entry(self, entry: CacheEntry) -> None:
        """Seal an entry whose step completed: build its replay view,
        record its shape and mark it complete (replayable)."""
        if entry.complete:
            return
        chain = entry.packed
        nums = chain.nums
        if not nums or nums[-1] != ENDMARK:
            raise SimulationError(
                "cannot seal: recorded chain ended without an end marker"
            )
        build_replay_view(chain)
        chain.n_records = len(nums) - len(chain.ends)
        chain.depth = _table_depth(chain) if chain.tables else 0
        entry.complete = True
        self.stats.packs += 1

    def unpack_entry(self, entry: CacheEntry) -> None:
        """Reopen a complete entry for miss recovery: drop the kernel's
        copy of its chain and its replay view, and make mmap-shared
        lanes private (copy-on-miss) so recovery can append to them."""
        if not entry.complete:
            return
        if self.native is not None:
            self.native.drop_entry(entry)
        self.stats.bytes_shared -= entry.packed.reopen()
        entry.complete = False
        self.stats.unpacks += 1

    def _release_entry(self, entry: CacheEntry) -> None:
        """Refund a stale entry being overwritten, releasing the pool
        references its lanes hold."""
        if self.native is not None:
            self.native.drop_entry(entry)
        chain = entry.packed
        if chain.shared:
            self.stats.bytes_shared -= chain.local_bytes
        self.stats.bytes_current -= entry.nbytes + self._release_chain(chain)

    def _release_chain(self, chain: PackedChain) -> int:
        """Drop every pool reference a chain's lanes hold: each record's
        data and each single-successor verify's expected value (a
        pending verify holds none).  Returns the pool bytes whose last
        reference died."""
        release = self.pool.release
        nums = chain.nums
        dstream = chain.data
        sstream = chain.succ
        freed = 0
        for i in range(len(nums)):
            num = nums[i]
            if num == ENDMARK:
                continue
            freed += release(dstream[i])
            if num < 0 and sstream[i] >= 0:
                freed += release(sstream[i])
        return freed

    # -- accounting ------------------------------------------------------

    @staticmethod
    def entry_bytes(entry: CacheEntry) -> int:
        """Exact accounted size of one entry, from scratch: key +
        overhead plus its slots and jump tables.  The shared pool bytes
        live in ``pool.bytes_live``.  An audit: the cache itself reads
        the billed ``entry.nbytes``, which must equal this."""
        chain = entry.packed
        return (
            value_bytes(entry.key) + ENTRY_OVERHEAD
            + lane_bytes(len(chain.nums), chain.tables)
        )

    def recount_bytes(self) -> int:
        """Recompute ``bytes_current`` from scratch: every surviving
        entry's :meth:`entry_bytes` plus a from-scratch recount of the
        live interning pool.  The accounting invariant — and what the
        tests assert after recording, recovery, clears and stale
        overwrites — is that this always equals ``stats.bytes_current``
        exactly.  An audit only: no cache path calls it."""
        return sum(
            self.entry_bytes(e) for e in self.entries.values()
        ) + self.pool.recount()

    def recount_shared_bytes(self) -> int:
        """Recompute ``bytes_shared`` from scratch: the local bytes of
        every surviving mmap-backed chain.  Audited alongside
        :meth:`recount_bytes` after snapshot loads, copy-on-miss
        reopens, and clears."""
        return sum(
            e.packed.local_bytes
            for e in self.entries.values()
            if e.packed.shared
        )

    # -- reclamation -----------------------------------------------------

    def reclaim(self) -> bool:
        """Clear the whole cache if it has outgrown ``limit_bytes``.
        Called at step boundaries; returns whether it cleared."""
        if self.limit_bytes is None or self.stats.bytes_current <= self.limit_bytes:
            return False
        if self.native is not None:
            self.native.drop_all()
        self.entries.clear()
        self.pool.clear()  # every reference died with the entries
        self.stats.bytes_current = 0
        self.stats.bytes_shared = 0
        self.stats.clears += 1
        self.generation += 1  # invalidates likely-next links
        return True


# ---------------------------------------------------------------------------
# Target memory
# ---------------------------------------------------------------------------


class Memory:
    """Sparse paged byte-addressable target memory (little-endian)."""

    PAGE_BITS = 12
    PAGE_SIZE = 1 << PAGE_BITS

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}
        # Bumped whenever the page dict is replaced wholesale (restore);
        # the C replay backend re-pins its page pointers on a change.
        self._epoch = 0

    def _page(self, addr: int) -> tuple[bytearray, int]:
        page = self._pages.get(addr >> self.PAGE_BITS)
        if page is None:
            page = bytearray(self.PAGE_SIZE)
            self._pages[addr >> self.PAGE_BITS] = page
        return page, addr & (self.PAGE_SIZE - 1)

    def read8(self, addr: int) -> int:
        page, off = self._page(addr)
        return page[off]

    def write8(self, addr: int, value: int) -> None:
        page, off = self._page(addr)
        page[off] = value & 0xFF

    def read16(self, addr: int) -> int:
        return self.read8(addr) | (self.read8(addr + 1) << 8)

    def write16(self, addr: int, value: int) -> None:
        self.write8(addr, value)
        self.write8(addr + 1, value >> 8)

    def read32(self, addr: int) -> int:
        if addr & (self.PAGE_SIZE - 1) <= self.PAGE_SIZE - 4:
            page, off = self._page(addr)
            return int.from_bytes(page[off : off + 4], "little")
        return self.read16(addr) | (self.read16(addr + 2) << 16)

    def write32(self, addr: int, value: int) -> None:
        if addr & (self.PAGE_SIZE - 1) <= self.PAGE_SIZE - 4:
            page, off = self._page(addr)
            page[off : off + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")
            return
        self.write16(addr, value)
        self.write16(addr + 2, value >> 16)

    def load_bytes(self, addr: int, data: bytes) -> None:
        for i, b in enumerate(data):
            self.write8(addr + i, b)


# ---------------------------------------------------------------------------
# Simulation context: all dynamic state, shared by slow and fast engines
# ---------------------------------------------------------------------------


class SimContext:
    """Dynamic simulator state plus services used by generated code."""

    def __init__(
        self,
        slot_count: int,
        global_slots: dict[str, int],
        externs: dict[str, Callable] | None = None,
    ):
        self.S: list[Any] = [0] * slot_count
        self.global_slots = dict(global_slots)
        self.mem = Memory()
        self.externs: dict[str, Callable] = dict(externs or {})
        self.halted = False
        self.in_fast = False
        # Statistics maintained by dynamic built-ins.
        self.retired_total = 0
        self.retired_fast = 0
        self.cycles = 0
        self.counters: dict[str, int] = {}
        self.log: list[Any] = []
        self._text_words: dict[int, int] = {}
        self._decode_cache: dict[int, int] = {}

    # -- services for generated code ------------------------------------

    def text_word(self, addr: int, width_bytes: int = 4) -> int:
        """Fetch an instruction token; cached because target text is
        run-time static (paper footnote 3)."""
        word = self._text_words.get(addr)
        if word is None:
            if width_bytes == 4:
                word = self.mem.read32(addr)
            elif width_bytes == 2:
                word = self.mem.read16(addr)
            else:
                word = self.mem.read8(addr)
            self._text_words[addr] = word
        return word

    def stat_retire(self, n: int) -> None:
        self.retired_total += n
        if self.in_fast:
            self.retired_fast += n

    def stat_cycle(self, n: int) -> None:
        self.cycles += n

    def stat_count(self, counter_id: int, n: int) -> None:
        key = str(counter_id)
        self.counters[key] = self.counters.get(key, 0) + n

    def halt(self) -> None:
        self.halted = True

    def log_value(self, value: Any) -> None:
        self.log.append(value)

    def call_extern(self, name: str, *args: Any) -> Any:
        fn = self.externs.get(name)
        if fn is None:
            raise SimulationError(f"extern {name!r} was not bound")
        return fn(*args)

    # -- harness access ----------------------------------------------------

    def read_global(self, name: str) -> Any:
        return self.S[self.global_slots[name]]

    def write_global(self, name: str, value: Any) -> None:
        self.S[self.global_slots[name]] = value

    # -- checkpointing -------------------------------------------------------

    def snapshot(self) -> dict:
        """Capture all dynamic simulator state for later :meth:`restore`.

        Covers slots, target memory, statistics, and control flags —
        i.e. everything the context owns.  Extern substrates (cache
        simulator, branch predictor) live outside the context and must
        be checkpointed by their owner if exact timing resumption is
        required; architectural results never depend on them.
        """
        import copy

        return {
            "S": copy.deepcopy(self.S),
            "pages": {k: bytearray(v) for k, v in self.mem._pages.items()},
            "halted": self.halted,
            "retired_total": self.retired_total,
            "retired_fast": self.retired_fast,
            "cycles": self.cycles,
            "counters": dict(self.counters),
            "log": list(self.log),
        }

    def restore(self, snap: dict) -> None:
        """Restore state captured by :meth:`snapshot`."""
        import copy

        self.S[:] = copy.deepcopy(snap["S"])
        self.mem._pages = {k: bytearray(v) for k, v in snap["pages"].items()}
        self.mem._epoch += 1  # old page buffers are dead to native code
        self.halted = snap["halted"]
        self.retired_total = snap["retired_total"]
        self.retired_fast = snap["retired_fast"]
        self.cycles = snap["cycles"]
        self.counters = dict(snap["counters"])
        self.log = list(snap["log"])
        # Text/decode caches describe immutable text; keep them.


# ---------------------------------------------------------------------------
# Memoizer: drives recording and miss recovery in the slow engine
# ---------------------------------------------------------------------------


class Memoizer:
    """Recording/recovery state machine used by generated slow code.

    Protocol emitted by the compiler (cf. Figure 10):

    * normal action:   ``M.action(num, data)`` then the guarded dynamic
      statement ``if not M.recover: ...``;
    * dynamic result:  ``M.begin_verify(num, data)`` then either
      ``v = M.pop_verify()`` (recovering) or compute ``v`` and call
      ``M.note_verify(v)``;
    * step boundary:   ``begin_step``/``begin_recovery`` before calling
      the slow function, ``end_step`` after it returns.

    Recording appends to the entry's packed lanes through the cache
    (which bills every slot).  Recovery walks the sealed lanes with a
    slot cursor, checking each action number, until the last recovered
    result: there the missed verify grows an arm to the end of the
    lanes, and recording resumes by appending the new path.
    """

    def __init__(self, cache: ActionCache):
        self.cache = cache
        self.recover = False
        self.entry: CacheEntry | None = None
        # Recovery: slot cursor into the entry's lanes.  Recording: slot
        # of the verify whose result note_verify fills in.
        self._cursor = 0
        self._verify = 0
        self._rstack: deque = deque()

    # -- step control ------------------------------------------------------

    def begin_step(self, key: tuple) -> None:
        self.recover = False
        self.entry = self.cache.create_entry(key)

    def begin_recovery(self, entry: CacheEntry, results: list) -> None:
        """Restart the slow simulator after an action-cache miss.

        `results` holds every dynamic result the fast simulator replayed
        since the entry key, plus (last) the result value that missed.
        """
        self.recover = True
        self.entry = entry
        # Reopen the entry (misses only); ``end_step`` seals it again.
        self.cache.unpack_entry(entry)
        self._cursor = 0
        self._rstack = deque(results)

    def end_step(self) -> None:
        if self.recover:
            raise SimulationError("step ended while still recovering from a miss")
        entry = self.entry
        self.entry = None
        if entry is not None:
            self.cache.append_end(entry)
            self.cache.pack_entry(entry)

    # -- recording / recovery operations -------------------------------------

    def _expected(self) -> str:
        """The record under the recovery cursor, for desync messages."""
        num = self.entry.packed.nums[self._cursor]
        if num == ENDMARK:
            return "the end of the recorded chain"
        return f"verify {~num}" if num < 0 else f"action {num}"

    def action(self, num: int, data: tuple) -> None:
        if self.recover:
            i = self._cursor
            if self.entry.packed.nums[i] != num:
                raise SimulationError(
                    f"recovery desync: expected {self._expected()}, "
                    f"got action {num}"
                )
            self._cursor = i + 1
            return
        self.cache.append(self.entry, num, data)

    def begin_verify(self, num: int, data: tuple) -> None:
        if self.recover:
            if self.entry.packed.nums[self._cursor] != ~num:
                raise SimulationError(
                    f"recovery desync: expected {self._expected()}, "
                    f"got verify {num}"
                )
            return
        self._verify = self.cache.append(self.entry, ~num, data)

    def pop_verify(self) -> Any:
        """During recovery: feed back a dynamic result from the recovery
        stack (the paper: "they retrieve the dynamic result previously
        calculated by the fast simulator and pass it to the slow
        simulator")."""
        if not self._rstack:
            raise SimulationError("recovery stack underflow")
        value = self._rstack.popleft()
        i = self._cursor
        chain = self.entry.packed
        num = chain.nums[i]
        if num >= 0 or num == ENDMARK:
            raise SimulationError(
                f"recovery desync: dynamic result fed back at "
                f"{self._expected()}, not at a verify record"
            )
        if self._rstack:
            s = chain.succ[i]
            if s >= 0:
                nxt = i + 1 if chain.pool.values[s] == value else None
            else:
                nxt = chain.tables[~s].get(value)
            if nxt is None:
                raise SimulationError("recovery followed an unrecorded result path")
            self._cursor = nxt
        else:
            # This is the action where the miss occurred: switch to
            # normal recording, appending the new control-flow path as a
            # fresh arm of this verify.
            self.recover = False
            self.cache.fork(self.entry, i, value)
        return value

    def note_verify(self, value: Any) -> None:
        self.cache.expect(self.entry, self._verify, freeze(value))


# ---------------------------------------------------------------------------
# Compiled simulator interface + engines
# ---------------------------------------------------------------------------


@dataclass
class RunStats:
    steps_total: int = 0
    steps_fast: int = 0
    steps_slow: int = 0
    steps_recovered: int = 0
    actions_replayed: int = 0


@dataclass
class CompiledSimulator:
    """Everything the engines need about one compiled Facile simulator."""

    name: str
    slow_main: Callable  # slow_main(ctx, M, *args)
    fast_actions: list  # index -> (fn, is_verify); fn(ctx, S, data)
    slot_count: int
    global_slots: dict[str, int]
    init_slot: int
    param_count: int
    setup: Callable  # setup(ctx): initialize global slots
    init_flushed: bool = False  # init slot always holds frozen values
    source_slow: str = ""
    source_fast: str = ""
    plain_main: Callable | None = None  # non-memoized build
    source_plain: str = ""
    division_summary: dict = field(default_factory=dict)
    # Per-action body source for the trace compiler: index ->
    # (body_lines, n_placeholders, is_verify).  Bodies reference _ctx,
    # _S, and _ph<K> placeholder names, same as the fast-action table.
    action_bodies: list = field(default_factory=list)
    # Parallel per-action source spans (the first statement merged into
    # each action), threaded into compile_body so lowering
    # diagnostics can point at source.  May be empty for hand-built
    # simulators; consumers must index defensively.
    action_spans: list = field(default_factory=list)
    # The exec globals the engine sources were compiled against; trace
    # functions are compiled against (a copy of) the same namespace so
    # spliced bodies resolve helpers identically.
    namespace: dict = field(default_factory=dict)
    # Content fingerprint over the generated sources and structural
    # fields, set by the compiler; snapshot content addressing keys on
    # it (repro.facile.snapshot).  Hand-built simulators may leave it
    # empty; the snapshot layer then computes one on demand.
    fingerprint: str = ""
    # The C backend's compiled body programs, made on first use and
    # kept for the process (repro.facile.cbackend.BodyTable).
    body_table: Any = field(default=None, repr=False, compare=False)

    def make_context(self, externs: dict[str, Callable] | None = None) -> SimContext:
        ctx = SimContext(self.slot_count, self.global_slots, externs)
        self.setup(ctx)
        return ctx


def _counted(num: int, fn: Callable, counts: Counter) -> Callable:
    """Action function ``fn``, counting each call under ``num``."""

    def counted(ctx, S, data):
        counts[num] += 1
        return fn(ctx, S, data)

    return counted


class FastForwardEngine:
    """The two-engine driver: fast replay with slow fallback (Figure 1).

    Complete cache entries are flat-packed, and the fast engine replays
    their streams in one Python loop (or in the C kernel, with
    ``replay_backend="c"``).  When ``trace_jit`` is enabled (the
    default) a trace tier sits above the Python loop: entries whose
    chains replay more than ``trace_threshold`` times are compiled into
    straight-line superblocks by :mod:`repro.facile.tracecomp` and
    subsequent steps call a single Python function instead of
    dispatching per record.
    """

    def __init__(
        self,
        compiled: CompiledSimulator,
        ctx: SimContext,
        settings: RunConfig | None = None,
        **fields: Any,
    ):
        from .tracecomp import TraceManager

        settings = RunConfig.of(settings, **fields)
        self.compiled = compiled
        self.ctx = ctx
        self.cache = ActionCache(limit_bytes=settings.cache_limit_bytes)
        self.memoizer = Memoizer(self.cache)
        # Dispatch table for the packed replay loop: a bare list of
        # action functions (verify-ness is encoded in the stream sign,
        # so the per-record tuple unpack disappears).
        self._action_fns = [fn for fn, _ in compiled.fast_actions]
        self.stats = RunStats()
        # The paper's INDEX_ACTION chaining; disable to force a full
        # cache lookup at every step boundary (ablation).
        self.index_links = settings.index_links
        # The trace-compilation tier.  Needs action bodies from the
        # code generator; simulators built before that existed (or by
        # hand in tests) silently fall back to the interpreter.
        self.traces: TraceManager | None = None
        if settings.trace_jit and compiled.action_bodies:
            self.traces = TraceManager(
                compiled, self.cache, threshold=settings.trace_threshold
            )
        # Optional per-action replay counts; enable with profile().
        self.action_profile: Counter[int] | None = None
        # Warm-start reporting: set by load_snapshot/save_snapshot.
        self.snapshot_load = None
        self.snapshot_save = None
        # Replay backend selection.  ``backend_status`` reports what was
        # requested vs what actually runs (graceful degradation keeps
        # ``active == "python"`` with a reason, never a hard failure).
        self._cnative = None
        self.backend_status = {
            "requested": settings.replay_backend,
            "active": "python",
            "reason": "",
            "compile_ms": 0.0,
        }
        if settings.replay_backend == "c":
            self._init_cbackend()

    def _init_cbackend(self) -> None:
        """Stand up the C replay backend when the environment allows;
        every refusal degrades to the Python loop with a reported
        reason (backend_status) rather than an error."""
        status = self.backend_status
        if not self.compiled.action_bodies:
            status["reason"] = "no recorded action bodies to lower"
            return
        if len(self.ctx.S) > 64:
            status["reason"] = "too many state slots for the kernel"
            return
        from .cbackend import CReplayBackend, load_kernel

        kernel = load_kernel()
        status["compile_ms"] = kernel.status.compile_ms
        if not kernel.status.available:
            status["reason"] = kernel.status.reason
            return
        self._cnative = CReplayBackend(self, kernel)
        self.cache.native = self._cnative
        status["active"] = "c"

    # -- snapshots (warm starts) ------------------------------------------

    def load_snapshot(self, path, fingerprint: str):
        """Warm-start this engine's cache from an mmap-backed snapshot.
        Must run before any steps (the cache must be empty).  Returns a
        :class:`repro.facile.snapshot.SnapshotInfo`; a bad or missing
        file degrades to a cold start, never an exception."""
        from .snapshot import load_action_cache

        info = load_action_cache(self.cache, path, fingerprint)
        self.snapshot_load = info
        return info

    def save_snapshot(self, path, fingerprint: str):
        """Serialize the cache (complete entries + intern pool) for
        later warm starts; returns a SnapshotInfo."""
        from .snapshot import save_action_cache

        info = save_action_cache(self.cache, path, fingerprint,
                                 key_of=self._freeze_key)
        self.snapshot_save = info
        return info

    def snapshot_stamp(self) -> tuple:
        """Counters that move whenever the saved content of the cache
        can change: a new entry, a seal, a reopen or a clear."""
        s = self.cache.stats
        return (s.entries_created, s.packs, s.unpacks, s.clears)

    def profile(self, enabled: bool = True) -> None:
        """Count fast-engine executions per action number (hot-action
        analysis; see repro.facile.inspect.hot_actions).

        Enabling swaps the replay loop's action functions for counting
        wrappers, and disabling restores the plain ones, so the one
        packed loop serves both.  Compiled traces do no per-record
        bookkeeping, so while profiling is enabled the driver bypasses
        trace execution and suspends promotion: every replay goes
        through the packed loop and is attributed per action.  Call
        before :meth:`run`.

        The C replay kernel is bypassed for the same reason, and the
        downgrade is surfaced in ``backend_status`` so run reports say
        why a "c" request executed on the interpreter.
        """
        fns = [fn for fn, _ in self.compiled.fast_actions]
        if enabled:
            counts: Counter[int] = Counter()
            fns = [_counted(num, fn, counts) for num, fn in enumerate(fns)]
            self.action_profile = counts
        else:
            self.action_profile = None
        self._action_fns = fns
        if self._cnative is not None:
            status = self.backend_status
            status["active"] = "python" if enabled else "c"
            status["reason"] = (
                "profiling forces the interpreter tiers" if enabled else ""
            )

    @property
    def report(self) -> RunReport:
        """The run so far, read off this engine's counters."""
        ctx, cs, pool = self.ctx, self.cache.stats, self.cache.pool
        traces = None
        if self.traces is not None:
            ts = self.traces.stats
            traces = {"compiled": ts.traces_compiled,
                      "invalidated": ts.traces_invalidated,
                      **self.traces.aggregate()}
        native = self._cnative
        return RunReport(
            retired=ctx.retired_total, halted=ctx.halted,
            retired_fast=ctx.retired_fast, steps=replace(self.stats),
            backend=dict(self.backend_status),
            native=None if native is None else native.summary(),
            traces=traces, clears=cs.clears, packs=cs.packs,
            unpacks=cs.unpacks, memo_bytes=cs.bytes_cumulative,
            memo_bytes_current=cs.bytes_current,
            bytes_shared=cs.bytes_shared,
            pool=(pool.bytes_live, pool.hits, pool.misses, pool.bytes_saved),
            snapshot_load=self.snapshot_load,
            snapshot_save=self.snapshot_save,
        )

    def _freeze_key(self, raw) -> tuple:
        # When init is written by a flush action the stored value is
        # already a frozen tuple, so the deep conversion can be skipped.
        if self.compiled.init_flushed and type(raw) is tuple:
            key = raw
        else:
            key = freeze(raw)
        if self.compiled.param_count > 1:
            if not isinstance(key, tuple) or len(key) != self.compiled.param_count:
                raise SimulationError(
                    f"init must hold a {self.compiled.param_count}-tuple key"
                )
            return key
        return (key,)

    def next_key(self) -> tuple:
        return self._freeze_key(self.ctx.S[self.compiled.init_slot])

    def run(self, max_steps: int | None = None) -> RunStats:
        from .tracecomp import TRACE_COMPLETE, UNBOUNDED_BUDGET

        ctx = self.ctx
        S = ctx.S
        init_slot = self.compiled.init_slot
        cache = self.cache
        cstats = cache.stats
        stats = self.stats
        index_links = self.index_links
        # Identity-based link trust is only sound when the init slot
        # always holds frozen (immutable, identity-stable) values: a
        # mutable value mutated in place passes the ``is`` check with
        # stale contents.  Simulators without a flushed init fall back
        # to comparing frozen keys on the cached link.
        id_links = self.compiled.init_flushed
        limit = cache.limit_bytes
        generation = cache.generation
        # Trace tier state.  Profiling needs per-action attribution, so
        # it forces the interpreter (see profile()).
        traces = self.traces if self.action_profile is None else None
        threshold = traces.threshold if traces is not None else 0
        # Packed replay may chain across step boundaries inside one
        # call (absorbing the per-step driver overhead) only when no
        # other tier needs per-step control: no trace promotion, and
        # identity-trustworthy likely-next links.
        chain_steps = traces is None and index_links and id_links
        # The C replay backend, when active.  Profiling needs per-action
        # attribution, so it forces the interpreter tiers.  Kernel-side
        # link chaining is sound on the same terms as Python chaining
        # (identity-trustworthy links); without them it runs one step
        # per call, exactly like the budget-1 packed loop.
        cnative = self._cnative if self.action_profile is None else None
        c_chain = index_links and id_links
        steps = 0
        last_end: EndRecord | None = None
        while not ctx.halted and (max_steps is None or steps < max_steps):
            raw = S[init_slot]
            entry = None
            key = None
            if last_end is not None and index_links:
                cached = last_end.likely_next
                if cached is not None and cached[1].generation == generation:
                    if id_links:
                        if cached[0] is raw:
                            entry = cached[1]
                    else:
                        key = self._freeze_key(raw)
                        if cached[1].key == key:
                            entry = cached[1]
                    if entry is not None:
                        cstats.lookups += 1
                        cstats.hits += 1
            if entry is None:
                if key is None:
                    key = self._freeze_key(raw)
                entry = cache.lookup(key)
                if entry is not None and last_end is not None:
                    last_end.likely_next = (raw, entry)
            if entry is None:
                cstats.misses_new_key += 1
                self._slow_step(key)
                stats.steps_slow += 1
                steps += 1
                stats.steps_total += 1
                last_end = None
            else:
                trace = entry.trace
                if (
                    traces is not None
                    and trace is not None
                    and trace.generation == generation
                ):
                    budget = (
                        max_steps - steps if max_steps is not None
                        else UNBOUNDED_BUDGET
                    )
                    ctx.in_fast = True
                    try:
                        result = trace.fn(ctx, S, budget)
                    finally:
                        ctx.in_fast = False
                    trace.calls += 1
                    n = result[1]
                    trace.steps += n
                    trace.actions += result[2]
                    stats.steps_fast += n
                    stats.actions_replayed += result[2]
                    steps += n
                    stats.steps_total += n
                    if result[0] == TRACE_COMPLETE:
                        last_end = result[3]
                    else:
                        # Side exit: the diverging step recovers through
                        # the slow engine, exactly as an interpreted miss.
                        trace.side_exits += 1
                        cstats.misses_verify += 1
                        self._recover(result[3], list(result[4]))
                        stats.steps_recovered += 1
                        steps += 1
                        stats.steps_total += 1
                        last_end = None
                else:
                    cres = None
                    if cnative is not None:
                        if c_chain:
                            budget = (
                                max_steps - steps if max_steps is not None
                                else UNBOUNDED_BUDGET
                            )
                        else:
                            budget = 1
                        cres = cnative.run_entry(entry, budget)
                    if cres is not None:
                        end, n = cres
                        stats.steps_fast += n
                        steps += n
                        stats.steps_total += n
                        if end is None:
                            stats.steps_recovered += 1
                            steps += 1
                            stats.steps_total += 1
                            last_end = None
                        else:
                            last_end = end
                        # Kernel-replayed entries never accrue ``hot``:
                        # the native loop subsumes the trace tier, which
                        # keeps serving chains the IR refuses.
                    else:
                        if chain_steps:
                            budget = (
                                max_steps - steps if max_steps is not None
                                else UNBOUNDED_BUDGET
                            )
                        else:
                            budget = 1
                        end, n = self._fast_step_packed(entry, budget)
                        stats.steps_fast += n
                        steps += n
                        stats.steps_total += n
                        if end is None:
                            stats.steps_recovered += 1
                            steps += 1
                            stats.steps_total += 1
                            last_end = None
                        else:
                            last_end = end
                            if traces is not None and trace is None:
                                hot = entry.hot + 1
                                entry.hot = hot
                                if hot >= threshold:
                                    traces.promote(entry, stats.steps_total)
            if limit is not None and cache.reclaim():
                last_end = None
                generation = cache.generation
                if traces is not None:
                    traces.on_cache_clear()
        return self.stats

    # -- slow path -------------------------------------------------------

    def _slow_step(self, key: tuple) -> None:
        M = self.memoizer
        M.begin_step(key)
        args = [thaw(v) for v in key]
        self.compiled.slow_main(self.ctx, M, *args)
        M.end_step()

    # -- fast path -------------------------------------------------------

    def _fast_step_packed(
        self, entry: CacheEntry, budget: int, start: int = 0,
        consumed: list | None = None,
    ) -> tuple[EndRecord | None, int]:
        """Replay through the flat-packed streams: an index-threaded,
        bytecode-style loop over the parallel arrays — no per-record
        attribute dispatch, no successor-pointer chasing, every hot name
        a local.  Slot kinds decode from the sign of the action number
        (>= 0 plain, ENDMARK end, else ``~num`` verify).

        Runs up to ``budget`` completed steps, following likely-next
        links across step boundaries while they keep holding (the
        driver passes budget 1 when the trace tier needs per-step
        control).  Returns ``(end, steps_done)``; end is
        None when a verify miss ended the run — the missed step has
        already recovered through the slow engine and is not counted in
        ``steps_done``.

        ``start`` and ``consumed`` begin the first step part-way through:
        at slot ``start``, with the verify values the step has consumed
        so far.  The C backend finishes a step whose body it handed back
        this way.
        """
        ctx = self.ctx
        S = ctx.S
        fns = self._action_fns
        _freeze = freeze
        cstats = self.cache.stats
        generation = self.cache.generation
        init_slot = self.compiled.init_slot
        endmark = ENDMARK
        steps_done = 0
        replayed = 0
        links = 0
        end: EndRecord | None = None
        i = start
        if consumed is None:
            consumed = []
        ctx.in_fast = True
        try:
            while True:
                chain = entry.packed
                nums = chain.knums
                if nums is None:
                    # First replay of an mmap-loaded chain: resolve its
                    # per-process view now (lazily, so unused snapshot
                    # entries stay zero-cost).
                    build_replay_view(chain)
                    nums = chain.knums
                datavals = chain.datavals
                sux = chain.sux
                while True:
                    num = nums[i]
                    if num >= 0:
                        fns[num](ctx, S, datavals[i])
                        replayed += 1
                        i += 1
                        continue
                    if num != endmark:
                        value = _freeze(fns[~num](ctx, S, datavals[i]))
                        replayed += 1
                        consumed.append(value)
                        sx = sux[i]
                        if sx.__class__ is dict:
                            j = sx.get(value)
                            if j is not None:
                                i = j
                                continue
                        elif sx == value:
                            i += 1
                            continue
                        # Action cache miss: back to the slow simulator.
                        cstats.misses_verify += 1
                        self.stats.actions_replayed += replayed
                        self._recover(entry, consumed)
                        return None, steps_done
                    end = sux[i]
                    steps_done += 1
                    break
                if steps_done >= budget or ctx.halted:
                    break
                cached = end.likely_next
                if cached is None or cached[0] is not S[init_slot]:
                    break
                nxt = cached[1]
                if nxt.generation != generation or not nxt.complete:
                    break
                entry = nxt
                links += 1
                consumed = []
                i = 0
        finally:
            ctx.in_fast = False
            if links:
                cstats.lookups += links
                cstats.hits += links
        self.stats.actions_replayed += replayed
        return end, steps_done

    def _recover(self, entry: CacheEntry, results: list) -> None:
        # Recovery appends a fresh successor chain to a verify record of
        # this entry, so any compiled trace whose comparison ladder was
        # specialized on the entry's old successor set is now stale.
        if self.traces is not None:
            self.traces.invalidate_for(entry)
        self.ctx.in_fast = False
        M = self.memoizer
        M.begin_recovery(entry, results)
        args = [thaw(v) for v in entry.key]
        self.compiled.slow_main(self.ctx, M, *args)
        M.end_step()

    # -- reporting --------------------------------------------------------

    def fast_forward_fraction(self) -> float:
        """Fraction of retired instructions simulated by the fast engine
        (the paper's Table 1 metric)."""
        if self.ctx.retired_total == 0:
            return 0.0
        return self.ctx.retired_fast / self.ctx.retired_total


class PlainEngine:
    """Driver for the non-memoized build: the complete simulator only,
    with no recording machinery at all (paper §6.2: "only the slow
    simulator was generated, with no extra code for fast-forwarding")."""

    def __init__(self, compiled: CompiledSimulator, ctx: SimContext):
        if compiled.plain_main is None:
            raise SimulationError("simulator was compiled without a plain build")
        self.compiled = compiled
        self.ctx = ctx
        self.stats = RunStats()

    def next_key(self) -> tuple:
        value = freeze(self.ctx.S[self.compiled.init_slot])
        if self.compiled.param_count > 1:
            return value
        return (value,)

    @property
    def report(self) -> RunReport:
        """The run so far, read off this engine's counters."""
        ctx = self.ctx
        return RunReport(retired=ctx.retired_total, halted=ctx.halted,
                         steps=replace(self.stats))

    def run(self, max_steps: int | None = None) -> RunStats:
        ctx = self.ctx
        steps = 0
        while not ctx.halted and (max_steps is None or steps < max_steps):
            key = self.next_key()
            args = [thaw(v) for v in key]
            self.compiled.plain_main(ctx, *args)
            steps += 1
            self.stats.steps_total += 1
            self.stats.steps_slow += 1
        return self.stats
