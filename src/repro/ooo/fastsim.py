"""Hand-coded memoizing out-of-order simulator — the FastSim analogue.

This implements the same micro-architecture model as
:mod:`repro.ooo.reference`, but applies the paper's fast-forwarding
technique *by hand* (as the original FastSim did, ASPLOS'98): per
simulated cycle, the run-time static pipeline state forms a key into a
memo table; the recorded value is the compact sequence of **dynamic
events** the cycle performed:

``STAT``    cycle/retire counter deltas (run-time static payload);
``EXEC``    functionally execute one pre-decoded instruction;
``ANNUL``   re-sequence past an annulled delay slot;
``CACHE``   data-cache access — *dynamic result test* on the latency;
``BPRED``   conditional-branch resolution — test on (taken, correct);
``BIND``    indirect-jump resolution — test on (target, correct);
``BCALL``   push a return address on the RAS.

Replay applies events with no decode and no pipeline bookkeeping.  When
a dynamic result test observes a value with no recorded continuation,
the simulator recovers exactly as the paper describes (§2.1): it
re-materializes the run-time static state from the entry key, re-runs
the slow cycle feeding the already-replayed dynamic results back from a
recovery list (never re-executing their effects or extern calls), and
resumes normal recording at the miss fork.

Per-key records form a tree: straight-line event runs with a dynamic
result test at each fork, one successor per observed value — the same
structure as Figure 2's specialized action cache.  Complete chains link
cycle to cycle through ``next_key``, so steady-state execution replays
entire loops without touching the bookkeeping at all.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass

from ..facile.runtime import (
    PACKED_JUMP_BYTES,
    PACKED_SLOT_BYTES,
    PACKED_TABLE_OVERHEAD,
    InternPool,
)
from ..isa import sparclite as S
from ..isa.funcsim import FunctionalSim
from ..isa.program import Program
from . import common as C

# Event kinds.
EV_STAT = 0
EV_EXEC = 1
EV_ANNUL = 2
EV_CACHE = 3
EV_BPRED = 4
EV_BIND = 5
EV_BCALL = 6

CHECK_KINDS = frozenset((EV_CACHE, EV_BPRED, EV_BIND))

# Packed-slot kind encodings (see _PackedCycle): plain events keep
# their EV_* kind; a dynamic result test on EV_k packs as FS_CHECK_BASE
# + k; FS_END marks the end of the cycle (successor lane indexes
# ``next_keys``).
FS_CHECK_BASE = 8
FS_END = 64

#: ``backend_status["reason"]`` of a ``replay_backend="c"`` request.
FASTSIM_NO_C_REASON = "fastsim has no C replay path; it runs the Python loop"


class _Node:
    """A run of non-test events ending in either a dynamic result test
    (with per-value successor nodes) or the next cycle's key.

    ``nbytes``, ``key_cost``, and ``packed`` are meaningful on root
    nodes only: the exact bytes charged against the entry (re-accounted
    on pack and unpack), the accounted key size, and the flat-packed
    form of the whole cycle tree once recording completed."""

    __slots__ = (
        "events", "check", "succ", "next_key", "nbytes", "key_cost",
        "packed",
    )

    def __init__(self) -> None:
        self.events: list[tuple] = []
        self.check: tuple | None = None
        self.succ: dict = {}
        self.next_key: tuple | None = None
        self.nbytes = 0
        self.key_cost = 0
        self.packed: _PackedCycle | None = None


class _PackedCycle:
    """One complete cycle tree, flat-packed — the same parallel-stream
    layout as :class:`repro.facile.runtime.PackedChain`, so the
    hand-coded ablation baseline carries the identical encoding:

    * ``kinds[i]``   — EV_* for a plain event, ``FS_CHECK_BASE + EV_*``
      for a dynamic result test, :data:`FS_END` at the cycle boundary;
    * ``payload[i]`` — :class:`InternPool` index of the event tuple
      (plain) or check payload (test); -1 at FS_END;
    * ``succ[i]``    — 0 for plain events (fall through), the pool
      index of the single expected value (match falls through) or
      ``~t`` into ``tables`` for multi-successor tests, and the
      ``next_keys`` index at FS_END.

    ``local_bytes`` is the accounted entry-local size (slots + jump
    tables); pooled event/value bytes are shared and live in the pool.
    ``next_keys`` values are not billed, matching the unpacked
    accounting, which never billed ``next_key``.

    ``kkinds``/``payload_vals``/``sux`` are the replay view — the
    canonical streams resolved once at pack time (kinds as a plain
    list, payloads as the pooled objects, successors as the expected
    value / shared jump table / next key), so the replay loop never
    touches the pool.  The view aliases pooled and canonical-lane
    objects and carries no accounted bytes; accounting, release, and
    unpack read the canonical streams.

    ``shared`` marks a cycle whose streams are ``memoryview`` slices of
    an mmap-backed snapshot (:mod:`repro.facile.snapshot`); such cycles
    arrive without a replay view (``kkinds is None``), built lazily by
    :func:`_build_cycle_view` on first replay.  A recovery unpack turns
    the entry private (copy-on-miss).
    """

    __slots__ = (
        "kinds", "payload", "succ", "tables", "next_keys",
        "kkinds", "payload_vals", "sux", "local_bytes", "shared",
    )


def _build_cycle_view(chain: "_PackedCycle", pool_values: list) -> None:
    """Materialize the resolved replay view from the canonical streams
    (the lazy path for mmap-loaded cycles; packing builds it inline)."""
    kkinds = list(chain.kinds)
    pstream = chain.payload
    sstream = chain.succ
    tables = chain.tables
    next_keys = chain.next_keys
    n = len(kkinds)
    payload_vals: list = [None] * n
    sux: list = [None] * n
    for i in range(n):
        k = kkinds[i]
        if k == FS_END:
            sux[i] = next_keys[sstream[i]]
            continue
        payload_vals[i] = pool_values[pstream[i]]
        if k >= FS_CHECK_BASE:
            s = sstream[i]
            sux[i] = pool_values[s] if s >= 0 else tables[~s]
    chain.kkinds = kkinds
    chain.payload_vals = payload_vals
    chain.sux = sux


@dataclass
class MemoStats:
    entries: int = 0
    events_recorded: int = 0
    events_replayed: int = 0
    cycles_fast: int = 0
    cycles_slow: int = 0
    cycles_recovered: int = 0
    misses_new_key: int = 0
    misses_check: int = 0
    bytes_estimate: int = 0
    #: Total bytes ever charged for recording (keys, events, checks,
    #: recovery forks).  Never decremented by clears or pack/unpack
    #: re-accounting — the memoized-data *volume* Table 2 reports,
    #: mirroring ``CacheStats.bytes_cumulative`` on the facile side so
    #: the two simulators' columns compare the same metric.
    bytes_cumulative: int = 0
    packs: int = 0
    unpacks: int = 0
    clears: int = 0
    #: Bytes of ``bytes_estimate`` billed to mmap-backed (shared)
    #: packed cycles; the rest is process-private.  Decremented when a
    #: shared entry is unpacked (copy-on-miss); a clear empties it.
    bytes_shared: int = 0
    #: Entries installed from a snapshot load.
    snapshot_entries: int = 0
    #: Snapshot files rejected (stale/corrupt/mismatched) — each fell
    #: back to a cold start.
    snapshot_rejected: int = 0


@dataclass
class _Entry:
    cls: int
    state: int
    remaining: int
    dep1: int
    dep2: int
    pc: int


class FastSimOoo:
    """The memoizing OOO simulator.  ``memoize=False`` degrades it to a
    conventional simulator (the paper's 'without memoization' bars)."""

    def __init__(
        self,
        program: Program,
        config: C.MachineConfig | None = None,
        memoize: bool = True,
        memo_limit_bytes: int | None = None,
        cache=None,
        predictor=None,
        replay_backend: str = "python",
    ):
        if replay_backend not in ("python", "c"):
            raise ValueError(f"unknown replay backend {replay_backend!r}")
        self.config = config or C.MachineConfig()
        self.program = program
        default_cache, default_pred = C.default_uarch(self.config)
        self.cache = cache if cache is not None else default_cache
        self.predictor = predictor if predictor is not None else default_pred
        self.func = FunctionalSim.for_program(program)
        self.window: list[_Entry] = []
        self.last_writer = [-1] * 33
        self.stall = 0
        self.fetch_halted = False
        self.stats = C.OooStats()
        self.memoize = memoize
        self.pool = InternPool()
        self.memo: dict[tuple, _Node] = {}
        self.memo_limit_bytes = memo_limit_bytes
        self.mstats = MemoStats()
        self.retired_fast = 0
        self._decode_cache: dict[int, S.Decoded] = {}
        self._pending_retire = 0
        # Snapshot bookkeeping: keepalive handles for mmap-backed
        # streams, and the info records of the last load/save.
        self.snapshots: list = []
        self.snapshot_load = None
        self.snapshot_save = None
        # FastSim has one replay path, the Python loop over packed
        # cycles: a "c" request degrades to it with a stable reason, in
        # the same report shape as every other backend degrade.
        self.backend_status = {
            "requested": replay_backend,
            "active": "python",
            "reason": FASTSIM_NO_C_REASON if replay_backend == "c" else "",
            "compile_ms": 0.0,
        }

    # -- key handling ----------------------------------------------------------

    def state_key(self) -> tuple:
        window_sig = tuple(
            (e.cls, e.state, e.remaining, e.dep1, e.dep2, e.pc) for e in self.window
        )
        return (
            window_sig,
            tuple(self.last_writer),
            self.func.pc,
            self.func.npc,
            self.func._annul_next,
            self.stall,
            self.fetch_halted,
        )

    def _materialize(self, key: tuple) -> None:
        window_sig, lw, pc, npc, annul, stall, fetch_halted = key
        self.window = [_Entry(*sig) for sig in window_sig]
        self.last_writer = list(lw)
        self.func.pc = pc
        self.func.npc = npc
        self.func._annul_next = annul
        self.stall = stall
        self.fetch_halted = fetch_halted

    def _decode_at(self, pc: int) -> S.Decoded:
        d = self._decode_cache.get(pc)
        if d is None:
            d = S.decode(self.func.mem.read32(pc))
            self._decode_cache[pc] = d
        return d

    @staticmethod
    def _key_is_done(key: tuple) -> bool:
        return bool(key[6]) and not key[0]

    # -- driving -----------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.fetch_halted and not self.window

    def run(self, max_cycles: int = 10_000_000) -> C.OooStats:
        if not self.memoize:
            while not self.done and self.stats.cycles < max_cycles:
                self._slow_cycle(record=False)
            return self.stats
        key = self.state_key()
        while not self._key_is_done(key) and self.stats.cycles < max_cycles:
            node = self.memo.get(key)
            if node is None:
                self.mstats.misses_new_key += 1
                self.mstats.cycles_slow += 1
                self._materialize(key)
                root = _Node()
                root.key_cost = 8 * (8 + 6 * len(key[0]) + 33)
                self.memo[key] = root
                self.mstats.entries += 1
                self._bill(root, root.key_cost)
                key = self._slow_cycle(record=True, root=root)
            else:
                key = self._replay_packed(key, node)
            self._maybe_reclaim()
        self._materialize(key)
        return self.stats

    # -- memo accounting / reclamation ----------------------------------------

    def _bill(self, root: _Node, nbytes: int) -> None:
        """Charge ``nbytes`` to the memo table and to ``root``'s entry,
        so packing and unpacking can re-account the entry exactly."""
        self.mstats.bytes_estimate += nbytes
        self.mstats.bytes_cumulative += nbytes
        root.nbytes += nbytes

    def recount_bytes(self) -> int:
        """Recompute ``bytes_estimate`` by walking every surviving
        entry's node tree (events, checks, recovery-attached forks) —
        the leak-free-accounting invariant asserted by the tests."""
        total = 0
        for key, root in self.memo.items():
            total += 8 * (8 + 6 * len(key[0]) + 33)
            chain = root.packed
            if chain is not None:
                total += PACKED_SLOT_BYTES * len(chain.kinds) + sum(
                    PACKED_TABLE_OVERHEAD + PACKED_JUMP_BYTES * len(t)
                    for t in chain.tables
                )
                continue
            total += self._tree_cost(root)
        return total + self.pool.recount()

    def recount_shared_bytes(self) -> int:
        """Recompute ``mstats.bytes_shared`` by walking surviving packed
        cycles still backed by an mmap snapshot — the shared-accounting
        analogue of :meth:`recount_bytes`."""
        return sum(
            root.packed.local_bytes
            for root in self.memo.values()
            if root.packed is not None and root.packed.shared
        )

    # -- snapshots -------------------------------------------------------------

    @property
    def snapshot_fingerprint(self) -> str:
        from ..facile.snapshot import fastsim_fingerprint

        return fastsim_fingerprint(self.program, self.config)

    def load_snapshot(self, path, fingerprint: str | None = None):
        from ..facile.snapshot import load_fastsim_memo

        if fingerprint is None:
            fingerprint = self.snapshot_fingerprint
        info = load_fastsim_memo(self, path, fingerprint)
        self.snapshot_load = info
        return info

    def save_snapshot(self, path, fingerprint: str | None = None):
        from ..facile.snapshot import save_fastsim_memo

        if fingerprint is None:
            fingerprint = self.snapshot_fingerprint
        info = save_fastsim_memo(self, path, fingerprint)
        self.snapshot_save = info
        return info

    @staticmethod
    def _tree_cost(root: _Node) -> int:
        """Accounted size of an unpacked node tree, excluding the key
        cost — must match the incremental ``_bill`` charges."""
        total = 0
        stack = [root]
        while stack:
            node = stack.pop()
            total += sum(16 + 8 * len(ev) for ev in node.events)
            if node.check is not None:
                # _check charges 64 (test + first successor); each
                # fork attached during recovery charges 48 more.
                total += 64 + 48 * (len(node.succ) - 1)
            stack.extend(node.succ.values())
        return total

    def _maybe_reclaim(self) -> None:
        """Clear the whole memo table once it outgrows
        ``memo_limit_bytes`` (the twin of :meth:`ActionCache.reclaim`)."""
        if (
            self.memo_limit_bytes is None
            or self.mstats.bytes_estimate <= self.memo_limit_bytes
        ):
            return
        self.memo.clear()
        self.pool.clear()
        self.mstats.bytes_estimate = 0
        self.mstats.bytes_shared = 0
        self.mstats.clears += 1

    # -- fast replay ----------------------------------------------------------------

    def _replay_packed(self, key: tuple, root: _Node) -> tuple:
        """Replay one flat-packed cycle: an index-threaded walk over the
        parallel streams with no node-attribute dispatch.  On a dynamic
        result miss the entry is unpacked back to record form and the
        slow simulator recovers from the consumed prefix, re-packing
        the grown tree at cycle end."""
        func = self.func
        chain = root.packed
        kinds = chain.kkinds
        if kinds is None:
            # mmap-loaded cycle replayed for the first time: build the
            # resolved view now, so unused entries cost no private RSS.
            _build_cycle_view(chain, self.pool.values)
            kinds = chain.kkinds
        payload_vals = chain.payload_vals
        sux = chain.sux
        stats = self.stats
        mstats = self.mstats
        predictor = self.predictor
        consumed: list[tuple] = []
        last_info = None
        n = 0
        i = 0
        while True:
            k = kinds[i]
            if k < FS_CHECK_BASE:
                ev = payload_vals[i]
                if k == EV_EXEC:
                    last_info = func.exec_decoded(ev[2], ev[1])
                elif k == EV_STAT:
                    stats.cycles += ev[1]
                    stats.retired += ev[2]
                    self.retired_fast += ev[2]
                elif k == EV_ANNUL:
                    func.step()
                else:  # EV_BCALL
                    predictor.note_call(ev[1])
                consumed.append((k, None))
                n += 1
                i += 1
                continue
            if k != FS_END:
                ek = k - FS_CHECK_BASE
                value = self._perform_check(ek, payload_vals[i], last_info)
                consumed.append((ek, value))
                n += 1
                sx = sux[i]
                if sx.__class__ is dict:
                    j = sx.get(value)
                    if j is not None:
                        i = j
                        continue
                elif sx == value:
                    i += 1
                    continue
                # Action-cache miss: thaw the entry back to record
                # form and recover via the slow simulator (which
                # re-packs it at cycle end).
                mstats.events_replayed += n
                mstats.misses_check += 1
                mstats.cycles_recovered += 1
                self._materialize(key)
                self._unpack_root(root)
                return self._slow_cycle(record=True, root=root, recovery=consumed)
            mstats.events_replayed += n
            mstats.cycles_fast += 1
            return sux[i]

    # -- flat packing ----------------------------------------------------------------

    def _pack_root(self, root: _Node) -> None:
        """Flatten a completed cycle tree into parallel streams and
        re-account the entry at its packed size (pooled values billed
        only on first reference)."""
        pool = self.pool
        values = pool.values
        kinds = array("q")
        payload = array("q")
        succ = array("q")
        payload_vals: list = []
        sux: list = []
        tables: list[dict] = []
        next_keys: list[tuple] = []
        pool_charged = 0
        pending = deque([(root, -1, None)])
        while pending:
            node, t_idx, t_key = pending.popleft()
            if t_idx >= 0:
                tables[t_idx][t_key] = len(kinds)
            while True:
                for ev in node.events:
                    idx, charged = pool.intern(ev)
                    pool_charged += charged
                    kinds.append(ev[0])
                    payload.append(idx)
                    succ.append(0)
                    payload_vals.append(values[idx])
                    sux.append(None)
                if node.check is None:
                    kinds.append(FS_END)
                    payload.append(-1)
                    succ.append(len(next_keys))
                    next_keys.append(node.next_key)
                    payload_vals.append(None)
                    sux.append(node.next_key)
                    break
                ck, cpayload = node.check
                idx, charged = pool.intern(cpayload)
                pool_charged += charged
                kinds.append(FS_CHECK_BASE + ck)
                payload.append(idx)
                payload_vals.append(values[idx])
                if len(node.succ) == 1:
                    ((value, nxt),) = node.succ.items()
                    vidx, charged = pool.intern(value)
                    pool_charged += charged
                    succ.append(vidx)
                    # Expected check results are scalars or tuples,
                    # never dicts, so the replay loop discriminates
                    # this fall-through form from a jump table by class.
                    sux.append(values[vidx])
                    node = nxt
                    continue
                table: dict = {}
                tables.append(table)
                succ.append(~(len(tables) - 1))
                sux.append(table)
                for value, nxt in node.succ.items():
                    pending.append((nxt, len(tables) - 1, value))
                break
        chain = _PackedCycle()
        chain.kinds = kinds
        chain.payload = payload
        chain.succ = succ
        chain.tables = tables
        chain.next_keys = next_keys
        chain.kkinds = kinds.tolist()
        chain.payload_vals = payload_vals
        chain.sux = sux
        chain.local_bytes = PACKED_SLOT_BYTES * len(kinds) + sum(
            PACKED_TABLE_OVERHEAD + PACKED_JUMP_BYTES * len(t) for t in tables
        )
        chain.shared = False
        old = root.nbytes
        root.nbytes = root.key_cost + chain.local_bytes
        root.packed = chain
        root.events = []
        root.check = None
        root.succ = {}
        root.next_key = None
        self.mstats.bytes_estimate += root.nbytes + pool_charged - old
        self.mstats.packs += 1

    def _unpack_root(self, root: _Node) -> None:
        """Rebuild the record tree from the packed streams (so the
        recorder can walk it and attach a miss fork), release the pool
        references, and re-account the entry at its unpacked size."""
        chain = root.packed
        kinds = chain.kinds
        pstream = chain.payload
        sstream = chain.succ
        tables = chain.tables
        next_keys = chain.next_keys
        pool = self.pool
        pool_vals = pool.values
        root.events = []
        root.check = None
        root.succ = {}
        root.next_key = None
        pending = deque([(0, root)])
        while pending:
            i, node = pending.popleft()
            while True:
                k = kinds[i]
                if k < FS_CHECK_BASE:
                    node.events.append(pool_vals[pstream[i]])
                    i += 1
                    continue
                if k == FS_END:
                    node.next_key = next_keys[sstream[i]]
                    break
                node.check = (k - FS_CHECK_BASE, pool_vals[pstream[i]])
                s = sstream[i]
                if s >= 0:
                    nxt = _Node()
                    node.succ[pool_vals[s]] = nxt
                    node = nxt
                    i += 1
                    continue
                for value, j in tables[~s].items():
                    child = _Node()
                    node.succ[value] = child
                    pending.append((j, child))
                break
        freed = 0
        for i in range(len(kinds)):
            k = kinds[i]
            if k == FS_END:
                continue
            freed += pool.release(pstream[i])
            if k >= FS_CHECK_BASE and sstream[i] >= 0:
                freed += pool.release(sstream[i])
        old = root.nbytes
        root.nbytes = root.key_cost + self._tree_cost(root)
        root.packed = None
        if chain.shared:
            # Copy-on-miss: the rebuilt tree is process-private; the
            # mmap-backed streams no longer back a live entry.
            self.mstats.bytes_shared -= chain.local_bytes
        self.mstats.bytes_estimate += root.nbytes - old - freed
        self.mstats.unpacks += 1

    def _perform_check(self, kind: int, payload, info) -> tuple | int:
        if kind == EV_CACHE:
            (is_store,) = payload
            if is_store:
                self.stats.stores += 1
            else:
                self.stats.loads += 1
            return self.cache.access(info.mem_addr, self.stats.cycles, is_store)
        if kind == EV_BPRED:
            correct = self.predictor.resolve_branch(info.pc, info.taken)
            self.stats.branches += 1
            if not correct:
                self.stats.mispredicts += 1
            return (info.taken, correct)
        # EV_BIND
        (is_ret,) = payload
        correct = self.predictor.resolve_indirect(info.pc, info.target, is_ret)
        self.stats.branches += 1
        if not correct:
            self.stats.mispredicts += 1
        return (info.target, correct)

    # -- slow path (records; supports miss recovery) -----------------------------------

    def _slow_cycle(self, record: bool, root: _Node | None = None,
                    recovery: list | None = None) -> tuple:
        rec = _Recorder(self, record, root, recovery)
        self._phase_stat(rec)
        self._phase_retire_norm()
        self._phase_execute()
        self._phase_issue()
        self._phase_fetch(rec)
        if not record:
            return ()
        next_key = self.state_key()
        rec.finish(next_key)
        self._pack_root(root)
        return next_key

    def _phase_stat(self, rec: "_Recorder") -> None:
        k = 0
        while (
            k < self.config.retire_width
            and k < len(self.window)
            and self.window[k].state == C.ST_DONE
        ):
            k += 1
        rec.stat(1, k)
        self._pending_retire = k

    def _phase_retire_norm(self) -> None:
        k = self._pending_retire
        if k == 0:
            return
        del self.window[:k]
        for entry in self.window:
            entry.dep1 = entry.dep1 - k if entry.dep1 >= k else -1
            entry.dep2 = entry.dep2 - k if entry.dep2 >= k else -1
        for reg in range(33):
            w = self.last_writer[reg]
            if w >= 0:
                self.last_writer[reg] = w - k if w >= k else -1

    def _phase_execute(self) -> None:
        for entry in self.window:
            if entry.state == C.ST_EXEC:
                entry.remaining -= 1
                if entry.remaining <= 0:
                    entry.state = C.ST_DONE

    def _phase_issue(self) -> None:
        issued = 0
        fu_used = {group: 0 for group in C.FU_CAPACITY}
        for entry in self.window:
            if issued >= self.config.issue_width:
                break
            if entry.state != C.ST_WAIT:
                continue
            dep1, dep2 = entry.dep1, entry.dep2
            if dep1 >= 0 and self.window[dep1].state != C.ST_DONE:
                continue
            if dep2 >= 0 and self.window[dep2].state != C.ST_DONE:
                continue
            group = C.FU_GROUP[entry.cls]
            if fu_used[group] >= C.FU_CAPACITY[group]:
                continue
            fu_used[group] += 1
            issued += 1
            entry.state = C.ST_EXEC

    def _phase_fetch(self, rec: "_Recorder") -> None:
        if self.stall > 0:
            self.stall -= 1
            return
        if self.fetch_halted:
            return
        fetched = 0
        while fetched < self.config.fetch_width and len(self.window) < self.config.window_size:
            if self.func.halted:
                self.fetch_halted = True
                break
            fetched += 1
            if self.func._annul_next:
                rec.annulled()
                continue
            pc = self.func.pc
            d = self._decode_at(pc)
            info = rec.exec_op(pc, d)
            end_group = self._dispatch(rec, info, d)
            if d.kind in ("halt", "illegal"):
                self.fetch_halted = True
                break
            if end_group:
                break

    def _dispatch(self, rec: "_Recorder", info, d: S.Decoded) -> bool:
        srcs = C.source_regs(d)
        producers = sorted(
            {self.last_writer[r] for r in srcs if self.last_writer[r] >= 0},
            reverse=True,
        )
        dep1 = producers[0] if len(producers) > 0 else -1
        dep2 = producers[1] if len(producers) > 1 else -1

        latency = C.fixed_latency(d.cls, self.config)
        end_group = False
        if d.cls in (S.CLS_LOAD, S.CLS_STORE):
            is_store = d.cls == S.CLS_STORE
            latency = rec.cache_access(info, is_store)
        elif d.kind == "branch":
            taken, correct = rec.branch_resolve(info)
            del taken
            if not correct:
                self.stall = self.config.mispredict_penalty
                end_group = True
        elif d.kind == "call":
            rec.note_call(info.pc + 8)
        elif d.name == "jmpl":
            target, correct = rec.indirect_resolve(info, C.is_return(d))
            del target
            if not correct:
                self.stall = self.config.mispredict_penalty
                end_group = True
        if info.is_branch and info.taken:
            end_group = True

        index = len(self.window)
        self.window.append(_Entry(d.cls, C.ST_WAIT, latency, dep1, dep2, info.pc))
        dest = C.dest_reg(d)
        if dest is not None:
            self.last_writer[dest] = index
        if C.sets_cc(d):
            self.last_writer[C.CC_REG] = index
        return end_group


class _ReplayedInfo:
    """Stand-in for StepInfo during recovery: only the fields the
    bookkeeping needs, reconstructed from recorded dynamic results."""

    __slots__ = ("pc", "is_branch", "taken", "target", "mem_addr")

    def __init__(self, pc: int):
        self.pc = pc
        self.is_branch = False
        self.taken = False
        self.target = 0
        self.mem_addr = None


class _Recorder:
    """Mediates between the slow cycle and the memo tree.

    In plain record mode it appends events from the tree root.  With a
    ``recovery`` prefix (already replayed by the fast engine), it
    verifies event kinds, suppresses re-execution, feeds recorded
    dynamic results back to the bookkeeping, walks the existing tree in
    step, and at the miss fork attaches a fresh branch and switches to
    live recording — the paper's recovery protocol, by hand.
    """

    def __init__(self, sim: FastSimOoo, record: bool, root: _Node | None,
                 recovery: list | None):
        self.sim = sim
        self.record = record
        self.recovery = recovery or []
        self.rix = 0
        self.root = root
        self.node = root
        self.on_tree = bool(self.recovery)  # walking existing records?

    # -- recovery helpers ----------------------------------------------------------

    def _recovering(self) -> bool:
        return self.rix < len(self.recovery)

    def _pop(self, kind: int):
        expected_kind, value = self.recovery[self.rix]
        if expected_kind != kind:
            raise RuntimeError(
                f"fastsim recovery desync: expected kind {expected_kind}, got {kind}"
            )
        self.rix += 1
        if self.on_tree and kind in CHECK_KINDS:
            nxt = self.node.succ.get(value)
            if nxt is None:
                # The miss fork: attach a fresh branch and go live.
                fresh = _Node()
                self.node.succ[value] = fresh
                self.node = fresh
                self.on_tree = False
                self.sim._bill(self.root, 48)
            else:
                self.node = nxt
        return value

    # -- event emissions --------------------------------------------------------------

    def stat(self, cycles: int, retired: int) -> None:
        if self._recovering():
            self._pop(EV_STAT)
            return
        self.sim.stats.cycles += cycles
        self.sim.stats.retired += retired
        self._emit((EV_STAT, cycles, retired))

    def annulled(self) -> None:
        # Annul steps have no architectural effect beyond sequencing,
        # which recovery re-derives (the key holds pre-cycle sequencing
        # state), so stepping is safe in both modes.
        if self._recovering():
            self._pop(EV_ANNUL)
            self.sim.func.step()
            return
        self.sim.func.step()
        self._emit((EV_ANNUL,))

    def exec_op(self, pc: int, d: S.Decoded):
        if self._recovering():
            self._pop(EV_EXEC)
            info = _ReplayedInfo(pc)
            self._resequence(info, d)
            return info
        info = self.sim.func.exec_decoded(d, pc)
        self._emit((EV_EXEC, pc, d))
        return info

    def _resequence(self, info: _ReplayedInfo, d: S.Decoded) -> None:
        """Advance functional sequencing during recovery without
        re-executing effects: outcomes come from recorded results."""
        func = self.sim.func
        pc, npc = func.pc, func.npc
        new_pc, new_npc = npc, npc + 4
        if d.kind == "call":
            info.is_branch = True
            info.taken = True
            info.target = (pc + d.disp) & 0xFFFFFFFF
            new_npc = info.target
        elif d.kind == "branch":
            info.is_branch = True
            taken, _correct = self._peek_value(EV_BPRED)
            info.taken = taken
            info.target = (pc + d.disp) & 0xFFFFFFFF
            if taken:
                new_npc = info.target
                if d.annul and d.cond == 0b1000:
                    func._annul_next = True
            elif d.annul:
                func._annul_next = True
        elif d.name == "jmpl":
            info.is_branch = True
            info.taken = True
            target, _correct = self._peek_value(EV_BIND)
            info.target = target
            new_npc = target
        elif d.kind in ("halt", "illegal"):
            func.halted = True
        func.pc, func.npc = new_pc, new_npc

    def _peek_value(self, kind: int):
        """An instruction's own dynamic result immediately follows its
        EXEC event in the recovery list."""
        expected_kind, value = self.recovery[self.rix]
        if expected_kind != kind:
            raise RuntimeError("fastsim recovery desync on result lookahead")
        return value

    def cache_access(self, info, is_store: bool) -> int:
        if self._recovering():
            return self._pop(EV_CACHE)
        if is_store:
            self.sim.stats.stores += 1
        else:
            self.sim.stats.loads += 1
        latency = self.sim.cache.access(info.mem_addr, self.sim.stats.cycles, is_store)
        self._check((EV_CACHE, (is_store,)), latency)
        return latency

    def branch_resolve(self, info):
        sim = self.sim
        if self._recovering():
            return self._pop(EV_BPRED)
        correct = sim.predictor.resolve_branch(info.pc, info.taken)
        sim.stats.branches += 1
        if not correct:
            sim.stats.mispredicts += 1
        value = (info.taken, correct)
        self._check((EV_BPRED, ()), value)
        return value

    def indirect_resolve(self, info, is_ret: bool):
        sim = self.sim
        if self._recovering():
            return self._pop(EV_BIND)
        correct = sim.predictor.resolve_indirect(info.pc, info.target, is_ret)
        sim.stats.branches += 1
        if not correct:
            sim.stats.mispredicts += 1
        value = (info.target, correct)
        self._check((EV_BIND, (is_ret,)), value)
        return value

    def note_call(self, return_addr: int) -> None:
        if self._recovering():
            self._pop(EV_BCALL)
            return
        self.sim.predictor.note_call(return_addr)
        self._emit((EV_BCALL, return_addr))

    # -- tree building ----------------------------------------------------------------

    def _emit(self, event: tuple) -> None:
        if not self.record:
            return
        self.node.events.append(event)
        self.sim.mstats.events_recorded += 1
        self.sim._bill(self.root, 16 + 8 * len(event))

    def _check(self, check: tuple, value) -> None:
        if not self.record:
            return
        self.node.check = check
        fresh = _Node()
        self.node.succ[value] = fresh
        self.node = fresh
        self.sim.mstats.events_recorded += 1
        self.sim._bill(self.root, 64)

    def finish(self, next_key: tuple) -> None:
        if self.record:
            self.node.next_key = next_key


def run_fastsim(
    program: Program,
    config: C.MachineConfig | None = None,
    memoize: bool = True,
    max_cycles: int = 10_000_000,
    memo_limit_bytes: int | None = None,
    cache_dir=None,
    cache_load=None,
    cache_save=None,
    replay_backend: str = "python",
) -> FastSimOoo:
    sim = FastSimOoo(
        program,
        config,
        memoize=memoize,
        memo_limit_bytes=memo_limit_bytes,
        replay_backend=replay_backend,
    )
    warm = None
    if memoize:
        from ..facile.snapshot import warm_start

        warm = warm_start(
            sim,
            sim.snapshot_fingerprint,
            cache_dir=cache_dir,
            cache_load=cache_load,
            cache_save=cache_save,
        )
    sim.run(max_cycles)
    if warm is not None:
        warm.finish()
    return sim
