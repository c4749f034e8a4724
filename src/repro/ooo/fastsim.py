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

Per key, the memo holds one :class:`~repro.facile.runtime.PackedChain`,
the action cache's own lane container: straight-line event runs with a
dynamic result test at each fork, one successor per observed value —
the same structure as Figure 2's specialized action cache.  A plain
event's slot holds its ``EV_*`` kind and the interned event; a test
holds ``~kind``, its interned payload and its expected value (or a jump
table once it has forked); an ``ENDMARK`` slot ends the cycle, and its
successor lane indexes the next cycle's key in ``ends``.  The recorder
appends to the lanes from the cycle's first event, and miss recovery
appends each new path at their end.  Complete chains link cycle to
cycle through those next keys, so steady-state execution replays entire
loops without touching the bookkeeping at all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..facile.run import RunConfig, RunReport
from ..facile.runtime import (
    ENDMARK,
    PACKED_SLOT_BYTES,
    InternPool,
    PackedChain,
    RunStats,
    build_replay_view,
    lane_bytes,
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

#: ``backend_status["reason"]`` of a ``replay_backend="c"`` request.
FASTSIM_NO_C_REASON = "fastsim has no C replay path; it runs the Python loop"


def _key_cost(key: tuple) -> int:
    """Accounted size of a memo key: the window signature plus the
    fixed pipeline state."""
    return 8 * (8 + 6 * len(key[0]) + 33)


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
    #: Resident size in the packed model: keys, slots, jump tables and
    #: live pool values, billed as the lanes grow.
    bytes_estimate: int = 0
    #: Total bytes ever charged for recording in FastSim's record model
    #: (``16 + 8 * len(event)`` per event, 64 per check, 48 per recovery
    #: fork, plus each new key).  Never decremented by clears — the
    #: memoized-data *volume* Table 2 reports, mirroring
    #: ``CacheStats.bytes_cumulative`` on the facile side so the two
    #: simulators' columns compare the same metric.
    bytes_cumulative: int = 0
    #: Seals (completed slow or recovered cycles) and reopens (check
    #: misses).
    packs: int = 0
    unpacks: int = 0
    clears: int = 0
    #: Bytes of ``bytes_estimate`` billed to mmap-backed (shared)
    #: chains; the rest is process-private.  Decremented when a shared
    #: chain is reopened (copy-on-miss); a clear empties it.
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
    """The memoizing OOO simulator.  ``memoized=False`` degrades it to a
    conventional simulator (the paper's 'without memoization' bars)."""

    def __init__(
        self,
        program: Program,
        config: C.MachineConfig | None = None,
        cache=None,
        predictor=None,
        settings: RunConfig | None = None,
        **fields,
    ):
        self.settings = settings = RunConfig.of(settings, **fields)
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
        self.pool = InternPool()
        self.memo: dict[tuple, PackedChain] = {}
        # Successors by identity: id(next key) -> (next key, its chain),
        # for the next keys the end slots hold, so a replayed cycle
        # finds its successor without hashing the whole key again (the
        # twin of EndRecord.likely_next).  Per process, never billed or
        # saved, and emptied with the memo.
        self._successors: dict[int, tuple] = {}
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
            "requested": settings.replay_backend,
            "active": "python",
            "reason": FASTSIM_NO_C_REASON if settings.replay_backend == "c" else "",
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

    @property
    def report(self) -> RunReport:
        """The run so far, read off the counters.  A conventional run
        takes every cycle slow."""
        m, st, pool = self.mstats, self.stats, self.pool
        slow = m.cycles_slow if self.settings.memoized else st.cycles
        return RunReport(
            retired=st.retired, halted=self.done,
            retired_fast=self.retired_fast, stats=replace(st),
            steps=RunStats(m.cycles_fast + slow + m.cycles_recovered,
                           m.cycles_fast, slow, m.cycles_recovered,
                           m.events_replayed),
            backend=dict(self.backend_status), clears=m.clears,
            packs=m.packs, unpacks=m.unpacks,
            memo_bytes=m.bytes_cumulative,
            memo_bytes_current=m.bytes_estimate,
            bytes_shared=m.bytes_shared,
            pool=(pool.bytes_live, pool.hits, pool.misses, pool.bytes_saved),
            snapshot_load=self.snapshot_load,
            snapshot_save=self.snapshot_save,
        )

    def run(self, max_cycles: int = 10_000_000) -> C.OooStats:
        if not self.settings.memoized:
            while not self.done and self.stats.cycles < max_cycles:
                self._slow_cycle(None)
            return self.stats
        key = self.state_key()
        mstats = self.mstats
        successors = self._successors
        while not self._key_is_done(key) and self.stats.cycles < max_cycles:
            known = successors.get(id(key))
            if known is not None and known[0] is key:
                chain = known[1]
            else:
                chain = self.memo.get(key)
                if chain is not None:
                    successors[id(key)] = (key, chain)
            if chain is None:
                mstats.misses_new_key += 1
                mstats.cycles_slow += 1
                self._materialize(key)
                chain = PackedChain.empty(self.pool)
                self.memo[key] = chain
                successors[id(key)] = (key, chain)
                mstats.entries += 1
                cost = _key_cost(key)
                mstats.bytes_estimate += cost
                mstats.bytes_cumulative += cost
                key = self._slow_cycle(chain)
            else:
                key = self._replay_packed(key, chain)
            self._maybe_reclaim()
        self._materialize(key)
        return self.stats

    # -- memo accounting / reclamation ----------------------------------------

    def recount_bytes(self) -> int:
        """Recompute ``bytes_estimate`` from scratch: every surviving
        entry's key and lanes (slots and jump tables) plus the live
        pool — the leak-free-accounting invariant asserted by the
        tests."""
        return sum(
            _key_cost(key) + lane_bytes(len(chain.nums), chain.tables)
            for key, chain in self.memo.items()
        ) + self.pool.recount()

    def recount_shared_bytes(self) -> int:
        """Recompute ``mstats.bytes_shared`` from the surviving chains
        still backed by an mmap snapshot — the shared-accounting
        analogue of :meth:`recount_bytes`."""
        return sum(c.local_bytes for c in self.memo.values() if c.shared)

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

    def snapshot_stamp(self) -> tuple:
        """Counters that move whenever the saved content of the memo
        can change: a new entry, a seal, a reopen or a clear."""
        m = self.mstats
        return (m.entries, m.packs, m.unpacks, m.clears)

    def save_snapshot(self, path, fingerprint: str | None = None):
        from ..facile.snapshot import save_fastsim_memo

        if fingerprint is None:
            fingerprint = self.snapshot_fingerprint
        info = save_fastsim_memo(self, path, fingerprint)
        self.snapshot_save = info
        return info

    def _maybe_reclaim(self) -> None:
        """Clear the whole memo table once it outgrows
        ``cache_limit_bytes`` (the twin of :meth:`ActionCache.reclaim`)."""
        limit = self.settings.cache_limit_bytes
        if limit is None or self.mstats.bytes_estimate <= limit:
            return
        self.memo.clear()
        self._successors.clear()
        self.pool.clear()
        self.mstats.bytes_estimate = 0
        self.mstats.bytes_shared = 0
        self.mstats.clears += 1

    # -- fast replay ----------------------------------------------------------------

    def _replay_packed(self, key: tuple, chain: PackedChain) -> tuple:
        """Replay one packed cycle: an index-threaded walk over the
        replay view with no per-event attribute dispatch.  On a dynamic
        result miss the chain is reopened, the missed test grows an arm
        to the end of the lanes, and the slow simulator recovers from
        the consumed prefix, appending the new path there."""
        func = self.func
        kinds = chain.knums
        if kinds is None:
            # mmap-loaded cycle replayed for the first time: build the
            # resolved view now, so unused entries cost no private RSS.
            build_replay_view(chain)
            kinds = chain.knums
        payload_vals = chain.datavals
        sux = chain.sux
        stats = self.stats
        mstats = self.mstats
        predictor = self.predictor
        endmark = ENDMARK
        consumed: list[tuple] = []
        last_info = None
        n = 0
        i = 0
        while True:
            k = kinds[i]
            if k >= 0:
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
            if k != endmark:
                ek = ~k
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
                # Memo miss: reopen the chain, grow an arm for the new
                # value and recover via the slow simulator, which
                # appends the new path and seals the chain again.
                mstats.events_replayed += n
                mstats.misses_check += 1
                mstats.cycles_recovered += 1
                mstats.unpacks += 1
                mstats.bytes_shared -= chain.reopen()
                mstats.bytes_estimate += chain.fork(i, value)
                mstats.bytes_cumulative += 48
                self._materialize(key)
                return self._slow_cycle(chain, consumed)
            mstats.events_replayed += n
            mstats.cycles_fast += 1
            return sux[i]

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

    def _slow_cycle(self, chain: PackedChain | None,
                    recovery: list | None = None) -> tuple:
        """Run one conventional cycle, recording into ``chain`` (None
        records nothing) and sealing it at the next cycle's key."""
        rec = _Recorder(self, chain, recovery)
        self._phase_stat(rec)
        self._phase_retire_norm()
        self._phase_execute()
        self._phase_issue()
        self._phase_fetch(rec)
        if chain is None:
            return ()
        if rec._recovering():
            raise RuntimeError("fastsim recovery desync: cycle ended mid-recovery")
        next_key = self.state_key()
        chain.end(next_key)
        self.mstats.bytes_estimate += PACKED_SLOT_BYTES
        build_replay_view(chain)
        self.mstats.packs += 1
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
    """Mediates between the slow cycle and the memo lanes.

    In plain record mode it appends each event to the cycle's
    :class:`PackedChain` (``chain``; None records nothing) as the slow
    cycle performs it.  With a ``recovery`` prefix (already replayed by
    the fast engine), it verifies event kinds, suppresses re-execution
    and feeds recorded dynamic results back to the bookkeeping.  The
    prefix ends at the missed test, whose new arm already points at the
    end of the lanes, so once it is used up the recorder appends the new
    path there — the paper's recovery protocol, by hand.
    """

    def __init__(self, sim: FastSimOoo, chain: PackedChain | None,
                 recovery: list | None):
        self.sim = sim
        self.chain = chain
        self.recovery = recovery or []
        self.rix = 0

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
        self._check(EV_CACHE, (is_store,), latency)
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
        self._check(EV_BPRED, (), value)
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
        self._check(EV_BIND, (is_ret,), value)
        return value

    def note_call(self, return_addr: int) -> None:
        if self._recovering():
            self._pop(EV_BCALL)
            return
        self.sim.predictor.note_call(return_addr)
        self._emit((EV_BCALL, return_addr))

    # -- lane appends -----------------------------------------------------------------

    def _emit(self, event: tuple) -> None:
        if self.chain is not None:
            self._append(event[0], event, 0, 16 + 8 * len(event))

    def _check(self, kind: int, payload: tuple, value) -> None:
        if self.chain is not None:
            vidx, charged = self.sim.pool.intern(value)
            self._append(~kind, payload, vidx, 64, charged)

    def _append(self, num: int, data: tuple, succ: int, model_bytes: int,
                charged: int = 0) -> None:
        """Append one slot holding the interned ``data``.  The slot and
        the pool growth go to ``bytes_estimate``; ``model_bytes``,
        FastSim's record model, goes to ``bytes_cumulative``."""
        sim = self.sim
        idx, data_charged = sim.pool.intern(data)
        chain = self.chain
        chain.nums.append(num)
        chain.data.append(idx)
        chain.succ.append(succ)
        chain.local_bytes += PACKED_SLOT_BYTES
        mstats = sim.mstats
        mstats.events_recorded += 1
        mstats.bytes_estimate += PACKED_SLOT_BYTES + data_charged + charged
        mstats.bytes_cumulative += model_bytes


def run_fastsim(
    program: Program,
    config: C.MachineConfig | None = None,
    max_cycles: int = 10_000_000,
    settings: RunConfig | None = None,
    **fields,
) -> FastSimOoo:
    sim = FastSimOoo(program, config, settings=settings, **fields)
    sim.settings.drive(sim, lambda: sim.snapshot_fingerprint,
                       lambda: sim.run(max_cycles))
    return sim
