"""Trace compilation: promote hot action chains to compiled superblocks.

The fast engine's packed replay loop
(``FastForwardEngine._fast_step_packed``) pays a table dispatch and a
Python function call per replayed action — the paper's §6.3 names this dispatch cost as the
single largest target for compiler optimization.  This module removes
it for the paths that actually execute: once a cache entry has replayed
more than a promotion threshold, the chain walker follows its packed
lanes — and ``likely_next`` links across step boundaries — and the
emitter synthesizes **one Python function for the whole chain**:

* each plain action slot's generated body is spliced inline, with its
  recorded placeholder data bound as function-local constants (no
  ``actions[num]`` dispatch, no per-action call, no unpack);
* each verify slot is lowered to a specialized comparison against its
  recorded successor value(s): single-successor verifies become a flat
  early-exit guard, jump tables an ``if``/``elif`` ladder; an
  unmatched value **side-exits** back to the driver, which runs the
  normal miss-recovery path;
* each end slot's :class:`EndRecord` either returns (end of trace,
  budget exhausted, or ``halt``) or — when the next entry was chained
  at compile time — re-guards the key by object identity and falls
  through into the next step's inlined chain.

Step counts, replayed-action counts, and already-consumed verify values
are all path constants of the chain, so they are embedded as literals
at each exit: a compiled trace does **zero** per-record bookkeeping at
run time.

Trace protocol (returned tuples)::

    (TRACE_COMPLETE, steps_done, actions_replayed, last_end_record)
    (TRACE_SIDE_EXIT, steps_done, actions_replayed, entry, consumed)

``steps_done`` counts fully completed steps; on a side exit the
diverging step is *not* counted (the driver accounts it as a recovered
step, exactly like the interpreter).  ``consumed`` holds the frozen
verify values observed since ``entry``'s key, diverging value last —
the recovery stack.

Invalidation rules (enforced by :class:`TraceManager` + the engine):

* a cache clear bumps ``ActionCache.generation``; every trace stores
  the generation it was compiled at and is skipped (and dropped) when
  they disagree;
* recording a **new successor** on any verify slot reached through a
  compiled trace would make its comparison ladder incomplete, so every
  recovery through entry *E* kills all traces whose chain covers *E*
  (the root entry's hotness resets, allowing later re-promotion).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable

TRACE_COMPLETE = 0
TRACE_SIDE_EXIT = 1

#: Budget passed for ``max_steps=None`` runs; far above any real count.
UNBOUNDED_BUDGET = 1 << 62

_PH_RE = re.compile(r"\b_ph(\d+)\b")

#: ``select(cond, a, b)`` / immediate-vs-register conditionals whose
#: condition is a lone placeholder — foldable once the recorded data is
#: known.  Branch payloads are limited to paren-free text so the match
#: can never cut an expression mid-parenthesis; anything fancier simply
#: stays a run-time conditional.
_SELECT_RE = re.compile(r"\(\(([^()]*)\) if \(_ph(\d+)\) else \(([^()]*)\)\)")
#: Logical not / and / or lowerings: ``(0 if _ph2 else 1)`` etc.
_BOOL_RE = re.compile(r"\((\d+) if _ph(\d+) else (\d+)\)")


class _Untraceable(Exception):
    """Raised during emission when a chain cannot be compiled."""


@dataclass
class Trace:
    """One compiled superblock, installed on its root cache entry."""

    fn: Callable  # fn(ctx, S, budget) -> result tuple
    generation: int  # cache generation at compile time; -1 = dead
    root: Any  # CacheEntry the trace is installed on
    entries: list  # every CacheEntry the chain covers (root first)
    source: str  # generated Python source (debugging/inspection)
    n_constants: int = 0
    # Run-time counters, maintained by the driver.
    calls: int = 0
    steps: int = 0
    actions: int = 0
    side_exits: int = 0


class _NoTrace:
    """Sentinel installed on entries that failed promotion, so the
    driver neither executes nor re-promotes them.  ``generation`` is
    never a valid cache generation, so the execution check rejects it."""

    generation = -1
    fn = None


NO_TRACE = _NoTrace()


@dataclass
class TraceJITStats:
    traces_compiled: int = 0
    traces_invalidated: int = 0
    compile_failures: int = 0
    entries_covered: int = 0

    def aggregate(self, traces: list[Trace]) -> dict:
        """Totals over live + dead traces (driver-maintained counters)."""
        return {
            "calls": sum(t.calls for t in traces),
            "steps": sum(t.steps for t in traces),
            "actions": sum(t.actions for t in traces),
            "side_exits": sum(t.side_exits for t in traces),
        }


# ---------------------------------------------------------------------------
# Chain sizing (pre-scan before committing to an entry)
# ---------------------------------------------------------------------------


def _tree_shape(entry) -> tuple[int, int] | None:
    """(record count, max multi-successor nesting depth) of an entry's
    chain, or None if the entry is not sealed (unfinished, or
    mid-recovery).  Free: sealing computed the shape."""
    if not entry.complete:
        return None
    chain = entry.packed
    return chain.n_records, chain.depth


# ---------------------------------------------------------------------------
# The emitter
# ---------------------------------------------------------------------------


class _TraceEmitter:
    def __init__(
        self,
        compiled,
        generation: int,
        init_slot: int,
        max_chain: int,
        max_records: int,
        max_depth: int,
    ):
        self.compiled = compiled
        self.generation = generation
        self.init_slot = init_slot
        self.max_chain = max_chain
        self.max_records = max_records
        self.max_depth = max_depth
        self.lines: list[str] = []
        self.consts: list[Any] = []  # strong refs keep id()s stable
        self._const_names: dict[int, str] = {}
        self._vcount = 0
        self.entries: list = []
        self._entry_ids: set[int] = set()
        self.records_emitted = 0

    # -- low-level helpers --------------------------------------------------

    def line(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def const(self, obj: Any) -> str:
        """Bind a Python object as a function-local constant.

        Objects are bound by identity (not value): replayed stores must
        install the *same* object the interpreter would, so the
        ``likely_next`` identity guards keep holding.
        """
        name = self._const_names.get(id(obj))
        if name is None:
            name = f"_d{len(self.consts)}"
            self._const_names[id(obj)] = name
            self.consts.append(obj)
        return name

    def value_ref(self, obj: Any) -> str:
        """Reference for a value used only by equality: plain ints are
        emitted as literals, everything else is identity-bound."""
        if type(obj) is int or type(obj) is bool:
            return repr(obj)
        return self.const(obj)

    def _fresh_value(self) -> str:
        self._vcount += 1
        return f"_v{self._vcount}"

    # -- record emission ----------------------------------------------------

    def _splice_action(self, num: int, data: tuple, indent: int) -> None:
        """Inline one non-verify action body with data bound as constants."""
        body, n_ph, _ = self.compiled.action_bodies[num]
        sub = self._ph_subst(num, data, n_ph)
        for src in body:
            self.line(indent, self._specialize(src, data, sub))
        self.records_emitted += 1

    def _splice_verify(self, num: int, data: tuple, indent: int) -> str:
        """Inline a verify body; returns the name holding the frozen value."""
        body, n_ph, _ = self.compiled.action_bodies[num]
        sub = self._ph_subst(num, data, n_ph)
        vname = self._fresh_value()
        for src in body:
            src = self._specialize(src, data, sub)
            if src.startswith("return "):
                self.line(indent, f"{vname} = _freeze({src[len('return '):]})")
            else:
                self.line(indent, src)
        self.records_emitted += 1
        return vname

    def _specialize(self, src: str, data: tuple, sub) -> str:
        """Specialize one body line against its recorded data.

        First fold every conditional whose condition is a recorded
        placeholder (immediate-vs-register selects, logical-op
        lowerings) — the untaken branch disappears from the trace —
        then substitute the surviving placeholders.
        """
        if "_ph" not in src:
            return src
        while " if _ph" in src or " if (_ph" in src:
            folded, n1 = _SELECT_RE.subn(
                lambda m: f"({m.group(1)})" if data[int(m.group(2))]
                else f"({m.group(3)})",
                src,
            )
            folded, n2 = _BOOL_RE.subn(
                lambda m: m.group(1) if data[int(m.group(2))] else m.group(3),
                folded,
            )
            src = folded
            if not (n1 or n2):
                break
        return _PH_RE.sub(sub, src)

    def _ph_subst(self, num: int, data: tuple, n_ph: int):
        if len(data) != n_ph:
            raise _Untraceable(f"action {num}: data/placeholder mismatch")

        def sub(match: re.Match) -> str:
            value = data[int(match.group(1))]
            # Plain ints (the overwhelmingly common case) become source
            # literals: no constant slot, no prologue unpack.  Anything
            # whose object identity could matter — init-state tuples
            # guarded with ``is`` at chain boundaries — stays bound.
            if type(value) is int or type(value) is bool:
                return repr(value)
            return self.const(value)

        return sub

    # -- chain walking ------------------------------------------------------

    def emit_entry(
        self, entry, indent: int, steps: int, replayed: int, chain_left: int
    ) -> None:
        """Emit the whole chain of one complete cache entry,
        walking its packed streams."""
        if id(entry) not in self._entry_ids:
            self._entry_ids.add(id(entry))
            self.entries.append(entry)
        self.emit_packed(
            entry.packed, 0, entry, indent, steps, replayed, [], chain_left
        )

    def emit_packed(
        self,
        chain,
        i: int,
        entry,
        indent: int,
        steps: int,
        replayed: int,
        consumed: list[str],
        chain_left: int,
    ) -> None:
        """Emit records straight off a :class:`PackedChain`'s streams —
        no object reconstruction; slot kinds decode from the sign of the
        action number and data comes from the interning pool."""
        if indent > self.max_depth:
            raise _Untraceable("verify nesting too deep")
        from .runtime import ENDMARK

        nums = chain.nums
        dstream = chain.data
        sstream = chain.succ
        pool_vals = chain.pool.values
        while True:
            num = nums[i]
            if num >= 0:
                self._splice_action(num, pool_vals[dstream[i]], indent)
                replayed += 1
                i += 1
                continue
            if num == ENDMARK:
                self._emit_end(
                    chain.ends[sstream[i]], indent, steps, replayed, chain_left
                )
                return
            vname = self._splice_verify(~num, pool_vals[dstream[i]], indent)
            replayed += 1
            exit_values = ", ".join(consumed + [vname])
            side_exit = (
                f"return ({TRACE_SIDE_EXIT}, {steps}, {replayed}, "
                f"{self.const(entry)}, ({exit_values},))"
            )
            s = sstream[i]
            if s >= 0:
                # Single recorded successor: the expected value sits in
                # the pool; match falls through to the next slot.
                wname = self.value_ref(pool_vals[s])
                self.line(indent, f"if {vname} != {wname}:")
                self.line(indent + 1, side_exit)
                consumed = consumed + [wname]
                i += 1
                continue
            table = chain.tables[~s]
            for k, (value, j) in enumerate(table.items()):
                wname = self.value_ref(value)
                kw = "if" if k == 0 else "elif"
                self.line(indent, f"{kw} {vname} == {wname}:")
                self.emit_packed(
                    chain, j, entry, indent + 1, steps, replayed,
                    consumed + [wname], chain_left,
                )
            self.line(indent, "else:")
            self.line(indent + 1, side_exit)
            return

    def _emit_end(
        self, end, indent: int, steps: int, replayed: int, chain_left: int
    ) -> None:
        """A step boundary: stop the trace or chain into the next entry."""
        done = steps + 1
        complete = (
            f"return ({TRACE_COMPLETE}, {done}, {replayed}, {self.const(end)})"
        )
        nxt = self._continuation(end, chain_left)
        if nxt is None:
            self.line(indent, complete)
            return
        raw, nxt_entry = nxt
        self.line(indent, f"if _ctx.halted or _budget <= {done}:")
        self.line(indent + 1, complete)
        self.line(indent, f"if _S[{self.init_slot}] is not {self.const(raw)}:")
        self.line(indent + 1, complete)
        self.emit_entry(nxt_entry, indent, done, replayed, chain_left - 1)

    def _continuation(self, end, chain_left: int):
        """Decide whether this end record's likely-next link is worth
        (and safe to) splice into the trace."""
        if chain_left <= 0:
            return None
        # The compiled continuation re-guards the key by object
        # identity, which is only sound when the init slot holds frozen
        # values (same reasoning as the engine's likely-next fast path).
        if not self.compiled.init_flushed:
            return None
        cached = end.likely_next
        if cached is None:
            return None
        raw, entry = cached
        if not entry.complete or entry.generation != self.generation:
            return None
        shape = _tree_shape(entry)
        if shape is None:
            return None
        n, depth = shape
        if self.records_emitted + n > self.max_records or depth > self.max_depth:
            return None
        return raw, entry


# ---------------------------------------------------------------------------
# Trace compilation
# ---------------------------------------------------------------------------


def compile_trace(
    entry,
    compiled,
    generation: int,
    max_chain: int = 4,
    max_records: int = 4000,
    max_depth: int = 24,
) -> Trace | None:
    """Compile the action chain rooted at ``entry`` into one function.

    Returns None when the chain is not worth (or not safe to) compile:
    unfinished trees, pathological verify nesting, or record counts past
    the emission budget.
    """
    if not entry.complete:
        return None
    shape = _tree_shape(entry)
    if shape is None:
        return None
    n, depth = shape
    if n > max_records or depth > max_depth:
        return None

    em = _TraceEmitter(
        compiled,
        generation,
        compiled.init_slot,
        max_chain=max_chain,
        max_records=max_records,
        max_depth=max_depth,
    )
    try:
        em.emit_entry(entry, indent=1, steps=0, replayed=0, chain_left=max_chain)
    except _Untraceable:
        return None

    header = "def _trace(_ctx, _S, _budget, _D=_DATA):"
    prologue = []
    if em.consts:
        names = ", ".join(f"_d{i}" for i in range(len(em.consts)))
        trailer = "," if len(em.consts) == 1 else ""
        prologue.append(f"    ({names}{trailer}) = _D")
    source = "\n".join([header] + prologue + em.lines) + "\n"

    namespace = dict(compiled.namespace)
    namespace["_DATA"] = tuple(em.consts)
    try:
        exec(compile(source, f"<trace:{compiled.name}>", "exec"), namespace)
    except (SyntaxError, ValueError, RecursionError):
        return None
    return Trace(
        fn=namespace["_trace"],
        generation=generation,
        root=entry,
        entries=em.entries,
        source=source,
        n_constants=len(em.consts),
    )


# ---------------------------------------------------------------------------
# The manager: promotion policy, registry, invalidation
# ---------------------------------------------------------------------------


class TraceManager:
    """Owns every compiled trace of one engine.

    Promotion: the driver bumps ``entry.hot`` per interpreted replay and
    calls :meth:`promote` once it crosses ``threshold``.  Entries whose
    chains cannot be compiled are pinned to :data:`NO_TRACE` so the
    attempt is not repeated.

    Invalidation: :meth:`invalidate_for` kills every trace covering an
    entry (called by the engine on each miss recovery, because recovery
    appends a new verify successor); :meth:`on_cache_clear` drops all of
    them (the entries themselves are gone).

    Compile budget: a trace compile costs roughly a few hundred
    interpreted replay steps, so on workloads with diverse control flow
    (many moderately-hot entries, short runs) eager promotion can spend
    more time in ``compile()`` than replay ever gets back.  Promotion is
    therefore rationed against execution volume: the *n*-th compile is
    allowed only once ``n * compile_step_budget`` total steps have run.
    Entries refused for budget keep their heat and retry shortly after.
    """

    def __init__(
        self,
        compiled,
        cache,
        threshold: int = 64,
        max_chain: int = 4,
        max_records: int = 4000,
        max_traces: int = 512,
        compile_step_budget: int = 800,
    ):
        self.compiled = compiled
        self.cache = cache
        self.threshold = threshold
        self.max_chain = max_chain
        self.max_records = max_records
        self.max_traces = max_traces
        self.compile_step_budget = compile_step_budget
        self.traces: list[Trace] = []
        # id(covered entry) -> traces whose chain includes that entry.
        self._covering: dict[int, list[Trace]] = {}
        # id(root entry) -> times a trace rooted there was killed; used
        # for exponential re-promotion back-off.
        self._kill_counts: dict[int, int] = {}
        self.stats = TraceJITStats()

    # -- promotion ----------------------------------------------------------

    def promote(self, entry, steps_done: int | None = None) -> Trace | None:
        if self.stats.traces_compiled >= self.max_traces:
            entry.trace = NO_TRACE
            return None
        if (
            steps_done is not None
            and (self.stats.traces_compiled + 1) * self.compile_step_budget
            > steps_done
        ):
            # Not enough execution volume yet to pay for another
            # compile.  Keep most of the heat so the entry retries soon.
            entry.hot = self.threshold // 2
            return None
        trace = compile_trace(
            entry,
            self.compiled,
            self.cache.generation,
            max_chain=self.max_chain,
            max_records=self.max_records,
        )
        if trace is None:
            entry.trace = NO_TRACE
            self.stats.compile_failures += 1
            return None
        entry.trace = trace
        self.traces.append(trace)
        self.stats.traces_compiled += 1
        self.stats.entries_covered += len(trace.entries)
        for e in trace.entries:
            self._covering.setdefault(id(e), []).append(trace)
        return trace

    # -- invalidation -------------------------------------------------------

    def invalidate_for(self, entry) -> int:
        """Kill every trace whose chain covers ``entry``; returns count."""
        traces = self._covering.get(id(entry))
        if not traces:
            return 0
        killed = 0
        for trace in list(traces):
            killed += self._kill(trace)
        return killed

    def _kill(self, trace: Trace) -> int:
        if trace.generation < 0:
            return 0
        trace.generation = -1
        if trace.root.trace is trace:
            trace.root.trace = None
            # Exponential back-off: a chain that keeps growing new
            # verify successors must re-earn promotion at double the
            # price each time, or recompilation churn eats the replay
            # speedup.
            kills = self._kill_counts.get(id(trace.root), 0) + 1
            self._kill_counts[id(trace.root)] = kills
            trace.root.hot = -self.threshold * ((1 << min(kills, 8)) - 2)
        for e in trace.entries:
            covering = self._covering.get(id(e))
            if covering is not None:
                try:
                    covering.remove(trace)
                except ValueError:
                    pass
                if not covering:
                    del self._covering[id(e)]
        self.stats.traces_invalidated += 1
        return 1

    def on_cache_clear(self) -> None:
        for trace in self.traces:
            if trace.generation >= 0:
                trace.generation = -1
                self.stats.traces_invalidated += 1
        self._covering.clear()
        # The entries (and their ids) die with the cache contents.
        self._kill_counts.clear()

    # -- reporting ----------------------------------------------------------

    def live_traces(self) -> list[Trace]:
        generation = self.cache.generation
        return [t for t in self.traces if t.generation == generation]

    def aggregate(self) -> dict:
        return self.stats.aggregate(self.traces)
