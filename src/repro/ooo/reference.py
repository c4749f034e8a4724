"""Conventional cycle-by-cycle out-of-order simulator (the baseline).

This plays the role SimpleScalar plays in the paper's Figures 11/12: a
widely used, conventional, **non-memoizing** detailed simulator of the
same micro-architecture.  It executes the model documented in
:mod:`repro.ooo.common` literally, one cycle at a time, with no
recording or replay machinery — every cycle pays full decode and
pipeline bookkeeping cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..facile.run import DEFAULT_MAX_STEPS, RunReport
from ..isa import sparclite as S
from ..isa.funcsim import FunctionalSim
from ..isa.program import Program
from . import common as C


@dataclass
class _Entry:
    cls: int
    state: int
    remaining: int
    dep1: int
    dep2: int
    pc: int


class ReferenceOooSim:
    """The conventional simulator.  Drive with :meth:`run`."""

    def __init__(self, program: Program, config: C.MachineConfig | None = None,
                 cache=None, predictor=None):
        self.config = config or C.MachineConfig()
        default_cache, default_pred = C.default_uarch(self.config)
        self.cache = cache if cache is not None else default_cache
        self.predictor = predictor if predictor is not None else default_pred
        self.func = FunctionalSim.for_program(program)
        self.window: list[_Entry] = []
        self.last_writer = [-1] * 33
        self.stall = 0
        self.fetch_halted = False
        self.stats = C.OooStats()

    @property
    def done(self) -> bool:
        return self.fetch_halted and not self.window

    # -- one cycle, phases exactly as specified in common.py ------------------

    def cycle(self) -> None:
        self.stats.cycles += 1
        self._retire()
        self._execute()
        self._issue()
        self._fetch()

    @property
    def report(self) -> RunReport:
        """The run, read off its counters."""
        return RunReport(retired=self.stats.retired, halted=self.done,
                         stats=self.stats)

    def run(self, max_cycles: int = DEFAULT_MAX_STEPS) -> C.OooStats:
        while not self.done and self.stats.cycles < max_cycles:
            self.cycle()
        return self.stats

    # -- phases --------------------------------------------------------------

    def _retire(self) -> None:
        k = 0
        while (
            k < self.config.retire_width
            and k < len(self.window)
            and self.window[k].state == C.ST_DONE
        ):
            k += 1
        if k == 0:
            return
        del self.window[:k]
        self.stats.retired += k
        for entry in self.window:
            entry.dep1 = entry.dep1 - k if entry.dep1 >= k else -1
            entry.dep2 = entry.dep2 - k if entry.dep2 >= k else -1
        for reg in range(33):
            w = self.last_writer[reg]
            if w >= 0:
                self.last_writer[reg] = w - k if w >= k else -1

    def _execute(self) -> None:
        for entry in self.window:
            if entry.state == C.ST_EXEC:
                entry.remaining -= 1
                if entry.remaining <= 0:
                    entry.state = C.ST_DONE

    def _issue(self) -> None:
        issued = 0
        fu_used = {group: 0 for group in C.FU_CAPACITY}
        for entry in self.window:
            if issued >= self.config.issue_width:
                break
            if entry.state != C.ST_WAIT:
                continue
            if not self._dep_ready(entry.dep1) or not self._dep_ready(entry.dep2):
                continue
            group = C.FU_GROUP[entry.cls]
            if fu_used[group] >= C.FU_CAPACITY[group]:
                continue
            fu_used[group] += 1
            issued += 1
            entry.state = C.ST_EXEC
            # remaining was pre-loaded at dispatch (cache latency for
            # memory ops, fixed latency otherwise).

    def _dep_ready(self, dep: int) -> bool:
        return dep < 0 or self.window[dep].state == C.ST_DONE

    def _fetch(self) -> None:
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
            info = self.func.step()
            fetched += 1
            if info.annulled_slot:
                continue  # fetched but squashed: no window entry
            d = info.decoded
            end_group = self._dispatch(info, d)
            if d.kind in ("halt", "illegal"):
                self.fetch_halted = True
                break
            if end_group:
                break

    def _dispatch(self, info, d: S.Decoded) -> bool:
        """Create the window entry; returns True if the fetch group ends."""
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
            latency = self.cache.access(info.mem_addr, self.stats.cycles, is_store)
            if is_store:
                self.stats.stores += 1
            else:
                self.stats.loads += 1
        elif d.kind == "branch":
            self.stats.branches += 1
            correct = self.predictor.resolve_branch(info.pc, info.taken)
            if not correct:
                self.stats.mispredicts += 1
                self.stall = self.config.mispredict_penalty
                end_group = True
        elif d.kind == "call":
            self.predictor.note_call(info.pc + 8)
        elif d.name == "jmpl":
            self.stats.branches += 1
            correct = self.predictor.resolve_indirect(
                info.pc, info.target, C.is_return(d)
            )
            if not correct:
                self.stats.mispredicts += 1
                self.stall = self.config.mispredict_penalty
                end_group = True
        if info.is_branch and info.taken:
            end_group = True

        index = len(self.window)
        self.window.append(
            _Entry(cls=d.cls, state=C.ST_WAIT, remaining=latency, dep1=dep1, dep2=dep2, pc=info.pc)
        )
        dest = C.dest_reg(d)
        if dest is not None:
            self.last_writer[dest] = index
        if C.sets_cc(d):
            self.last_writer[C.CC_REG] = index
        return end_group


def run_reference(program: Program, config: C.MachineConfig | None = None,
                  max_cycles: int = DEFAULT_MAX_STEPS) -> ReferenceOooSim:
    sim = ReferenceOooSim(program, config)
    sim.run(max_cycles)
    return sim
