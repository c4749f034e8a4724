"""In-order scalar pipeline simulator (reference implementation).

The paper's §6.2 mentions a third Facile artifact besides the
functional and out-of-order simulators: "an in-order pipeline with
reservation tables required 965 lines of Facile".  This module defines
that machine model precisely; :mod:`repro.ooo.facile_inorder` is the
same model written in Facile, and the tests co-simulate the two.

Model: single-issue, in-order, with register/function-unit reservation
tables (classic scoreboarding):

* ``ready[r]`` — the future cycle at which register ``r``'s value (and
  index 32, the condition codes) becomes available;
* ``fu_free[g]`` — the cycle at which function-unit group ``g`` can
  accept another instruction (units are non-pipelined for muldiv,
  pipelined otherwise);
* an instruction issues at
  ``max(cycle + 1, ready[sources...], fu_free[group])``, completes
  ``latency`` cycles later, and reserves its destination until then;
* loads/stores get their latency from the external cache simulator at
  issue time; conditional branches resolve against the external
  predictor — a mispredict adds ``mispredict_penalty`` to the next
  instruction's earliest issue;
* annulled delay slots consume one fetch cycle but no resources.
"""

from __future__ import annotations

from ..facile.run import DEFAULT_MAX_STEPS, RunReport
from ..isa import sparclite as S
from ..isa.funcsim import FunctionalSim
from ..isa.program import Program
from . import common as C

#: Largest number of future cycles any reservation can extend; used to
#: bound the relative reservation tables so memo keys stay compact.
HORIZON = 64


class InOrderSim:
    """The in-order reference simulator."""

    def __init__(self, program: Program, config: C.MachineConfig | None = None,
                 cache=None, predictor=None):
        self.config = config or C.MachineConfig()
        default_cache, default_pred = C.default_uarch(self.config)
        self.cache = cache if cache is not None else default_cache
        self.predictor = predictor if predictor is not None else default_pred
        self.func = FunctionalSim.for_program(program)
        self.cycle = 0
        # Relative reservation tables: cycles-until-ready (0 = ready now).
        self.ready = [0] * 33
        self.fu_free = {group: 0 for group in C.FU_CAPACITY}
        self.stats = C.OooStats()

    def _advance(self, dt: int) -> None:
        """Move time forward `dt` cycles, aging the reservation tables."""
        if dt <= 0:
            return
        self.cycle += dt
        self.stats.cycles += dt
        self.ready = [max(0, r - dt) for r in self.ready]
        for group in self.fu_free:
            self.fu_free[group] = max(0, self.fu_free[group] - dt)

    def step(self) -> None:
        """Fetch, issue, and account one instruction."""
        info = self.func.step()
        if info.annulled_slot:
            self._advance(1)
            return
        d = info.decoded
        self.stats.retired += 1

        srcs = C.source_regs(d)
        group = C.FU_GROUP[d.cls]
        wait = 1
        for r in srcs:
            wait = max(wait, self.ready[r])
        wait = max(wait, self.fu_free[group])

        latency = C.fixed_latency(d.cls, self.config)
        penalty = 0
        if d.cls in (S.CLS_LOAD, S.CLS_STORE):
            is_store = d.cls == S.CLS_STORE
            latency = self.cache.access(info.mem_addr, self.cycle + wait, is_store)
            if is_store:
                self.stats.stores += 1
            else:
                self.stats.loads += 1
        elif d.kind == "branch":
            self.stats.branches += 1
            if not self.predictor.resolve_branch(info.pc, info.taken):
                self.stats.mispredicts += 1
                penalty = self.config.mispredict_penalty
        elif d.kind == "call":
            self.predictor.note_call(info.pc + 8)
        elif d.name == "jmpl":
            self.stats.branches += 1
            if not self.predictor.resolve_indirect(info.pc, info.target, C.is_return(d)):
                self.stats.mispredicts += 1
                penalty = self.config.mispredict_penalty

        # Advance to the issue cycle, then reserve results/units.
        self._advance(wait)
        latency = min(latency, HORIZON)
        dest = C.dest_reg(d)
        if dest is not None:
            self.ready[dest] = latency
        if C.sets_cc(d):
            self.ready[C.CC_REG] = latency
        if group == "muldiv":
            self.fu_free[group] = latency  # non-pipelined
        # Mispredict: stall the front end (reservations keep aging).
        if penalty:
            self._advance(penalty)

    @property
    def report(self) -> RunReport:
        """The run, read off its counters."""
        return RunReport(retired=self.stats.retired, halted=self.func.halted,
                         stats=self.stats)

    def run(self, max_instructions: int = DEFAULT_MAX_STEPS) -> C.OooStats:
        while not self.func.halted and self.stats.retired < max_instructions:
            self.step()
        return self.stats


def run_inorder(program: Program, config: C.MachineConfig | None = None,
                max_instructions: int = DEFAULT_MAX_STEPS) -> InOrderSim:
    sim = InOrderSim(program, config)
    sim.run(max_instructions)
    return sim
