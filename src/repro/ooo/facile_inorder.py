"""The in-order pipeline simulator written in Facile.

This is the reproduction's analogue of the paper's 965-line "in-order
pipeline with reservation tables" (§6.2): the model defined in
:mod:`repro.ooo.inorder`, expressed as a Facile step function (one
instruction per step) and compiled into a fast-forwarding simulator.

The run-time static key is ``(pc, npc, annul, ready-table,
fu-reservations)``: the reservation tables are *relative* (cycles until
free), so pipeline states recur and the action cache gets the same
reuse the out-of-order key enjoys.  Cache latencies and branch
resolutions are dynamic result tests, exactly as in the OOO simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

from ..facile import CompilationResult, compile_source
from ..facile.run import RunConfig, RunReport
from ..facile.snapshot import engine_fingerprint
from ..isa import sparclite as S
from ..isa.facile_src import isa_declarations
from ..isa.program import Program
from . import common as C
from .inorder import HORIZON


def inorder_main_source(config: C.MachineConfig | None = None) -> str:
    cfg = config or C.MachineConfig()
    return f"""
extern xcache(3);
extern xbpred(2);
extern xbind(3);
extern xbcall(1);

val init;

fun age_fu(value, dt) {{
  val aged = value - dt;
  if (aged < 0) aged = 0;
  return aged;
}}

fun main(pc, npc, annul, rdy, fu_alu, fu_md, fu_mem, fu_br) {{
  PC = 0; NPC2 = 0; ANNUL2 = 0;
  IS_BR = 0; BR_TAKEN = 0;
  IS_MEM = 0; IS_STORE = 0;
  IS_HALT = 0; IS_RET = 0;
  CLS_G = 0; DEST = 33; SRC1 = 33; SRC2 = 33; SRC3 = 33; SETSCC_G = 0;

  if (annul) {{
    // Annulled delay slot: one fetch cycle, no reservations touched
    // beyond aging.
    stat_cycle(1);
    val j = 0;
    while (j < 33) {{
      rdy[j] = max(0, rdy[j] - 1);
      j = j + 1;
    }}
    init = (npc, npc + 4, 0, rdy,
            age_fu(fu_alu, 1), age_fu(fu_md, 1), age_fu(fu_mem, 1), age_fu(fu_br, 1));
  }} else {{
    PC = pc;
    NPC2 = npc + 4;
    PC?exec();
    stat_retire(1);

    // Issue cycle: wait for sources, then for the function unit.
    val wait = 1;
    if (SRC1 != 33) wait = max(wait, rdy[SRC1]);
    if (SRC2 != 33) wait = max(wait, rdy[SRC2]);
    if (SRC3 != 33) wait = max(wait, rdy[SRC3]);
    val grp = 0;  // 0=alu 1=muldiv 2=mem 3=br
    switch (CLS_G) {{
      case {S.CLS_MUL}, {S.CLS_DIV}: grp = 1;
      case {S.CLS_LOAD}, {S.CLS_STORE}: grp = 2;
      case {S.CLS_BRANCH}, {S.CLS_CALL}, {S.CLS_JMPL}: grp = 3;
    }}
    switch (grp) {{
      case 1: wait = max(wait, fu_md);
      case 2: wait = max(wait, fu_mem);
      case 3: wait = max(wait, fu_br);
      default: wait = max(wait, fu_alu);
    }}

    // Latency and front-end events.
    val lat = {cfg.lat_ialu};
    switch (CLS_G) {{
      case {S.CLS_MUL}: lat = {cfg.lat_mul};
      case {S.CLS_DIV}: lat = {cfg.lat_div};
    }}
    val pen = 0;
    if (IS_MEM) {{
      lat = xcache(MEM_ADDR, IS_STORE, wait)?verify;
      if (IS_STORE) stat_count(1, 1); else stat_count(0, 1);
    }}
    if (CLS_G == {S.CLS_BRANCH}) {{
      stat_count(2, 1);
      val corr = xbpred(pc, BR_TAKEN)?verify;
      if (!corr) {{ stat_count(3, 1); pen = {cfg.mispredict_penalty}; }}
    }}
    if (CLS_G == {S.CLS_CALL}) {{
      xbcall(pc + 8);
    }}
    if (CLS_G == {S.CLS_JMPL}) {{
      stat_count(2, 1);
      val corr2 = xbind(pc, NPC2, IS_RET)?verify;
      if (!corr2) {{ stat_count(3, 1); pen = {cfg.mispredict_penalty}; }}
    }}
    if (lat > {HORIZON}) lat = {HORIZON};

    // Advance to the issue cycle: age every reservation by `wait`.
    stat_cycle(wait);
    val j = 0;
    while (j < 33) {{
      rdy[j] = max(0, rdy[j] - wait);
      j = j + 1;
    }}
    val a2 = age_fu(fu_alu, wait);
    val m2 = age_fu(fu_md, wait);
    val e2 = age_fu(fu_mem, wait);
    val b2 = age_fu(fu_br, wait);

    // Reserve the destination and (for muldiv) the unit.
    if (DEST != 33) rdy[DEST] = lat;
    if (SETSCC_G) rdy[32] = lat;
    if (grp == 1) m2 = lat;

    // A mispredict stalls fetch while reservations keep aging.
    if (pen > 0) {{
      stat_cycle(pen);
      j = 0;
      while (j < 33) {{
        rdy[j] = max(0, rdy[j] - pen);
        j = j + 1;
      }}
      a2 = age_fu(a2, pen);
      m2 = age_fu(m2, pen);
      e2 = age_fu(e2, pen);
      b2 = age_fu(b2, pen);
    }}

    if (IS_HALT) halt();
    init = (npc, NPC2, ANNUL2, rdy, a2, m2, e2, b2);
  }}
}}
"""


def inorder_sim_source(config: C.MachineConfig | None = None) -> str:
    return isa_declarations(halt_builtin=False) + inorder_main_source(config)


@lru_cache(maxsize=4)
def _compiled(config_key: tuple) -> CompilationResult:
    config = C.MachineConfig(*config_key)
    return compile_source(
        inorder_sim_source(config), name="sparclite-inorder", flush_policy="live"
    )


def compiled_inorder_sim(config: C.MachineConfig | None = None) -> CompilationResult:
    cfg = config or C.MachineConfig()
    key = (
        cfg.window_size,
        cfg.fetch_width,
        cfg.issue_width,
        cfg.retire_width,
        cfg.mispredict_penalty,
        cfg.lat_ialu,
        cfg.lat_mul,
        cfg.lat_div,
        cfg.lat_branch,
    )
    return _compiled(key)


@dataclass
class InOrderRun:
    ctx: object
    engine: object
    run_stats: object
    stats: C.OooStats
    halted: bool

    @cached_property
    def report(self) -> RunReport:
        return replace(self.engine.report, stats=self.stats)


class FacileInOrderSim:
    def __init__(self, program: Program, config: C.MachineConfig | None = None,
                 settings: RunConfig | None = None, **fields):
        self.settings = RunConfig.of(settings, **fields)
        self.config = config or C.MachineConfig()
        self.program = program
        self.compiled = compiled_inorder_sim(self.config).simulator
        self.dcache, self.predictor = C.default_uarch(self.config)
        self.ctx = self.compiled.make_context(self._externs())
        # The models behind each extern, so the C replay backend can
        # lower recognised ones to in-kernel native dispatches.
        self.ctx.extern_models = {
            "xcache": self.dcache,
            "xbpred": self.predictor,
            "xbind": self.predictor,
            "xbcall": self.predictor,
        }
        program.load_into(self.ctx.mem)
        self.ctx.read_global("R")[14] = program.stack_top
        ready = tuple([0] * 33)
        self.ctx.write_global(
            "init", (program.entry, program.entry + 4, 0, ready, 0, 0, 0, 0)
        )
        self.engine = self.settings.engine(self.compiled, self.ctx)

    def _externs(self) -> dict:
        def xcache(addr, is_store, wait):
            # The reference model probes the cache at the issue cycle.
            return self.dcache.access(addr, self.ctx.cycles + wait, bool(is_store))

        def xbpred(pc, taken):
            return 1 if self.predictor.resolve_branch(pc, bool(taken)) else 0

        def xbind(pc, target, is_ret):
            return 1 if self.predictor.resolve_indirect(pc, target, bool(is_ret)) else 0

        def xbcall(return_addr):
            self.predictor.note_call(return_addr)
            return 0

        return {"xcache": xcache, "xbpred": xbpred, "xbind": xbind, "xbcall": xbcall}

    def run(self, max_steps: int = 50_000_000) -> InOrderRun:
        run_stats = self.engine.run(max_steps=max_steps)
        ctx = self.ctx
        stats = C.OooStats.of_context(ctx)
        return InOrderRun(ctx, self.engine, run_stats, stats, ctx.halted)


def run_facile_inorder(
    program: Program, config: C.MachineConfig | None = None,
    settings: RunConfig | None = None, **fields,
) -> InOrderRun:
    sim = FacileInOrderSim(program, config, settings, **fields)
    return sim.settings.drive(
        sim.engine, lambda: engine_fingerprint(sim.compiled, program), sim.run
    )
