"""The out-of-order simulator written in Facile (the paper's §6.2 artifact).

This is the reproduction's analogue of the paper's 1,959-line Facile
out-of-order simulator: the same micro-architecture model as
:mod:`repro.ooo.reference` (32-entry window, register renaming via
last-writer tracking, branch prediction, speculative fetch past
predicted branches, non-blocking data caches) expressed as a Facile
step function and compiled by this repo's Facile compiler into a
fast-forwarding simulator.

Division of labour, exactly as in the paper:

* the **pipeline model** (window bookkeeping, retire/issue/fetch) is
  Facile code — run-time static, skipped wholesale during replay;
* **functional instruction semantics** come from the shared SPARC-lite
  ``sem`` declarations — dynamic actions replayed by the fast engine;
* the **cache simulator and branch predictor are externs** ("the branch
  predictor and cache simulator are not memoized", §6.2); their results
  enter the pipeline through ``?verify`` dynamic result tests, so a
  replay remains valid only while the cache latency and prediction
  outcomes repeat — the paper's §2.2 example behaviour.

The step function simulates one processor cycle; its run-time static
key is the compressed pipeline state: the instruction queue (parallel
arrays), last-writer table, fetch sequencing state, stall counter, and
fetch-halt flag.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

from ..facile import CompilationResult, compile_source
from ..facile.run import DEFAULT_MAX_STEPS, RunConfig, RunReport
from ..facile.snapshot import engine_fingerprint
from ..isa.facile_src import isa_declarations
from ..isa.program import Program
from . import common as C
from ..isa import sparclite as S


def ooo_main_source(config: C.MachineConfig | None = None) -> str:
    """Generate the Facile `main` for the OOO model with the given
    machine configuration baked in as constants."""
    cfg = config or C.MachineConfig()
    return f"""
extern xcache(2);
extern xbpred(2);
extern xbind(3);
extern xbcall(1);

val init;

fun main(iq_cls, iq_state, iq_rem, iq_dep1, iq_dep2, iq_pc,
         lw, fpc, fnpc, fannul, stall, fhalt) {{
  stat_cycle(1);

  // Top-level defaults make every tracking global definitely assigned
  // on all paths, so binding-time analysis can keep them run-time
  // static (they are re-assigned before each ?exec below).
  PC = 0; NPC2 = 0; ANNUL2 = 0;
  IS_BR = 0; BR_TAKEN = 0;
  IS_MEM = 0; IS_STORE = 0;
  IS_HALT = 0; IS_RET = 0;
  CLS_G = 0; DEST = 33; SRC1 = 33; SRC2 = 33; SRC3 = 33; SETSCC_G = 0;

  // ---- phase 2: retire (up to retire_width oldest DONE entries) ----
  val n = iq_cls?size();
  val k = 0;
  while (k < {cfg.retire_width} && k < n && iq_state[k] == 2) {{
    k = k + 1;
  }}
  if (k > 0) {{
    stat_retire(k);
    val j = 0;
    while (j + k < n) {{
      iq_cls[j] = iq_cls[j + k];
      iq_state[j] = iq_state[j + k];
      iq_rem[j] = iq_rem[j + k];
      iq_dep1[j] = iq_dep1[j + k];
      iq_dep2[j] = iq_dep2[j + k];
      iq_pc[j] = iq_pc[j + k];
      j = j + 1;
    }}
    j = 0;
    while (j < k) {{
      iq_cls?pop_back(); iq_state?pop_back(); iq_rem?pop_back();
      iq_dep1?pop_back(); iq_dep2?pop_back(); iq_pc?pop_back();
      j = j + 1;
    }}
    n = n - k;
    j = 0;
    while (j < n) {{
      if (iq_dep1[j] >= k) iq_dep1[j] = iq_dep1[j] - k; else iq_dep1[j] = 0 - 1;
      if (iq_dep2[j] >= k) iq_dep2[j] = iq_dep2[j] - k; else iq_dep2[j] = 0 - 1;
      j = j + 1;
    }}
    j = 0;
    while (j < 33) {{
      if (lw[j] >= k) lw[j] = lw[j] - k; else lw[j] = 0 - 1;
      j = j + 1;
    }}
  }}

  // ---- phase 3: execute (latency countdown) ----
  val j2 = 0;
  while (j2 < n) {{
    if (iq_state[j2] == 1) {{
      iq_rem[j2] = iq_rem[j2] - 1;
      if (iq_rem[j2] <= 0) iq_state[j2] = 2;
    }}
    j2 = j2 + 1;
  }}

  // ---- phase 4: issue (oldest first, FU groups, global width) ----
  val issued = 0;
  val fu_alu = 0;
  val fu_md = 0;
  val fu_mem = 0;
  val fu_br = 0;
  val j3 = 0;
  while (j3 < n) {{
    if (issued < {cfg.issue_width} && iq_state[j3] == 0) {{
      val ok = 1;
      val d1 = iq_dep1[j3];
      if (d1 >= 0) {{ if (iq_state[d1] != 2) ok = 0; }}
      val d2 = iq_dep2[j3];
      if (d2 >= 0) {{ if (iq_state[d2] != 2) ok = 0; }}
      if (ok) {{
        val cls = iq_cls[j3];
        val go = 0;
        switch (cls) {{
          case {S.CLS_MUL}, {S.CLS_DIV}:
            if (fu_md < {C.FU_CAPACITY["muldiv"]}) {{ fu_md = fu_md + 1; go = 1; }}
          case {S.CLS_LOAD}, {S.CLS_STORE}:
            if (fu_mem < {C.FU_CAPACITY["mem"]}) {{ fu_mem = fu_mem + 1; go = 1; }}
          case {S.CLS_BRANCH}, {S.CLS_CALL}, {S.CLS_JMPL}:
            if (fu_br < {C.FU_CAPACITY["br"]}) {{ fu_br = fu_br + 1; go = 1; }}
          default:
            if (fu_alu < {C.FU_CAPACITY["alu"]}) {{ fu_alu = fu_alu + 1; go = 1; }}
        }}
        if (go) {{
          iq_state[j3] = 1;
          issued = issued + 1;
        }}
      }}
    }}
    j3 = j3 + 1;
  }}

  // ---- phase 5: fetch + dispatch (functional-first) ----
  val fpc2 = fpc;
  val fnpc2 = fnpc;
  val fannul2 = fannul;
  val stall2 = stall;
  val fhalt2 = fhalt;
  if (stall2 > 0) {{
    stall2 = stall2 - 1;
  }} else {{
    if (!fhalt2) {{
      val fetched = 0;
      while (fetched < {cfg.fetch_width} && iq_cls?size() < {cfg.window_size}) {{
        fetched = fetched + 1;
        if (fannul2) {{
          // Annulled delay slot: fetched but squashed; sequencing only.
          fannul2 = 0;
          fpc2 = fnpc2;
          fnpc2 = fnpc2 + 4;
          continue;
        }}
        // Functional execution of the instruction at fpc2 (paper
        // footnote 2: functional behaviour first, then timing).
        PC = fpc2;
        NPC2 = fnpc2 + 4;
        ANNUL2 = 0;
        IS_BR = 0; BR_TAKEN = 0;
        IS_MEM = 0; IS_STORE = 0;
        IS_HALT = 0; IS_RET = 0;
        CLS_G = 0; DEST = 33; SRC1 = 33; SRC2 = 33; SRC3 = 33; SETSCC_G = 0;
        PC?exec();

        // Rename: producers of this instruction's sources (two newest).
        val dep1n = 0 - 1;
        val dep2n = 0 - 1;
        if (SRC1 != 33) {{
          val p1 = lw[SRC1];
          if (p1 > dep1n) dep1n = p1;
        }}
        if (SRC2 != 33) {{
          val p2 = lw[SRC2];
          if (p2 > dep1n) {{ dep2n = dep1n; dep1n = p2; }}
          else {{ if (p2 != dep1n && p2 > dep2n) dep2n = p2; }}
        }}
        if (SRC3 != 33) {{
          val p3 = lw[SRC3];
          if (p3 > dep1n) {{ dep2n = dep1n; dep1n = p3; }}
          else {{ if (p3 != dep1n && p3 > dep2n) dep2n = p3; }}
        }}

        // Latency and front-end events.
        val lat = {cfg.lat_ialu};
        switch (CLS_G) {{
          case {S.CLS_MUL}: lat = {cfg.lat_mul};
          case {S.CLS_DIV}: lat = {cfg.lat_div};
        }}
        val endgrp = 0;
        if (IS_MEM) {{
          lat = xcache(MEM_ADDR, IS_STORE)?verify;
          if (IS_STORE) stat_count(1, 1); else stat_count(0, 1);
        }}
        if (CLS_G == {S.CLS_BRANCH}) {{
          stat_count(2, 1);
          val corr = xbpred(fpc2, BR_TAKEN)?verify;
          if (!corr) {{
            stat_count(3, 1);
            stall2 = {cfg.mispredict_penalty};
            endgrp = 1;
          }}
        }}
        if (CLS_G == {S.CLS_CALL}) {{
          xbcall(fpc2 + 8);
        }}
        if (CLS_G == {S.CLS_JMPL}) {{
          stat_count(2, 1);
          val corr2 = xbind(fpc2, NPC2, IS_RET)?verify;
          if (!corr2) {{
            stat_count(3, 1);
            stall2 = {cfg.mispredict_penalty};
            endgrp = 1;
          }}
        }}
        if (IS_BR && BR_TAKEN) endgrp = 1;

        // Dispatch into the window.
        iq_cls?push_back(CLS_G);
        iq_state?push_back(0);
        iq_rem?push_back(lat);
        iq_dep1?push_back(dep1n);
        iq_dep2?push_back(dep2n);
        iq_pc?push_back(fpc2);
        val idx = iq_cls?size() - 1;
        if (DEST != 33) lw[DEST] = idx;
        if (SETSCC_G) lw[32] = idx;

        // Advance functional sequencing (delay-slot pair).
        fpc2 = fnpc2;
        fnpc2 = NPC2;
        fannul2 = ANNUL2;

        if (IS_HALT) {{
          fhalt2 = 1;
          break;
        }}
        if (endgrp) break;
      }}
    }}
  }}

  if (fhalt2 && iq_cls?size() == 0) halt();
  init = (iq_cls, iq_state, iq_rem, iq_dep1, iq_dep2, iq_pc,
          lw, fpc2, fnpc2, fannul2, stall2, fhalt2);
}}
"""


def ooo_sim_source(config: C.MachineConfig | None = None) -> str:
    """Full Facile source: ISA declarations + the OOO step function."""
    return isa_declarations(halt_builtin=False) + ooo_main_source(config)


@lru_cache(maxsize=8)
def _compiled_for(config_key: tuple) -> CompilationResult:
    config = C.MachineConfig(*config_key[:9])
    flush_policy = config_key[9]
    coalesce = config_key[10]
    return compile_source(
        ooo_sim_source(config),
        name="sparclite-ooo",
        flush_policy=flush_policy,
        coalesce=coalesce,
    )


def compiled_ooo_sim(
    config: C.MachineConfig | None = None,
    flush_policy: str = "live",
    coalesce: bool = True,
) -> CompilationResult:
    """Compile (and cache) the Facile OOO simulator for a configuration.

    The default enables the flush-liveness optimization (§6.3 item 3):
    the tracking globals are dead across step boundaries, so flushing
    them would only bloat the action cache.  ``flush_policy="all"`` is
    the unoptimized compiler, used by the ablation benchmark.
    """
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
        flush_policy,
        coalesce,
    )
    return _compiled_for(key)


@dataclass
class FacileOooRun:
    ctx: object
    engine: object
    run_stats: object
    stats: C.OooStats
    retired_fast: int
    halted: bool

    @property
    def fast_fraction(self) -> float:
        return self.retired_fast / self.stats.retired if self.stats.retired else 0.0

    @cached_property
    def report(self) -> RunReport:
        return replace(self.engine.report, stats=self.stats)


class FacileOooSim:
    """Driver wiring the compiled Facile OOO simulator to a program and
    the external cache/predictor substrates."""

    def __init__(
        self,
        program: Program,
        config: C.MachineConfig | None = None,
        flush_policy: str = "live",
        coalesce: bool = True,
        settings: RunConfig | None = None,
        **fields,
    ):
        self.settings = RunConfig.of(settings, **fields)
        self.config = config or C.MachineConfig()
        self.program = program
        result = compiled_ooo_sim(self.config, flush_policy=flush_policy, coalesce=coalesce)
        self.compiled = result.simulator
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
        self.ctx.write_global("init", self._initial_key())
        self.engine = self.settings.engine(self.compiled, self.ctx)

    def _initial_key(self) -> tuple:
        lw = tuple([-1] * 33)
        return ((), (), (), (), (), (), lw,
                self.program.entry, self.program.entry + 4, 0, 0, 0)

    def _externs(self) -> dict:
        def xcache(addr, is_store):
            return self.dcache.access(addr, self.ctx.cycles, bool(is_store))

        def xbpred(pc, taken):
            return 1 if self.predictor.resolve_branch(pc, bool(taken)) else 0

        def xbind(pc, target, is_ret):
            return 1 if self.predictor.resolve_indirect(pc, target, bool(is_ret)) else 0

        def xbcall(return_addr):
            self.predictor.note_call(return_addr)
            return 0

        return {"xcache": xcache, "xbpred": xbpred, "xbind": xbind, "xbcall": xbcall}

    def run(self, max_steps: int = DEFAULT_MAX_STEPS) -> FacileOooRun:
        run_stats = self.engine.run(max_steps=max_steps)
        ctx = self.ctx
        stats = C.OooStats.of_context(ctx)
        return FacileOooRun(
            ctx=ctx,
            engine=self.engine,
            run_stats=run_stats,
            stats=stats,
            retired_fast=ctx.retired_fast,
            halted=ctx.halted,
        )


def run_facile_ooo(
    program: Program,
    config: C.MachineConfig | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    flush_policy: str = "live",
    coalesce: bool = True,
    settings: RunConfig | None = None,
    **fields,
) -> FacileOooRun:
    sim = FacileOooSim(program, config, flush_policy, coalesce, settings,
                       **fields)
    return sim.settings.drive(
        sim.engine, lambda: engine_fingerprint(sim.compiled, program),
        lambda: sim.run(max_steps=max_steps),
    )
