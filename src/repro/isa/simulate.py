"""Drivers that run SPARC-lite programs on the Facile-generated
functional simulator (memoized or plain) and on the Python golden model.

These are the building blocks the benchmarks and tests share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from ..facile import CompilationResult, compile_source
from ..facile.run import DEFAULT_MAX_STEPS, RunConfig, RunReport
from ..facile.snapshot import engine_fingerprint
from .facile_src import functional_sim_source
from .funcsim import FunctionalSim
from .program import Program


@lru_cache(maxsize=None)
def compiled_functional_sim() -> CompilationResult:
    """Compile the Facile functional simulator once per process."""
    return compile_source(functional_sim_source(), name="sparclite-functional")


@dataclass
class FunctionalRun:
    ctx: object
    engine: object
    stats: object
    retired: int
    regs: list[int]
    halted: bool

    @cached_property
    def report(self) -> RunReport:
        return self.engine.report


def _prepare_context(sim, program: Program):
    ctx = sim.make_context()
    program.load_into(ctx.mem)
    ctx.write_global("init", (program.entry, program.entry + 4, 0))
    ctx.read_global("R")[14] = program.stack_top  # %sp
    return ctx


def run_facile_functional(
    program: Program,
    max_steps: int = DEFAULT_MAX_STEPS,
    settings: RunConfig | None = None,
    **fields,
) -> FunctionalRun:
    """Run a program to completion on the Facile functional simulator."""
    settings = RunConfig.of(settings, **fields)
    compiled = compiled_functional_sim().simulator
    ctx = _prepare_context(compiled, program)
    engine = settings.engine(compiled, ctx)
    stats = settings.drive(
        engine, lambda: engine_fingerprint(compiled, program),
        lambda: engine.run(max_steps=max_steps),
    )
    return FunctionalRun(
        ctx=ctx,
        engine=engine,
        stats=stats,
        retired=ctx.retired_total,
        regs=list(ctx.read_global("R")),
        halted=ctx.halted,
    )


def run_golden(program: Program,
               max_steps: int = DEFAULT_MAX_STEPS) -> FunctionalSim:
    """Run a program on the Python golden model."""
    sim = FunctionalSim.for_program(program)
    sim.run(max_steps)
    return sim
