"""Drivers that run SPARC-lite programs on the Facile-generated
functional simulator (memoized or plain) and on the Python golden model.

These are the building blocks the benchmarks and tests share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..facile import CompilationResult, FastForwardEngine, PlainEngine, compile_source
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


def _prepare_context(sim, program: Program):
    ctx = sim.make_context()
    program.load_into(ctx.mem)
    ctx.write_global("init", (program.entry, program.entry + 4, 0))
    ctx.read_global("R")[14] = program.stack_top  # %sp
    return ctx


def run_facile_functional(
    program: Program,
    memoized: bool = True,
    max_steps: int = 1_000_000,
    cache_limit_bytes: int | None = None,
    trace_jit: bool = True,
    trace_threshold: int = 64,
    cache_dir=None,
    cache_load=None,
    cache_save=None,
    replay_backend: str = "python",
    profile: bool = False,
) -> FunctionalRun:
    """Run a program to completion on the Facile functional simulator."""
    compiled = compiled_functional_sim().simulator
    ctx = _prepare_context(compiled, program)
    warm = None
    if memoized:
        engine = FastForwardEngine(
            compiled, ctx, cache_limit_bytes=cache_limit_bytes,
            trace_jit=trace_jit, trace_threshold=trace_threshold,
            replay_backend=replay_backend,
        )
        if profile:
            engine.profile(True)
        from ..facile.snapshot import engine_fingerprint, warm_start

        warm = warm_start(
            engine, engine_fingerprint(compiled, program),
            cache_dir=cache_dir, cache_load=cache_load, cache_save=cache_save,
        )
    else:
        engine = PlainEngine(compiled, ctx)
    stats = engine.run(max_steps=max_steps)
    if warm is not None:
        warm.finish()
    return FunctionalRun(
        ctx=ctx,
        engine=engine,
        stats=stats,
        retired=ctx.retired_total,
        regs=list(ctx.read_global("R")),
        halted=ctx.halted,
    )


def run_golden(program: Program, max_steps: int = 1_000_000) -> FunctionalSim:
    """Run a program on the Python golden model."""
    sim = FunctionalSim.for_program(program)
    sim.run(max_steps)
    return sim
