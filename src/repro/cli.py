"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``compile FILE.fac``
    Compile a Facile simulator description; print the binding-time
    division summary and optionally the generated engines.

``asm FILE.s``
    Assemble SPARC-lite source; print a hex listing and symbols.

``run FILE.s``
    Assemble and simulate a SPARC-lite program on the golden model, the
    Facile functional simulator, or one of the pipeline models, and
    print the run's report.  Exits 1 when the program does not halt
    within the step budget (``--max-steps``).

``minic FILE.c``
    Compile a minic program (optionally print the generated assembly)
    and run it, showing the ``out()`` buffer.

``workloads``
    List or run the SPEC95-analogue workloads (exit status as ``run``).

``check FILE.fac ...``
    Run the static-analysis passes (batched diagnostics, BTA-soundness
    audit, pattern lints, cache-blowup prediction) over Facile sources
    and/or the built-in simulators.  Exits 0 when clean, 1 on
    diagnostics (warnings count with ``--werror``), 2 on unreadable
    input.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields

from .facile import compile_source
from .facile.run import DEFAULT_MAX_STEPS, REPLAY_BACKENDS, RunConfig
from .isa.assembler import assemble
from .isa.disasm import disassemble_program
from .isa.simulate import run_facile_functional, run_golden
from .ooo.facile_inorder import run_facile_inorder
from .ooo.facile_ooo import run_facile_ooo
from .ooo.fastsim import run_fastsim
from .ooo.inorder import run_inorder
from .ooo.reference import run_reference
from .workloads.minic import MinicCompiler, read_out_buffer
from .workloads.suite import WORKLOADS, build_cached


def _cmd_compile(args: argparse.Namespace) -> int:
    source = open(args.file).read()
    result = compile_source(
        source,
        name=args.file,
        flush_policy="live" if args.flush_live else "all",
        coalesce=not args.no_coalesce,
        fold=not args.no_fold,
    )
    sim = result.simulator
    summary = sim.division_summary
    print(f"compiled {args.file}")
    print(f"  actions:              {summary['n_actions']}")
    print(f"  dynamic result tests: {summary['n_verify_actions']}")
    print(f"  constant folds:       {result.n_constant_folds}")
    print(f"  dynamic variables:    {', '.join(summary['dynamic_vars']) or '(none)'}")
    print(f"  flushed globals:      {', '.join(summary['flush_globals']) or '(none)'}")
    if args.dump:
        text = {
            "slow": sim.source_slow,
            "fast": sim.source_fast,
            "plain": sim.source_plain,
        }[args.dump]
        print(f"\n--- generated {args.dump} engine ---")
        print(text)
    return 0


def _cmd_asm(args: argparse.Namespace) -> int:
    program = assemble(open(args.file).read())
    print(f"text: {len(program.text_words)} words at {program.text_base:#x}, "
          f"data: {len(program.data_bytes)} bytes at {program.data_base:#x}, "
          f"entry {program.entry:#x}")
    if args.listing:
        for i, word in enumerate(program.text_words):
            addr = program.text_base + 4 * i
            labels = [s for s, a in program.symbols.items() if a == addr]
            tag = f"  <{', '.join(labels)}>" if labels else ""
            print(f"  {addr:#010x}: {word:08x}{tag}")
    if args.disasm:
        print(disassemble_program(program))
    if args.symbols:
        for name, addr in sorted(program.symbols.items(), key=lambda kv: kv[1]):
            print(f"  {addr:#010x} {name}")
    return 0


#: Each simulator's runner, given the program, the run settings and
#: the ``--max-steps`` budget, which it passes under its own keyword.
_RUNNERS = {
    "golden": lambda p, s, n: run_golden(p, max_steps=n),
    "functional": lambda p, s, n: run_facile_functional(p, max_steps=n, settings=s),
    "inorder": lambda p, s, n: run_facile_inorder(p, max_steps=n, settings=s),
    "inorder-ref": lambda p, s, n: run_inorder(p, max_instructions=n),
    "ooo": lambda p, s, n: run_facile_ooo(p, max_steps=n, settings=s),
    "ooo-ref": lambda p, s, n: run_reference(p, max_cycles=n),
    "ooo-fastsim": lambda p, s, n: run_fastsim(p, max_cycles=n, settings=s),
}


def run_config(args: argparse.Namespace) -> RunConfig:
    """The run settings the ``run``/``workloads`` flags name: each flag
    stores into the :class:`RunConfig` field of its name."""
    flags = vars(args)
    return RunConfig(**{f.name: flags[f.name] for f in fields(RunConfig)
                        if f.name in flags})


def _simulate(program, args: argparse.Namespace) -> int:
    """Run ``program`` on the chosen simulator and print its report;
    exit status 1 when it did not halt within its budget."""
    settings = run_config(args)
    start = time.perf_counter()
    result = _RUNNERS[args.sim](program, settings, args.max_steps)
    elapsed = time.perf_counter() - start
    report = result.report
    print("\n".join(report.lines(elapsed)))
    return 0 if report.halted else 1


def _cmd_run(args: argparse.Namespace) -> int:
    return _simulate(assemble(open(args.file).read()), args)


def _cmd_minic(args: argparse.Namespace) -> int:
    compiler = MinicCompiler(open(args.file).read())
    if args.emit_asm:
        print(compiler.assembly())
        return 0
    program = compiler.compile()
    sim = run_golden(program, max_steps=args.max_steps)
    if not sim.halted:
        print("program did not halt within the step budget", file=sys.stderr)
        return 1
    print(f"retired {sim.instret:,} instructions")
    values = read_out_buffer(sim.mem)
    if values:
        print("out():", ", ".join(str(v) for v in values))
    return 0


_BUILTIN_SIMS = ("functional", "inorder", "ooo")


def _builtin_sim_source(name: str) -> str:
    if name == "functional":
        from .isa.facile_src import functional_sim_source

        return functional_sim_source()
    if name == "inorder":
        from .ooo.facile_inorder import inorder_sim_source

        return inorder_sim_source()
    from .ooo.facile_ooo import ooo_sim_source

    return ooo_sim_source()


def _cmd_check(args: argparse.Namespace) -> int:
    from .facile.analysis import check_file, check_model_file, run_check

    only = set(args.only) if args.only else None
    reports = []
    for name in _BUILTIN_SIMS if args.builtin == "all" else (
        [args.builtin] if args.builtin else []
    ):
        reports.append(
            run_check(_builtin_sim_source(name), f"<builtin:{name}>", only=only)
        )
    for path in args.files:
        # .py arguments are uarch model modules: protocol audit only.
        if path.endswith(".py"):
            reports.append(check_model_file(path))
        else:
            reports.append(check_file(path, only=only))
    if not reports:
        print("check: no inputs (pass files or --builtin)", file=sys.stderr)
        return 2

    if args.format == "json":
        import json

        print(json.dumps(
            {"version": 1, "files": [r.to_json() for r in reports]}, indent=2
        ))
    else:
        for report in reports:
            print(report.render_text())
    return max(r.exit_code(werror=args.werror) for r in reports)


def _cmd_workloads(args: argparse.Namespace) -> int:
    if args.name is None:
        print(f"{'name':<10} {'class':<5} description")
        for w in WORKLOADS.values():
            print(f"{w.name:<10} {w.category:<5} {w.description}")
        return 0
    return _simulate(build_cached(args.name, args.scale), args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Facile (PLDI 2001) reproduction: compile and run "
        "fast-forwarding processor simulators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a Facile description")
    p.add_argument("file")
    p.add_argument("--dump", choices=["slow", "fast", "plain"], help="print a generated engine")
    p.add_argument("--no-coalesce", action="store_true", help="one action per dynamic statement")
    p.add_argument("--no-fold", action="store_true", help="disable constant folding")
    p.add_argument("--flush-live", action="store_true", help="elide dead global flushes")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("asm", help="assemble SPARC-lite source")
    p.add_argument("file")
    p.add_argument("--listing", action="store_true", help="print a hex listing")
    p.add_argument("--symbols", action="store_true", help="print the symbol table")
    p.add_argument("--disasm", action="store_true", help="print a disassembly listing")
    p.set_defaults(func=_cmd_asm)

    p = sub.add_parser("run", help="assemble and simulate a SPARC-lite program")
    p.add_argument("file")
    p.add_argument("--sim", choices=sorted(_RUNNERS), default="golden")
    _add_budget_flag(p)
    _add_run_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("minic", help="compile and run a minic program")
    p.add_argument("file")
    p.add_argument("--emit-asm", action="store_true", help="print generated assembly")
    _add_budget_flag(p)
    p.set_defaults(func=_cmd_minic)

    p = sub.add_parser("check", help="run static analysis over Facile sources")
    p.add_argument(
        "files", nargs="*",
        help="Facile sources to check (.py files are audited as uarch "
        "model modules against the native-dispatch protocol)",
    )
    p.add_argument(
        "--builtin", choices=[*_BUILTIN_SIMS, "all"],
        help="also check a built-in simulator description",
    )
    p.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default text)",
    )
    p.add_argument(
        "--werror", action="store_true",
        help="treat warnings as errors (exit 1 when any warning fires)",
    )
    p.add_argument(
        "--only", action="append", metavar="PASS",
        help="run only the named analysis pass (repeatable)",
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("workloads", help="list or run the SPEC95-analogue suite")
    p.add_argument("name", nargs="?", help="workload to run (omit to list)")
    p.add_argument("--scale", type=int, default=None)
    p.add_argument("--sim", choices=sorted(_RUNNERS), default="ooo")
    _add_budget_flag(p)
    _add_run_flags(p)
    p.set_defaults(func=_cmd_workloads)
    return parser


def _add_budget_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-steps", type=int, default=DEFAULT_MAX_STEPS, metavar="N",
        help="stop a run that has not halted after N steps (cycles for "
        "the out-of-order models, instructions for inorder-ref; "
        f"default: {DEFAULT_MAX_STEPS:,})",
    )


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The :class:`RunConfig` flags, with its defaults."""
    p.add_argument(
        "--plain", dest="memoized", action="store_false",
        default=RunConfig.memoized, help="disable memoization",
    )
    p.add_argument(
        "--cache-limit", dest="cache_limit_bytes", type=int,
        default=RunConfig.cache_limit_bytes, metavar="BYTES",
        help="action-cache byte budget; the whole cache is cleared when "
        "it is exceeded (paper §6.2; default: unlimited, the paper uses "
        "256 MB)",
    )
    p.add_argument(
        "--cache-dir", default=RunConfig.cache_dir, metavar="DIR",
        help="content-addressed snapshot store: load a warm action "
        "cache for this (simulator × workload) pair if present, and "
        "save the cache back after the run",
    )
    p.add_argument(
        "--cache-load", default=RunConfig.cache_load, metavar="FILE",
        help="load the action cache from a specific snapshot file "
        "(overrides the --cache-dir load path)",
    )
    p.add_argument(
        "--cache-save", default=RunConfig.cache_save, metavar="FILE",
        help="save the action cache to a specific snapshot file after "
        "the run (overrides the --cache-dir save path)",
    )
    p.add_argument(
        "--replay-backend", choices=REPLAY_BACKENDS,
        default=RunConfig.replay_backend,
        help="packed-chain replay backend: the Python loop (default) or "
        "a C kernel compiled once per process, degrading to Python "
        "when no C compiler is available",
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output was piped into something like `head`; not an error.
        return 0
