"""Facile: a language and compiler for fast-forwarding processor simulators.

This package reproduces the PLDI 2001 paper's primary contribution.  The
public surface:

* :func:`compile_source` — compile Facile source into a two-engine
  fast-forwarding simulator;
* :class:`FastForwardEngine` — memoized driver (fast replay + slow
  recording with miss recovery);
* :class:`PlainEngine` — conventional, non-memoized driver;
* :class:`SimContext` — dynamic simulator state (slots, target memory,
  statistics, extern bindings);
* :class:`ActionCache` — the specialized action cache.
"""

from .analysis import CheckReport, check_file, run_check
from .compiler import CompilationResult, compile_source
from .diagnostics import Diagnostic, DiagnosticError, DiagnosticSink
from .inspect import (
    cache_summary,
    dump_entry,
    explain_check,
    explain_division,
    hot_actions,
    why_dynamic,
)
from .pprint import format_expr, format_program, format_stmt
from .runtime import (
    ActionCache,
    CompiledSimulator,
    FastForwardEngine,
    Memory,
    PlainEngine,
    SimContext,
    SimulationError,
)
from .snapshot import (
    SnapshotError,
    SnapshotInfo,
    engine_fingerprint,
    fastsim_fingerprint,
    program_fingerprint,
    simulator_fingerprint,
    store_path,
    warm_start,
)
from .source import FacileError, LexError, ParseError, SemanticError

__all__ = [
    "ActionCache",
    "CheckReport",
    "Diagnostic",
    "DiagnosticError",
    "DiagnosticSink",
    "cache_summary",
    "check_file",
    "dump_entry",
    "explain_check",
    "explain_division",
    "format_expr",
    "format_program",
    "format_stmt",
    "hot_actions",
    "CompilationResult",
    "CompiledSimulator",
    "FacileError",
    "FastForwardEngine",
    "LexError",
    "Memory",
    "ParseError",
    "PlainEngine",
    "SemanticError",
    "SimContext",
    "SimulationError",
    "SnapshotError",
    "SnapshotInfo",
    "compile_source",
    "engine_fingerprint",
    "fastsim_fingerprint",
    "program_fingerprint",
    "run_check",
    "simulator_fingerprint",
    "store_path",
    "warm_start",
    "why_dynamic",
]
