"""Measurement harness shared by the benchmark suite.

Runs a workload on one of the five simulator configurations the paper's
evaluation compares and returns a :class:`Measurement` with wall-clock
time, simulated instruction/cycle counts, fast-forward statistics, and
memoized-data accounting — everything Figures 11/12 and Tables 1/2 need.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..facile.runtime import RunStats
from ..isa.program import Program
from ..ooo.facile_ooo import run_facile_ooo
from ..ooo.fastsim import run_fastsim
from ..ooo.reference import run_reference

#: Simulator configurations, named as the paper's figures use them.
SIMULATORS = (
    "simplescalar",  # conventional reference (Figures 11 & 12 baseline)
    "fastsim",  # hand-coded memoizing (Figure 11 "with memoization")
    "fastsim-nomemo",  # hand-coded, memoization disabled (Figure 11)
    "facile",  # compiled fast-forwarding simulator (Figure 12)
    "facile-nomemo",  # compiled, slow engine only (Figure 12)
)


@dataclass
class Measurement:
    workload: str
    simulator: str
    seconds: float
    retired: int
    cycles: int
    # Fast-forwarding statistics (a non-memoizing simulator takes every
    # step slow).
    retired_fast: int = 0
    steps_fast: int = 0
    steps_slow: int = 0
    steps_recovered: int = 0
    #: Cumulative bytes of memoized data recorded over the whole run —
    #: the paper's Table 2 metric.  Reported identically for the
    #: hand-coded and compiled simulators (both cumulative), so the
    #: table compares like with like; ``memo_bytes_current`` is the
    #: resident accounted size at run end for anyone who wants it.
    memo_bytes: int = 0
    memo_bytes_current: int = 0
    memo_clears: int = 0

    @property
    def kips(self) -> float:
        """Simulated instructions per host second (the paper's y-axis),
        in thousands."""
        return self.retired / self.seconds / 1000 if self.seconds else 0.0

    @property
    def fast_fraction(self) -> float:
        """Fraction of instructions simulated by the fast engine
        (Table 1's metric)."""
        return self.retired_fast / self.retired if self.retired else 0.0


def measure(
    simulator: str,
    program: Program,
    workload_name: str = "?",
    cache_limit_bytes: int | None = None,
    max_cycles: int = 200_000_000,
) -> Measurement:
    """Run `program` to completion on the named simulator configuration."""
    start = time.perf_counter()
    if simulator == "simplescalar":
        run = run_reference(program, max_cycles=max_cycles)
    elif simulator in ("fastsim", "fastsim-nomemo"):
        run = run_fastsim(program, max_cycles=max_cycles,
                          memoized=simulator == "fastsim",
                          cache_limit_bytes=cache_limit_bytes)
    elif simulator in ("facile", "facile-nomemo"):
        run = run_facile_ooo(program, max_steps=max_cycles,
                             memoized=simulator == "facile",
                             cache_limit_bytes=cache_limit_bytes)
    else:
        raise ValueError(f"unknown simulator {simulator!r}")
    elapsed = time.perf_counter() - start
    r = run.report
    steps = r.steps or RunStats()
    return Measurement(
        workload_name,
        simulator,
        elapsed,
        r.retired,
        r.stats.cycles,
        retired_fast=r.retired_fast,
        steps_fast=steps.steps_fast,
        steps_slow=steps.steps_slow,
        steps_recovered=steps.steps_recovered,
        memo_bytes=r.memo_bytes,
        memo_bytes_current=r.memo_bytes_current,
        memo_clears=r.clears,
    )


def harmonic_mean_coverage(values: list[float]) -> tuple[float, int, int]:
    """``(hmean, used, total)``: the harmonic mean over the positive
    values plus how many of the ``total`` cells actually entered it.
    Non-positive entries — failed or zero cells — cannot enter a
    harmonic mean, and silently dropping them would inflate the
    figure, so callers surface the "over K/N cells" coverage."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0, 0, len(values)
    return len(vals) / sum(1.0 / v for v in vals), len(vals), len(values)
