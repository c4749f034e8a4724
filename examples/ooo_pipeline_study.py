"""Out-of-order pipeline study: three simulators, one micro-architecture.

Runs a SPEC95-analogue workload (compiled from minic to SPARC-lite) on

* the conventional cycle-by-cycle simulator (SimpleScalar's role),
* the hand-coded memoizing simulator (FastSim's role), and
* the Facile-compiled fast-forwarding simulator (the paper's artifact),

verifies they are **cycle-exact** with each other, and reports the
speed relationship that Figures 11/12 plot.

Run:  python examples/ooo_pipeline_study.py [workload] [scale]
"""

import sys
import time

from repro.ooo.facile_ooo import run_facile_ooo
from repro.ooo.fastsim import run_fastsim
from repro.ooo.reference import run_reference
from repro.workloads.suite import WORKLOADS, build_cached


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "compress"
    scale = int(sys.argv[2]) if len(sys.argv) > 2 else None
    workload = WORKLOADS[name]
    print(f"Workload: {name} ({workload.description}), "
          f"scale {scale if scale is not None else workload.default_scale}")
    program = build_cached(name, scale)

    def timed(label, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        return out, time.perf_counter() - start

    ref, t_ref = timed("ref", run_reference, program)
    fast, t_fast = timed("fastsim", run_fastsim, program, memoized=True)
    fast_plain, t_fp = timed("fastsim-", run_fastsim, program, memoized=False)
    facile, t_fac = timed("facile", run_facile_ooo, program, memoized=True)
    facile_plain, t_fcp = timed("facile-", run_facile_ooo, program, memoized=False)

    def sig(stats):
        return (stats.cycles, stats.retired, stats.branches,
                stats.mispredicts, stats.loads, stats.stores)

    assert sig(ref.stats) == sig(fast.stats) == sig(facile.stats)
    assert sig(ref.stats) == sig(fast_plain.stats) == sig(facile_plain.stats)
    stats = ref.stats
    print(f"\nAll five runs are cycle-exact: {stats.cycles:,} cycles, "
          f"{stats.retired:,} instructions (IPC {stats.ipc:.2f})")
    print(f"  branches {stats.branches:,} ({stats.mispredicts:,} mispredicted), "
          f"loads {stats.loads:,}, stores {stats.stores:,}")

    retired = stats.retired
    rows = [
        ("conventional (SimpleScalar role)", t_ref),
        ("hand-coded memoizing (FastSim)", t_fast),
        ("hand-coded, memoization off", t_fp),
        ("Facile-compiled, fast-forwarding", t_fac),
        ("Facile-compiled, slow engine only", t_fcp),
    ]
    print(f"\n{'simulator':<36} {'time':>8} {'kips':>9} {'vs baseline':>12}")
    for label, seconds in rows:
        kips = retired / seconds / 1000
        print(f"{label:<36} {seconds:>7.2f}s {kips:>8.1f}k {t_ref / seconds:>11.2f}x")

    print(f"\nFast-forwarding detail (Facile simulator):")
    print(f"  cycles replayed fast: {facile.run_stats.steps_fast:,} "
          f"/ {facile.run_stats.steps_total:,}")
    print(f"  instructions fast-forwarded: {100 * facile.fast_fraction:.3f}% "
          f"(paper's Table 1 metric)")
    print(f"  action cache: "
          f"{facile.engine.cache.stats.bytes_cumulative / 1024:.0f} KB memoized "
          f"(paper's Table 2 metric)")
    print(f"  verify misses: {facile.engine.cache.stats.misses_verify}")


if __name__ == "__main__":
    main()
