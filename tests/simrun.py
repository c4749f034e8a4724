"""One simulator run, the way the tests compare runs.

The conformance matrix and every snapshot and backend test run a
simulator through :func:`run` and compare what the :class:`Run` reads
back: :meth:`Run.machine`, what the simulated machine did (the
reference models' view), and :meth:`Run.spec`, every statistic a
replay backend must reproduce from the Python spec."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

import pytest

from repro.facile.cbackend import load_kernel
from repro.isa.simulate import run_facile_functional
from repro.ooo.facile_inorder import run_facile_inorder
from repro.ooo.facile_ooo import run_facile_ooo
from repro.ooo.fastsim import run_fastsim

from .accounting import assert_billing, assert_memo_billing

KERNEL = load_kernel()
requires_cc = pytest.mark.skipif(
    not KERNEL.status.available,
    reason=f"C kernel unavailable: {KERNEL.status.reason}",
)

#: The memoizing simulators: three compiled Facile engines and the
#: hand-coded FastSim.
RUNNERS = {
    "functional": run_facile_functional,
    "inorder": run_facile_inorder,
    "ooo": run_facile_ooo,
    "fastsim": run_fastsim,
}
SIMS = tuple(RUNNERS)


def run(sim: str, program, **fields) -> Run:
    """Run ``program`` to completion on ``sim``; ``fields`` are
    :class:`~repro.facile.run.RunConfig` fields."""
    return Run(sim, RUNNERS[sim](program, **fields))


def uarch_digest(cache, predictor) -> dict:
    """Every predictor and cache-level statistic of one timing model."""
    return {
        "predictor": asdict(predictor.stats),
        "cache": {level: asdict(s) for level, s in cache.stats.items()},
    }


@dataclass(frozen=True)
class Run:
    sim: str
    #: What the runner returned (for FastSim, the simulator itself).
    result: Any

    @property
    def holder(self):
        """The engine, or the FastSim object: what holds the cache,
        the snapshot outcomes and ``backend_status``."""
        return self.result if self.sim == "fastsim" else self.result.engine

    @property
    def cache_stats(self):
        """``CacheStats``, or FastSim's ``MemoStats``."""
        h = self.holder
        return h.mstats if self.sim == "fastsim" else h.cache.stats

    def machine(self) -> dict:
        """What the simulated machine did, in the reference models'
        terms (the functional simulator keeps no cycle count)."""
        r = self.result
        if self.sim == "functional":
            return {"halted": r.halted, "retired": r.retired,
                    "regs": list(r.regs)}
        halted = r.func.halted if self.sim == "fastsim" else r.halted
        out = {"halted": halted, "cycles": r.stats.cycles,
               "retired": r.stats.retired}
        if self.sim != "inorder":
            st = r.stats
            out.update(branches=st.branches, mispredicts=st.mispredicts,
                       loads=st.loads, stores=st.stores)
        return out

    def timing(self) -> dict:
        """What the timing models saw: the timing simulator's own
        counts and every predictor and cache-level statistic of its
        models (nothing for the functional simulator)."""
        r = self.result
        if self.sim == "fastsim":
            return {"stats": asdict(r.stats),
                    "uarch": uarch_digest(r.cache, r.predictor)}
        models = getattr(self.holder.ctx, "extern_models", None)
        if not models:
            return {}
        return {"stats": asdict(r.stats),
                "uarch": uarch_digest(models["xcache"], models["xbpred"])}

    def spec(self) -> dict:
        """Every statistic a replay backend must reproduce exactly: the
        cache's and the run's (FastSim: its ``MemoStats``) and
        :meth:`timing`."""
        h = self.holder
        if self.sim == "fastsim":
            return {"memo": asdict(h.mstats), **self.timing()}
        return {"cache": asdict(h.cache.stats), "run": asdict(h.stats),
                **self.timing()}

    def slow(self) -> tuple[int, int]:
        """Steps (FastSim: cycles) run slow and recovered."""
        if self.sim == "fastsim":
            m = self.result.mstats
            return m.cycles_slow, m.cycles_recovered
        st = self.holder.stats
        return st.steps_slow, st.steps_recovered

    def externs(self) -> tuple[int, int]:
        """Extern calls the C kernel dispatched natively and through
        Python callbacks (none without a kernel)."""
        native = getattr(self.holder, "_cnative", None)
        counts = native.extern_counts().values() if native else ()
        return (sum(c["native"] for c in counts),
                sum(c["python"] for c in counts))

    def audit(self) -> None:
        """The byte-accounting audit of the run's cache."""
        if self.sim == "fastsim":
            assert_memo_billing(self.result)
        else:
            assert_billing(self.holder.cache)
