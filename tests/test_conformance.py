"""The conformance matrix: every run configuration against one oracle.

A cell is one (workload, simulator, backend, cache, start) run:

* simulator: the three compiled Facile engines and FastSim;
* backend: ``python`` (the packed loop, the executable spec), ``c``
  (the kernel), and ``nocc``: ``c`` requested with the compiler masked
  (``FACILE_NO_CC=1``);
* cache: ``unlimited``, or ``limited``: cleared whenever it outgrows
  :data:`LIMIT` bytes;
* start: ``cold``, or ``warm`` from the snapshot the cold cell of the
  *other* backend saved (``nocc`` cells load the ``c`` cell's).

compress runs on every cell; go on the unlimited python and c cells.
Every cell must match the reference models on what the simulated
machine did, match the python cell of the same simulator, cache and
start on every statistic (:meth:`~tests.simrun.Run.spec`), and keep the
invariants its configuration promises.  The trace tier stays off: its
equality with the interpreter is ``test_tracecomp``'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.facile import cbackend
from repro.facile.run import DEFAULT_MAX_STEPS
from repro.isa.funcsim import FunctionalSim
from repro.ooo.inorder import run_inorder
from repro.ooo.reference import run_reference
from repro.workloads.suite import build_cached

from . import simrun

#: The byte limit of the ``limited`` cells: every simulator clears at
#: it, cold and warm, on compress at scale 1.
LIMIT = 48_000
#: Whose snapshot each backend's warm cell loads.
SNAPSHOT_OF = {"python": "c", "c": "python", "nocc": "c"}

CELLS = [
    ("compress", sim, backend, cache, start)
    for sim in simrun.SIMS
    for backend in ("python", "c", "nocc")
    for cache in ("unlimited", "limited")
    for start in ("cold", "warm")
] + [
    ("go", sim, backend, "unlimited", start)
    for sim in simrun.SIMS
    for backend in ("python", "c")
    for start in ("cold", "warm")
]


@dataclass(frozen=True)
class Outcome:
    """What the tests compare of one cell's run."""

    machine: dict
    spec: dict
    #: The first promise of the cell's configuration the run broke.
    broken: str | None


class Matrix:
    """The cells' outcomes, each run once, on first use (a warm cell
    runs the cold cell whose snapshot it loads first)."""

    def __init__(self, snapdir):
        self.snapdir = snapdir
        self.outcomes: dict[tuple, Outcome] = {}
        self.references: dict[tuple, dict] = {}

    def outcome(self, cell: tuple) -> Outcome:
        if cell not in self.outcomes:
            self.outcomes[cell] = self._run_cell(cell)
        return self.outcomes[cell]

    def _run_cell(self, cell: tuple) -> Outcome:
        workload, sim, backend, cache, start = cell
        fields = {"trace_jit": False,
                  "replay_backend": "python" if backend == "python" else "c"}
        if cache == "limited":
            fields["cache_limit_bytes"] = LIMIT
        if start == "cold":
            fields["cache_save"] = self._snapshot(cell)
        else:
            source = (workload, sim, SNAPSHOT_OF[backend], cache, "cold")
            self.outcome(source)
            fields["cache_load"] = self._snapshot(source)
        with pytest.MonkeyPatch.context() as mp:
            if backend == "nocc":
                mp.setenv("FACILE_NO_CC", "1")
                # The next load_kernel() builds under the mask; the
                # loaded kernel comes back when the context ends.
                mp.setattr(cbackend, "_KERNEL", None)
            r = simrun.run(sim, build_cached(workload, 1), **fields)
        try:
            keeps_promises(cell, r)
            broken = None
        except AssertionError as exc:
            broken = str(exc)
        return Outcome(r.machine(), r.spec(), broken)

    def _snapshot(self, cell: tuple) -> str:
        return str(self.snapdir / ("-".join(cell[:4]) + ".facsnap"))

    def reference(self, workload: str, sim: str) -> dict:
        """The reference models' view: the functional simulator against
        the ISA interpreter, inorder against the in-order pipeline
        model, ooo and FastSim against the out-of-order one."""
        kind = "ooo" if sim == "fastsim" else sim
        key = (workload, kind)
        if key not in self.references:
            self.references[key] = _reference(build_cached(workload, 1), kind)
        return self.references[key]


def _reference(program, kind: str) -> dict:
    if kind == "functional":
        f = FunctionalSim.for_program(program)
        f.run(DEFAULT_MAX_STEPS)
        return {"halted": f.halted, "retired": f.instret,
                "regs": list(f.regs)}
    if kind == "inorder":
        r = run_inorder(program)
        return {"halted": r.func.halted, "cycles": r.stats.cycles,
                "retired": r.stats.retired}
    r = run_reference(program)
    st = r.stats
    return {"halted": r.done, "cycles": st.cycles, "retired": st.retired,
            "branches": st.branches, "mispredicts": st.mispredicts,
            "loads": st.loads, "stores": st.stores}


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    return Matrix(tmp_path_factory.mktemp("conformance"))


def keeps_promises(cell: tuple, r: simrun.Run) -> None:
    """The invariants of the cell's configuration."""
    workload, sim, backend, cache, start = cell
    r.audit()
    holder = r.holder
    status = holder.backend_status
    if backend == "nocc" or (backend == "c" and sim == "fastsim"):
        # Degraded: FastSim has no C path, and a masked compiler none.
        assert status["active"] == "python" and status["reason"], status
        if backend == "nocc" and sim != "fastsim":
            assert "masked" in status["reason"]
    else:
        assert status["active"] == backend, status
    native = getattr(holder, "_cnative", None)
    if native is not None:
        assert native.runs > 0
        assert native.chains_unlowerable == 0
        if sim != "functional":
            # Every extern dispatches to its model inside the kernel.
            native_calls, python_calls = r.externs()
            assert python_calls == 0 < native_calls
    if start == "cold":
        assert holder.snapshot_save.hit
        # Verify misses recovered: the side-exit path ran.
        assert r.slow()[1] > 0
    else:
        load = holder.snapshot_load
        assert load.hit and load.entries > 0, load.reason
        if cache == "unlimited":
            # The snapshot held the whole warmed cache.
            assert r.slow() == (0, 0)
            assert r.cache_stats.bytes_shared > 0
    if cache == "limited":
        assert r.cache_stats.clears > 0


@simrun.requires_cc
@pytest.mark.parametrize("cell", CELLS, ids="-".join)
def test_cell(matrix, cell):
    workload, sim, backend, cache, start = cell
    out = matrix.outcome(cell)
    # The reference models.
    assert out.machine == matrix.reference(workload, sim)
    # The Python spec, on every statistic.
    if backend != "python":
        spec = matrix.outcome((workload, sim, "python", cache, start)).spec
        assert out.spec == spec
    assert out.broken is None, out.broken
