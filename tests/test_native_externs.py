"""Native extern registry: model-level and simulator-level parity.

The Python classes in :mod:`repro.uarch` are the executable spec; the C
kernel's native models (:mod:`repro.facile.cbackend`) must be
indistinguishable from them.  Two layers of enforcement:

* **Hypothesis twins** — identical randomized predict/update/access
  sequences drive a Python-owned model and its native counterpart
  (via ``ffc_nx_call`` on zero-copy-bound state); per-call outcomes,
  every state array, and drained statistics must match exactly.
* **Golden simulations** — cold and warm (snapshot) runs of the
  inorder and ooo simulators give the Python backend's cycles and
  every predictor and cache-level statistic, with zero Python extern
  callbacks on warm replay of the shipped models.  The hand-coded
  fastsim twin has no C path: a ``"c"`` request reports the Python
  degrade with a reason and changes nothing.  The conformance matrix
  (``test_conformance.py``) checks the same under a cache limit and
  with the compiler masked, each warm cell loading the other
  backend's snapshot; the golden test here loads one python-saved
  snapshot into both backends, so it also runs python -> python, which
  the matrix does not.
"""

from __future__ import annotations

import ctypes
from array import array
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.facile import cbackend as cb
from repro.uarch.branch import (
    AlwaysNotTaken,
    AlwaysTaken,
    BimodalPredictor,
    BranchTargetBuffer,
    FrontEndPredictor,
    GSharePredictor,
    ReturnAddressStack,
    TournamentPredictor,
)
from repro.uarch.cache import CacheConfig, CacheHierarchy, HierarchyConfig
from repro.workloads.suite import build_cached

from .simrun import KERNEL, requires_cc, run


# ---------------------------------------------------------------------------
# Twin harness: one kernel St, models registered via the lowering path
# ---------------------------------------------------------------------------


class _NativeTwin:
    """Drives a uarch model through the kernel's native dispatch, using
    the same ``_nx_lower`` resolution the replay backends use."""

    def __init__(self):
        self.lib = KERNEL.lib
        self.st_p = ctypes.c_void_p(self.lib.ffc_new())
        assert self.st_p
        self.st = ctypes.cast(
            self.st_p, ctypes.POINTER(cb._StPrefix)
        ).contents
        self._keep = []

    def register(self, name: str, model) -> int:
        plan = cb._nx_lower(name, model)
        assert plan is not None, f"{name} did not lower natively"
        kind, params, arrays, _drain = plan
        pbuf = array("q", params) if params else None
        nxid = self.lib.ffc_nx_add(
            self.st_p, kind,
            cb._q_ptr(pbuf) if pbuf is not None else None, len(params),
        )
        assert nxid >= 0
        for slot, arr in arrays.items():
            addr, n = arr.buffer_info()
            self.lib.ffc_nx_set_arr(
                self.st_p, nxid, slot, ctypes.cast(addr, cb._PLL), n)
        self._keep.append((pbuf, list(arrays.values())))
        return nxid

    def call(self, nxid: int, *args) -> int:
        buf = (ctypes.c_longlong * max(len(args), 1))(*args)
        return self.lib.ffc_nx_call(self.st_p, nxid, len(args), buf)

    def close(self):
        if self.st_p:
            self.lib.ffc_free(self.st_p)
            self.st_p = ctypes.c_void_p(0)


def _predictor_pair(direction_factory):
    """Two identically-configured front ends: the Python-driven spec
    and the native-driven twin."""
    def build():
        return FrontEndPredictor(
            direction=direction_factory(),
            btb=BranchTargetBuffer(entries=32),
            ras=ReturnAddressStack(depth=4),
        )
    return build(), build()


DIRECTIONS = {
    "bimodal": lambda: BimodalPredictor(entries=64),
    "gshare": lambda: GSharePredictor(history_bits=6),
    "tournament": lambda: TournamentPredictor(entries=64, history_bits=6),
    "taken": AlwaysTaken,
    "nottaken": AlwaysNotTaken,
}

# One op per front-end entry point, mirroring the extern signatures.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("branch"),
                  st.integers(0, 1 << 20).map(lambda x: x * 4),
                  st.booleans()),
        st.tuples(st.just("indirect"),
                  st.integers(0, 1 << 20).map(lambda x: x * 4),
                  st.integers(0, 1 << 20).map(lambda x: x * 4),
                  st.booleans()),
        st.tuples(st.just("call"),
                  st.integers(0, 1 << 20).map(lambda x: x * 4)),
    ),
    max_size=200,
)


@requires_cc
@pytest.mark.parametrize("direction", sorted(DIRECTIONS))
@given(ops=_ops)
@settings(max_examples=25, deadline=None)
def test_predictor_twin_parity(direction, ops):
    python, native = _predictor_pair(DIRECTIONS[direction])
    twin = _NativeTwin()
    try:
        nx_dir = twin.register("xbpred", native)
        nx_bind = twin.register("xbind", native)
        nx_call = twin.register("xbcall", native)
        for op in ops:
            if op[0] == "branch":
                _, pc, taken = op
                want = python.resolve_branch(pc, taken)
                got = twin.call(nx_dir, pc, 1 if taken else 0)
                assert bool(got) == want, op
            elif op[0] == "indirect":
                _, pc, target, is_ret = op
                want = python.resolve_indirect(pc, target, is_ret)
                got = twin.call(nx_bind, pc, target, 1 if is_ret else 0)
                assert bool(got) == want, op
            else:
                _, ra = op
                python.note_call(ra)
                twin.call(nx_call, ra)
        native.drain_stats()
        python.drain_stats()
        assert native.stats == python.stats
        py_arrays = python.state_arrays()
        for name, arr in native.state_arrays().items():
            assert list(arr) == list(py_arrays[name]), name
    finally:
        twin.close()


HIERARCHIES = {
    "default-small": lambda: HierarchyConfig(
        l1=CacheConfig("L1D", 1024, 32, 2, 1),
        l2=CacheConfig("L2", 4096, 64, 4, 8),
        memory_latency=40, mshr_entries=4,
    ),
    "tiny-mshr": lambda: HierarchyConfig(
        l1=CacheConfig("L1D", 512, 16, 1, 2),
        l2=CacheConfig("L2", 2048, 32, 2, 6),
        memory_latency=25, mshr_entries=2, store_latency=3,
    ),
    "prefetch": lambda: HierarchyConfig(
        l1=CacheConfig("L1D", 1024, 32, 2, 1),
        l2=CacheConfig("L2", 8192, 64, 4, 8),
        memory_latency=30, mshr_entries=4, prefetch_next_line=True,
    ),
}

_accesses = st.lists(
    st.tuples(
        st.integers(0, 1 << 14),  # address (small range → real reuse)
        st.integers(0, 8),        # cycle delta (repeats → MSHR overlap)
        st.booleans(),            # is_store
    ),
    max_size=200,
)


@requires_cc
@pytest.mark.parametrize("hierarchy", sorted(HIERARCHIES))
@given(accesses=_accesses)
@settings(max_examples=25, deadline=None)
def test_cache_twin_parity(hierarchy, accesses):
    python = CacheHierarchy(HIERARCHIES[hierarchy]())
    native = CacheHierarchy(HIERARCHIES[hierarchy]())
    twin = _NativeTwin()
    try:
        nxid = twin.register("xcache", native)
        cycle = 0
        for addr, dt, is_store in accesses:
            cycle += dt
            want = python.access(addr, cycle, is_store)
            # The 2-arg extern form probes at the kernel's cycle counter.
            twin.st.cycles = cycle
            got = twin.call(nxid, addr, 1 if is_store else 0)
            assert got == want, (addr, cycle, is_store)
        native.drain_stats()
        python.drain_stats()
        for level in ("l1", "l2"):
            assert asdict(native.stats[level]) == asdict(python.stats[level])
        py_arrays = python.state_arrays()
        for name, arr in native.state_arrays().items():
            assert list(arr) == list(py_arrays[name]), name
    finally:
        twin.close()


@requires_cc
def test_cache_twin_wait_argument():
    """The 3-arg inorder form (``xcache(addr, is_store, wait)``) probes
    at ``cycles + wait``, exactly as the Python extern closure does."""
    python = CacheHierarchy(HIERARCHIES["tiny-mshr"]())
    native = CacheHierarchy(HIERARCHIES["tiny-mshr"]())
    twin = _NativeTwin()
    try:
        nxid = twin.register("xcache", native)
        cycle = 0
        for i, (addr, wait) in enumerate(
            [(64, 0), (64, 3), (4096, 1), (128, 0), (64, 7), (4160, 2)] * 20
        ):
            cycle += i % 3
            want = python.access(addr, cycle + wait, bool(i % 2))
            twin.st.cycles = cycle
            got = twin.call(nxid, addr, i % 2, wait)
            assert got == want, (addr, cycle, wait)
        native.drain_stats()
        python.drain_stats()
        for level in ("l1", "l2"):
            assert asdict(native.stats[level]) == asdict(python.stats[level])
    finally:
        twin.close()


# ---------------------------------------------------------------------------
# Golden simulations in the default configuration: cold + warm parity,
# zero steady-state callbacks
# ---------------------------------------------------------------------------


@requires_cc
@pytest.mark.parametrize("workload,scale", [("compress", 1), ("go", 1)])
@pytest.mark.parametrize("sim_name", ("inorder", "ooo", "fastsim"))
def test_golden_cold_and_warm_parity(sim_name, workload, scale, tmp_path):
    program = build_cached(workload, scale)
    snap = str(tmp_path / f"{workload}-{sim_name}.facsnap")

    def sees(r):
        return r.machine(), r.timing()

    # fastsim has no C path: a "c" request runs the Python loop and
    # says why.
    active = "python" if sim_name == "fastsim" else "c"

    rp = run(sim_name, program, replay_backend="python", cache_save=snap)
    rc = run(sim_name, program, replay_backend="c")
    assert sees(rc) == sees(rp), "cold parity"
    assert rc.holder.backend_status["active"] == active

    rpw = run(sim_name, program, replay_backend="python", cache_load=snap)
    rcw = run(sim_name, program, replay_backend="c", cache_load=snap)
    assert sees(rcw) == sees(rpw), "warm parity"
    assert sees(rpw) == sees(rp), "python warm changed the simulation"
    status = rcw.holder.backend_status
    assert (status["requested"], status["active"]) == ("c", active)
    if sim_name == "fastsim":
        assert status["reason"]
        # The same Python loop ran: every MemoStats field matches too.
        assert rc.spec() == rp.spec()
        assert rcw.spec() == rpw.spec()
    else:
        # Steady-state replay of the shipped models: every extern call
        # dispatches in-kernel, no Python transitions at all.
        native_calls, python_calls = rcw.externs()
        assert python_calls == 0 < native_calls


@requires_cc
def test_unknown_extern_keeps_callback_path():
    """A model the registry doesn't recognise must not lower; the
    callback path stays per-extern, not all-or-nothing."""

    class OpaqueModel:
        def config_key(self):
            return ("mystery", 1)

    assert cb._nx_lower("xcache", OpaqueModel()) is None
    assert cb._nx_lower("xbpred", OpaqueModel()) is None
    # Recognised models still lower in the same process.
    plan = cb._nx_lower("xbpred", FrontEndPredictor())
    assert plan is not None
