"""Body IR, kernel, degradation and reporting tests for the C replay
backend.

The contract (docs/INTERNALS.md "Replay IR & C backend"): running any
workload with ``replay_backend="c"`` gives bit-identical results to the
Python packed loop, and environments without a C compiler degrade to
Python with a reported, non-fatal status.  Whole-workload parity, cold
and warm, with and without a cache limit, is the conformance matrix's
(``test_conformance.py``, compress and go at scale 1); the tests here
pin the mechanisms one at a time, and compare whole runs only where
the matrix does not: compress at scale 2, and a snapshot the C backend
saved loaded back by the C backend.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.facile import FastForwardEngine
from repro.facile.cbackend import _reset_kernel_for_tests
from repro.facile.replay_ir import (
    ExternTable,
    Unlowerable,
    compile_body,
    interpret_body,
)
from repro.workloads.suite import build_cached

from .accounting import assert_billing
from .simrun import KERNEL, requires_cc, run


# ---------------------------------------------------------------------------
# Body IR: compile_body / interpret_body (no compiler needed)
# ---------------------------------------------------------------------------


def _body(lines, shapes="", is_verify=False):
    return compile_body(0, list(lines), shapes, is_verify, ExternTable())


class _NullCtx:
    """Just enough context for bodies that never touch memory/stats."""

    mem = None


def _interp(prog, S, data):
    return interpret_body(prog, _NullCtx(), S, data)


def test_body_arithmetic_roundtrip():
    prog = _body(["_S[0] = (_ph0 + 7) * 3 - (_ph0 >> 2)"], "i")
    S = [0]
    _interp(prog, S, (20,))
    assert S[0] == (20 + 7) * 3 - (20 >> 2)


def test_body_conditional_is_lazy():
    # Only the chosen arm executes; the other may divide by zero.
    prog = _body(["_S[0] = idiv(_S[1], _ph0) if _ph0 != 0 else -1"], "i")
    S = [0, 42]
    _interp(prog, S, (0,))
    assert S[0] == -1
    _interp(prog, S, (6,))
    assert S[0] == 7


def test_body_verify_returns_value():
    prog = _body(["return 1 if _S[0] < _ph0 else 0"], "i", is_verify=True)
    assert _interp(prog, [3], (5,)) == 1
    assert _interp(prog, [9], (5,)) == 0


def test_body_carries_its_extern_table():
    """A program keeps the extern table it was compiled against, so the
    spec interpreter resolves its extern calls by name with nothing
    registered anywhere else."""
    from repro.facile.runtime import SimContext

    externs = ExternTable()
    externs.intern("other")
    prog = compile_body(
        0, ["_S[0] = _ctx.call_extern('twice', _ph0) + 1"], "i", False,
        externs)
    assert prog.externs is externs
    ctx = SimContext(1, {}, {"twice": lambda v: 2 * v})
    S = [0]
    interpret_body(prog, ctx, S, (20,))
    assert S[0] == 41


@pytest.mark.parametrize(
    "lines, shapes, is_verify",
    [
        (["_S[0] = _ph0 ** 2"], "i", False),  # Pow is outside the IR
        (["_S[0] = frobnicate(1)"], "", False),  # unknown call
        (["_S[0] = mystery"], "", False),  # unknown name
        (["for i in [1]: _S[0] = i"], "", False),  # loop statement
        (["_S[0] = _ph0 + 1"], "o", False),  # object in arithmetic
        (["return 5"], "", False),  # return outside a verify body
        (["_S[0] = 1"], "", True),  # verify body missing return
    ],
)
def test_body_unlowerable(lines, shapes, is_verify):
    with pytest.raises(Unlowerable):
        _body(lines, shapes, is_verify)


# ---------------------------------------------------------------------------
# Kernel status reporting
# ---------------------------------------------------------------------------


def test_kernel_status_shape():
    st = KERNEL.status
    assert st.available in (True, False)
    if st.available:
        assert st.compile_ms >= 0.0
        assert st.path
    else:
        assert st.reason


@requires_cc
def test_state_prefix_matches_kernel_layout():
    """``_StPrefix`` mirrors the leading fields of the C ``St`` struct
    by hand; the kernel reports where its C-only state begins."""
    import ctypes

    from repro.facile.cbackend import _StPrefix

    assert KERNEL.lib.ffc_prefix_bytes() == ctypes.sizeof(_StPrefix)


# ---------------------------------------------------------------------------
# Bodies compiled to C
# ---------------------------------------------------------------------------


def _builtin_sims():
    from repro.isa.simulate import compiled_functional_sim
    from repro.ooo.facile_inorder import compiled_inorder_sim
    from repro.ooo.facile_ooo import compiled_ooo_sim

    return [compiled_functional_sim().simulator,
            compiled_inorder_sim().simulator, compiled_ooo_sim().simulator]


@requires_cc
@pytest.mark.parametrize("sim_index", range(3))
def test_every_lowerable_action_has_a_compiled_case(sim_index):
    """Each builtin simulator's library holds every action whose body
    lowers in its recorded shape, and refuses the rest by name."""
    from repro.facile.cbackend import body_library
    from repro.facile.ir_verify import assert_lowerable

    sim = _builtin_sims()[sim_index]
    externs = ExternTable()
    lowerable = []
    for num, (lines, _, is_verify) in enumerate(sim.action_bodies):
        try:
            prog = compile_body(num, lines, sim.action_shapes[num],
                                is_verify, externs)
            assert_lowerable(prog, n_slots=sim.slot_count, externs=externs)
        except Unlowerable:
            continue
        lowerable.append(num)
    library = body_library(sim)
    assert library.status.available, library.status.reason
    assert library.compiled_count == len(lowerable) > 0
    source = open(library.status.path[:-3] + ".c").read()
    cases = {int(line.split()[1].rstrip(":"))
             for line in source.splitlines()
             if line.startswith("    case ")}
    assert cases == set(lowerable)
    # The kernel's row per action: its compiled body's shape and kind,
    # or -1 and the reason that names the action.
    assert len(library.rows) == len(sim.action_bodies)
    for num, shape in enumerate(sim.action_shapes):
        if num in lowerable:
            is_verify = sim.action_bodies[num][2]
            assert library.rows[num] == library.shape_id(shape) << 1 | is_verify
            assert library.body(num).shapes == shape
        else:
            assert library.rows[num] == -1
            assert library.refusal(num).startswith(f"action {num}")


#: Reason the C code hands back -> (body, slot values): each body stops
#: at an op with operands below it on the stack, and the first reads a
#: local after that op.
GUARDS = {
    "E_OVF": (["t = _S[1] * 2", "_S[0] = _S[1] + _S[2] * _S[3] + t"],
              [0, 5, 1 << 62, 4]),
    "E_SHIFT": (["_S[0] = _S[1] + (_S[2] << _S[3])"], [0, 5, 3, 70]),
    "E_DIV0": (["_S[0] = _S[1] + udiv32(_S[2], _S[3])"], [0, 5, 7, 1 << 32]),
    "E_ADDR": (["_S[0] = _S[1] + _ctx.mem.read32(_S[2] + 8)"],
               [0, 5, 1 << 40, 0]),
    "E_COUNTER": (["_ctx.stat_count(_S[1] + 300, _S[2])",
                   "_S[0] = _S[1] + _S[2]"], [0, 5, 2, 0]),
    "E_SLOT": (["_S[0] = _S[1] + _S[2][_S[3]]"], [0, 5, [10, 20, 30], -1]),
}


def _spec_outcome(prog, S, **resume):
    """Run ``prog`` under the spec from ``resume`` (pc 0 by default):
    its result or the exception type it raised, then the slots and
    counters it left."""
    from repro.facile.runtime import SimContext

    ctx = SimContext(len(S), {}, {})
    try:
        out = interpret_body(prog, ctx, S, (), **resume)
    except Exception as exc:  # the spec raises where the C code stops
        out = type(exc)
    return out, S, ctx.counters


@requires_cc
@pytest.mark.parametrize("reason", sorted(GUARDS))
def test_handback_resumes_where_the_spec_ends(reason):
    """The compiled body stops at the guarded op and saves the op's pc,
    its operands and the locals; the spec resumed from that state ends
    where the spec run from pc 0 ends."""
    import ctypes
    from array import array

    from repro.facile.cbackend import (
        E_NAMES, _build, _StPrefix, body_library_source,
    )
    from repro.facile.ir_verify import KERNEL_VM_LOCALS

    lines, slots = GUARDS[reason]
    prog = compile_body(0, lines, "", False, ExternTable())
    lib, status = _build("bodies", body_library_source([prog]),
                         "body library", "-O1")
    assert lib is not None, status.reason
    run = lib.ffb_run
    run.restype = ctypes.c_int
    run.argtypes = [ctypes.c_void_p, ctypes.c_longlong, ctypes.c_void_p,
                    ctypes.POINTER(ctypes.c_longlong)]
    st_p = ctypes.c_void_p(KERNEL.lib.ffc_new())
    try:
        st = ctypes.cast(st_p, ctypes.POINTER(_StPrefix)).contents
        arrays = {}
        for k, v in enumerate(slots):
            if type(v) is list:
                arrays[k] = array("q", v)
                st.isobj[k] = 1
                st.arrp[k], st.arrlen[k] = arrays[k].buffer_info()
            else:
                st.slots[k] = v
        st.r_pc = -1
        ret = ctypes.c_longlong()
        assert run(st_p, 0, None, ctypes.byref(ret)) == -1
        assert E_NAMES[st.err] == reason
        assert st.r_pc > 0 and st.r_sp > 0
        # Python's view of the state the body stopped in.
        S = [arrays[k].tolist() if k in arrays else st.slots[k]
             for k in range(len(slots))]
        resumed = _spec_outcome(
            prog, S, pc=st.r_pc - 2, stack=st.r_stack[:st.r_sp],
            locals_=st.r_loc[:KERNEL_VM_LOCALS])
    finally:
        KERNEL.lib.ffc_free(st_p)
    fresh = [list(v) if type(v) is list else v for v in slots]
    assert resumed == _spec_outcome(prog, fresh)


#: The flush of ``init``, an int, is recorded with shape 'i'.
SHAPE_SRC = """
val init = 0;
val acc = 0;
fun main(pc) {
  acc = acc + pc * 3 + 1;
  init = (pc + 1) % 5;
}
"""


def _foreign_shape_sim():
    """The SHAPE_SRC simulator with its flush of ``init`` compiled as if
    codegen had frozen the value (shape 'o'), and that action."""
    from repro.facile.compiler import compile_source

    sim = compile_source(SHAPE_SRC).simulator
    flush = next(num for num, (lines, _, _) in enumerate(sim.action_bodies)
                 if any(line.startswith("_S[") and line.endswith("= _ph0")
                        for line in lines))
    assert sim.action_shapes[flush] == "i"
    sim.action_shapes[flush] = "o"
    return sim, flush


def _shape_engine(sim, backend, snapshot=None):
    ctx = sim.make_context()
    ctx.write_global("init", 0)
    engine = FastForwardEngine(sim, ctx, replay_backend=backend)
    if snapshot is not None:
        assert engine.load_snapshot(str(snapshot), SHAPE_FP).hit
    return engine


#: Content address for the SHAPE_SRC snapshots below.
SHAPE_FP = "ab" * 32


@requires_cc
def test_chain_in_a_shape_the_library_lacks_is_refused():
    """An action compiled in one shape never runs data of another: a
    chain that records it so is refused with the action and shape named,
    and replays on the Python tiers with the Python backend's result."""
    sim, flush = _foreign_shape_sim()
    engines = {}
    for backend in ("c", "python"):
        engine = _shape_engine(sim, backend)
        engine.run(max_steps=60)
        engines[backend] = engine
    eng_c, eng_p = engines["c"], engines["python"]
    native = eng_c._cnative
    assert eng_c.backend_status["active"] == "c"
    assert native.chains_lowered == 0 < native.chains_unlowerable
    assert list(native.unlowerable_reasons) == [
        f"action {flush}: no compiled body for shape 'i' (compiled for 'o')"]
    assert eng_c.ctx.read_global("acc") == eng_p.ctx.read_global("acc")
    assert asdict(eng_c.cache.stats) == asdict(eng_p.cache.stats)
    assert asdict(eng_c.stats) == asdict(eng_p.stats)


@requires_cc
def test_snapshot_in_a_shape_the_library_lacks_is_refused_at_load(tmp_path):
    """The kernel's bulk load refuses what cold registration refuses:
    chains saved under the Python backend that run an action in a shape
    the library lacks are refused at load for the cold run's reasons,
    and replay on the Python tiers with the Python backend's result."""
    sim, _ = _foreign_shape_sim()
    snap = tmp_path / "shape.facsnap"
    saved = _shape_engine(sim, "python")
    saved.run(max_steps=60)
    saved.save_snapshot(str(snap), SHAPE_FP)
    cold = _shape_engine(sim, "c")
    cold.run(max_steps=60)
    warm = _shape_engine(sim, "c", snapshot=snap)
    native = warm._cnative
    assert warm.backend_status["active"] == "c"
    assert native.chains_registered_at_load == 0
    assert native.chains_unlowerable == len(warm.cache.entries) > 0
    assert native.unlowerable_reasons == cold._cnative.unlowerable_reasons
    warm.run(max_steps=60)
    ref = _shape_engine(sim, "python", snapshot=snap)
    ref.run(max_steps=60)
    assert native.chains_lowered == 0
    assert warm.ctx.read_global("acc") == ref.ctx.read_global("acc")
    assert asdict(warm.cache.stats) == asdict(ref.cache.stats)
    assert asdict(warm.stats) == asdict(ref.stats)


# Keys cycle 0 -> 1 -> 2.  Keys 0 and 2 replay one fixed chain; at key 1
# a ``?verify`` pins a counter that never repeats, so every pass after
# the first misses there, recovers, and records the new value as
# placeholder data of the action that follows.
CHURN_SRC = """
val init = 0;
val n = 0;
val acc = 0;
fun main(pc) {
  acc = acc + pc * 5 + 7;
  if (pc == 1) {
    n = n + 1;
    acc = acc + n?verify * 3;
  }
  init = (pc + 1) % 3;
}
"""


@requires_cc
def test_pool_index_freed_by_a_conversion_is_mirrored_afresh(monkeypatch):
    """The first miss at key 1 turns the verify's single expected value
    into a jump table, which releases that value's pool index, and the
    new arm's placeholder data reuses the index at once.  The kernel had
    mirrored the old value there, so it must forget it and mirror the
    new one when the grown chain is lowered again: results and every
    statistic equal the Python backend's."""
    from repro.facile.cbackend import CReplayBackend
    from repro.facile.compiler import compile_source

    sim = compile_source(CHURN_SRC).simulator
    events = []
    mirror = CReplayBackend._mirror

    def logged_mirror(self, pidx, values):
        events.append(("mirror", set(pidx)))
        return mirror(self, pidx, values)

    monkeypatch.setattr(CReplayBackend, "_mirror", logged_mirror)
    engines = {}
    for backend in ("c", "python"):
        ctx = sim.make_context()
        ctx.write_global("init", 0)
        engine = FastForwardEngine(sim, ctx, replay_backend=backend)
        pool = engine.cache.pool
        hook = pool.on_release

        def on_release(idx, hook=hook, backend=backend):
            events.append(("free", backend, idx))
            if hook is not None:
                hook(idx)

        pool.on_release = on_release
        engine.run(max_steps=120)
        engines[backend] = engine
    eng_c, eng_p = engines["c"], engines["python"]
    assert eng_c.backend_status["active"] == "c"
    assert eng_c.ctx.read_global("acc") == eng_p.ctx.read_global("acc")
    assert asdict(eng_c.cache.stats) == asdict(eng_p.cache.stats)
    assert asdict(eng_c.stats) == asdict(eng_p.stats)
    assert eng_c.stats.steps_recovered == 39  # every pass after the first
    # A stale mirror would make the kernel refuse the grown chain.
    assert eng_c._cnative.chains_unlowerable == 0
    # Later misses only add arms: one value dies, in both backends.
    frees = [e for e in events if e[0] == "free"]
    assert [e[1] for e in frees] == ["c", "python"]
    assert frees[0][2] == frees[1][2]
    idx = frees[0][2]
    # Reused by a live value, and asked for again by the kernel after
    # it was freed.
    assert eng_c.cache.pool._refs[idx] > 0
    after = events[events.index(frees[0]) + 1:]
    assert any(e[0] == "mirror" and idx in e[1] for e in after), events
    assert_billing(eng_c.cache)
    assert_billing(eng_p.cache)


#: Keys (1, 0) and (2, 0) both step to (0, 0), which alternates between
#: them: two step boundaries reach one successor, and since both flush
#: records intern the same data, one init object.
JOIN_SRC = """
val init = (0, 0);
val acc = 0;
fun main(a, b) {
  acc = acc + 1;
  stat_cycle(a + 1);
  if (a == 0) {
    if (acc & 2) init = (1, b); else init = (2, b);
  } else {
    init = (0, b);
  }
}
"""


@requires_cc
def test_shared_successor_resolved_once_in_python():
    """The first boundary into (0, 0) resolves it in Python, which also
    names its chain for the init object in the kernel; the other
    boundary into it then links inside the kernel.  Results and every
    statistic equal the Python backend's."""
    from repro.facile.compiler import compile_source

    sim = compile_source(JOIN_SRC).simulator
    engines = {}
    resolved = []
    for backend in ("c", "python"):
        ctx = sim.make_context()
        engine = FastForwardEngine(sim, ctx, replay_backend=backend)
        native = engine._cnative
        if native is not None:
            link = native._link

            def logged_link(ex, link=link, native=native):
                cid = link(ex)
                if cid is not None:
                    resolved.append(native._entries[cid].key)
                return cid

            native._link = logged_link
        engine.run(max_steps=200)
        engines[backend] = engine
    eng_c, eng_p = engines["c"], engines["python"]
    assert eng_c.backend_status["active"] == "c"
    assert sorted(resolved) == [(0, 0), (1, 0), (2, 0)]
    assert eng_c.ctx.cycles == eng_p.ctx.cycles
    assert eng_c.ctx.read_global("acc") == eng_p.ctx.read_global("acc") == 200
    assert asdict(eng_c.cache.stats) == asdict(eng_p.cache.stats)
    assert asdict(eng_c.stats) == asdict(eng_p.stats)
    assert_billing(eng_c.cache)


# ---------------------------------------------------------------------------
# Whole workloads: compress at scale 2, and a c -> c snapshot
# ---------------------------------------------------------------------------

ENGINE_SIMS = ("functional", "inorder", "ooo")


@requires_cc
@pytest.mark.parametrize("sim_name", ENGINE_SIMS)
def test_cold_parity_exact_stats(sim_name):
    """Cold runs of compress at scale 2 (the matrix runs scale 1):
    cache warming, verify misses and recoveries are bit-identical
    between backends, down to every cache statistic."""
    program = build_cached("compress", 2)
    rp = run(sim_name, program, replay_backend="python")
    rc = run(sim_name, program, replay_backend="c")
    assert rc.machine() == rp.machine()
    assert rc.spec() == rp.spec()
    # The cold run must actually exercise the side-exit path.
    assert rc.cache_stats.misses_verify > 0
    assert rc.holder.backend_status["active"] == "c"
    assert rc.holder._cnative.runs > 0
    assert rc.holder._cnative.chains_unlowerable == 0


@requires_cc
@pytest.mark.parametrize("sim_name", ENGINE_SIMS)
@pytest.mark.parametrize("save_backend, load_backend",
                         [("python", "c"), ("c", "python"), ("c", "c")])
def test_snapshot_cross_backend(tmp_path, sim_name, save_backend,
                                load_backend):
    """A .facsnap saved under one backend loads under the same or the
    other: same simulated results, mmap-shared chains replayed, byte
    audits exact.  The matrix's warm cells load the other backend's
    snapshot; the c -> c load is this test's own."""
    program = build_cached("compress", 1)
    snap = str(tmp_path / "cache.facsnap")
    cold = run(sim_name, program, replay_backend=save_backend,
               cache_save=snap)
    assert cold.holder.snapshot_save.hit
    warm = run(sim_name, program, replay_backend=load_backend,
               cache_load=snap)
    assert warm.holder.snapshot_load.hit, warm.holder.snapshot_load.reason
    assert warm.machine() == cold.machine()
    assert warm.timing() == cold.timing()
    assert warm.slow()[0] == 0
    assert warm.cache_stats.bytes_shared > 0
    warm.audit()
    if load_backend == "c":
        assert warm.holder.backend_status["active"] == "c"
        assert warm.holder._cnative.runs > 0


# ---------------------------------------------------------------------------
# Graceful degradation
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_kernel_singleton():
    _reset_kernel_for_tests()
    yield
    _reset_kernel_for_tests()


def test_masked_compiler_degrades(monkeypatch, fresh_kernel_singleton):
    monkeypatch.setenv("FACILE_NO_CC", "1")
    program = build_cached("compress", 1)
    r = run("functional", program, replay_backend="c")
    bs = r.holder.backend_status
    assert bs["requested"] == "c"
    assert bs["active"] == "python"
    assert "masked" in bs["reason"]
    assert r.result.halted
    # And the same run finishes identically to an explicit python run.
    rp = run("functional", program, replay_backend="python")
    assert r.machine() == rp.machine()


#: A compiler that fails, and one whose output cannot be loaded.
_FAILING_CC = "#!/bin/sh\necho 'stub: cannot compile' >&2\nexit 1\n"
_GARBAGE_CC = """#!/bin/sh
while [ $# -gt 0 ]; do
  if [ "$1" = "-o" ]; then echo 'not a shared object' > "$2"; fi
  shift
done
"""


@requires_cc
@pytest.mark.parametrize("failure, reason", [
    ("compiler error", "body library: cc failed: stub: cannot compile"),
    ("unwritable cache directory", "body library build failed"),
    ("failed dlopen", "body library load failed"),
])
def test_failed_body_build_degrades(tmp_path, monkeypatch, failure, reason):
    """A body library that cannot be built or loaded degrades the engine
    to the Python backend with the reason, as a failed kernel build
    does, and the run ends as the Python backend's does."""
    import os

    from repro.facile import cbackend
    from repro.ooo.facile_inorder import compiled_inorder_sim

    program = build_cached("compress", 1)
    expected = run("inorder", program, replay_backend="python")
    # The kernel stays the loaded one; only the body library builds.
    monkeypatch.setattr(cbackend, "_KERNEL", KERNEL)
    cache = tmp_path / "cache"
    if failure == "unwritable cache directory":
        (tmp_path / "file").write_text("")
        cache = tmp_path / "file" / "cache"
    else:
        stub = tmp_path / "stub-cc"
        stub.write_text(_FAILING_CC if failure == "compiler error"
                        else _GARBAGE_CC)
        os.chmod(stub, 0o755)
        monkeypatch.setattr(cbackend, "_find_cc", lambda: str(stub))
    monkeypatch.setenv("FACILE_CKERNEL_DIR", str(cache))
    monkeypatch.setattr(compiled_inorder_sim().simulator, "body_library",
                        None)
    r = run("inorder", program, replay_backend="c")
    bs = r.holder.backend_status
    assert (bs["requested"], bs["active"]) == ("c", "python")
    assert reason in bs["reason"], bs["reason"]
    assert r.machine() == expected.machine()
    assert r.spec() == expected.spec()


def test_unknown_backend_rejected():
    program = build_cached("compress", 1)
    for sim in ("functional", "fastsim"):
        with pytest.raises(ValueError):
            run(sim, program, replay_backend="rust")


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


@requires_cc
def test_cache_summary_reports_backend():
    from repro.facile.inspect import cache_summary

    program = build_cached("compress", 1)
    engine = run("functional", program, replay_backend="c").holder
    text = cache_summary(engine.cache, engine=engine)
    assert "replay backend:   c" in text
    assert "native replay:" in text
    ns = engine._cnative.summary()
    assert ns["values_mirrored"] > 0
    # Every compiled body is in the rows the kernel got when the engine
    # started.
    rows = engine._cnative.bodies.rows
    assert sum(row >= 0 for row in rows) == ns["bodies_compiled"] > 0
    assert f"{ns['values_mirrored']:,} pool values mirrored" in text
    # The simulator's body library: its size and its build.
    library = (f"body library: {ns['bodies_compiled']:,} bodies compiled "
               "to C (")
    assert ns["bodies_compiled"] > 0
    assert library in text
    assert any(line.startswith(library) for line in engine.report.lines())
    rp = run("functional", program, replay_backend="python").holder
    text_p = cache_summary(rp.cache, engine=rp)
    assert "replay backend:   python" in text_p
    # Legacy one-argument form keeps working.
    assert "replay backend" not in cache_summary(rp.cache)


# ---------------------------------------------------------------------------
# Disk-cache build lock (processes sharing one kernel disk cache)
# ---------------------------------------------------------------------------


def _herd_build_main(cache_dir: str, out_path: str) -> None:
    """Spawn target: build the kernel into an overridden cache dir."""
    import json
    import os

    os.environ["FACILE_CKERNEL_DIR"] = cache_dir
    from repro.facile.cbackend import _reset_kernel_for_tests, load_kernel

    _reset_kernel_for_tests()
    kernel = load_kernel()
    json.dump(
        {
            "available": kernel.status.available,
            "reason": kernel.status.reason,
            "path": kernel.status.path,
        },
        open(out_path, "w"),
    )


def _body_build_main(cache_dir: str, out_path: str) -> None:
    """Spawn target: start a C engine on a fresh simulator, with the
    disk cache in ``cache_dir``, and report its body library."""
    import json
    import os

    os.environ["FACILE_CKERNEL_DIR"] = cache_dir
    from repro.facile import FastForwardEngine
    from repro.facile.cbackend import _reset_kernel_for_tests
    from repro.facile.compiler import compile_source

    _reset_kernel_for_tests()
    sim = compile_source(SHAPE_SRC).simulator
    ctx = sim.make_context()
    ctx.write_global("init", 0)
    engine = FastForwardEngine(sim, ctx, replay_backend="c")
    engine.run(max_steps=40)
    ns = engine._cnative.summary() if engine._cnative else {}
    json.dump({
        "active": engine.backend_status["active"],
        "reason": engine.backend_status["reason"],
        "cached": ns.get("library_cached"),
        "acc": ctx.read_global("acc"),
    }, open(out_path, "w"))


@requires_cc
@pytest.mark.slow
def test_two_processes_build_one_body_library(tmp_path):
    """Two processes starting the same simulator on one disk cache build
    its body library once; the other loads it from the cache."""
    import json
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    cache_dir = tmp_path / "kcache"
    outs = [tmp_path / f"out{i}.json" for i in range(2)]
    procs = [
        ctx.Process(target=_body_build_main, args=(str(cache_dir), str(out)))
        for out in outs
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(300)
        assert p.exitcode == 0
    results = [json.load(open(out)) for out in outs]
    for r in results:
        assert r["active"] == "c", r["reason"]
    assert sorted(r["cached"] for r in results) == [False, True]
    assert results[0]["acc"] == results[1]["acc"]
    assert len(list(cache_dir.glob("bodies-*.so"))) == 1
    assert not list(cache_dir.glob("*.so.tmp*"))


@requires_cc
@pytest.mark.slow
def test_concurrent_cold_start_builds_one_kernel(tmp_path):
    """N processes cold-starting on an empty kernel cache must all end
    up with a working kernel and exactly one installed .so — the flock
    serializes the compile; losers wait then dlopen the winner's file.
    """
    import json
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    cache_dir = tmp_path / "kcache"
    outs = [tmp_path / f"out{i}.json" for i in range(3)]
    procs = [
        ctx.Process(target=_herd_build_main, args=(str(cache_dir), str(out)))
        for out in outs
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(300)
        assert p.exitcode == 0
    results = [json.load(open(out)) for out in outs]
    for r in results:
        assert r["available"], r["reason"]
    sos = list(cache_dir.glob("kernel-*.so"))
    assert len(sos) == 1
    assert {r["path"] for r in results} == {str(sos[0])}
    # no orphaned compile tmp files from losing racers
    assert not list(cache_dir.glob("*.so.tmp*"))
