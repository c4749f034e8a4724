"""Golden parity, degradation, and IR tests for the C replay backend.

The contract under test (docs/INTERNALS.md "Replay IR & C backend"):
running any workload with ``replay_backend="c"`` must produce
bit-identical simulated results to the Python packed loop — same
cycles, same architectural state, same cache statistics (vs the
no-trace Python tiers, which the kernel subsumes) — and environments
without a C compiler must degrade to Python with a reported,
non-fatal status.
"""

from __future__ import annotations

import pytest

from repro.facile.cbackend import _reset_kernel_for_tests, load_kernel
from repro.facile.replay_ir import (
    ExternTable,
    Unlowerable,
    compile_body,
    interpret_body,
)
from repro.isa.simulate import run_facile_functional
from repro.ooo.facile_inorder import run_facile_inorder
from repro.ooo.facile_ooo import run_facile_ooo
from repro.ooo.fastsim import run_fastsim
from repro.workloads.suite import build_cached

from .accounting import assert_billing

KERNEL = load_kernel()
requires_cc = pytest.mark.skipif(
    not KERNEL.status.available,
    reason=f"C kernel unavailable: {KERNEL.status.reason}",
)


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
# Golden parity: C vs Python, cold and warm
# ---------------------------------------------------------------------------

ENGINE_SIMS = ("functional", "inorder", "ooo")


def _run(sim_name, program, backend, **kw):
    """Returns (architectural digest, engine, result)."""
    if sim_name == "functional":
        r = run_facile_functional(program, replay_backend=backend, **kw)
        return (r.retired, tuple(r.regs), r.halted), r.engine, r
    if sim_name == "inorder":
        r = run_facile_inorder(program, replay_backend=backend, **kw)
        return (r.stats, r.halted), r.engine, r
    assert sim_name == "ooo", sim_name
    r = run_facile_ooo(program, replay_backend=backend, **kw)
    return (r.stats, r.halted), r.engine, r


def _cache_digest(engine):
    """Every cache statistic the two backends must agree on (the trace
    tier is off for these runs: the kernel subsumes it)."""
    cs = engine.cache.stats
    return (
        cs.lookups, cs.hits, cs.misses_new_key, cs.misses_verify,
        cs.bytes_current, cs.entries_created,
    )


@requires_cc
@pytest.mark.parametrize("sim_name", ENGINE_SIMS)
def test_cold_parity_exact_stats(sim_name):
    """Cold runs (cache warming → verify-miss side exits, recoveries)
    are bit-identical between backends, down to every cache statistic,
    with the trace tier disabled on both sides."""
    program = build_cached("compress", 2)
    dig_p, eng_p, res_p = _run(sim_name, program, "python", trace_jit=False)
    dig_c, eng_c, res_c = _run(sim_name, program, "c", trace_jit=False)
    assert dig_c == dig_p
    assert _cache_digest(eng_c) == _cache_digest(eng_p)
    rs_p = res_p.run_stats if hasattr(res_p, "run_stats") else res_p.stats
    rs_c = res_c.run_stats if hasattr(res_c, "run_stats") else res_c.stats
    for f in ("steps_total", "steps_fast", "steps_slow", "steps_recovered",
              "actions_replayed"):
        assert getattr(rs_c, f) == getattr(rs_p, f), f
    # The cold run must actually exercise the side-exit path.
    assert eng_c.cache.stats.misses_verify > 0
    assert eng_c.backend_status["active"] == "c"
    assert eng_c._cnative.runs > 0
    assert eng_c._cnative.chains_unlowerable == 0


@requires_cc
@pytest.mark.parametrize("sim_name", ENGINE_SIMS)
def test_cold_parity_default_config(sim_name):
    """With default settings (trace JIT on for the Python side) the
    simulated results still match bit-for-bit."""
    program = build_cached("compress", 2)
    dig_p, _, _ = _run(sim_name, program, "python")
    dig_c, eng_c, _ = _run(sim_name, program, "c")
    assert dig_c == dig_p
    assert eng_c.backend_status["active"] == "c"


@requires_cc
@pytest.mark.parametrize("sim_name", ("functional", "ooo"))
def test_eviction_mid_run_parity_and_audit(sim_name):
    """Generational eviction under a tight budget drops lowered chains
    mid-run; results and byte accounting stay exact."""
    program = build_cached("compress", 2)
    kw = dict(cache_limit_bytes=48_000, cache_evict="generational",
              trace_jit=False)
    dig_p, eng_p, _ = _run(sim_name, program, "python", **kw)
    dig_c, eng_c, _ = _run(sim_name, program, "c", **kw)
    assert dig_c == dig_p
    assert eng_c.cache.stats.evictions > 0
    assert_billing(eng_c.cache)
    assert eng_c.cache.stats.evictions == eng_p.cache.stats.evictions
    assert eng_c.cache.stats.entries_evicted == eng_p.cache.stats.entries_evicted


@requires_cc
def test_pool_mirror_stays_bounded_under_eviction(monkeypatch):
    """Generational eviction frees pool values all run long.  The
    kernel's pool mirror forgets each one and compacts, so after every
    eviction round it holds at most twice the live pool; results stay
    equal to the Python backend."""
    from repro.facile.runtime import ActionCache

    samples = []
    reclaim = ActionCache.reclaim

    def sampled(cache, pinned=None):
        out = reclaim(cache, pinned)
        if cache.native is not None:
            samples.append((cache.native.summary()["values_mirrored"],
                            cache.pool.live_values()))
        return out

    monkeypatch.setattr(ActionCache, "reclaim", sampled)
    program = build_cached("compress", 2)
    kw = dict(cache_limit_bytes=48_000, cache_evict="generational",
              trace_jit=False)
    dig_c, eng_c, _ = _run("ooo", program, "c", **kw)
    dig_p, eng_p, _ = _run("ooo", program, "python", **kw)
    assert dig_c == dig_p
    assert _cache_digest(eng_c) == _cache_digest(eng_p)
    assert len(samples) > 10
    assert all(mirrored <= 2 * live for mirrored, live in samples), samples
    ns = eng_c._cnative.summary()
    assert 0 < ns["values_mirrored"] <= 2 * eng_c.cache.pool.live_values()
    assert ns["bodies_registered"] > 0


# ---------------------------------------------------------------------------
# Snapshots: warm parity and cross-backend loads
# ---------------------------------------------------------------------------


@requires_cc
@pytest.mark.parametrize("sim_name", ENGINE_SIMS)
@pytest.mark.parametrize("save_backend, load_backend",
                         [("python", "c"), ("c", "python"), ("c", "c")])
def test_snapshot_cross_backend(tmp_path, sim_name, save_backend,
                                load_backend):
    """A .facsnap saved under one backend loads under the other: same
    simulated results, mmap-shared chains replayed, byte audits exact."""
    program = build_cached("compress", 1)
    snap = tmp_path / "cache.facsnap"
    cold_dig, cold_eng, _ = _run(
        sim_name, program, save_backend, cache_save=str(snap))
    assert cold_eng.snapshot_save.hit
    warm_dig, warm_eng, warm_res = _run(
        sim_name, program, load_backend, cache_load=str(snap))
    assert warm_eng.snapshot_load.hit, warm_eng.snapshot_load.reason
    assert warm_dig == cold_dig
    rs = (warm_res.run_stats if hasattr(warm_res, "run_stats")
          else warm_res.stats)
    assert rs.steps_slow == 0
    cache = warm_eng.cache
    assert cache.stats.bytes_shared > 0
    assert_billing(cache)
    assert cache.recount_shared_bytes() == cache.stats.bytes_shared
    if load_backend == "c":
        assert warm_eng.backend_status["active"] == "c"
        assert warm_eng._cnative.runs > 0


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
    r = run_facile_functional(program, replay_backend="c")
    bs = r.engine.backend_status
    assert bs["requested"] == "c"
    assert bs["active"] == "python"
    assert "masked" in bs["reason"]
    assert r.halted
    # And the same run finishes identically to an explicit python run.
    rp = run_facile_functional(program, replay_backend="python")
    assert (r.retired, r.regs, r.halted) == (rp.retired, rp.regs, rp.halted)


def test_unknown_backend_rejected():
    program = build_cached("compress", 1)
    with pytest.raises(ValueError):
        run_facile_functional(program, replay_backend="rust")
    with pytest.raises(ValueError):
        run_fastsim(program, replay_backend="rust")


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


@requires_cc
def test_cache_summary_reports_backend():
    from repro.facile.inspect import cache_summary

    program = build_cached("compress", 1)
    r = run_facile_functional(program, replay_backend="c", trace_jit=False)
    text = cache_summary(r.engine.cache, engine=r.engine)
    assert "replay backend:   c" in text
    assert "native replay:" in text
    ns = r.engine._cnative.summary()
    assert ns["bodies_registered"] > 0 and ns["values_mirrored"] > 0
    assert f"{ns['bodies_registered']:,} bodies registered" in text
    assert f"{ns['values_mirrored']:,} pool values mirrored" in text
    rp = run_facile_functional(program, replay_backend="python")
    text_p = cache_summary(rp.engine.cache, engine=rp.engine)
    assert "replay backend:   python" in text_p
    # Legacy one-argument form keeps working.
    assert "replay backend" not in cache_summary(rp.engine.cache)


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
