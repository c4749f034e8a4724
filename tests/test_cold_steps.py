"""Cold steps on the built-in simulators: recording bills every record
as it is appended, and the slow engine never writes into its key.

A cold step freezes its next key once (the walk also sizes it), hands
``slow_main`` the frozen key, which copies only the parameters BTA's
``copied_params`` names, and records each action in one call.  These
tests drive the three built-in simulators step by step through that
path.
"""

from __future__ import annotations

import sys

import pytest

from repro.facile import FastForwardEngine
from repro.facile.cbackend import load_kernel
from repro.facile.runtime import freeze, thaw
from repro.isa.simulate import _prepare_context, compiled_functional_sim
from repro.ooo.facile_inorder import FacileInOrderSim, compiled_inorder_sim
from repro.ooo.facile_ooo import FacileOooSim, compiled_ooo_sim
from repro.workloads.suite import build_cached

from .accounting import assert_billing

SIMS = ("functional", "inorder", "ooo")
BACKENDS = ("python", "c")

KERNEL = load_kernel()


def _engine(sim_name: str, program, backend: str) -> FastForwardEngine:
    if sim_name == "functional":
        compiled = compiled_functional_sim().simulator
        return FastForwardEngine(compiled, _prepare_context(compiled, program),
                                 replay_backend=backend)
    if sim_name == "inorder":
        return FacileInOrderSim(program, replay_backend=backend).engine
    return FacileOooSim(program, replay_backend=backend).engine


@pytest.mark.slow
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("sim_name", SIMS)
@pytest.mark.parametrize("workload", ("compress", "go"))
def test_every_cold_step_leaves_the_ledger_exact(workload, sim_name, backend):
    """The first 2,000 steps, one ``run`` call each, audited after
    every step: a step's records, its key and its flush data are billed
    exactly as a from-scratch recount finds them."""
    if backend == "c" and not KERNEL.status.available:
        pytest.skip(f"C kernel unavailable: {KERNEL.status.reason}")
    engine = _engine(sim_name, build_cached(workload, 1), backend)
    assert engine.backend_status["active"] == backend
    for _ in range(2000):
        engine.run(max_steps=1)
        assert_billing(engine.cache)
    stats = engine.stats
    assert stats.steps_total == 2000
    assert stats.steps_slow > 0 and stats.steps_fast > 0


def arrived(arg, frozen) -> str:
    """How one parameter arrived from its key value ``frozen``: as the
    key's own object, or as a fresh list equal to the thawed value."""
    if arg is frozen:
        return "key"
    if type(arg) is list and arg == thaw(frozen):
        return "copy"
    return f"unexpected {arg!r}"


#: Per simulator, the array parameters (base names) ``slow_main``
#: copies: each is one a step mutates.  A number it copies is the
#: number itself.
COPIED_ARRAYS = {
    "functional": set(),
    "inorder": {"rdy"},
    "ooo": {"iq_cls", "iq_state", "iq_rem", "iq_dep1", "iq_dep2", "iq_pc", "lw"},
}


@pytest.mark.parametrize("sim_name", SIMS)
def test_slow_main_copies_only_the_params_it_must(sim_name):
    """Each array parameter the slow main never mutates arrives as the
    key's own object; each one it mutates arrives as a fresh list equal
    to the thawed key value.  So a step never writes into its key,
    which keeps every recorded key intact."""
    result = {
        "functional": compiled_functional_sim,
        "inorder": compiled_inorder_sim,
        "ooo": compiled_ooo_sim,
    }[sim_name]()
    compiled = result.simulator
    params = result.flat.params
    copied = result.division.copied_params
    # Locals as the body starts: the line event of ``_S = _ctx.S``.
    code = compiled.slow_main.__code__
    body_line = code.co_firstlineno + compiled.source_slow.splitlines().index(
        "    _S = _ctx.S")
    seen = []

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno == body_line:
                f_locals = frame.f_locals
                key = f_locals["_key"]
                seen.append((key, [arrived(f_locals[p], frozen)
                                   for p, frozen in zip(params, key)]))
            return local

        return local

    engine = _engine(sim_name, build_cached("compress", 1), "python")
    sys.settrace(tracer)
    try:
        engine.run(max_steps=300)
    finally:
        sys.settrace(None)
    assert len(seen) == engine.stats.steps_slow + engine.stats.steps_recovered
    arrays = {p for p, frozen in zip(params, seen[0][0]) if isinstance(frozen, tuple)}
    assert {p.split("__")[0] for p in arrays & copied} == COPIED_ARRAYS[sim_name]
    want = ["copy" if p in arrays & copied else "key" for p in params]
    for key, arrivals in seen:
        assert arrivals == want, key
        # Every key stays a tuple of immutable values: no step wrote it.
        assert isinstance(key, tuple) and hash(key) is not None


#: (``main``, the parameters BTA copies, the final ``init`` after 12
#: steps from ``((1, 2), 0)``, as every engine got it when each step
#: copied every parameter).  A store through the parameter, an alias, a
#: copy (a frozen value's copy is the value itself), a call that may
#: return it, or an array built of it counts, and so does meeting a
#: value that may be a list in ``==`` or ``+``: a frozen tuple never
#: equals a list nor adds to one.  Reads, meeting constants and holding
#: it in a tuple do not.
COPY_CASES = [
    ("fun main(a, n) { a[0] = n; init = (a, n + 1); }", {"a"}, ((11, 2), 12)),
    ("fun main(a, n) { val x = a; x[1] = n; init = (a, n + 1); }",
     {"a"}, ((1, 11), 12)),
    ("fun main(a, n) { val c = a?copy(); c[0] = n; init = (c, n + 1); }",
     {"a"}, ((11, 2), 12)),
    ("fun main(a, n) { val s = a[1] - a[0];"
     " init = (a, select(a[0] > 0, n * s + 1, n)); }", set(), ((1, 2), 12)),
    ("fun main(a, n) { val t = (a, n); init = (t[0], n + 1); }",
     set(), ((1, 2), 12)),
    ("fun main(a, n) { val b = array(2){a}; val r = b[0]; r[0] = n;"
     " init = (a, n + 1); }", {"a"}, ((11, 2), 12)),
    ("fun main(a, n) { val m = max(a, a); m[1] = n; init = (a, n + 1); }",
     {"a"}, ((1, 11), 12)),
    ("fun main(a, n) { val z = array(2){0}; z[0] = a[0]; z[1] = a[1];"
     " init = (a, select(a == z, n + 2, n + 1)); }", {"a"}, ((1, 2), 24)),
    ("fun main(a, n) { val c = a + array(1){1};"
     " init = (a, select(c[2] > 0, n + 1, n)); }", {"a"}, ((1, 2), 12)),
]


@pytest.mark.parametrize("main, copied, final", COPY_CASES)
def test_copied_params_follow_aliases_and_meetings(main, copied, final):
    """BTA names the parameters a step may mutate through any alias or
    whose list type may show, and both engines run every case on frozen
    keys to the state they reached when every parameter was copied."""
    from repro.facile.compiler import compile_source
    from repro.facile.runtime import PlainEngine

    result = compile_source("val init = 0;\n" + main)
    assert {p.split("__")[0] for p in result.division.copied_params} == copied
    sim = result.simulator
    for make in (FastForwardEngine, PlainEngine):
        ctx = sim.make_context()
        ctx.write_global("init", ((1, 2), 0))
        make(sim, ctx).run(max_steps=12)
        assert freeze(ctx.read_global("init")) == final, make.__name__
