"""Replay-IR verifier, lowering lint, and uarch protocol audit tests.

The contract under test (ISSUE: repro check below the AST): every body
the C emitter accepts passes the verifier; verifier-rejected bytecode
never reaches the emitter (``assert_lowerable`` raises); verifier-clean
bodies execute under ``interpret_body`` without stack/local/slot
faults and agree bit-for-bit with the Python source they were compiled
from.  All verdicts are pure Python — identical with or without a C
toolchain.
"""

from __future__ import annotations

import functools
import json
import pathlib
import re
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.facile.analysis import check_model_file, run_check
from repro.facile.diagnostics import CODES, CODE_EXAMPLES, render_code_index
from repro.facile.ir_verify import (
    KERNEL_MAX_SLOTS,
    NATIVE_EXTERN_NAMES,
    assert_lowerable,
    audit_builtin_models,
    audit_config_key,
    audit_model,
    builtin_model_suite,
    verify_body,
    wrap_census,
)
from repro.facile.replay_ir import (
    BodyProgram,
    ExternTable,
    OP_ADD,
    OP_CONST,
    OP_END,
    OP_EXTERN,
    OP_IDIV,
    OP_JMP,
    OP_JZ,
    OP_LOCAL,
    OP_PH,
    OP_RETURN,
    OP_SHL,
    OP_SLOT,
    OP_STAT_COUNT,
    OP_STORE_LOCAL,
    OP_STORE_SLOT,
    OP_STORE_SLOT_OBJ,
    Unlowerable,
    compile_body,
    interpret_body,
)

FIXTURES = pathlib.Path(__file__).parent / "facile_violations"


def _body(lines, shapes="", is_verify=False, externs=None):
    return compile_body(
        0, list(lines), shapes, is_verify, externs or ExternTable()
    )


def _raw(code, n_locals=0, max_stack=8, shapes="", is_verify=False):
    """Hand-built (possibly corrupt) bytecode, bypassing compile_body."""
    return BodyProgram(0, code, n_locals, max_stack, shapes, is_verify,
                       False, "")


def _codes(findings):
    return sorted(f.code for f in findings)


class _NullCtx:
    mem = None


# ---------------------------------------------------------------------------
# Verifier accepts everything the body compiler emits
# ---------------------------------------------------------------------------


class TestVerifierAcceptsCompiled:
    @pytest.mark.parametrize("lines,shapes,is_verify", [
        (["_S[0] = (_ph0 + 7) * 3 - (_ph0 >> 2)"], "i", False),
        (["_S[0] = idiv(_S[1], _ph0) if _ph0 != 0 else -1"], "i", False),
        (["return 1 if _S[0] < _ph0 else 0"], "i", True),
        (["_t = _ph0 * 3", "_S[1] = _t if _t > 10 else -_t"], "i", False),
        (["_S[2] = min(max(_ph0, 3), 60) + popcount(_ph1)"], "ii", False),
        (["_S[0] = _ph0"], "o", False),  # object store via STORE_SLOT_OBJ
    ])
    def test_compiled_bodies_verify_clean(self, lines, shapes, is_verify):
        prog = _body(lines, shapes, is_verify)
        errors = [f for f in verify_body(prog, n_slots=8) if f.is_error]
        assert errors == []

    def test_extern_call_verifies_with_its_table(self):
        externs = ExternTable()
        prog = compile_body(
            0, ["_S[0] = _ctx.call_extern('probe', _ph0)"], "i", False,
            externs)
        assert prog.uses_extern
        errors = [
            f for f in verify_body(prog, n_slots=4, externs=externs)
            if f.is_error
        ]
        assert errors == []

    def test_every_builtin_sim_body_verifies(self):
        from repro.cli import _BUILTIN_SIMS, _builtin_sim_source
        from repro.facile.compiler import compile_source

        for name in _BUILTIN_SIMS:
            sim = compile_source(_builtin_sim_source(name)).simulator
            externs = ExternTable()
            for num, (lines, n_ph, is_verify) in enumerate(sim.action_bodies):
                prog = compile_body(num, lines, "i" * n_ph, is_verify,
                                    externs)
                findings = verify_body(
                    prog, n_slots=sim.slot_count, externs=externs)
                assert [f for f in findings if f.is_error] == [], (
                    name, num, findings)


# ---------------------------------------------------------------------------
# Verifier rejects corrupted bytecode — each code fires
# ---------------------------------------------------------------------------


class TestVerifierRejectsCorrupted:
    def test_stack_underflow_fac401(self):
        fs = verify_body(_raw([OP_ADD, 0, OP_END, 0]))
        assert "FAC401" in _codes(fs)

    def test_unbalanced_end_fac401(self):
        fs = verify_body(_raw([OP_CONST, 1, OP_END, 0]))
        assert "FAC401" in _codes(fs)

    def test_understated_max_stack_fac401(self):
        prog = _raw(
            [OP_CONST, 1, OP_CONST, 2, OP_ADD, 0, OP_STORE_SLOT, 0,
             OP_END, 0],
            max_stack=1,
        )
        assert "FAC401" in _codes(verify_body(prog, n_slots=4))

    def test_backward_jump_fac402(self):
        assert "FAC402" in _codes(verify_body(_raw([OP_JMP, 0, OP_END, 0])))

    def test_odd_length_code_fac402(self):
        assert "FAC402" in _codes(verify_body(_raw([OP_CONST, 1, OP_END])))

    def test_missing_end_fac402(self):
        assert "FAC402" in _codes(
            verify_body(_raw([OP_CONST, 1, OP_STORE_SLOT, 0]))
        )

    def test_return_outside_verify_fac402(self):
        fs = verify_body(_raw([OP_CONST, 1, OP_RETURN, 0, OP_END, 0]))
        assert "FAC402" in _codes(fs)

    def test_verify_body_that_cannot_return_fac402(self):
        fs = verify_body(_raw([OP_END, 0], is_verify=True))
        assert "FAC402" in _codes(fs)

    def test_uninitialized_local_fac403(self):
        prog = _raw([OP_LOCAL, 0, OP_STORE_SLOT, 0, OP_END, 0], n_locals=1)
        assert "FAC403" in _codes(verify_body(prog, n_slots=4))

    def test_object_into_arithmetic_fac403(self):
        prog = _raw(
            [OP_PH, 0, OP_CONST, 1, OP_ADD, 0, OP_STORE_SLOT, 0, OP_END, 0],
            shapes="o",
        )
        assert "FAC403" in _codes(verify_body(prog, n_slots=4))

    def test_int_into_object_store_fac403(self):
        prog = _raw([OP_CONST, 5, OP_STORE_SLOT_OBJ, 0, OP_END, 0])
        assert "FAC403" in _codes(verify_body(prog, n_slots=4))

    def test_slot_out_of_range_fac404(self):
        prog = _raw([OP_CONST, 1, OP_STORE_SLOT, 99, OP_END, 0])
        assert "FAC404" in _codes(verify_body(prog, n_slots=8))

    def test_slot_beyond_kernel_limit_fac404(self):
        prog = _raw(
            [OP_CONST, 1, OP_STORE_SLOT, KERNEL_MAX_SLOTS, OP_END, 0])
        # No n_slots hint: the kernel's own array bound still applies.
        assert "FAC404" in _codes(verify_body(prog))

    def test_placeholder_out_of_range_fac404(self):
        prog = _raw([OP_PH, 2, OP_STORE_SLOT, 0, OP_END, 0], shapes="i")
        assert "FAC404" in _codes(verify_body(prog, n_slots=4))

    def test_uninterned_extern_fac404(self):
        prog = _raw(
            [OP_CONST, 1, OP_EXTERN, 7 * 256 + 1, OP_STORE_SLOT, 0,
             OP_END, 0])
        assert "FAC404" in _codes(verify_body(prog, externs=ExternTable()))

    def test_jump_target_out_of_range_fac402(self):
        prog = _raw([OP_CONST, 1, OP_JZ, 99, OP_END, 0])
        assert "FAC402" in _codes(verify_body(prog))


class TestWrapAudit:
    def test_constant_overshift_fac405(self):
        prog = _raw(
            [OP_CONST, 1, OP_CONST, 70, OP_SHL, 0, OP_STORE_SLOT, 0,
             OP_END, 0])
        fs = verify_body(prog, n_slots=4)
        assert _codes(fs) == ["FAC405"]
        assert all(not f.is_error for f in fs)

    def test_constant_zero_divisor_fac405(self):
        prog = _raw(
            [OP_CONST, 1, OP_CONST, 0, OP_IDIV, 0, OP_STORE_SLOT, 0,
             OP_END, 0])
        assert "FAC405" in _codes(verify_body(prog, n_slots=4))

    def test_constant_counter_key_out_of_table_fac405(self):
        prog = _raw(
            [OP_CONST, 999, OP_CONST, 1, OP_STAT_COUNT, 0, OP_END, 0])
        assert "FAC405" in _codes(verify_body(prog))

    def test_in_range_constants_are_silent(self):
        prog = _body(["_S[0] = (_ph0 << 3) + idiv(_ph0, 5)"], "i")
        assert verify_body(prog, n_slots=4) == []

    def test_census_counts_guarded_and_wrapping_ops(self):
        prog = _body(["_S[0] = (_ph0 << 2) + _ph0 * 3 - idiv(_ph0, 7)"], "i")
        census = wrap_census(prog)
        assert census["SHL"] == 1
        assert census["IDIV"] == 1
        assert census["ADD"] == 1
        assert census["SUB"] == 1


# ---------------------------------------------------------------------------
# The per-body emitter gate
# ---------------------------------------------------------------------------


GOOD_BODY = [OP_PH, 0, OP_STORE_SLOT, 0, OP_END, 0]
BAD_BODY = [OP_ADD, 0, OP_END, 0]  # stack underflow


class TestBodyGate:
    def test_gate_accepts_clean_body(self):
        assert_lowerable(_raw(GOOD_BODY, shapes="i"), n_slots=4, externs=None)

    def test_gate_raises_on_rejected_body(self):
        with pytest.raises(Unlowerable, match="verifier"):
            assert_lowerable(_raw(BAD_BODY), n_slots=4, externs=None)


# ---------------------------------------------------------------------------
# Differential fuzz: random bodies through verifier + interpreter
# ---------------------------------------------------------------------------


@st.composite
def rand_exprs(draw, depth=0):
    """A random body expression over ``_ph0``/``_ph1``/``_S[1]`` that
    compile_body accepts; rendered as Python source text."""
    if depth >= 3 or draw(st.booleans()) and depth > 1:
        return draw(st.sampled_from([
            "_ph0", "_ph1", "_S[1]",
            str(draw(st.integers(-1000, 1000))),
        ]))
    kind = draw(st.sampled_from(
        ["bin", "shift", "cmp", "ternary", "call", "unary"]))
    a = draw(rand_exprs(depth=depth + 1))
    if kind == "bin":
        op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^"]))
        b = draw(rand_exprs(depth=depth + 1))
        return f"({a} {op} {b})"
    if kind == "shift":
        op = draw(st.sampled_from(["<<", ">>"]))
        return f"({a} {op} {draw(st.integers(0, 7))})"
    if kind == "cmp":
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
        b = draw(rand_exprs(depth=depth + 1))
        return f"(1 if {a} {op} {b} else 0)"
    if kind == "ternary":
        b = draw(rand_exprs(depth=depth + 1))
        c = draw(rand_exprs(depth=depth + 1))
        return f"({b} if {a} != 0 else {c})"
    if kind == "unary":
        return f"(-{a})"  # the body IR has NEG but no bitwise invert
    fn = draw(st.sampled_from(
        ["abs", "popcount", "s32", "idiv2", "imod2", "minmax"]))
    if fn == "idiv2":
        return f"idiv({a}, {draw(st.integers(1, 9))})"
    if fn == "imod2":
        return f"imod({a}, {draw(st.integers(1, 9))})"
    if fn == "minmax":
        b = draw(rand_exprs(depth=depth + 1))
        f = draw(st.sampled_from(["min", "max"]))
        return f"{f}({a}, {b})"
    return f"{fn}({a})"


def _eval_reference(lines, S, data):
    """Execute the body source with plain Python semantics — the same
    namespace trick the generated fast-action functions use."""
    from repro.facile.builtins import popcount, s32
    from repro.facile.codegen import idiv, imod

    ns = {
        "_S": S, "idiv": idiv, "imod": imod, "popcount": popcount,
        "s32": s32, "abs": abs, "min": min, "max": max,
    }
    for k, v in enumerate(data):
        ns[f"_ph{k}"] = v
    for line in lines:
        exec(line, ns)


class TestDifferentialFuzz:
    @settings(max_examples=120, deadline=None)
    @given(rand_exprs(), st.integers(-2**40, 2**40), st.integers(-2**40, 2**40))
    def test_clean_bodies_agree_with_python(self, expr, v0, v1):
        lines = [f"_S[0] = {expr}"]
        prog = _body(lines, "ii")
        findings = verify_body(prog, n_slots=4)
        assert [f for f in findings if f.is_error] == []
        S_ir = [0, 17, 0, 0]
        interpret_body(prog, _NullCtx(), S_ir, (v0, v1))
        S_py = [0, 17, 0, 0]
        _eval_reference(lines, S_py, (v0, v1))
        assert S_ir == S_py

    @settings(max_examples=120, deadline=None)
    @given(
        rand_exprs(),
        st.integers(0, 2**32),
        st.lists(
            st.tuples(st.integers(0, 63), st.integers(0, 255)),
            min_size=1, max_size=4,
        ),
    )
    def test_mutated_bytecode_never_reaches_emitter_unchecked(
            self, expr, seed, mutations):
        """Corrupt a compiled body at random positions: either the
        verifier rejects it (and the emitter gate raises), or the body
        still executes without stack/local/slot faults."""
        prog = _body([f"_S[0] = {expr}"], "ii")
        code = list(prog.code)
        for pos, val in mutations:
            code[pos % len(code)] = val
        bad = BodyProgram(0, code, prog.n_locals, prog.max_stack,
                          prog.shapes, prog.is_verify, prog.uses_extern,
                          prog.source)
        findings = verify_body(bad, n_slots=4, externs=ExternTable())
        if any(f.is_error for f in findings):
            with pytest.raises(Unlowerable):
                assert_lowerable(bad, n_slots=4, externs=ExternTable())
            return
        try:
            interpret_body(bad, _NullCtx(), [0, 17, 0, 0], (seed, 3))
        except IndexError as exc:  # pragma: no cover - verifier hole
            pytest.fail(
                f"verifier-clean body faulted on stack/locals: {exc}")
        except Exception:
            # Value-dependent runtime errors (div0, None memory, …) are
            # the kernel's guarded-op territory, not stack discipline.
            pass


# ---------------------------------------------------------------------------
# End-to-end: C backend parity on fuzz-generated dynamic bodies
# ---------------------------------------------------------------------------


from .simrun import requires_cc  # noqa: E402


@st.composite
def fac_exprs(draw, depth=0):
    """Random Facile expression over dynamic x, y (extern results)."""
    if depth >= 3 or (depth > 1 and draw(st.booleans())):
        return draw(st.sampled_from(
            ["x", "y", str(draw(st.integers(-99, 99)))]))
    a = draw(fac_exprs(depth=depth + 1))
    b = draw(fac_exprs(depth=depth + 1))
    kind = draw(st.sampled_from(["bin", "shift", "div", "cmp"]))
    if kind == "bin":
        op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^"]))
        return f"({a} {op} {b})"
    if kind == "shift":
        op = draw(st.sampled_from(["<<", ">>"]))
        return f"({a} {op} {draw(st.integers(0, 7))})"
    if kind == "div":
        op = draw(st.sampled_from(["/", "%"]))
        return f"({a} {op} (({b} & 7) + 1))"
    op = draw(st.sampled_from(["<", "<=", "==", "!="]))
    return f"(({a} {op} {b}) * 3)"


@requires_cc
class TestKernelFuzzParity:
    @settings(max_examples=25, deadline=None)
    @given(fac_exprs())
    def test_c_and_python_replay_agree(self, expr):
        from repro.facile import FastForwardEngine
        from repro.facile.compiler import compile_source

        src = f"""
        val init = 0;
        val out = 0;
        extern srcv(1);
        fun main(pc) {{
          val x = srcv(pc);
          val y = srcv(pc + 17);
          out = out + {expr};
          init = (pc + 1) % 4;
        }}
        """
        sim = compile_source(src).simulator

        def srcv(v):
            return ((v * 2654435761) & 0xFFFFFFFF) - (v & 1) * 1000

        outs = []
        for backend in ("c", "python"):
            ctx = sim.make_context({"srcv": srcv})
            ctx.write_global("init", 0)
            engine = FastForwardEngine(
                sim, ctx, replay_backend=backend)
            engine.run(max_steps=24)
            if backend == "c":
                # Keys cycle mod 4, so warm steps really replay — and
                # the gate verified every body the kernel ran.
                assert engine.backend_status["active"] == "c", (
                    engine.backend_status)
                native = engine._cnative
                assert native is not None
                assert native.chains_unlowerable == 0, native.summary()
            outs.append(ctx.read_global("out"))
        assert outs[0] == outs[1]


@requires_cc
@pytest.mark.parametrize("expr", [
    "(((x*x)+x) / ((((x+x)+x)&7)+1))",
    "(((x + (x + x)) < (x + (x * x))) * 3)",
    "((((x*x)*x) >> 70) & 7)",
    # Drawn by TestKernelFuzzParity when the kernel still wrapped: C
    # -4597383177734899256 and -1620285085078521180, Python
    # 32296104969684203976 and 53719947136050133668.
    "((x + x) + ((x + x) * (x >> 3)))",
    "((x + x) * (x / (((x + x) & 7) + 1)))",
    # ``out`` itself outgrows i64, so the kernel refuses to mirror it
    # and those calls replay in Python.
    "(x*x*x)",
])
def test_known_overflow_divergence(expr):
    """``TestKernelFuzzParity``'s program, run 24 steps per backend: an
    intermediate that leaves i64 hands its body back to the spec
    interpreter, after the body's two extern calls ran in the kernel."""
    from repro.facile import FastForwardEngine
    from repro.facile.compiler import compile_source

    sim = compile_source(f"""
    val init = 0;
    val out = 0;
    extern srcv(1);
    fun main(pc) {{
      val x = srcv(pc);
      val y = srcv(pc + 17);
      out = out + {expr};
      init = (pc + 1) % 4;
    }}
    """).simulator

    def srcv(v):
        return ((v * 2654435761) & 0xFFFFFFFF) - (v & 1) * 1000

    outs = {}
    for backend in ("c", "python"):
        ctx = sim.make_context({"srcv": srcv})
        ctx.write_global("init", 0)
        engine = FastForwardEngine(
            sim, ctx, replay_backend=backend)
        engine.run(max_steps=24)
        outs[backend] = ctx.read_global("out")
        if backend == "c" and expr != "(x*x*x)":
            assert engine._cnative.handbacks.get("E_OVF", 0) > 0, (
                engine._cnative.summary())
    assert outs["c"] == outs["python"]


#: Extern results at the edges the kernel checks: products near 2^32
#: and 2^63 (3037000499**2 fits in i64, 3037000500**2 does not) and
#: values near +-2^63.
_EDGES = [
    0, 1, -1, 7, 3037000499, 3037000500, -3037000500, 1 << 31,
    (1 << 32) - 1, 1 << 32, 1 << 62, -(1 << 62),
    (1 << 63) - 1, -(1 << 63), (1 << 63) - 2, -(1 << 63) + 1,
]

# One statement per guarded op; each overflows i64 on some pair of
# edges.  The last two are dynamic result tests, so the value that
# leaves i64 is a verify body's.
_EDGE_STMTS = [
    "out = (out * 31 + (x + y)) % 1000000007;",
    "out = (out * 31 + (x - y)) % 1000000007;",
    "out = (out * 31 + x * y) % 1000000007;",
    "out = (out * 31 + -x) % 1000000007;",
    "out = (out * 31 + abs(x)) % 1000000007;",
    "out = (out * 31 + (x << (y & 63))) % 1000000007;",
    "out = (out * 31 + x / (y | 1)) % 1000000007;",
    "out = (out * 31 + x?bits(0, 63 + (y & 1))) % 1000000007;",
    "if (x * y > x) { out = out + 1; }",
    "if (x + y > 0) { out = out + 1; }",
]


EDGE_FP = "ed" * 32


def _edge_sim(stmt):
    """The edge program for ``stmt`` and its externs: step ``pc`` reads
    the pair ``(_EDGES[pc // n], _EDGES[pc % n])``."""
    from repro.facile.compiler import compile_source

    n = len(_EDGES)
    sim = compile_source(f"""
    val init = 0;
    val out = 0;
    extern xv(1);
    extern yv(1);
    fun main(pc) {{
      val x = xv(pc);
      val y = yv(pc);
      {stmt}
      init = (pc + 1) % {n * n};
    }}
    """).simulator
    externs = {
        "xv": lambda pc: _EDGES[pc // n],
        "yv": lambda pc: _EDGES[pc % n],
    }
    return sim, externs


def _edge_run(sim, externs, backend, steps, snapshot=None):
    from repro.facile import FastForwardEngine

    ctx = sim.make_context(externs)
    ctx.write_global("init", 0)
    engine = FastForwardEngine(
        sim, ctx, replay_backend=backend)
    if snapshot is not None:
        assert engine.load_snapshot(str(snapshot), EDGE_FP).hit
    engine.run(max_steps=steps)
    return engine


@requires_cc
@pytest.mark.parametrize("stmt", _EDGE_STMTS)
def test_kernel_edge_values_agree(stmt):
    """Every pair of edges, recorded once and replayed once per
    backend: the kernel hands each overflowing body back and ends with
    the spec's ``out``."""
    from repro.facile.inspect import cache_summary

    sim, externs = _edge_sim(stmt)
    steps = 2 * len(_EDGES) ** 2
    py = _edge_run(sim, externs, "python", steps)
    c = _edge_run(sim, externs, "c", steps)
    native = c._cnative
    assert c.backend_status["active"] == "c"
    assert native.chains_unlowerable == 0, native.summary()
    assert native.handbacks, native.summary()
    assert "handed back to the spec: E_OVF" in cache_summary(c.cache, c)
    assert c.ctx.read_global("out") == py.ctx.read_global("out")


@requires_cc
@pytest.mark.parametrize("stmt", [_EDGE_STMTS[2], _EDGE_STMTS[8]])
def test_kernel_edge_values_agree_warm(stmt, tmp_path):
    """The same pairs replayed by an engine warm-started from a
    snapshot: the handed-back body's chain has no replay view until the
    hand-back builds it."""
    sim, externs = _edge_sim(stmt)
    steps = len(_EDGES) ** 2
    snap = tmp_path / "edges.facsnap"
    _edge_run(sim, externs, "c", steps).save_snapshot(str(snap), EDGE_FP)
    py = _edge_run(sim, externs, "python", steps)
    c = _edge_run(sim, externs, "c", steps, snapshot=snap)
    assert c.stats.steps_slow == 0
    assert c._cnative.handbacks.get("E_OVF", 0) > 0, c._cnative.summary()
    assert c.ctx.read_global("out") == py.ctx.read_global("out")


# ---------------------------------------------------------------------------
# Lane registration: the kernel's chain-level checks
# ---------------------------------------------------------------------------

# Two dynamic result tests per step: ``x > 3`` sees both outcomes per
# key (a multi-successor jump table once recovery grows it), ``parity``
# one outcome per key (a single expected value).
LANE_SRC = """
val init = 0;
val acc = 0;
extern srcv(1);
extern parity(1);
fun main(pc) {
  val x = srcv(pc);
  if (x > 3) { acc = acc + x; } else { acc = acc - pc; }
  if (parity(pc) == 1) { acc = acc + 2; }
  init = (pc + 1) % 4;
}
"""


def _lane_engine(backend):
    from repro.facile import FastForwardEngine
    from repro.facile.compiler import compile_source

    sim = compile_source(LANE_SRC).simulator
    calls = [0]

    def srcv(v):
        calls[0] += 1
        return (calls[0] * 7 + v) % 10

    ctx = sim.make_context({"srcv": srcv, "parity": lambda v: v & 1})
    ctx.write_global("init", 0)
    return FastForwardEngine(sim, ctx, replay_backend=backend)


def _lane_digest(engine):
    cs = engine.cache.stats
    return (engine.ctx.read_global("acc"), engine.stats.steps_total,
            cs.lookups, cs.hits, cs.misses_verify, cs.bytes_current)


def _slot_kinds(chain):
    """Every slot's kind: end, plain, eq (a verify with one expected
    value) or table (a verify with a jump table)."""
    from repro.facile.runtime import ENDMARK

    return [
        "end" if num == ENDMARK else "plain" if num >= 0
        else "eq" if s >= 0 else "table"
        for num, s in zip(chain.nums, chain.succ)
    ]


def _slot(chain, kind):
    return _slot_kinds(chain).index(kind)


def _lane(chain, name, i, value):
    lane = array("q", getattr(chain, name))
    lane[i] = value
    return {name: lane}


@functools.cache
def _lane_actions():
    """How many actions the lane program has: one past its last."""
    from repro.facile.compiler import compile_source

    return len(compile_source(LANE_SRC).simulator.action_bodies)


def _bad_table(chain):
    tables = [dict(t) for t in chain.tables]
    key = next(iter(tables[0]))
    tables[0][key] = len(chain.nums) + 1
    return {"tables": tables}


#: One corrupted lane (or jump table) per case, and the refusal reason.
CORRUPTIONS = {
    "end_index": (
        lambda ch: _lane(ch, "succ", _slot(ch, "end"), len(ch.ends)),
        "end-record index"),
    "data_outside_pool": (
        lambda ch: _lane(ch, "data", _slot(ch, "plain"), len(ch.pool.values)),
        "outside the pool"),
    "data_points_at_scalar": (
        lambda ch: _lane(ch, "data", _slot(ch, "plain"),
                         ch.succ[_slot(ch, "eq")]),
        "points at a scalar"),
    "verify_runs_plain_body": (
        lambda ch: _lane(ch, "nums", _slot(ch, "plain"),
                         ~ch.nums[_slot(ch, "plain")]),
        "verify slot runs a plain body"),
    "plain_runs_verify_body": (
        lambda ch: _lane(ch, "nums", _slot(ch, "eq"),
                         ~ch.nums[_slot(ch, "eq")]),
        "plain slot runs a verify body"),
    "table_index": (
        lambda ch: _lane(ch, "succ", _slot(ch, "table"), ~len(ch.tables)),
        "table index"),
    "table_successor": (_bad_table, "successor .* outside"),
    "expected_not_i64": (
        lambda ch: _lane(ch, "succ", _slot(ch, "eq"),
                         ch.data[_slot(ch, "eq")]),
        "non-int verify value"),
    "data_exceeds_i64": (
        lambda ch: _lane(ch, "data", _slot(ch, "plain"),
                         ch.pool.intern((1 << 70,))[0]),
        "data value exceeds i64"),
    "action_outside_table": (
        lambda ch: _lane(ch, "nums", _slot(ch, "plain"), _lane_actions()),
        r"action \d+: no recorded body"),
}


@requires_cc
class TestLaneRegistration:
    """Registration is the kernel's only check between the packed lanes
    and its unchecked walker: every malformed lane is refused, counted,
    and the entry keeps replaying on the Python loop."""

    def _recorded(self):
        """A C engine 40 steps in, and an entry whose chain has both a
        jump table and a single expected value."""
        engine = _lane_engine("c")
        engine.run(max_steps=40)
        entry = next(
            e for e in engine.cache.entries.values()
            if {"eq", "table"} <= set(_slot_kinds(e.packed))
        )
        return engine, entry

    def test_recorded_chain_registers_cleanly(self):
        from repro.facile.cbackend import plan_chain

        engine, entry = self._recorded()
        native = engine._cnative
        native.drop_entry(entry)
        assert plan_chain(native, entry) is not None
        assert native.chains_unlowerable == 0
        # Every action has a compiled body, in the rows the kernel got
        # when the engine started.
        rows = native.bodies.rows
        assert sum(row >= 0 for row in rows) == len(rows) > 0

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_corrupt_lane_is_refused(self, case):
        from repro.facile.cbackend import plan_chain

        corrupt, reason = CORRUPTIONS[case]
        engine, entry = self._recorded()
        native = engine._cnative
        chain = entry.packed
        native.drop_entry(entry)
        saved = {k: getattr(chain, k) for k in ("nums", "data", "succ",
                                                "tables")}
        for name, value in corrupt(chain).items():
            setattr(chain, name, value)
        try:
            with pytest.raises(Unlowerable, match=reason):
                native._add_chain(chain)
            assert plan_chain(native, entry) is None
        finally:
            for name, value in saved.items():
                setattr(chain, name, value)
        assert entry.cnative == -1
        assert native.chains_unlowerable == 1
        assert len(native.unlowerable_reasons) == 1
        engine.run(max_steps=60)
        ref = _lane_engine("python")
        ref.run(max_steps=40)
        ref.run(max_steps=60)
        assert _lane_digest(engine) == _lane_digest(ref)

    def test_rejected_body_refuses_its_chains(self, monkeypatch):
        from repro.facile import cbackend

        real = cbackend.assert_lowerable
        rejected = []

        def gate(prog, **kw):
            if prog.is_verify:
                rejected.append((prog.num, prog.shapes))
                raise Unlowerable(
                    f"action {prog.num}: rejected by the replay-IR verifier")
            return real(prog, **kw)

        monkeypatch.setattr(cbackend, "assert_lowerable", gate)
        engine = _lane_engine("c")
        engine.run(max_steps=100)
        native = engine._cnative
        # Every chain runs a verify body; each refusal is remembered.
        assert native.chains_lowered == 0
        assert native.chains_unlowerable > len(rejected) > 0
        assert len(rejected) == len(set(rejected))
        assert all("rejected by the replay-IR verifier" in r
                   for r in native.unlowerable_reasons)
        ref = _lane_engine("python")
        ref.run(max_steps=100)
        assert _lane_digest(engine) == _lane_digest(ref)

    def test_each_body_is_verified_once_per_simulator(self, monkeypatch):
        """Bodies are compiled and verified once per compiled simulator
        per process: each engine's kernel knows every compiled body from
        its start, and a second engine on the same simulator verifies
        nothing."""
        from repro.facile import FastForwardEngine, cbackend

        verified = []
        real = cbackend.assert_lowerable

        def counting(prog, **kw):
            verified.append((prog.num, prog.shapes))
            return real(prog, **kw)

        monkeypatch.setattr(cbackend, "assert_lowerable", counting)
        engine = _lane_engine("c")
        engine.run(max_steps=200)
        native = engine._cnative
        assert verified and len(verified) == len(set(verified))
        rows = native.bodies.rows
        assert [num for num, row in enumerate(rows) if row >= 0] == sorted(
            num for num, _ in verified)
        assert native.summary()["bodies_compiled"] == len(verified)
        # Recovery re-registers chains; their bodies are not re-verified.
        assert native.chains_lowered > len(engine.cache.entries)
        n = len(verified)
        ctx = engine.compiled.make_context(
            {"srcv": lambda v: (v * 7) % 10, "parity": lambda v: v & 1})
        ctx.write_global("init", 0)
        second = FastForwardEngine(engine.compiled, ctx, replay_backend="c")
        second.run(max_steps=200)
        assert len(verified) == n
        assert second._cnative.chains_lowered > 0
        assert second._cnative.summary()["bodies_compiled"] == n


#: Content address for the lane-program snapshots below.
LANE_FP = "cd" * 32


@requires_cc
class TestSnapshotLaneRegistration:
    """The bulk registration a snapshot load runs makes every check lane
    registration makes: each malformed lane, corrupted in the file under
    a re-sealed checksum, refuses that chain alone, with the reason a
    cold registration gives."""

    @pytest.fixture(scope="class")
    def good(self, tmp_path_factory):
        """A snapshot of the lane program 40 steps in, its entry with
        both a jump table and a single expected value, and that chain."""
        engine = _lane_engine("python")
        engine.run(max_steps=40)
        # A live pool value outside i64 for the data_exceeds_i64 case.
        engine.cache.pool.intern((1 << 70,))
        entries = [e for e in engine.cache.entries.values() if e.complete]
        k = next(i for i, e in enumerate(entries)
                 if {"eq", "table"} <= set(_slot_kinds(e.packed)))
        path = tmp_path_factory.mktemp("lanes") / "good.facsnap"
        engine.save_snapshot(str(path), LANE_FP)
        return path, k, entries[k].packed

    def _corrupt(self, good, case, tmp_path):
        from repro.facile.cbackend import _flatten_tables

        from .snapfile import patch, read_sections, reseal

        path, k, chain = good
        offsets, words = read_sections(path, LANE_FP)
        first = sum(words["rows"][0:6 * k:6])  # chain k's lane offset
        blob = bytearray(path.read_bytes())
        for name, value in CORRUPTIONS[case][0](chain).items():
            if name == "tables":
                toff = words["trows"][2 * k]
                for i, w in enumerate(_flatten_tables(value)):
                    patch(blob, offsets["ktabs"], toff + i, w)
                continue
            for i, (old, new) in enumerate(zip(getattr(chain, name), value)):
                if old != new:
                    patch(blob, offsets[name], first + i, new)
        bad = tmp_path / "bad.facsnap"
        bad.write_bytes(reseal(blob))
        return bad

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_corrupt_lane_in_file_is_refused(self, good, case, tmp_path):
        path, k, chain = good
        bad = self._corrupt(good, case, tmp_path)
        engine = _lane_engine("c")
        info = engine.load_snapshot(str(bad), LANE_FP)
        assert info.hit, info.reason
        native = engine._cnative
        entries = list(engine.cache.entries.values())
        assert [e.cnative for e in entries].count(-1) == 1
        assert entries[k].cnative == -1
        assert native.chains_unlowerable == 1
        (reason,) = native.unlowerable_reasons
        assert re.search(CORRUPTIONS[case][1], reason), reason
        # The refused chain replays on the Python loop from good lanes.
        loaded = entries[k].packed
        for name in ("nums", "data", "succ"):
            setattr(loaded, name, array("q", getattr(chain, name)))
        engine.run(max_steps=60)
        ref = _lane_engine("python")
        assert ref.load_snapshot(str(path), LANE_FP).hit
        ref.run(max_steps=60)
        assert _lane_digest(engine) == _lane_digest(ref)


# ---------------------------------------------------------------------------
# Uarch module-protocol audit (FAC5xx)
# ---------------------------------------------------------------------------


class TestProtocolAudit:
    def test_shipped_suite_is_conformant(self):
        assert audit_builtin_models() == []

    def test_suite_covers_the_native_registry(self):
        labels = {label for label, _, _ in builtin_model_suite()}
        assert {"FrontEndPredictor", "CacheHierarchy"} <= labels
        assert len(labels) >= 9

    def test_undeclared_array_fac501(self):
        from array import array

        class M:
            def __init__(self):
                self.table = array("q", [0] * 8)

            def config_key(self):
                return ("m",)

            def state_arrays(self):
                return {}

        assert "FAC501" in _codes(audit_model(M()))

    def test_mutable_container_fac502(self):
        class M:
            def __init__(self):
                self.history = []

            def config_key(self):
                return ("m",)

            def state_arrays(self):
                return {}

        assert "FAC502" in _codes(audit_model(M()))

    def test_underkeyed_config_fac503(self):
        class M:
            def __init__(self, entries=64):
                self.entries = entries

            def config_key(self):
                return ("m",)

            def state_arrays(self):
                return {}

        assert "FAC503" in _codes(audit_config_key(M))

    def test_malformed_surface_fac504(self):
        class M:
            def __init__(self):
                pass

            def config_key(self):
                return ("m",)

            def state_arrays(self):
                return ["not", "a", "dict"]

        assert _codes(audit_model(M())) == ["FAC504"]

    def test_stats_dataclasses_are_exempt(self):
        from repro.uarch.cache import CacheHierarchy

        # CacheHierarchy carries dataclass stats mirrors and a frozen
        # config; none of those may be flagged.
        assert audit_model(CacheHierarchy()) == []


# ---------------------------------------------------------------------------
# Analysis-stage integration: repro check below the AST
# ---------------------------------------------------------------------------


class TestCheckIntegration:
    def test_builtin_sims_run_ir_stage_clean(self):
        from repro.cli import _BUILTIN_SIMS, _builtin_sim_source

        for name in _BUILTIN_SIMS:
            rep = run_check(_builtin_sim_source(name), f"<builtin:{name}>")
            assert {"ir-verify", "ir-lowerability", "uarch-protocol"} <= set(
                rep.passes)
            assert rep.clean, rep.render_text()
            assert rep.ir["bodies_rejected"] == 0
            assert rep.ir["bodies_python"] == 0
            assert rep.ir["bodies_lowerable"] > 0

    def test_builtin_externs_are_all_native(self):
        from repro.cli import _builtin_sim_source

        rep = run_check(_builtin_sim_source("inorder"), "<builtin:inorder>")
        assert set(rep.ir["externs"]) <= NATIVE_EXTERN_NAMES

    def test_unlowerable_extern_fixture_yields_exactly_fac410(self):
        path = FIXTURES / "unlowerable_extern.fac"
        rep = run_check(path.read_text(), str(path))
        assert [d.code for d in rep.sink.sorted()] == ["FAC410"]
        # INFO severity: never affects the exit code, even under -Werror.
        assert rep.exit_code() == 0 and rep.exit_code(werror=True) == 0
        diag = rep.sink.sorted()[0]
        assert diag.span.is_known  # span hygiene: caret, not UNKNOWN_SPAN
        assert any("declined" in n.message for n in diag.notes)

    def test_non_native_extern_yields_fac411_with_provenance(self):
        rep = run_check(
            "val init;\nextern trace(1);\n"
            "fun main(pc) { trace(pc); init = pc; }\n"
        )
        codes = [d.code for d in rep.sink.sorted()]
        assert codes == ["FAC411"]
        note_text = " ".join(
            n.message for n in rep.sink.sorted()[0].notes)
        assert "native dispatch" in note_text

    def test_nonconformant_model_fixture_yields_exactly_fac502(self):
        rep = check_model_file(str(FIXTURES / "nonconformant_model.py"))
        assert [d.code for d in rep.sink.sorted()] == ["FAC502"]
        assert rep.exit_code() == 0 and rep.exit_code(werror=True) == 1
        assert rep.ir["model_classes_audited"] == 1

    def test_check_cli_routes_py_files(self, capsys):
        rc = main(["check", "--format", "json",
                   str(FIXTURES / "nonconformant_model.py")])
        assert rc == 0
        blob = json.loads(capsys.readouterr().out)
        assert [d["code"] for d in blob["files"][0]["diagnostics"]] == [
            "FAC502"]

    def test_ir_summary_in_json_schema(self):
        rep = run_check("val init; fun main(pc) { init = pc; }")
        blob = rep.to_json()
        assert "ir" in blob
        assert blob["ir"]["bodies_rejected"] == 0

    def test_only_filter_skips_codegen(self):
        rep = run_check(
            "val init; fun main(pc) { init = pc; }",
            only={"cache-blowup"},
        )
        assert rep.passes == ["cache-blowup"]
        assert rep.ir == {}

    def test_wrap_census_reported_not_diagnosed(self):
        from repro.cli import _builtin_sim_source

        rep = run_check(_builtin_sim_source("inorder"), "<builtin:inorder>")
        assert rep.ir["wrap_census"]  # ops present…
        assert "FAC405" not in [d.code for d in rep.sink.sorted()]  # …silent

    def test_explain_check_renders_ir_tier(self):
        from repro.facile.inspect import explain_check

        rep = run_check("val init; fun main(pc) { init = pc; }")
        text = explain_check(rep)
        assert "ir tier:" in text


# ---------------------------------------------------------------------------
# Diagnostics index: registry-generated docs stay fresh
# ---------------------------------------------------------------------------


class TestDiagnosticsIndex:
    def test_every_code_has_an_example(self):
        assert set(CODE_EXAMPLES) == set(CODES)

    def test_index_lists_every_code(self):
        text = render_code_index()
        for code in CODES:
            assert code in text

    def test_docs_file_is_fresh(self):
        path = pathlib.Path(__file__).parent.parent / "docs" / "DIAGNOSTICS.md"
        assert path.exists(), (
            "regenerate with: python -m repro.facile.diagnostics "
            "--write docs/DIAGNOSTICS.md")
        assert path.read_text() == render_code_index() + "\n", (
            "docs/DIAGNOSTICS.md is stale; regenerate with: "
            "python -m repro.facile.diagnostics --write docs/DIAGNOSTICS.md")
