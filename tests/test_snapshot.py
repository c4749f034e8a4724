"""Persistent action-cache snapshots: golden parity, robustness,
shared-byte accounting, and the warm-start plumbing.

The contract under test (see ``repro.facile.snapshot``): a warm-start
run loaded from a snapshot is *bit-identical* to a cold run on every
simulator; a stale, truncated, or corrupt snapshot degrades to a cold
start with a counted ``snapshot_rejected`` stat and never raises; and
the exact byte accounting — including the mmap-shared split — still
reconciles after a load, a copy-on-miss unpack, and a clear.  The
golden check here runs the default configuration; the conformance
matrix (``test_conformance.py``) runs every backend, with and without
a cache limit, with the trace tier off.
"""

from __future__ import annotations

import pytest

from repro.facile.snapshot import (
    SnapshotError,
    engine_fingerprint,
    fastsim_fingerprint,
    program_fingerprint,
    store_path,
    warm_start,
)
from repro.workloads.suite import build_cached

from .accounting import assert_billing, assert_memo_billing
from .simrun import SIMS, requires_cc, run


@pytest.mark.parametrize("workload", ("compress", "go"))
@pytest.mark.parametrize("sim_name", SIMS)
def test_warm_start_bit_identical(tmp_path, workload, sim_name):
    """Golden check: warm-start runs produce bit-identical cycle counts
    and stats to cold runs on all three Facile simulators plus the
    hand-coded FastSim."""
    program = build_cached(workload, 1)
    snap = tmp_path / "cache.facsnap"
    cold = run(sim_name, program, cache_save=str(snap))
    assert cold.holder.snapshot_save.hit
    assert snap.exists()

    warm = run(sim_name, program, cache_load=str(snap))
    load = warm.holder.snapshot_load
    assert load.hit, load.reason
    assert load.entries > 0
    assert warm.machine() == cold.machine()
    assert warm.timing() == cold.timing()

    # The whole run must replay on the fast path: the snapshot held the
    # complete warmed cache.
    assert warm.slow() == (0, 0)


@pytest.mark.parametrize("sim_name", ("functional", "ooo"))
def test_accounting_reconciles_after_load(tmp_path, sim_name):
    program = build_cached("compress", 1)
    snap = tmp_path / "cache.facsnap"
    run(sim_name, program, cache_save=str(snap))
    cache = run(sim_name, program, cache_load=str(snap)).holder.cache
    assert_billing(cache)
    assert cache.stats.bytes_shared > 0
    assert cache.stats.snapshot_entries > 0


def test_fastsim_accounting_reconciles_after_load(tmp_path):
    program = build_cached("compress", 1)
    snap = tmp_path / "cache.facsnap"
    run("fastsim", program, cache_save=str(snap))
    sim = run("fastsim", program, cache_load=str(snap)).result
    assert_memo_billing(sim)
    assert sim.mstats.bytes_shared > 0


def test_fastsim_copy_on_miss_reopens_shared_lanes(tmp_path):
    """A FastSim snapshot loaded under a different branch predictor
    misses checks on mmap-shared chains.  Each miss reopens its chain
    and copies the lanes; the run equals a cold run with that
    predictor, both audits hold and the snapshot file is untouched."""
    from repro.ooo.fastsim import FastSimOoo
    from repro.uarch.branch import AlwaysTaken, FrontEndPredictor

    program = build_cached("compress", 1)
    snap = tmp_path / "cache.facsnap"
    run("fastsim", program, cache_save=str(snap))
    saved = snap.read_bytes()

    def always_taken():
        return FastSimOoo(
            program, predictor=FrontEndPredictor(direction=AlwaysTaken())
        )

    cold = always_taken()
    cold.run()
    warm = always_taken()
    info = warm.load_snapshot(str(snap))
    assert info.hit, info.reason
    warm.run()
    assert warm.stats == cold.stats
    assert warm.func.regs == cold.func.regs
    m = warm.mstats
    assert m.unpacks == m.misses_check > 0
    assert m.bytes_shared < info.shared_bytes
    assert_memo_billing(warm)
    assert snap.read_bytes() == saved


def _functional_engine_with_snapshot(tmp_path, program):
    """A fresh functional engine plus the snapshot path for it."""
    from repro.isa.simulate import _prepare_context, compiled_functional_sim
    from repro.facile.runtime import FastForwardEngine

    compiled = compiled_functional_sim().simulator
    ctx = _prepare_context(compiled, program)
    engine = FastForwardEngine(compiled, ctx)
    return engine, engine_fingerprint(compiled, program)


def test_loaded_entries_are_mmap_backed_and_lazy(tmp_path):
    """Loaded chains alias the mapped file (no stream copies) and build
    their replay view only on first use."""
    program = build_cached("compress", 1)
    snap = tmp_path / "cache.facsnap"
    run("functional", program, cache_save=str(snap))

    engine, fp = _functional_engine_with_snapshot(tmp_path, program)
    info = engine.load_snapshot(str(snap), fp)
    assert info.hit
    cache = engine.cache
    entry = next(iter(cache.entries.values()))
    chain = entry.packed
    assert chain.shared
    assert isinstance(chain.nums, memoryview)
    assert chain.knums is None  # replay view not built until first use

    engine.run(max_steps=1_000_000)
    assert any(
        e.packed.knums is not None for e in cache.entries.values()
    )


def test_copy_on_miss_unpack_updates_shared_bytes(tmp_path):
    program = build_cached("compress", 1)
    snap = tmp_path / "cache.facsnap"
    run("functional", program, cache_save=str(snap))

    engine, fp = _functional_engine_with_snapshot(tmp_path, program)
    engine.load_snapshot(str(snap), fp)
    cache = engine.cache
    before = cache.stats.bytes_shared
    entry = next(iter(cache.entries.values()))
    local = entry.packed.local_bytes
    lanes = [list(entry.packed.nums), list(entry.packed.succ)]
    cache.unpack_entry(entry)
    assert not entry.complete and not entry.packed.shared
    assert not isinstance(entry.packed.nums, memoryview)
    assert [list(entry.packed.nums), list(entry.packed.succ)] == lanes
    assert cache.stats.bytes_shared == before - local
    assert_billing(cache)


def test_eviction_after_load_keeps_exact_accounting(tmp_path):
    """A byte limit clears the cache while it holds mmap-shared entries
    from a snapshot; both audits stay reconciled through the clears and
    the recording that follows them."""
    from repro.isa.simulate import _prepare_context, compiled_functional_sim
    from repro.facile.runtime import FastForwardEngine

    program = build_cached("compress", 1)
    snap = tmp_path / "cache.facsnap"
    run("functional", program, cache_save=str(snap))

    compiled = compiled_functional_sim().simulator
    ctx = _prepare_context(compiled, program)
    engine = FastForwardEngine(compiled, ctx, cache_limit_bytes=64 * 1024)
    engine.load_snapshot(str(snap), engine_fingerprint(compiled, program))
    cache = engine.cache
    assert cache.stats.bytes_shared > 0
    engine.run(max_steps=1_000_000)
    assert ctx.halted
    assert cache.stats.clears > 0
    assert_billing(cache)


# ---------------------------------------------------------------------------
# Robustness: every bad snapshot falls back to a cold start
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def snapshot_blob(tmp_path_factory):
    """One good functional-sim snapshot (path, program) reused by the
    corruption tests."""
    tmp = tmp_path_factory.mktemp("snap")
    program = build_cached("compress", 1)
    path = tmp / "good.facsnap"
    run("functional", program, cache_save=str(path))
    return path, program


def _load_rejected(tmp_path, program, blob: bytes, reason_part: str):
    """Write ``blob`` as a snapshot, load it into a fresh engine, and
    assert the graceful-rejection contract."""
    bad = tmp_path / "bad.facsnap"
    bad.write_bytes(blob)
    engine, fp = _functional_engine_with_snapshot(tmp_path, program)
    info = engine.load_snapshot(str(bad), fp)
    assert not info.hit
    assert reason_part in info.reason
    assert engine.cache.stats.snapshot_rejected == 1
    assert not engine.cache.entries  # still cold
    # ... and the cold start still simulates correctly.
    stats = engine.run(max_steps=1_000_000)
    assert stats.steps_total > 0
    return info


def test_truncated_header_rejected(tmp_path, snapshot_blob):
    path, program = snapshot_blob
    _load_rejected(tmp_path, program, path.read_bytes()[:50], "truncated header")


def test_truncated_payload_rejected(tmp_path, snapshot_blob):
    path, program = snapshot_blob
    blob = path.read_bytes()
    _load_rejected(tmp_path, program, blob[: len(blob) // 2], "truncated payload")


def test_flipped_checksum_byte_rejected(tmp_path, snapshot_blob):
    path, program = snapshot_blob
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF  # flip a payload byte; the sha-256 must catch it
    _load_rejected(tmp_path, program, bytes(blob), "checksum mismatch")


def test_bad_magic_rejected(tmp_path, snapshot_blob):
    path, program = snapshot_blob
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    _load_rejected(tmp_path, program, bytes(blob), "bad magic")


def test_version_mismatch_rejected(tmp_path, snapshot_blob):
    path, program = snapshot_blob
    blob = bytearray(path.read_bytes())
    blob[8] = 99  # format-version field
    _load_rejected(tmp_path, program, bytes(blob), "version mismatch")


def test_fingerprint_mismatch_rejected(tmp_path, snapshot_blob):
    """A snapshot for a different (simulator × workload) pair is stale:
    rejected by fingerprint before any payload is trusted."""
    path, program = snapshot_blob
    engine, _fp = _functional_engine_with_snapshot(tmp_path, program)
    other = "ab" * 32
    info = engine.load_snapshot(str(path), other)
    assert not info.hit
    assert "fingerprint mismatch" in info.reason
    assert engine.cache.stats.snapshot_rejected == 1


def test_kind_mismatch_rejected(tmp_path, snapshot_blob):
    """An action-cache snapshot fed to the fastsim memoizer (same
    framing, different kind) is rejected, not misinterpreted."""
    path, program = snapshot_blob
    from repro.ooo.fastsim import FastSimOoo

    sim = FastSimOoo(program)
    info = sim.load_snapshot(str(path))
    assert not info.hit
    # Fingerprints differ between kinds, so either rejection reason is
    # a correct refusal; kind is checked when fingerprints collide.
    assert ("kind mismatch" in info.reason
            or "fingerprint mismatch" in info.reason)
    assert sim.mstats.snapshot_rejected == 1


def test_empty_snapshot_rejected(tmp_path):
    """Saving an empty cache produces a snapshot that loads as a
    rejection (nothing to warm-start from), not a crash."""
    program = build_cached("compress", 1)
    engine, fp = _functional_engine_with_snapshot(tmp_path, program)
    path = tmp_path / "empty.facsnap"
    engine.save_snapshot(str(path), fp)

    engine2, _ = _functional_engine_with_snapshot(tmp_path, program)
    info = engine2.load_snapshot(str(path), fp)
    assert not info.hit
    assert info.reason == "empty"
    assert engine2.cache.stats.snapshot_rejected == 1


def test_missing_snapshot_is_a_plain_miss(tmp_path):
    """A missing file is the normal first-run case — a miss, not a
    rejection."""
    program = build_cached("compress", 1)
    engine, fp = _functional_engine_with_snapshot(tmp_path, program)
    info = engine.load_snapshot(str(tmp_path / "nope.facsnap"), fp)
    assert not info.hit
    assert info.reason == "missing"
    assert engine.cache.stats.snapshot_rejected == 0


def test_load_into_nonempty_cache_refused(tmp_path, snapshot_blob):
    path, program = snapshot_blob
    engine, fp = _functional_engine_with_snapshot(tmp_path, program)
    engine.run(max_steps=100)  # warm it a little
    with pytest.raises(SnapshotError):
        engine.load_snapshot(str(path), fp)


def test_no_exception_escapes_from_garbage(tmp_path, snapshot_blob):
    """Random-ish structured garbage inside a valid frame must be
    caught by the decode phase, not escape to the caller."""
    import hashlib
    import struct
    from repro.facile.snapshot import (
        _BOM, _HEADER, FORMAT_VERSION, KIND_ACTION_CACHE, MAGIC,
    )

    path, program = snapshot_blob
    engine, fp = _functional_engine_with_snapshot(tmp_path, program)
    meta = b"\xff" * 64  # nonsense varints
    payload = meta + b"\0" * ((-len(meta)) % 8)
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, KIND_ACTION_CACHE, bytes.fromhex(fp),
        len(meta), 0, hashlib.sha256(payload).digest(), _BOM,
    )
    bad = tmp_path / "garbage.facsnap"
    bad.write_bytes(header + payload)
    info = engine.load_snapshot(str(bad), fp)
    assert not info.hit
    assert "version mismatch" not in info.reason
    assert engine.cache.stats.snapshot_rejected == 1


# ---------------------------------------------------------------------------
# Warm-start orchestration + CLI
# ---------------------------------------------------------------------------


def test_store_path_is_content_addressed(tmp_path):
    program = build_cached("compress", 1)
    fp = program_fingerprint(program)
    p = store_path(tmp_path, fp)
    assert p.parent == tmp_path
    assert p.name.endswith(".facsnap")
    assert fp.startswith(p.name[: -len(".facsnap")])


def test_warm_start_roundtrip_via_cache_dir(tmp_path):
    """Two runs against one --cache-dir: the first misses and saves,
    the second hits with identical simulation."""
    program = build_cached("compress", 1)
    first = run("functional", program, cache_dir=str(tmp_path))
    assert first.holder.snapshot_load.reason == "missing"
    assert first.holder.snapshot_save.hit

    second = run("functional", program, cache_dir=str(tmp_path))
    assert second.holder.snapshot_load.hit
    assert second.machine() == first.machine()
    assert second.slow() == (0, 0)


def test_warm_start_none_when_unrequested():
    program = build_cached("compress", 1)
    engine = run("functional", program).holder
    assert engine.snapshot_load is None
    assert engine.snapshot_save is None


def test_fastsim_fingerprint_separates_configs():
    from repro.ooo.common import MachineConfig

    program = build_cached("compress", 1)
    a = fastsim_fingerprint(program, MachineConfig())
    b = fastsim_fingerprint(program, MachineConfig(issue_width=2))
    assert a != b


def test_cli_warm_start_smoke(tmp_path, capsys):
    """The CI smoke contract: second --cache-dir run reports a snapshot
    hit and identical cycles."""
    from repro.cli import main

    cache_dir = str(tmp_path / "store")
    argv = ["workloads", "compress", "--scale", "1", "--sim", "ooo",
            "--cache-dir", cache_dir]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "snapshot: miss (missing) — cold start" in first
    assert "snapshot: saved" in first

    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "snapshot: hit" in second

    def cycles_line(text):
        return next(l for l in text.splitlines() if l.startswith("cycles"))

    assert cycles_line(first) == cycles_line(second)


@requires_cc
def test_cli_c_warm_start_reports_the_bulk_load(tmp_path, capsys):
    """On the C backend the warm run's hit line says what the load did
    (every chain registered at load, no boundary linked in Python), and
    the unchanged cache is not saved again."""
    from repro.cli import main

    argv = ["workloads", "compress", "--scale", "1", "--sim", "ooo",
            "--replay-backend=c", "--cache-dir", str(tmp_path / "store")]
    assert main(argv) == 0
    assert "snapshot: saved" in capsys.readouterr().out
    assert main(argv) == 0
    warm = capsys.readouterr().out
    hit = next(l for l in warm.splitlines() if l.startswith("snapshot: hit"))
    entries = hit.split("— ")[1].split(" entries")[0]
    assert f"; {entries} chains registered at load, 0 links in python" in hit
    assert "snapshot: unchanged since load, not saved" in warm
    assert "snapshot: saved" not in warm


def test_cache_summary_reports_shared_split(tmp_path):
    from repro.facile.inspect import cache_summary

    program = build_cached("compress", 1)
    snap = tmp_path / "cache.facsnap"
    run("functional", program, cache_save=str(snap))
    holder = run("functional", program, cache_load=str(snap)).holder
    text = cache_summary(holder.cache)
    assert "mmap-shared" in text
    assert "snapshot:" in text
    assert "rejected" in text


# ---------------------------------------------------------------------------
# Format version 3: the kernel image and its checks
# ---------------------------------------------------------------------------


def test_version_2_snapshot_is_refused(tmp_path, snapshot_blob):
    """A file of version 2, whose kernel image still listed the bodies
    its chains run, is refused with its reason, counted, and the run
    starts cold."""
    import struct

    path, program = snapshot_blob
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 8, 2)
    info = _load_rejected(tmp_path, program, bytes(blob), "version mismatch")
    assert info.reason == "version mismatch (snapshot v2, expected v3)"


def _c_functional_engine(program):
    from repro.facile.runtime import FastForwardEngine
    from repro.isa.simulate import _prepare_context, compiled_functional_sim

    compiled = compiled_functional_sim().simulator
    ctx = _prepare_context(compiled, program)
    engine = FastForwardEngine(compiled, ctx, replay_backend="c",
                               trace_jit=False)
    return engine, engine_fingerprint(compiled, program)


@requires_cc
@pytest.mark.parametrize("section, reason", [
    ("objsucc", "object successor out of range"),
    ("mirror", "mirror offset out of range"),
])
def test_bad_kernel_image_rejects_the_snapshot(tmp_path, snapshot_blob,
                                               section, reason):
    """An object-successor index or a mirror offset out of range, under
    a re-sealed checksum, rejects the snapshot on a C engine with a
    reason; the run starts cold and is correct.  The Python backend
    ignores the kernel image and still hits."""
    from repro.facile.cbackend import PK_TUPLE

    from .snapfile import patch, read_sections, reseal

    path, program = snapshot_blob
    engine, fp = _c_functional_engine(program)
    offsets, words = read_sections(path, fp)
    blob = bytearray(path.read_bytes())
    if section == "objsucc":
        assert words["objsucc"], "no pooled objects to corrupt"
        patch(blob, offsets["objsucc"], 0, len(words["rows"]) // 6)
    else:
        mirror = words["mirror"]
        row = next(i for i in range(0, len(mirror), 5)
                   if mirror[i + 1] == PK_TUPLE)
        patch(blob, offsets["mirror"], row + 3, len(words["arena"]))
    bad = tmp_path / "bad.facsnap"
    bad.write_bytes(reseal(blob))
    info = engine.load_snapshot(str(bad), fp)
    assert not info.hit
    assert reason in info.reason
    assert engine.cache.stats.snapshot_rejected == 1
    assert not engine.cache.entries
    engine.run(max_steps=1_000_000)
    cold = run("functional", program)
    assert engine.ctx.retired_total == cold.result.retired
    assert engine.stats.steps_slow == cold.holder.stats.steps_slow
    py, _ = _functional_engine_with_snapshot(tmp_path, program)
    assert py.load_snapshot(str(bad), fp).hit


@requires_cc
@pytest.mark.parametrize("sim_name", ("functional", "inorder", "ooo"))
def test_c_warm_start_runs_in_the_kernel(tmp_path, sim_name):
    """A C warm start from the same run registers every chain at load
    and resolves no step boundary in Python.  The simulator's body
    library, built by the cold run, compiles nothing more."""
    program = build_cached("compress", 1)
    snap = tmp_path / "cache.facsnap"
    cold = run(sim_name, program, replay_backend="c", cache_save=str(snap))
    library = cold.holder.compiled.body_library
    for _ in range(2):
        compiled_before = library.compiled_count
        r = run(sim_name, program, replay_backend="c", cache_load=str(snap))
        warm = r.holder
        ns = warm._cnative.summary()
        assert r.machine() == cold.machine()
        assert warm.snapshot_load.hit
        assert ns["chains_registered_at_load"] == warm.snapshot_load.entries
        assert ns["links_in_python"] == 0
        assert warm.stats.steps_slow == 0
    assert library.compiled_count == compiled_before
    assert ns["bodies_compiled"] == compiled_before


# ---------------------------------------------------------------------------
# Saves skip an unchanged cache
# ---------------------------------------------------------------------------


def _stat(path):
    st = path.stat()
    return path.read_bytes(), st.st_mtime_ns


@pytest.mark.parametrize("sim_name", ("ooo", "fastsim"))
def test_unchanged_warm_run_does_not_resave(tmp_path, sim_name):
    """A warm --cache-dir run that records nothing leaves the file as
    it was, and says so."""
    from repro.facile.snapshot import UNCHANGED

    program = build_cached("compress", 1)
    run(sim_name, program, cache_dir=str(tmp_path))
    (snap,) = tmp_path.glob("*.facsnap")
    before = _stat(snap)
    holder = run(sim_name, program, cache_dir=str(tmp_path)).holder
    assert holder.snapshot_load.hit
    assert not holder.snapshot_save.hit
    assert holder.snapshot_save.reason == UNCHANGED
    assert _stat(snap) == before


@pytest.mark.parametrize("sim_name", ("ooo", "fastsim"))
def test_explicit_save_path_is_always_written(tmp_path, sim_name):
    """--cache-load A --cache-save B still writes B."""
    program = build_cached("compress", 1)
    a, b = tmp_path / "a.facsnap", tmp_path / "b.facsnap"
    run(sim_name, program, cache_save=str(a))
    holder = run(sim_name, program, cache_load=str(a),
                 cache_save=str(b)).holder
    assert holder.snapshot_load.hit
    assert holder.snapshot_save.hit
    assert b.exists()


def test_warm_action_cache_run_that_recovers_resaves(tmp_path):
    """A warm run whose dynamic results differ from the recorded ones
    recovers, so the cache changed and the save goes through."""
    from repro.facile import FastForwardEngine
    from repro.facile.compiler import compile_source

    sim = compile_source("""
    val init = 0;
    val acc = 0;
    extern srcv(1);
    fun main(pc) {
      if (srcv(pc) > 3) { acc = acc + 1; } else { acc = acc - 1; }
      init = (pc + 1) % 4;
    }
    """).simulator
    fp = "ef" * 32

    def run(offset):
        ctx = sim.make_context({"srcv": lambda v: (v + offset) % 8})
        ctx.write_global("init", 0)
        engine = FastForwardEngine(sim, ctx)
        warm = warm_start(engine, fp, cache_dir=str(tmp_path))
        engine.run(max_steps=40)
        warm.finish()
        return engine

    run(0)
    (snap,) = tmp_path.glob("*.facsnap")
    before = _stat(snap)
    engine = run(3)
    assert engine.snapshot_load.hit
    assert engine.cache.stats.unpacks > 0
    assert engine.snapshot_save.hit
    assert _stat(snap) != before


def test_warm_fastsim_run_that_recovers_resaves(tmp_path):
    """FastSim's twin: another predictor misses checks on the loaded
    memo, and the save goes through."""
    from repro.ooo.fastsim import FastSimOoo
    from repro.uarch.branch import AlwaysTaken, FrontEndPredictor

    program = build_cached("compress", 1)
    run("fastsim", program, cache_dir=str(tmp_path))
    (snap,) = tmp_path.glob("*.facsnap")
    before = _stat(snap)
    sim = FastSimOoo(program,
                     predictor=FrontEndPredictor(direction=AlwaysTaken()))
    warm = warm_start(sim, sim.snapshot_fingerprint, cache_dir=str(tmp_path))
    sim.run()
    warm.finish()
    assert sim.snapshot_load.hit
    assert sim.mstats.unpacks > 0
    assert sim.snapshot_save.hit
    assert _stat(snap) != before


# ---------------------------------------------------------------------------
# FastSim follows its successors by identity
# ---------------------------------------------------------------------------


def test_fastsim_successors_never_outlive_a_clear():
    """Clearing the memo mid-run empties the successor table with it:
    no stale successor is followed, so a limited run equals an
    unlimited one and the billing audit holds."""
    program = build_cached("compress", 1)
    full = run("fastsim", program).result
    limited = run("fastsim", program,
                  cache_limit_bytes=full.mstats.bytes_estimate // 4).result
    assert limited.mstats.clears > 0
    assert limited.stats == full.stats
    assert limited.func.regs == full.func.regs
    assert_memo_billing(limited)
    assert limited._successors
    for key, chain in limited._successors.values():
        assert limited.memo[key] is chain
