"""Persistent action-cache snapshots: golden parity, robustness, and
shared-byte accounting.

The contract under test (see ``repro.facile.snapshot``): a warm-start
run loaded from a snapshot is *bit-identical* to a cold run on every
simulator; a stale, truncated, or corrupt snapshot degrades to a cold
start with a counted ``snapshot_rejected`` stat and never raises; and
the exact byte accounting — including the mmap-shared split — still
reconciles after a load, a copy-on-miss unpack, and a clear.
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
from repro.isa.simulate import run_facile_functional
from repro.ooo.facile_inorder import run_facile_inorder
from repro.ooo.facile_ooo import run_facile_ooo
from repro.ooo.fastsim import run_fastsim
from repro.workloads.suite import build_cached

from .accounting import assert_billing


def _run(sim_name, program, **snap):
    """One full run; returns (digest-of-everything, holder, result).

    The digest covers cycle counts and the architectural/statistical
    outputs the golden check compares bit-for-bit."""
    if sim_name == "functional":
        r = run_facile_functional(program, **snap)
        return (r.retired, tuple(r.regs), r.halted), r.engine, r
    if sim_name == "inorder":
        r = run_facile_inorder(program, **snap)
        return (r.stats, r.halted), r.engine, r
    if sim_name == "ooo":
        r = run_facile_ooo(program, **snap)
        return (r.stats, r.halted), r.engine, r
    r = run_fastsim(program, **snap)
    return (r.stats, r.func.halted), r, r


SIMS = ("functional", "inorder", "ooo", "fastsim")


@pytest.mark.parametrize("workload", ("compress", "go"))
@pytest.mark.parametrize("sim_name", SIMS)
def test_warm_start_bit_identical(tmp_path, workload, sim_name):
    """Golden check: warm-start runs produce bit-identical cycle counts
    and stats to cold runs on all three Facile simulators plus the
    hand-coded FastSim."""
    program = build_cached(workload, 1)
    snap = tmp_path / "cache.facsnap"
    cold_digest, cold_holder, _ = _run(sim_name, program, cache_save=str(snap))
    assert cold_holder.snapshot_save.hit
    assert snap.exists()

    warm_digest, warm_holder, warm_result = _run(
        sim_name, program, cache_load=str(snap)
    )
    load = warm_holder.snapshot_load
    assert load.hit, load.reason
    assert load.entries > 0
    assert warm_digest == cold_digest

    # The whole run must replay on the fast path: the snapshot held the
    # complete warmed cache.
    if sim_name == "fastsim":
        assert warm_holder.mstats.cycles_slow == 0
        assert warm_holder.mstats.cycles_recovered == 0
    else:
        assert warm_result.run_stats.steps_slow == 0 if hasattr(
            warm_result, "run_stats") else warm_result.stats.steps_slow == 0


@pytest.mark.parametrize("sim_name", ("functional", "ooo"))
def test_accounting_reconciles_after_load(tmp_path, sim_name):
    program = build_cached("compress", 1)
    snap = tmp_path / "cache.facsnap"
    _run(sim_name, program, cache_save=str(snap))
    _, holder, _ = _run(sim_name, program, cache_load=str(snap))
    cache = holder.cache if sim_name != "fastsim" else holder
    assert_billing(cache)
    assert cache.recount_shared_bytes() == cache.stats.bytes_shared
    assert cache.stats.bytes_shared > 0
    assert cache.stats.snapshot_entries > 0


def test_fastsim_accounting_reconciles_after_load(tmp_path):
    program = build_cached("compress", 1)
    snap = tmp_path / "cache.facsnap"
    run_fastsim(program, cache_save=str(snap))
    sim = run_fastsim(program, cache_load=str(snap))
    assert sim.recount_bytes() == sim.mstats.bytes_estimate
    assert sim.recount_shared_bytes() == sim.mstats.bytes_shared
    assert sim.mstats.bytes_shared > 0


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
    run_facile_functional(program, cache_save=str(snap))

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
    run_facile_functional(program, cache_save=str(snap))

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
    assert cache.recount_shared_bytes() == cache.stats.bytes_shared
    assert_billing(cache)


def test_eviction_after_load_keeps_exact_accounting(tmp_path):
    """A byte limit clears the cache while it holds mmap-shared entries
    from a snapshot; both audits stay reconciled through the clears and
    the recording that follows them."""
    from repro.isa.simulate import _prepare_context, compiled_functional_sim
    from repro.facile.runtime import FastForwardEngine

    program = build_cached("compress", 1)
    snap = tmp_path / "cache.facsnap"
    run_facile_functional(program, cache_save=str(snap))

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
    assert cache.recount_shared_bytes() == cache.stats.bytes_shared


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
    run_facile_functional(program, cache_save=str(path))
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
    from repro.facile.snapshot import MAGIC, _BOM, _HEADER, KIND_ACTION_CACHE

    path, program = snapshot_blob
    engine, fp = _functional_engine_with_snapshot(tmp_path, program)
    meta = b"\xff" * 64  # nonsense varints
    payload = meta + b"\0" * ((-len(meta)) % 8)
    header = _HEADER.pack(
        MAGIC, 1, KIND_ACTION_CACHE, bytes.fromhex(fp),
        len(meta), 0, hashlib.sha256(payload).digest(), _BOM,
    )
    bad = tmp_path / "garbage.facsnap"
    bad.write_bytes(header + payload)
    info = engine.load_snapshot(str(bad), fp)
    assert not info.hit
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
    first = run_facile_functional(program, cache_dir=str(tmp_path))
    assert first.engine.snapshot_load.reason == "missing"
    assert first.engine.snapshot_save.hit

    second = run_facile_functional(program, cache_dir=str(tmp_path))
    assert second.engine.snapshot_load.hit
    assert second.retired == first.retired
    assert second.regs == first.regs
    assert second.stats.steps_slow == 0


def test_warm_start_none_when_unrequested():
    program = build_cached("compress", 1)
    r = run_facile_functional(program)
    assert r.engine.snapshot_load is None
    assert r.engine.snapshot_save is None


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


def test_cache_summary_reports_shared_split(tmp_path):
    from repro.facile.inspect import cache_summary

    program = build_cached("compress", 1)
    snap = tmp_path / "cache.facsnap"
    run_facile_functional(program, cache_save=str(snap))
    _, holder, _ = _run("functional", program, cache_load=str(snap))
    text = cache_summary(holder.cache)
    assert "mmap-shared" in text
    assert "snapshot:" in text
    assert "rejected" in text
