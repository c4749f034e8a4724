"""Concurrent snapshot-store access: racing writers never tear a file.

Several processes can share one content-addressed ``--cache-dir``
store, so the snapshot layer's atomicity claim (pid-suffixed tmp +
``os.replace``; see ``repro.facile.snapshot._atomic_write``) is load-
bearing: a reader racing any number of writers must observe either a
complete old file, a complete new file, or no file — never a torn mix
that shows up as a checksum/truncation rejection.

Two levels are exercised with real (``spawn``ed) processes: raw
writers hammering ``_atomic_write`` with alternating valid blobs while
the parent loads continuously, and two full simulator runs racing
save/load through one shared ``--cache-dir`` store.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.facile.runtime import ActionCache
from repro.facile.snapshot import (
    _atomic_write,
    engine_fingerprint,
    load_action_cache,
)
from repro.isa.simulate import compiled_functional_sim
from repro.workloads.suite import build_cached

from .simrun import run

_CTX = multiprocessing.get_context("spawn")


def _writer_main(dest: str, blob_a: bytes, blob_b: bytes, rounds: int) -> None:
    """Alternate two complete snapshot blobs onto one store path."""
    for i in range(rounds):
        _atomic_write(dest, blob_a if i % 2 == 0 else blob_b)


def _race_run_main(cache_dir: str, out_path: str) -> None:
    """One full simulator run against a shared store; results to JSON."""
    r = run("functional", build_cached("compress", 1), cache_dir=cache_dir)
    load = r.holder.snapshot_load
    json.dump(
        {
            "machine": r.machine(),
            "rejected": r.cache_stats.snapshot_rejected,
            "load_hit": load.hit if load is not None else None,
        },
        open(out_path, "w"),
    )


def _fresh_cache() -> ActionCache:
    return ActionCache()


@pytest.mark.slow
class TestAtomicWriteRace:
    def test_reader_never_sees_torn_file(self, tmp_path):
        program = build_cached("compress", 1)
        fp = engine_fingerprint(compiled_functional_sim().simulator, program)

        # Two complete, loadable blobs of the same fingerprint with
        # different content (the second run's cache is budget-bound: it
        # clears mid-run, so it ends with fewer entries).
        p_a, p_b = tmp_path / "a.facsnap", tmp_path / "b.facsnap"
        run("functional", program, cache_save=str(p_a))
        run("functional", program, cache_limit_bytes=80_000,
            cache_save=str(p_b))
        blob_a, blob_b = p_a.read_bytes(), p_b.read_bytes()
        entries_ok = set()
        for blob, path in ((blob_a, p_a), (blob_b, p_b)):
            info = load_action_cache(_fresh_cache(), path, fp)
            assert info.hit, info.reason
            entries_ok.add(info.entries)
        assert len(entries_ok) == 2

        dest = str(tmp_path / "store" / "racy.facsnap")
        writers = [
            _CTX.Process(
                target=_writer_main, args=(dest, blob_a, blob_b, 30)
            )
            for _ in range(2)
        ]
        for w in writers:
            w.start()
        hits = 0
        outcomes = set()
        try:
            while any(w.is_alive() for w in writers) or hits == 0:
                cache = _fresh_cache()
                info = load_action_cache(cache, dest, fp)
                if info.hit:
                    hits += 1
                    assert cache.stats.snapshot_rejected == 0
                    # a complete old or complete new file, nothing else
                    assert info.entries in entries_ok, info.entries
                else:
                    # before the first rename lands the file is absent;
                    # it must never be present-but-torn
                    assert info.reason == "missing", info.reason
                outcomes.add(info.hit)
        finally:
            for w in writers:
                w.join(60)
                assert w.exitcode == 0
        assert hits > 0

    def test_failed_write_leaves_no_tmp(self, tmp_path, monkeypatch):
        dest = tmp_path / "x.facsnap"

        class Boom(Exception):
            pass

        def boom(fd):
            raise Boom()

        # Simulate a writer dying mid-write: fsync raises, the tmp file
        # must be cleaned up and the destination never appear.
        monkeypatch.setattr(os, "fsync", boom)
        with pytest.raises(Boom):
            _atomic_write(dest, b"payload")
        assert not dest.exists()
        assert list(tmp_path.iterdir()) == []  # tmp was cleaned up


@pytest.mark.slow
class TestSharedStoreRace:
    def test_two_processes_one_store(self, tmp_path):
        """Two full runs race save/load through one --cache-dir store:
        both must simulate identically and reject nothing."""
        store = tmp_path / "store"
        outs = [tmp_path / f"out{i}.json" for i in range(2)]
        procs = [
            _CTX.Process(
                target=_race_run_main, args=(str(store), str(out))
            )
            for out in outs
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(300)
            assert p.exitcode == 0
        results = [json.load(open(out)) for out in outs]
        assert results[0]["machine"] == results[1]["machine"]
        for r in results:
            assert r["rejected"] == 0
        # The store holds complete snapshot(s); a fresh serial run
        # warm-starts from whoever won the race.
        follow = run("functional", build_cached("compress", 1),
                     cache_dir=str(store))
        assert follow.holder.snapshot_load.hit
        assert follow.machine() == results[0]["machine"]
        assert follow.cache_stats.snapshot_rejected == 0
