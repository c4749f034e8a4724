"""Persistent, mmap-shared action-cache snapshots (warm starts).

Facile's memoization wins are rebuilt from scratch by every process: the
expensive slow-path warmup is paid on each run of the same (simulator ×
workload) pair.  This module makes the warmed cache durable.  Complete
flat-packed entries — the position-independent ``array('q')`` streams
plus the refcounted :class:`~repro.facile.runtime.InternPool` — are
serialized to a compact, versioned, checksummed snapshot, content-
addressed by a ``(compiled-simulator fingerprint, workload fingerprint)``
pair, and loaded back through ``mmap`` so a second run starts warm and
several processes sharing one ``--cache-dir`` store can map one snapshot
without duplicating the streams in RSS.

File layout (header integers little-endian)::

    offset  size  field
    0       8     magic  b"FACSNAP\\x01"
    8       4     format version (currently 1)
    12      4     kind (1 = facile ActionCache, 2 = fastsim memo)
    16      32    content-address fingerprint (sha-256 digest)
    48      8     meta length (bytes, before padding)
    56      8     stream length (bytes, multiple of 8)
    64      32    sha-256 of the payload (meta + padding + streams)
    96      8     byte-order probe (0x0102030405060708, host-endian)
    104     ...   meta blob (varint / tagged-value encoded), 8-padded
    ...     ...   stream blob: every entry's raw ``q`` lanes
                  (nums/data/succ or kinds/payload/succ), concatenated

The meta blob holds everything object-shaped — pool values and
refcounts, entry keys, jump tables, end-slot counts — while the stream
blob holds the hot replay lanes verbatim.  On load the stream blob is
**not copied**: each chain's lanes become ``memoryview`` slices of the
mapped file (marked ``shared``), and the resolved per-process replay
view is built lazily on the entry's first replay, so untouched entries
cost no private RSS.  Entries stay copy-on-miss: a verify miss reopens
the entry and copies its lanes into private arrays, which recovery
appends to, leaving the mapped file untouched; clears and
the exact byte accounting keep working, with mmap-backed bytes tracked
separately in ``bytes_shared``.

A stale or corrupt snapshot can never produce a wrong simulation.  The
fingerprint covers the exact generated engine sources (action numbering
and machine parameters are baked into them) and the workload's memory
image; the payload is sha-256 checksummed; and any rejection — bad
magic, version skew, truncation, checksum or fingerprint mismatch,
empty snapshot — counts a ``snapshot_rejected`` stat and degrades to a
cold start.
"""

from __future__ import annotations

import hashlib
import marshal
import mmap
import os
import pathlib
import struct
from dataclasses import dataclass, field
from typing import Any

from .runtime import (
    ENDMARK,
    POOL_SLOT_BYTES,
    DICT_TAG,
    CacheEntry,
    EndRecord,
    PackedChain,
    lane_bytes,
)

MAGIC = b"FACSNAP\x01"
FORMAT_VERSION = 1
KIND_ACTION_CACHE = 1
KIND_FASTSIM_MEMO = 2

#: magic, version, kind, fingerprint digest, meta_len, stream_len,
#: payload sha-256, byte-order probe.  104 bytes, a multiple of 8, so
#: the stream blob that follows the padded meta blob stays 8-aligned.
_HEADER = struct.Struct("<8sII32sQQ32s8s")
_BOM = struct.pack("=Q", 0x0102030405060708)

SNAPSHOT_SUFFIX = ".facsnap"


class SnapshotError(Exception):
    """A snapshot could not be written or was rejected at load."""


@dataclass
class SnapshotInfo:
    """Outcome of one snapshot load or save, surfaced for reporting."""

    path: str
    hit: bool = False
    reason: str = ""
    entries: int = 0
    shared_bytes: int = 0
    pool_values: int = 0
    file_bytes: int = 0


class SnapshotHandle:
    """Keeps a loaded snapshot's mmap alive for the cache's lifetime."""

    __slots__ = ("path", "mm")

    def __init__(self, path: str, mm: mmap.mmap):
        self.path = path
        self.mm = mm


# ---------------------------------------------------------------------------
# Varint + tagged-value codec
# ---------------------------------------------------------------------------

_T_NONE = 0
_T_FALSE = 1
_T_TRUE = 2
_T_INT = 3
_T_STR = 4
_T_BYTES = 5
_T_FLOAT = 6
_T_TUPLE = 7
_T_DICT_TAG = 8
_T_DECODED = 9
_T_MARSHAL = 10

_DECODED_FIELDS = (
    "kind", "cls", "rd", "rs1", "rs2", "use_imm", "imm",
    "op3", "cond", "annul", "disp", "name",
)


def _w_u(buf: bytearray, n: int) -> None:
    """LEB128 unsigned varint."""
    while n > 0x7F:
        buf.append((n & 0x7F) | 0x80)
        n >>= 7
    buf.append(n)


def _w_s(buf: bytearray, n: int) -> None:
    """Zigzag-encoded signed varint (arbitrary precision)."""
    _w_u(buf, (n << 1) if n >= 0 else ((-n << 1) - 1))


def _unzigzag(z: int) -> int:
    return (z >> 1) if not (z & 1) else -((z + 1) >> 1)


class _Reader:
    """Sequential reader over the meta blob."""

    __slots__ = ("mv", "pos")

    def __init__(self, mv: memoryview):
        self.mv = mv
        self.pos = 0

    def u(self) -> int:
        mv = self.mv
        pos = self.pos
        shift = 0
        result = 0
        while True:
            b = mv[pos]
            pos += 1
            result |= (b & 0x7F) << shift
            if not b & 0x80:
                break
            shift += 7
        self.pos = pos
        return result

    def s(self) -> int:
        return _unzigzag(self.u())

    def raw(self, n: int) -> bytes:
        data = bytes(self.mv[self.pos:self.pos + n])
        if len(data) != n:
            raise SnapshotError("meta blob underrun")
        self.pos += n
        return data

    def value(self) -> Any:
        tag = self.mv[self.pos]
        self.pos += 1
        if tag == _T_NONE:
            return None
        if tag == _T_FALSE:
            return False
        if tag == _T_TRUE:
            return True
        if tag == _T_INT:
            return self.s()
        if tag == _T_STR:
            return self.raw(self.u()).decode("utf-8")
        if tag == _T_BYTES:
            return self.raw(self.u())
        if tag == _T_FLOAT:
            return struct.unpack("<d", self.raw(8))[0]
        if tag == _T_TUPLE:
            n = self.u()
            return tuple(self.value() for _ in range(n))
        if tag == _T_DICT_TAG:
            return DICT_TAG
        if tag == _T_MARSHAL:
            return marshal.loads(self.raw(self.u()))
        if tag == _T_DECODED:
            from ..isa.sparclite import Decoded

            return Decoded(**{name: self.value() for name in _DECODED_FIELDS})
        raise SnapshotError(f"unknown value tag {tag}")


def _encode_value(buf: bytearray, v: Any) -> None:
    t = type(v)
    if v is None:
        buf.append(_T_NONE)
    elif t is bool:
        buf.append(_T_TRUE if v else _T_FALSE)
    elif t is int:
        buf.append(_T_INT)
        _w_s(buf, v)
    elif t is str:
        raw = v.encode("utf-8")
        buf.append(_T_STR)
        _w_u(buf, len(raw))
        buf += raw
    elif t is bytes:
        buf.append(_T_BYTES)
        _w_u(buf, len(v))
        buf += v
    elif t is float:
        buf.append(_T_FLOAT)
        buf += struct.pack("<d", v)
    elif t is tuple:
        buf.append(_T_TUPLE)
        _w_u(buf, len(v))
        for item in v:
            _encode_value(buf, item)
    elif v is DICT_TAG:
        buf.append(_T_DICT_TAG)
    else:
        from ..isa.sparclite import Decoded

        if t is Decoded:
            buf.append(_T_DECODED)
            for name in _DECODED_FIELDS:
                _encode_value(buf, getattr(v, name))
        else:
            raise SnapshotError(
                f"cannot serialize {t.__name__} value in a cache snapshot"
            )


def _marshal_safe(v: Any) -> bool:
    """True when ``marshal`` round-trips ``v`` exactly: only None,
    bools, and *exact* ints/floats/strs/bytes/tuples.  Subclasses (a
    namedtuple, an IntEnum) would silently come back as the base type,
    so anything else falls back to the tagged codec."""
    stack = [v]
    while stack:
        x = stack.pop()
        t = type(x)
        if t is tuple:
            stack.extend(x)
        elif not (x is None or t is bool or t is int or t is float
                  or t is str or t is bytes):
            return False
    return True


def _encode_value_fast(buf: bytearray, v: Any) -> None:
    """Encode ``v`` as one ``marshal`` blob when that round-trips
    exactly — entry keys are huge flat tuples of small ints, and
    decoding them element-by-element in Python dominates load time —
    falling back to the tagged codec otherwise."""
    if _marshal_safe(v):
        raw = marshal.dumps(v)
        buf.append(_T_MARSHAL)
        _w_u(buf, len(raw))
        buf += raw
    else:
        _encode_value(buf, v)


# ---------------------------------------------------------------------------
# Fingerprints: the content address of one (simulator × workload) pair
# ---------------------------------------------------------------------------


def combine_fingerprints(*parts: str) -> str:
    """Combine component fingerprints into one content address."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def program_fingerprint(program) -> str:
    """Stable hash of a workload: the exact memory image and entry
    state a simulation starts from.  Two programs with the same
    fingerprint replay identically from the same cache."""
    h = hashlib.sha256(b"facile-program-v1\0")
    h.update(struct.pack(
        "<QQQQ", program.text_base, program.data_base,
        program.entry, program.stack_top,
    ))
    for word in program.text_words:
        h.update(struct.pack("<I", word & 0xFFFFFFFF))
    h.update(b"\0data\0")
    h.update(bytes(program.data_bytes))
    return h.hexdigest()


def simulator_fingerprint(compiled) -> str:
    """Content fingerprint of a compiled simulator.

    The generated engine sources capture everything replay correctness
    depends on — action numbering, placeholder layout, key semantics,
    and the machine parameters baked into the Facile source — so
    hashing them (plus the structural fields) is both necessary and
    sufficient.  Extern substrates (cache/predictor state) are *not*
    fingerprinted: their results flow through dynamic result tests, so
    a substrate change causes verify misses and re-recording, never a
    wrong simulation.
    """
    h = hashlib.sha256(b"facile-sim-v1\0")
    for part in (
        compiled.name,
        str(compiled.param_count),
        str(compiled.init_slot),
        str(compiled.slot_count),
        str(int(compiled.init_flushed)),
        repr(sorted(compiled.global_slots.items())),
        compiled.source_slow,
        compiled.source_fast,
    ):
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def engine_fingerprint(compiled, program) -> str:
    """Content address for a facile engine snapshot: compiled simulator
    × workload."""
    sim_fp = compiled.fingerprint or simulator_fingerprint(compiled)
    return combine_fingerprints("facile-engine", sim_fp,
                                program_fingerprint(program))


def fastsim_fingerprint(program, config) -> str:
    """Content address for a fastsim memo snapshot: machine config ×
    workload (the event encoding is versioned by the leading tag)."""
    return combine_fingerprints(
        "fastsim-memo-v1", repr(config), program_fingerprint(program)
    )


def store_path(cache_dir, fingerprint: str) -> pathlib.Path:
    """Content-addressed location of a snapshot inside a cache dir."""
    return pathlib.Path(cache_dir) / f"{fingerprint[:40]}{SNAPSHOT_SUFFIX}"


# ---------------------------------------------------------------------------
# Framing: write and open snapshot files
# ---------------------------------------------------------------------------


def _frame(kind: int, fingerprint: str, meta: bytes, streams: bytes) -> bytes:
    pad = (-len(meta)) % 8
    payload = meta + b"\0" * pad + streams
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, kind, bytes.fromhex(fingerprint),
        len(meta), len(streams), hashlib.sha256(payload).digest(), _BOM,
    )
    return header + payload


def _atomic_write(path, blob: bytes) -> None:
    """Install ``blob`` at ``path`` so that a concurrent reader sees
    either the old complete file or the new complete file, never a torn
    mix: write to a pid-suffixed tmp (concurrent writers cannot collide
    on it), fsync so the rename can never expose a partially-flushed
    file after a crash, then ``os.replace`` (atomic on POSIX).  A
    failed write removes its tmp so processes racing on one shared
    ``--cache-dir`` store do not litter it."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as f:
            f.write(blob)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _open_snapshot(
    path, kind: int, fingerprint: str
) -> tuple[SnapshotHandle, _Reader, memoryview]:
    """Map a snapshot file and validate its header; returns the keep-
    alive handle, a meta reader, and the stream blob as a ``q`` view.
    Raises :class:`SnapshotError` with a stable reason on rejection and
    ``FileNotFoundError`` when the file does not exist."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < _HEADER.size:
            raise SnapshotError("truncated header")
        mm = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    magic, version, fkind, digest, meta_len, stream_len, payload_sha, bom = (
        _HEADER.unpack_from(mm, 0)
    )
    if magic != MAGIC:
        raise SnapshotError("bad magic")
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"version mismatch (snapshot v{version}, expected v{FORMAT_VERSION})"
        )
    if fkind != kind:
        raise SnapshotError("kind mismatch")
    if bom != _BOM:
        raise SnapshotError("byte-order mismatch")
    if digest != bytes.fromhex(fingerprint):
        raise SnapshotError("fingerprint mismatch")
    pad = (-meta_len) % 8
    if stream_len % 8:
        raise SnapshotError("misaligned streams")
    if _HEADER.size + meta_len + pad + stream_len != size:
        raise SnapshotError("truncated payload")
    view = memoryview(mm)
    payload = view[_HEADER.size:]
    if hashlib.sha256(payload).digest() != payload_sha:
        raise SnapshotError("checksum mismatch")
    meta_mv = view[_HEADER.size:_HEADER.size + meta_len]
    stream_off = _HEADER.size + meta_len + pad
    qmv = view[stream_off:stream_off + stream_len].cast("q")
    return SnapshotHandle(str(path), mm), _Reader(meta_mv), qmv


# ---------------------------------------------------------------------------
# Pool section (shared by both kinds)
# ---------------------------------------------------------------------------


def _encode_pool(meta: bytearray, pool) -> None:
    """Serialize the pool slot-for-slot (free slots are one byte), so
    the packed streams' pool indices stay valid verbatim and the save
    path can dump the ``q`` lanes without remapping.  Accounted costs
    are stored rather than recomputed at load — they are checksummed
    with everything else and recomputing ``value_bytes`` per slot is
    pure load-time overhead.  The leading marshal version guards the
    ``_T_MARSHAL`` fast path across interpreter upgrades."""
    values = pool.values
    refs = pool._refs
    costs = pool._costs
    _w_u(meta, marshal.version)
    _w_u(meta, len(values))
    for i in range(len(values)):
        r = refs[i]
        _w_u(meta, r)
        if r > 0:
            _w_u(meta, costs[i])
            _encode_value_fast(meta, values[i])


def _decode_pool_lists(r: _Reader) -> tuple[list, list, list]:
    if r.u() != marshal.version:
        raise SnapshotError("marshal version mismatch")
    n = r.u()
    values: list = []
    refs: list = []
    costs: list = []
    for _ in range(n):
        rc = r.u()
        refs.append(rc)
        if rc > 0:
            costs.append(r.u())
            values.append(r.value())
        else:
            costs.append(0)
            values.append(None)
    return values, refs, costs


def _install_pool(pool, values: list, refs: list, costs: list) -> None:
    if pool.values:
        raise SnapshotError("cannot load a snapshot into a non-empty pool")
    for i, (v, rc, cost) in enumerate(zip(values, refs, costs)):
        pool.values.append(v)
        pool._refs.append(rc)
        pool._costs.append(cost)
        if rc > 0:
            pool._index[v] = i
            pool.bytes_live += cost
        else:
            pool._free.append(i)


# ---------------------------------------------------------------------------
# Facile ActionCache snapshots (kind 1)
# ---------------------------------------------------------------------------


def save_action_cache(cache, path, fingerprint: str) -> SnapshotInfo:
    """Serialize every complete (sealed) entry plus the intern
    pool.  The write is atomic (tmp file + rename), so several
    processes sharing one ``--cache-dir`` store can race on one store
    path safely."""
    entries = [e for e in cache.entries.values() if e.complete]
    meta = bytearray()
    streams = bytearray()
    _encode_pool(meta, cache.pool)
    _w_u(meta, len(entries))
    # All keys as one bulk blob: the marshal fast path decodes the
    # whole key set at C speed instead of per-element in Python.
    _encode_value_fast(meta, tuple(e.key for e in entries))
    shared = 0
    for entry in entries:
        chain = entry.packed
        _w_u(meta, len(chain.nums))
        _w_u(meta, len(chain.ends))
        _w_u(meta, chain.n_records)
        _w_u(meta, chain.depth)
        _w_u(meta, len(chain.tables))
        for table in chain.tables:
            _w_u(meta, len(table))
            for value, slot in table.items():
                _encode_value_fast(meta, value)
                _w_u(meta, slot)
        streams += chain.nums.tobytes()
        streams += chain.data.tobytes()
        streams += chain.succ.tobytes()
        shared += chain.local_bytes
    blob = _frame(KIND_ACTION_CACHE, fingerprint, bytes(meta), bytes(streams))
    _atomic_write(path, blob)
    return SnapshotInfo(
        path=str(path), hit=True, entries=len(entries), shared_bytes=shared,
        pool_values=cache.pool.live_values(), file_bytes=len(blob),
    )


def load_action_cache(cache, path, fingerprint: str) -> SnapshotInfo:
    """Load a snapshot into an empty cache.  Never raises for a bad
    file: any rejection counts ``stats.snapshot_rejected`` and returns
    ``hit=False`` with the reason; a missing file is a plain miss."""
    info = SnapshotInfo(path=str(path))
    if cache.entries or cache.pool.values:
        raise SnapshotError("cannot load a snapshot into a non-empty cache")
    try:
        handle, r, qmv = _open_snapshot(path, KIND_ACTION_CACHE, fingerprint)
    except FileNotFoundError:
        info.reason = "missing"
        return info
    except (SnapshotError, OSError, ValueError) as exc:
        cache.stats.snapshot_rejected += 1
        info.reason = str(exc)
        return info
    try:
        pool_values, pool_refs, pool_costs = _decode_pool_lists(r)
        n_entries = r.u()
        keys = r.value()
        if len(keys) != n_entries:
            raise SnapshotError("key count mismatch")
        built: list[tuple[Any, PackedChain]] = []
        qoff = 0
        for key in keys:
            n = r.u()
            n_ends = r.u()
            n_records = r.u()
            depth = r.u()
            n_tables = r.u()
            tables: list[dict] = []
            for _ in range(n_tables):
                count = r.u()
                table: dict = {}
                for _ in range(count):
                    value = r.value()
                    table[value] = r.u()
                tables.append(table)
            chain = PackedChain()
            chain.nums = qmv[qoff:qoff + n]
            chain.data = qmv[qoff + n:qoff + 2 * n]
            chain.succ = qmv[qoff + 2 * n:qoff + 3 * n]
            qoff += 3 * n
            chain.tables = tables
            chain.ends = [EndRecord() for _ in range(n_ends)]
            chain.pool = cache.pool
            chain.knums = None
            chain.datavals = None
            chain.sux = None
            chain.n_records = n_records
            chain.depth = depth
            chain.local_bytes = lane_bytes(n, tables)
            chain.shared = True
            built.append((key, chain))
        if qoff != len(qmv):
            raise SnapshotError("stream length mismatch")
        if not built:
            raise SnapshotError("empty")
    except Exception as exc:  # decode failed: reject, stay cold
        cache.stats.snapshot_rejected += 1
        info.reason = str(exc) or type(exc).__name__
        return info
    # Install phase: plain assignments only, cannot fail halfway.
    _install_pool(cache.pool, pool_values, pool_refs, pool_costs)
    stats = cache.stats
    total = 0
    shared = 0
    for key, chain in built:
        entry = CacheEntry(key, chain, cache.generation)
        entry.complete = True
        cache.entries[key] = entry
        total += entry.nbytes
        shared += chain.local_bytes
    # Loaded bytes enter bytes_current (they are resident cache state
    # and recount_bytes must reconcile) but not bytes_cumulative, which
    # counts recording volume — nothing was recorded.
    stats.bytes_current += total + cache.pool.bytes_live
    stats.bytes_shared += shared
    stats.snapshot_entries += len(built)
    cache.snapshots.append(handle)
    info.hit = True
    info.entries = len(built)
    info.shared_bytes = shared
    info.pool_values = cache.pool.live_values()
    info.file_bytes = len(handle.mm)
    return info


# ---------------------------------------------------------------------------
# Fastsim memo snapshots (kind 2)
# ---------------------------------------------------------------------------


def save_fastsim_memo(sim, path, fingerprint: str) -> SnapshotInfo:
    """Serialize a :class:`~repro.ooo.fastsim.FastSimOoo` memo table
    (every completed cycle is packed; an unpacked root was interrupted
    mid-record and is not replayable)."""
    roots = [(key, root) for key, root in sim.memo.items()
             if root.packed is not None]
    meta = bytearray()
    streams = bytearray()
    _encode_pool(meta, sim.pool)
    _w_u(meta, len(roots))
    _encode_value_fast(meta, tuple(key for key, _ in roots))
    shared = 0
    for key, root in roots:
        chain = root.packed
        _w_u(meta, len(chain.kinds))
        _w_u(meta, len(chain.tables))
        for table in chain.tables:
            _w_u(meta, len(table))
            for value, slot in table.items():
                _encode_value_fast(meta, value)
                _w_u(meta, slot)
        _encode_value_fast(meta, tuple(chain.next_keys))
        streams += chain.kinds.tobytes()
        streams += chain.payload.tobytes()
        streams += chain.succ.tobytes()
        shared += chain.local_bytes
    blob = _frame(KIND_FASTSIM_MEMO, fingerprint, bytes(meta), bytes(streams))
    _atomic_write(path, blob)
    return SnapshotInfo(
        path=str(path), hit=True, entries=len(roots), shared_bytes=shared,
        pool_values=sim.pool.live_values(), file_bytes=len(blob),
    )


def load_fastsim_memo(sim, path, fingerprint: str) -> SnapshotInfo:
    """Load a fastsim memo snapshot; same contract as
    :func:`load_action_cache`."""
    from ..ooo.fastsim import _PackedCycle, _Node

    info = SnapshotInfo(path=str(path))
    if sim.memo or sim.pool.values:
        raise SnapshotError("cannot load a snapshot into a non-empty memo")
    try:
        handle, r, qmv = _open_snapshot(path, KIND_FASTSIM_MEMO, fingerprint)
    except FileNotFoundError:
        info.reason = "missing"
        return info
    except (SnapshotError, OSError, ValueError) as exc:
        sim.mstats.snapshot_rejected += 1
        info.reason = str(exc)
        return info
    try:
        pool_values, pool_refs, pool_costs = _decode_pool_lists(r)
        n_roots = r.u()
        keys = r.value()
        if len(keys) != n_roots:
            raise SnapshotError("key count mismatch")
        built = []
        qoff = 0
        for key in keys:
            n = r.u()
            n_tables = r.u()
            tables: list[dict] = []
            for _ in range(n_tables):
                count = r.u()
                table: dict = {}
                for _ in range(count):
                    value = r.value()
                    table[value] = r.u()
                tables.append(table)
            next_keys = list(r.value())
            chain = _PackedCycle()
            chain.kinds = qmv[qoff:qoff + n]
            chain.payload = qmv[qoff + n:qoff + 2 * n]
            chain.succ = qmv[qoff + 2 * n:qoff + 3 * n]
            qoff += 3 * n
            chain.tables = tables
            chain.next_keys = next_keys
            chain.kkinds = None
            chain.payload_vals = None
            chain.sux = None
            chain.local_bytes = lane_bytes(n, tables)
            chain.shared = True
            built.append((key, chain))
        if qoff != len(qmv):
            raise SnapshotError("stream length mismatch")
        if not built:
            raise SnapshotError("empty")
    except Exception as exc:
        sim.mstats.snapshot_rejected += 1
        info.reason = str(exc) or type(exc).__name__
        return info
    _install_pool(sim.pool, pool_values, pool_refs, pool_costs)
    mstats = sim.mstats
    total = 0
    shared = 0
    for key, chain in built:
        root = _Node()
        root.key_cost = 8 * (8 + 6 * len(key[0]) + 33)
        root.packed = chain
        root.nbytes = root.key_cost + chain.local_bytes
        sim.memo[key] = root
        total += root.nbytes
        shared += chain.local_bytes
    mstats.bytes_estimate += total + sim.pool.bytes_live
    mstats.bytes_shared += shared
    mstats.snapshot_entries += len(built)
    sim.snapshots.append(handle)
    info.hit = True
    info.entries = len(built)
    info.shared_bytes = shared
    info.pool_values = sim.pool.live_values()
    info.file_bytes = len(handle.mm)
    return info


# ---------------------------------------------------------------------------
# Warm-start orchestration (runners and the CLI use this)
# ---------------------------------------------------------------------------


@dataclass
class WarmStart:
    """Resolved snapshot paths for one run: load happened at
    construction (via :func:`warm_start`), :meth:`finish` saves."""

    target: Any
    fingerprint: str
    save_path: str | None
    load_info: SnapshotInfo | None = None
    save_info: SnapshotInfo | None = field(default=None)

    def finish(self) -> SnapshotInfo | None:
        """Save the (possibly grown) cache after the run.  Save
        failures are reported, never raised — the simulation results in
        hand are already correct."""
        if self.save_path is None:
            return None
        try:
            info = self.target.save_snapshot(self.save_path, self.fingerprint)
        except (OSError, SnapshotError) as exc:
            info = SnapshotInfo(
                path=self.save_path, hit=False, reason=f"save failed: {exc}"
            )
            self.target.snapshot_save = info
        self.save_info = info
        return info


def warm_start(
    target,
    fingerprint: str,
    cache_dir=None,
    cache_load=None,
    cache_save=None,
) -> WarmStart | None:
    """Wire snapshot load/save paths to an engine-like target (anything
    with ``load_snapshot``/``save_snapshot``).  Explicit paths win;
    ``cache_dir`` resolves both through the content-addressed store.
    Returns ``None`` when no snapshot option was requested."""
    if cache_dir is None and cache_load is None and cache_save is None:
        return None
    store = str(store_path(cache_dir, fingerprint)) if cache_dir else None
    load_path = cache_load or store
    save_path = cache_save or store
    ws = WarmStart(target=target, fingerprint=fingerprint, save_path=save_path)
    if load_path is not None:
        ws.load_info = target.load_snapshot(load_path, fingerprint)
    return ws
