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
    0       8     magic  b"FACSNAP\x01"
    8       4     format version (currently 4)
    12      4     kind (1 = facile ActionCache, 2 = fastsim memo)
    16      32    content-address fingerprint (sha-256 digest)
    48      8     meta length (bytes, before padding)
    56      8     stream length (bytes, multiple of 8)
    64      32    sha-256 of the payload (meta + padding + streams)
    96      8     byte-order probe (0x0102030405060708, host-endian)
    104     ...   meta blob: counts (varints) and one marshal blob of the
                  pool values, keys and jump tables, 8-padded
    ...     ...   stream blob: ``q`` sections (below)

The meta blob holds everything object-shaped.  Keys are mostly the very
objects the pool values hold (the next key a step writes into init), so
the pool values, keys, jump tables and FastSim's next keys share one
``marshal`` blob, which stores each shared object once; values marshal
cannot round-trip exactly follow it through a tagged codec.  The stream
blob holds fixed-width ``q`` sections that load without decoding: the
pool's refcounts and accounted costs, one row per chain (slots, end
slots, key cost, lane bytes), and the chains' ``nums``/``data``/``succ``
lanes as three columns.  An action-cache
snapshot adds the C kernel's image of them: the pool mirror (index,
kind, shape, offset and length per live value, plus the ``int64``
arena), the object references (pool index, member) of every non-int
tuple member, in registry order, with the index of the entry each one
keys (or -1), and the jump tables as kernel words.  The Python backend
ignores the image; a C engine installs it and registers every chain in
one kernel call, which checks each slot against the simulator's
compiled bodies
(:meth:`repro.facile.cbackend.CReplayBackend.load_image`).

On load the stream blob is **not copied**: each chain's lanes become
``memoryview`` slices of the mapped file (marked ``shared``), and the
resolved per-process replay view is built lazily on the entry's first
replay, so untouched entries cost no private RSS.  The file is mapped
copy-on-write, which nothing writes, so the kernel can read the lanes
in place.  Entries stay copy-on-miss: a verify miss reopens the entry
and copies its lanes into private arrays, which recovery appends to,
leaving the mapped file untouched; clears and the exact byte
accounting keep working, with mmap-backed bytes tracked separately in
``bytes_shared``.

A stale or corrupt snapshot can never produce a wrong simulation.  The
fingerprint covers the exact generated engine sources (action numbering
and machine parameters are baked into them) and the workload's memory
image; the payload is sha-256 checksummed; a C engine checks the
kernel image's offsets and indices before installing anything; and any
rejection — bad magic, version skew, truncation, checksum or
fingerprint mismatch, a bad kernel image, empty snapshot — counts a
``snapshot_rejected`` stat and degrades to a cold start.  A warm run
that changed nothing does not rewrite the file it loaded
(:meth:`WarmStart.finish`).
"""

from __future__ import annotations

import gc
import hashlib
import marshal
import mmap
import os
import pathlib
import struct
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import compress
from operator import not_
from typing import Any

from .runtime import (
    DICT_TAG,
    CacheEntry,
    EndRecord,
    PackedChain,
    SimulationError,
    _is_tuple,
)

MAGIC = b"FACSNAP\x01"
FORMAT_VERSION = 4
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


#: The exact types ``marshal`` round-trips besides tuples of them.
_MARSHAL_SCALARS = frozenset((type(None), bool, int, float, str, bytes))


def _marshal_safe(v: Any, safe: set | None = None) -> bool:
    """True when ``marshal`` round-trips ``v`` exactly: only None,
    bools, and *exact* ints/floats/strs/bytes/tuples.  Subclasses (a
    namedtuple, an IntEnum) would silently come back as the base type,
    so anything else falls back to the tagged codec.  Each tuple is
    checked by one scan of its members' types; ``safe`` collects the
    ids of tuples found safe, so a save checks a tuple that several
    values (or a value and a key) share once."""
    if type(v) is tuple and _MARSHAL_SCALARS.issuperset(map(type, v)):
        return True  # the common value: flat
    stack = [v]
    checked = []
    while stack:
        x = stack.pop()
        t = type(x)
        if t is not tuple:
            if t not in _MARSHAL_SCALARS:
                return False
            continue
        if safe is not None and id(x) in safe:
            continue
        types = set(map(type, x))
        nested = tuple in types
        if nested:
            types.discard(tuple)
        if not _MARSHAL_SCALARS.issuperset(types):
            return False
        if nested:
            stack.extend(filter(_is_tuple, x))
        checked.append(x)
    if safe is not None:
        safe.update(map(id, checked))
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
        "fastsim-memo-v2", repr(config), program_fingerprint(program)
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
        # Copy-on-write: pages stay shared with the page cache (and every
        # process mapping the file) until written, which nothing does,
        # and the C kernel can read the lanes in place.
        mm = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_COPY)
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
# Sections shared by both kinds: the pool and the chains
# ---------------------------------------------------------------------------

#: Words per entry row: slots, end slots, key cost and lane bytes.
#: The load reads each entry's accounting from here instead of
#: re-sizing its key and tables.
ROW_WORDS = 4


def _encode_chains(meta: bytearray, lanes: list, pool, keyed: list,
                   extra: tuple = ()) -> None:
    """Write the sections both kinds share for the sealed chains in
    ``keyed`` (``(key, chain, key_cost)`` each, in file order).

    ``meta`` gets the counts and one ``marshal`` blob holding the pool
    values, every key, the jump tables and the kind's ``extra``
    objects.  One blob, because the keys are mostly the very objects
    the pool values hold (the next key a step writes into init):
    ``marshal`` stores each shared object once, and the load gets them
    back shared.  A value ``marshal`` cannot round-trip exactly is
    left out of the blob and sent through the tagged codec after it.
    ``lanes`` gets the ``q`` sections: pool refcounts and accounted
    costs (slot for slot, free slots included, so the lanes' pool
    indices stay valid verbatim), one row per chain, and the chains'
    ``nums``, ``data`` and ``succ`` lanes as three columns.  The
    leading marshal version guards the blob across interpreter
    upgrades."""
    values = pool.values
    _w_u(meta, marshal.version)
    _w_u(meta, len(values))
    _w_u(meta, len(keyed))
    safe = list(values)
    # The keys are mostly members of pool values: checked once.
    checked: set[int] = set()
    patches = [i for i, v in enumerate(values)
               if not _marshal_safe(v, checked)]
    for i in patches:
        safe[i] = None
    parts = [
        tuple(key for key, _, _ in keyed),
        tuple((k, tuple(tuple(t.items()) for t in chain.tables))
              for k, (_, chain, _) in enumerate(keyed) if chain.tables),
        *extra,
    ]
    tagged = {id(part) for part in parts
              if not _marshal_safe(part, checked)}
    raw = marshal.dumps((safe, *[None if id(part) in tagged else part
                                 for part in parts]))
    _w_u(meta, len(raw))
    meta += raw
    _w_u(meta, len(patches))
    for i in patches:
        _w_u(meta, i)
        _encode_value(meta, values[i])
    for part in parts:
        if id(part) in tagged:
            _encode_value(meta, part)
    rows = array("q")
    cols = (array("q"), array("q"), array("q"))
    for _, chain, key_cost in keyed:
        rows.extend((len(chain.nums), len(chain.ends), key_cost,
                     chain.local_bytes))
        cols[0].frombytes(memoryview(chain.nums).cast("B"))
        cols[1].frombytes(memoryview(chain.data).cast("B"))
        cols[2].frombytes(memoryview(chain.succ).cast("B"))
    lanes += [array("q", pool._refs), array("q", pool._costs), rows, *cols]


@dataclass
class _Chains:
    """The shared sections of a snapshot, decoded (nothing installed)."""

    values: list
    refs: list
    costs: list
    keys: tuple
    rows: memoryview
    cols: tuple  # nums, data, succ columns
    tables: dict  # chain index -> its jump tables
    extra: tuple  # the kind's own objects


def _decode_chains(r: _Reader, qmv: memoryview,
                   n_extra: int = 0) -> tuple[_Chains, int]:
    """Decode :func:`_encode_chains`' sections (``n_extra`` extra
    objects); returns them and the ``q`` offset where the kind's own
    sections start."""
    if r.u() != marshal.version:
        raise SnapshotError("marshal version mismatch")
    n_pool = r.u()
    n = r.u()
    blob = marshal.loads(r.raw(r.u()))
    if type(blob) is not tuple or len(blob) != 3 + n_extra:
        raise SnapshotError("bad object blob")
    values, *parts = blob
    if type(values) is not list or len(values) != n_pool:
        raise SnapshotError("pool size mismatch")
    for _ in range(r.u()):
        i = r.u()
        if i >= n_pool:
            raise SnapshotError("pool index out of range")
        values[i] = r.value()
    parts = [r.value() if part is None else part for part in parts]
    keys, tabled, *extra = parts
    if type(keys) is not tuple or len(keys) != n:
        raise SnapshotError("key count mismatch")
    tables = {}
    for k, tabs in tabled:
        if not 0 <= k < n:
            raise SnapshotError("table owner out of range")
        tables[k] = [dict(t) for t in tabs]
    refs = qmv[:n_pool].tolist()
    costs = qmv[n_pool:2 * n_pool].tolist()
    q = 2 * n_pool
    rows = qmv[q:q + ROW_WORDS * n]
    q += ROW_WORDS * n
    if len(rows) != ROW_WORDS * n:
        raise SnapshotError("stream length mismatch")
    if n and min(rows) < 0:
        raise SnapshotError("negative entry row")
    if n_pool and (min(refs) < 0 or min(costs) < 0):
        raise SnapshotError("negative pool refcount or cost")
    total = sum(rows[0::ROW_WORDS])
    cols = tuple(qmv[q + j * total:q + (j + 1) * total] for j in range(3))
    q += 3 * total
    if q > len(qmv):
        raise SnapshotError("stream length mismatch")
    return _Chains(values, refs, costs, keys, rows, cols, tables,
                   tuple(extra)), q


def _mapped_chains(sec: _Chains, pool, ends_of) -> list[PackedChain]:
    """Sealed chains whose lanes are slices of the mapped lane columns,
    with the accounting the rows saved; ``ends_of(k, n_ends)`` makes
    chain ``k``'s ``ends``.  Replay views are built on first use."""
    nums_c, data_c, succ_c = sec.cols
    rl = sec.rows.tolist()
    tables = sec.tables
    chains = []
    off = 0
    for k, (n, n_ends, local) in enumerate(zip(
        rl[0::ROW_WORDS], rl[1::ROW_WORDS], rl[3::ROW_WORDS],
    )):
        end = off + n
        chain = PackedChain()
        chain.nums = nums_c[off:end]
        chain.data = data_c[off:end]
        chain.succ = succ_c[off:end]
        chain.tables = tables.get(k) or []
        chain.ends = ends_of(k, n_ends)
        chain.pool = pool
        chain.knums = chain.datavals = chain.sux = None
        chain.local_bytes = local
        chain.shared = True
        chains.append(chain)
        off = end
    return chains


@contextmanager
def _bulk_build():
    """A load builds hundreds of thousands of objects (keys, pool
    values, chains, entries) and no reference cycles, so cyclic
    collections during it would only walk them again: measured over the
    54 suite snapshots, they took about 60% of the load time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _install_pool(pool, sec: _Chains) -> None:
    """Install the pool slot for slot; its value index is built on the
    first intern or release."""
    if pool.values:
        raise SnapshotError("cannot load a snapshot into a non-empty pool")
    values, refs, costs = sec.values, sec.refs, sec.costs
    pool.values.extend(values)
    pool._refs.extend(refs)
    pool._costs.extend(costs)
    pool._index = None
    pool._free.extend(compress(range(len(refs)), map(not_, refs)))
    pool.bytes_live += sum(compress(costs, refs))


# ---------------------------------------------------------------------------
# Facile ActionCache snapshots (kind 1)
# ---------------------------------------------------------------------------


@dataclass
class KernelImage:
    """What the C replay kernel needs to take a snapshot's chains in
    bulk (see :meth:`repro.facile.cbackend.CReplayBackend.load_image`).
    Every lane is a ``q`` view of the mapped file."""

    shapes: tuple  # placeholder shape strings ('i'/'o' per member)
    mirror: memoryview  # per live value: index, kind, shape, offset, length
    arena: memoryview  # the mirrored values' words
    objrefs: memoryview  # per object registry id: pool index, member
    objsucc: memoryview  # per registry id: index of the entry it keys
    rows: memoryview  # the entries' rows (ROW_WORDS apart)
    row_words: int
    nums: memoryview  # the lane columns
    data: memoryview
    succ: memoryview
    trows: memoryview  # per entry: offset of its tables in ktabs, count
    ktabs: memoryview  # jump tables as [len, key, target, ...] words
    n_pool: int
    n_entries: int


def save_action_cache(cache, path, fingerprint: str, key_of=None) -> SnapshotInfo:
    """Serialize every complete (sealed) entry plus the intern pool and
    the kernel image of both.  ``key_of`` turns an init value into the
    key it would look up (the engine's ``_freeze_key``); with it, the
    image names the entry each pooled object keys, so a C engine
    warm-started from the file follows those boundaries in the kernel.
    The write is atomic (tmp file + rename), so several processes
    sharing one ``--cache-dir`` store can race on one store path
    safely."""
    from .cbackend import kernel_image

    entries = [e for e in cache.entries.values() if e.complete]
    meta = bytearray()
    lanes: list = []
    _encode_chains(meta, lanes, cache.pool,
                   [(e.key, e.packed, e.key_cost) for e in entries])
    position = {id(e): k for k, e in enumerate(entries)}
    live = cache.entries

    def entry_of(obj) -> int:
        if key_of is None:
            return -1
        try:
            entry = live.get(key_of(obj))
        except (SimulationError, TypeError):
            return -1
        return -1 if entry is None else position.get(id(entry), -1)

    image = kernel_image(cache.pool, [e.packed for e in entries], entry_of)
    shapes = image.pop("shapes")
    for name in ("mirror", "arena", "objrefs", "ktabs"):
        _w_u(meta, len(image[name]))
    _encode_value_fast(meta, shapes)
    lanes += [image[name] for name in (
        "mirror", "arena", "objrefs", "objsucc", "trows", "ktabs")]
    blob = _frame(KIND_ACTION_CACHE, fingerprint, bytes(meta),
                  b"".join(lanes))
    _atomic_write(path, blob)
    return SnapshotInfo(
        path=str(path), hit=True, entries=len(entries),
        shared_bytes=sum(e.packed.local_bytes for e in entries),
        pool_values=cache.pool.live_values(), file_bytes=len(blob),
    )


def _decode_image(r: _Reader, qmv: memoryview, q: int,
                  sec: _Chains) -> KernelImage:
    n = len(sec.keys)
    n_mirror, n_arena, n_objrefs, n_ktabs = r.u(), r.u(), r.u(), r.u()
    shapes = r.value()
    if type(shapes) is not tuple or not all(type(x) is str for x in shapes):
        raise SnapshotError("bad shape table")
    parts = []
    for size in (n_mirror, n_arena, n_objrefs, n_objrefs // 2, 2 * n,
                 n_ktabs):
        parts.append(qmv[q:q + size])
        q += size
    if q != len(qmv) or n_mirror % 5 or n_objrefs % 2:
        raise SnapshotError("stream length mismatch")
    mirror, arena, objrefs, objsucc, trows, ktabs = parts
    return KernelImage(shapes, mirror, arena, objrefs, objsucc, sec.rows,
                       ROW_WORDS, *sec.cols, trows, ktabs, len(sec.values),
                       n)


def _end_records(k: int, n_ends: int) -> list:
    if n_ends == 1:
        return [EndRecord()]
    return [EndRecord() for _ in range(n_ends)]


def load_action_cache(cache, path, fingerprint: str) -> SnapshotInfo:
    """Load a snapshot into an empty cache.  Never raises for a bad
    file: any rejection counts ``stats.snapshot_rejected`` and returns
    ``hit=False`` with the reason; a missing file is a plain miss.

    A C engine (``cache.native``) takes the kernel image in bulk:
    every chain registered in one kernel call, before the run."""
    with _bulk_build():
        return _load_action_cache(cache, path, fingerprint)


def _load_action_cache(cache, path, fingerprint: str) -> SnapshotInfo:
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
    native = cache.native
    try:
        sec, q = _decode_chains(r, qmv)
        image = _decode_image(r, qmv, q, sec)
        if not sec.keys:
            raise SnapshotError("empty")
        if native is not None:
            why = native.check_image(image)
            if why is not None:
                raise SnapshotError(why)
        chains = _mapped_chains(sec, cache.pool, _end_records)
    except Exception as exc:  # decode failed: reject, stay cold
        cache.stats.snapshot_rejected += 1
        info.reason = str(exc) or type(exc).__name__
        return info
    # Install phase: plain assignments only, cannot fail halfway.
    _install_pool(cache.pool, sec)
    stats = cache.stats
    generation = cache.generation
    entries = []
    total = 0
    for key, chain, key_cost in zip(sec.keys, chains,
                                    sec.rows[2::ROW_WORDS].tolist()):
        entry = CacheEntry(key, chain, generation, key_cost)
        entry.complete = True
        cache.entries[key] = entry
        entries.append(entry)
        total += key_cost
    shared = sum(sec.rows[3::ROW_WORDS])
    # Loaded bytes enter bytes_current (they are resident cache state
    # and recount_bytes must reconcile) but not bytes_cumulative, which
    # counts recording volume — nothing was recorded.
    stats.bytes_current += total + shared + cache.pool.bytes_live
    stats.bytes_shared += shared
    stats.snapshot_entries += len(entries)
    cache.snapshots.append(handle)
    if native is not None:
        native.load_image(image, entries)
    info.hit = True
    info.entries = len(entries)
    info.shared_bytes = shared
    info.pool_values = cache.pool.live_values()
    info.file_bytes = len(handle.mm)
    return info


# ---------------------------------------------------------------------------
# Fastsim memo snapshots (kind 2)
# ---------------------------------------------------------------------------


def save_fastsim_memo(sim, path, fingerprint: str) -> SnapshotInfo:
    """Serialize a :class:`~repro.ooo.fastsim.FastSimOoo` memo table:
    every sealed chain (one with a replay view, or still mmap-backed)
    and its next keys.  An open chain was interrupted mid-record and is
    not replayable."""
    from ..ooo.fastsim import _key_cost

    chains = [(key, chain) for key, chain in sim.memo.items()
              if chain.knums is not None or chain.shared]
    meta = bytearray()
    lanes: list = []
    _encode_chains(meta, lanes, sim.pool,
                   [(key, chain, _key_cost(key)) for key, chain in chains],
                   (tuple(tuple(chain.ends) for _, chain in chains),))
    blob = _frame(KIND_FASTSIM_MEMO, fingerprint, bytes(meta),
                  b"".join(lanes))
    _atomic_write(path, blob)
    return SnapshotInfo(
        path=str(path), hit=True, entries=len(chains),
        shared_bytes=sum(chain.local_bytes for _, chain in chains),
        pool_values=sim.pool.live_values(), file_bytes=len(blob),
    )


def load_fastsim_memo(sim, path, fingerprint: str) -> SnapshotInfo:
    """Load a fastsim memo snapshot; same contract as
    :func:`load_action_cache`."""
    with _bulk_build():
        return _load_fastsim_memo(sim, path, fingerprint)


def _load_fastsim_memo(sim, path, fingerprint: str) -> SnapshotInfo:
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
        sec, q = _decode_chains(r, qmv, 1)
        if q != len(qmv):
            raise SnapshotError("stream length mismatch")
        (next_keys,) = sec.extra
        if type(next_keys) is not tuple or len(next_keys) != len(sec.keys):
            raise SnapshotError("next-key count mismatch")
        if not sec.keys:
            raise SnapshotError("empty")
        chains = _mapped_chains(sec, sim.pool,
                                lambda k, n_ends: list(next_keys[k]))
    except Exception as exc:
        sim.mstats.snapshot_rejected += 1
        info.reason = str(exc) or type(exc).__name__
        return info
    _install_pool(sim.pool, sec)
    sim.memo.update(zip(sec.keys, chains))
    shared = sum(sec.rows[3::ROW_WORDS])
    mstats = sim.mstats
    mstats.bytes_estimate += (sum(sec.rows[2::ROW_WORDS]) + shared
                              + sim.pool.bytes_live)
    mstats.bytes_shared += shared
    mstats.snapshot_entries += len(chains)
    sim.snapshots.append(handle)
    info.hit = True
    info.entries = len(chains)
    info.shared_bytes = shared
    info.pool_values = sim.pool.live_values()
    info.file_bytes = len(handle.mm)
    return info


# ---------------------------------------------------------------------------
# Warm-start orchestration (runners and the CLI use this)
# ---------------------------------------------------------------------------


#: ``SnapshotInfo.reason`` of a save skipped because the run changed
#: nothing.
UNCHANGED = "unchanged since load, not saved"


@dataclass
class WarmStart:
    """Resolved snapshot paths for one run: load happened at
    construction (via :func:`warm_start`), :meth:`finish` saves.
    ``stamp`` is the target's ``snapshot_stamp()`` right after the
    load."""

    target: Any
    fingerprint: str
    save_path: str | None
    load_info: SnapshotInfo | None = None
    stamp: tuple = ()

    def finish(self) -> SnapshotInfo | None:
        """Save the (possibly grown) cache after the run, unless it
        would rewrite the file just loaded with what it already holds:
        a hit from the save path, and no entry made, sealed, reopened
        or cleared since.  Save failures are reported, never raised —
        the simulation results in hand are already correct."""
        if self.save_path is None:
            return None
        load = self.load_info
        if (load is not None and load.hit
                and load.path == str(self.save_path)
                and self.target.snapshot_stamp() == self.stamp):
            info = SnapshotInfo(path=str(self.save_path), reason=UNCHANGED)
            self.target.snapshot_save = info
            return info
        try:
            info = self.target.save_snapshot(self.save_path, self.fingerprint)
        except (OSError, SnapshotError) as exc:
            info = SnapshotInfo(
                path=self.save_path, hit=False, reason=f"save failed: {exc}"
            )
            self.target.snapshot_save = info
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
        ws.stamp = target.snapshot_stamp()
    return ws
