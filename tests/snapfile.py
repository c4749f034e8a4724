"""Byte-level access to an action-cache snapshot's sections, for tests
that corrupt one word of a file and re-seal its payload checksum."""

from __future__ import annotations

import ctypes
import hashlib
import struct

from repro.facile.snapshot import (
    _HEADER,
    KIND_ACTION_CACHE,
    _decode_chains,
    _decode_image,
    _open_snapshot,
)

#: The ``q`` sections of the kernel image, plus the entry rows and the
#: lane columns.
SECTIONS = ("rows", "nums", "data", "succ", "mirror", "arena", "objrefs",
            "objsucc", "trows", "ktabs")


def read_sections(path, fingerprint) -> tuple[dict, dict]:
    """``(offsets, words)``: each non-empty section's byte offset in the
    file, and its words as a list."""
    handle, r, qmv = _open_snapshot(path, KIND_ACTION_CACHE, fingerprint)
    sec, q = _decode_chains(r, qmv)
    image = _decode_image(r, qmv, q, sec)
    base = ctypes.addressof(ctypes.c_char.from_buffer(handle.mm))
    offsets, words = {}, {}
    for name in SECTIONS:
        view = getattr(image, name)
        words[name] = view.tolist()
        if len(view):
            addr = ctypes.addressof(ctypes.c_char.from_buffer(view))
            offsets[name] = addr - base
    return offsets, words


def patch(blob: bytearray, offset: int, index: int, value: int) -> None:
    """Overwrite word ``index`` of the section at byte ``offset``."""
    struct.pack_into("=q", blob, offset + 8 * index, value)


def reseal(blob: bytearray) -> bytes:
    """The file with its payload checksum recomputed."""
    blob[64:96] = hashlib.sha256(bytes(blob[_HEADER.size:])).digest()
    return bytes(blob)
