"""Program images for SPARC-lite targets.

A :class:`Program` is the output of the assembler (or the minic
compiler): a text segment of instruction words, a data segment of raw
bytes, an entry point, and a symbol table.  ``load_into`` writes the
image into any object exposing the :class:`repro.facile.runtime.Memory`
interface (both the Facile simulators' contexts and the standalone
Python simulators use it).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

DEFAULT_TEXT_BASE = 0x0000_1000
DEFAULT_DATA_BASE = 0x0010_0000
DEFAULT_STACK_TOP = 0x007F_FFF0


@dataclass
class Program:
    text_base: int = DEFAULT_TEXT_BASE
    text_words: list[int] = field(default_factory=list)
    data_base: int = DEFAULT_DATA_BASE
    data_bytes: bytearray = field(default_factory=bytearray)
    entry: int = DEFAULT_TEXT_BASE
    symbols: dict[str, int] = field(default_factory=dict)
    stack_top: int = DEFAULT_STACK_TOP

    @property
    def text_end(self) -> int:
        return self.text_base + 4 * len(self.text_words)

    def word_at(self, addr: int) -> int:
        index = (addr - self.text_base) // 4
        return self.text_words[index]

    def load_into(self, mem) -> None:
        """Write the image into a target memory: the text words as
        little-endian bytes, then the data."""
        words = self.text_words
        mem.load_bytes(self.text_base, struct.pack(
            f"<{len(words)}I", *[w & 0xFFFFFFFF for w in words]))
        if self.data_bytes:
            mem.load_bytes(self.data_base, bytes(self.data_bytes))

    def symbol(self, name: str) -> int:
        return self.symbols[name]
