"""Loading ELF images into the model's memories (section 6).

Parsed binaries are checked for static linkage and basic ABI conformance,
then their loadable segments are split into code memory (executable
segments, as 32-bit opcodes) and data memory; symbol names, addresses and
initialisation values feed the data memory and the symbol pretty-printer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict

from ..isa.sequential import SequentialMachine
from .format import ElfError, ElfImage


@dataclass
class LoadedProgram:
    """An image split into the model's program/data memories."""

    entry: int
    program_memory: Dict[int, int] = field(default_factory=dict)  # addr -> opcode
    data_bytes: Dict[int, int] = field(default_factory=dict)  # addr -> byte
    symbols: Dict[str, int] = field(default_factory=dict)  # name -> addr
    symbol_sizes: Dict[str, int] = field(default_factory=dict)

    def symbol_of(self, address: int) -> str:
        for name, addr in self.symbols.items():
            if addr == address:
                return name
        return ""


def load_image(image: ElfImage) -> LoadedProgram:
    """Split an ELF image into code and data memories."""
    if not image.segments:
        raise ElfError("no loadable segments")
    loaded = LoadedProgram(entry=image.entry)
    for segment in image.segments:
        if segment.executable:
            if len(segment.data) % 4:
                raise ElfError("text segment size not a multiple of 4")
            if segment.vaddr % 4:
                raise ElfError("text segment is misaligned")
            for i in range(0, len(segment.data), 4):
                (word,) = struct.unpack(">I", segment.data[i : i + 4])
                loaded.program_memory[segment.vaddr + i] = word
        else:
            for i, byte in enumerate(segment.data):
                loaded.data_bytes[segment.vaddr + i] = byte
            for i in range(len(segment.data), segment.memsz):
                loaded.data_bytes[segment.vaddr + i] = 0  # .bss
    for symbol in image.symbols:
        loaded.symbols[symbol.name] = symbol.value
        loaded.symbol_sizes[symbol.name] = symbol.size
    return loaded


def load_into_machine(
    machine: SequentialMachine, loaded: LoadedProgram
) -> None:
    """Install a loaded program into a sequential machine."""
    image = {
        addr + i: byte
        for addr, word in loaded.program_memory.items()
        for i, byte in enumerate(struct.pack(">I", word))
    }
    image.update(loaded.data_bytes)
    machine.memory.load_image(image)
    machine.cia = loaded.entry
