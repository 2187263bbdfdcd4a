"""Minimal ELF64 big-endian executable writer.

The paper's sequential tests are "standard ELF binaries produced with GCC"
(section 7); with no cross-compiler available, this writer produces
equivalent statically-linked Power64 images (text + data segments + symbol
table) so the reader front-end exercises the identical code path.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from .format import (
    EHDR_SIZE,
    ELFCLASS64,
    ELFDATA2MSB,
    ELF_MAGIC,
    EM_PPC64,
    ET_EXEC,
    EV_CURRENT,
    PF_R,
    PF_W,
    PF_X,
    PHDR_SIZE,
    PT_LOAD,
    SHDR_SIZE,
    SHT_NULL,
    SHT_STRTAB,
    SHT_SYMTAB,
    STB_GLOBAL,
    STT_FUNC,
    STT_OBJECT,
    SYM_SIZE,
    ElfImage,
)

_BE = ">"  # big-endian struct prefix


def write_elf(image: ElfImage) -> bytes:
    """Serialise an ``ElfImage`` into an ELF64BE executable."""
    segments = list(image.segments)
    phoff = EHDR_SIZE
    data_offset = phoff + PHDR_SIZE * len(segments)

    # Place segment file data, 8-aligned.
    placements: List[Tuple[int, bytes]] = []
    cursor = data_offset
    for segment in segments:
        cursor = (cursor + 7) & ~7
        placements.append((cursor, segment.data))
        cursor += len(segment.data)

    # String and symbol tables.
    strtab = bytearray(b"\x00")
    name_offsets: Dict[str, int] = {}
    for symbol in image.symbols:
        name_offsets[symbol.name] = len(strtab)
        strtab.extend(symbol.name.encode() + b"\x00")
    symtab = bytearray(SYM_SIZE)  # index 0: null symbol
    for symbol in image.symbols:
        info = (STB_GLOBAL << 4) | symbol.kind
        symtab.extend(
            struct.pack(
                _BE + "IBBHQQ",
                name_offsets[symbol.name],
                info,
                0,  # st_other
                0,  # st_shndx (SHN_UNDEF is fine for our loader)
                symbol.value,
                symbol.size,
            )
        )

    shstrtab = bytearray(b"\x00")
    section_names = {}
    for name in (".symtab", ".strtab", ".shstrtab"):
        section_names[name] = len(shstrtab)
        shstrtab.extend(name.encode() + b"\x00")

    cursor = (cursor + 7) & ~7
    symtab_offset = cursor
    cursor += len(symtab)
    strtab_offset = cursor
    cursor += len(strtab)
    shstrtab_offset = cursor
    cursor += len(shstrtab)
    shoff = (cursor + 7) & ~7

    # Section headers: null, .symtab, .strtab, .shstrtab
    sections = []
    sections.append(struct.pack(_BE + "IIQQQQIIQQ", 0, SHT_NULL, 0, 0, 0, 0, 0, 0, 0, 0))
    sections.append(
        struct.pack(
            _BE + "IIQQQQIIQQ",
            section_names[".symtab"],
            SHT_SYMTAB,
            0,
            0,
            symtab_offset,
            len(symtab),
            2,  # sh_link -> .strtab index
            1,  # sh_info: one greater than last local symbol
            8,
            SYM_SIZE,
        )
    )
    sections.append(
        struct.pack(
            _BE + "IIQQQQIIQQ",
            section_names[".strtab"],
            SHT_STRTAB,
            0,
            0,
            strtab_offset,
            len(strtab),
            0,
            0,
            1,
            0,
        )
    )
    sections.append(
        struct.pack(
            _BE + "IIQQQQIIQQ",
            section_names[".shstrtab"],
            SHT_STRTAB,
            0,
            0,
            shstrtab_offset,
            len(shstrtab),
            0,
            0,
            1,
            0,
        )
    )

    header = struct.pack(
        _BE + "4sBBBBB7xHHIQQQIHHHHHH",
        ELF_MAGIC,
        ELFCLASS64,
        ELFDATA2MSB,
        EV_CURRENT,
        0,  # ELFOSABI_NONE
        0,  # ABI version
        ET_EXEC,
        EM_PPC64,
        EV_CURRENT,
        image.entry,
        phoff,
        shoff,
        0,  # e_flags (ABI v1)
        EHDR_SIZE,
        PHDR_SIZE,
        len(segments),
        SHDR_SIZE,
        len(sections),
        3,  # e_shstrndx
    )

    phdrs = bytearray()
    for (offset, data), segment in zip(placements, segments):
        phdrs.extend(
            struct.pack(
                _BE + "IIQQQQQQ",
                PT_LOAD,
                segment.flags,
                offset,
                segment.vaddr,
                segment.vaddr,
                len(data),
                segment.memsz,
                8,
            )
        )

    blob = bytearray(shoff + SHDR_SIZE * len(sections))
    blob[: len(header)] = header
    blob[phoff : phoff + len(phdrs)] = phdrs
    for (offset, data), _segment in zip(placements, segments):
        blob[offset : offset + len(data)] = data
    blob[symtab_offset : symtab_offset + len(symtab)] = symtab
    blob[strtab_offset : strtab_offset + len(strtab)] = strtab
    blob[shstrtab_offset : shstrtab_offset + len(shstrtab)] = shstrtab
    for i, section in enumerate(sections):
        start = shoff + i * SHDR_SIZE
        blob[start : start + SHDR_SIZE] = section
    return bytes(blob)


def make_executable(
    text_addr: int,
    code_words: List[int],
    data_addr: int,
    data: bytes,
    symbols: Dict[str, Tuple[int, int, bool]],
    entry: int = None,
) -> bytes:
    """Convenience: build an executable from code words and a data blob.

    ``symbols`` maps name -> (address, size, is_function).
    """
    from .format import Segment, Symbol

    text = b"".join(struct.pack(">I", word) for word in code_words)
    segments = [
        Segment(text_addr, text, len(text), PF_R | PF_X),
    ]
    if data:
        segments.append(Segment(data_addr, data, len(data), PF_R | PF_W))
    symbol_list = [
        Symbol(name, addr, size, STT_FUNC if is_function else STT_OBJECT)
        for name, (addr, size, is_function) in sorted(symbols.items())
    ]
    image = ElfImage(
        entry=entry if entry is not None else text_addr,
        segments=segments,
        symbols=symbol_list,
    )
    return write_elf(image)
