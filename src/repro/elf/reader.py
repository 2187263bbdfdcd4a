"""ELF64 big-endian executable reader (the paper's binary front-end).

Parses statically linked Power64 ELF executables: header validation,
loadable segments, and the symbol table (used to initialise the tool's data
memory and the user-interface symbol pretty-printer, section 6).
"""

from __future__ import annotations

import struct
from typing import List

from .format import (
    EHDR_SIZE,
    ELFCLASS64,
    ELFDATA2MSB,
    ELF_MAGIC,
    EM_PPC64,
    ET_EXEC,
    ElfError,
    ElfImage,
    PHDR_SIZE,
    PT_LOAD,
    Segment,
    SHDR_SIZE,
    SHT_STRTAB,
    SHT_SYMTAB,
    SYM_SIZE,
    Symbol,
)

_BE = ">"


def _unpack(fmt: str, blob: bytes, start: int, what: str) -> tuple:
    """``struct.unpack`` of the record at ``start``; a record cut off by
    the end of the file is an ``ElfError`` naming ``what``."""
    end = start + struct.calcsize(fmt)
    if end > len(blob):
        raise ElfError(f"{what} extends past end of file")
    return struct.unpack(fmt, blob[start:end])


def read_elf(blob: bytes) -> ElfImage:
    """Parse an ELF64BE executable into an ``ElfImage``."""
    if len(blob) < EHDR_SIZE:
        raise ElfError("file shorter than an ELF header")
    (
        magic,
        ei_class,
        ei_data,
        ei_version,
        _osabi,
        _abiversion,
        e_type,
        e_machine,
        _e_version,
        e_entry,
        e_phoff,
        e_shoff,
        _e_flags,
        _e_ehsize,
        e_phentsize,
        e_phnum,
        e_shentsize,
        e_shnum,
        e_shstrndx,
    ) = struct.unpack(_BE + "4sBBBBB7xHHIQQQIHHHHHH", blob[:EHDR_SIZE])
    if magic != ELF_MAGIC:
        raise ElfError("bad ELF magic")
    if ei_class != ELFCLASS64:
        raise ElfError("not a 64-bit ELF (POWER64 required)")
    if ei_data != ELFDATA2MSB:
        raise ElfError("not big-endian (POWER64 ABI v1 required)")
    if e_machine != EM_PPC64:
        raise ElfError(f"machine {e_machine} is not EM_PPC64")
    if e_type != ET_EXEC:
        raise ElfError("not a statically linked executable (ET_EXEC)")
    if ei_version != 1:
        raise ElfError("unsupported ELF version")

    segments = _read_segments(blob, e_phoff, e_phentsize, e_phnum)
    symbols = _read_symbols(blob, e_shoff, e_shentsize, e_shnum)
    return ElfImage(entry=e_entry, segments=segments, symbols=symbols)


def _read_segments(blob, phoff, phentsize, phnum) -> List[Segment]:
    if phentsize not in (0, PHDR_SIZE):
        raise ElfError(f"unexpected program-header size {phentsize}")
    segments: List[Segment] = []
    for i in range(phnum):
        start = phoff + i * PHDR_SIZE
        (
            p_type,
            p_flags,
            p_offset,
            p_vaddr,
            _p_paddr,
            p_filesz,
            p_memsz,
            _p_align,
        ) = _unpack(_BE + "IIQQQQQQ", blob, start, "program header")
        if p_type != PT_LOAD:
            continue
        if p_offset + p_filesz > len(blob):
            raise ElfError("segment data extends past end of file")
        segments.append(
            Segment(
                vaddr=p_vaddr,
                data=blob[p_offset : p_offset + p_filesz],
                memsz=p_memsz,
                flags=p_flags,
            )
        )
    return segments


def _read_symbols(blob, shoff, shentsize, shnum) -> List[Symbol]:
    if shnum == 0:
        return []
    if shentsize not in (0, SHDR_SIZE):
        raise ElfError(f"unexpected section-header size {shentsize}")
    headers = []
    for i in range(shnum):
        start = shoff + i * SHDR_SIZE
        headers.append(
            _unpack(_BE + "IIQQQQIIQQ", blob, start, "section header")
        )
    symbols: List[Symbol] = []
    for header in headers:
        (_name, sh_type, _flags, _addr, offset, size, link, _info, _align,
         entsize) = header
        if sh_type != SHT_SYMTAB:
            continue
        if entsize not in (0, SYM_SIZE):
            raise ElfError(f"unexpected symbol entry size {entsize}")
        if not 0 <= link < len(headers):
            raise ElfError("symbol table string-table link out of range")
        str_header = headers[link]
        if str_header[1] != SHT_STRTAB:
            raise ElfError("symbol table linked to a non-string-table")
        strtab = blob[str_header[4] : str_header[4] + str_header[5]]
        count = size // SYM_SIZE
        for index in range(count):
            start = offset + index * SYM_SIZE
            st_name, st_info, _other, _shndx, st_value, st_size = (
                _unpack(_BE + "IBBHQQ", blob, start, "symbol")
            )
            if st_name == 0:
                continue
            end = strtab.find(b"\x00", st_name)
            if end < 0:
                raise ElfError("symbol name runs past its string table")
            symbols.append(
                Symbol(
                    name=strtab[st_name:end].decode(),
                    value=st_value,
                    size=st_size,
                    kind=st_info & 0xF,
                )
            )
    return symbols
