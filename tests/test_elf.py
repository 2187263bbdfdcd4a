"""ELF front-end tests: writer/reader round trips and the loader pipeline."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.elf.format import (
    ElfError,
    ElfImage,
    PF_R,
    PF_W,
    PF_X,
    Segment,
    SHT_STRTAB,
    STT_FUNC,
    STT_OBJECT,
    Symbol,
)
from repro.elf.loader import load_image, load_into_machine
from repro.elf.reader import read_elf
from repro.elf.writer import make_executable, write_elf
from repro.isa.assembler import Assembler
from repro.isa.model import default_model
from repro.isa.sequential import SequentialMachine


def _simple_image(entry=0x10000):
    text = Segment(0x10000, struct.pack(">I", 0x60000000), 4, PF_R | PF_X)
    data = Segment(0x20000, b"\x00\x01\x02\x03", 8, PF_R | PF_W)
    symbols = [
        Symbol("main", 0x10000, 4, STT_FUNC),
        Symbol("x", 0x20000, 4, STT_OBJECT),
    ]
    return ElfImage(entry=entry, segments=[text, data], symbols=symbols)


class TestRoundTrip:
    def test_header_and_entry(self):
        blob = write_elf(_simple_image())
        image = read_elf(blob)
        assert image.entry == 0x10000

    def test_segments_preserved(self):
        image = read_elf(write_elf(_simple_image()))
        assert len(image.segments) == 2
        text = next(s for s in image.segments if s.executable)
        assert text.vaddr == 0x10000
        assert text.data == struct.pack(">I", 0x60000000)

    def test_bss_memsz_preserved(self):
        image = read_elf(write_elf(_simple_image()))
        data = next(s for s in image.segments if not s.executable)
        assert data.memsz == 8 and len(data.data) == 4

    def test_symbols_preserved(self):
        image = read_elf(write_elf(_simple_image()))
        assert image.symbol("main").is_function
        assert image.symbol("x").value == 0x20000
        assert image.symbol_at(0x20000) == "x"

    @settings(max_examples=30, deadline=None)
    @given(
        words=st.lists(
            st.integers(0, (1 << 32) - 1), min_size=1, max_size=16
        ),
        data=st.binary(min_size=0, max_size=64),
        entry_offset=st.integers(0, 3),
    )
    def test_property_roundtrip(self, words, data, entry_offset):
        blob = make_executable(
            text_addr=0x10000,
            code_words=words,
            data_addr=0x20000,
            data=data,
            symbols={"main": (0x10000, 4 * len(words), True)},
            entry=0x10000 + 4 * min(entry_offset, len(words) - 1),
        )
        image = read_elf(blob)
        text = next(s for s in image.segments if s.executable)
        assert [
            struct.unpack(">I", text.data[i : i + 4])[0]
            for i in range(0, len(text.data), 4)
        ] == words
        if data:
            loaded = next(s for s in image.segments if not s.executable)
            assert loaded.data == data


class TestValidation:
    def test_bad_magic_rejected(self):
        blob = bytearray(write_elf(_simple_image()))
        blob[0] = 0x00
        with pytest.raises(ElfError):
            read_elf(bytes(blob))

    def test_wrong_endianness_rejected(self):
        blob = bytearray(write_elf(_simple_image()))
        blob[5] = 1  # ELFDATA2LSB
        with pytest.raises(ElfError):
            read_elf(bytes(blob))

    def test_wrong_machine_rejected(self):
        blob = bytearray(write_elf(_simple_image()))
        blob[18:20] = struct.pack(">H", 62)  # x86-64
        with pytest.raises(ElfError):
            read_elf(bytes(blob))

    def test_truncated_rejected(self):
        with pytest.raises(ElfError):
            read_elf(b"\x7fELF")

    def test_every_truncation_rejected(self):
        blob = write_elf(_simple_image())
        for length in range(len(blob)):
            with pytest.raises(ElfError):
                read_elf(blob[:length])

    def test_unterminated_symbol_name_rejected(self):
        blob = bytearray(write_elf(_simple_image()))
        (shoff,) = struct.unpack_from(">Q", blob, 0x28)
        (shnum,) = struct.unpack_from(">H", blob, 0x3C)
        for header in range(shoff, shoff + 64 * shnum, 64):
            (sh_type,) = struct.unpack_from(">I", blob, header + 4)
            if sh_type == SHT_STRTAB:
                offset, size = struct.unpack_from(">QQ", blob, header + 24)
                blob[offset : offset + size] = b"A" * size
        with pytest.raises(ElfError, match="symbol name"):
            read_elf(bytes(blob))


class TestLoader:
    def test_loader_splits_code_and_data(self):
        loaded = load_image(read_elf(write_elf(_simple_image())))
        assert loaded.program_memory[0x10000] == 0x60000000
        assert loaded.data_bytes[0x20001] == 0x01
        assert loaded.data_bytes[0x20004] == 0  # .bss zero fill
        assert loaded.symbols["x"] == 0x20000

    def test_misaligned_text_rejected(self):
        image = _simple_image()
        image.segments[0] = Segment(0x10002, b"\x00\x00\x00\x00", 4, PF_X)
        with pytest.raises(ElfError):
            load_image(image)

    def test_end_to_end_sequential_run(self):
        """Assemble a small program, write it to ELF, read it back, run it.

        This mirrors the paper's section 7 flow where generated tests are
        standard ELF binaries exercising the ELF front-end.
        """
        model = default_model()
        assembler = Assembler(model)
        data_addr = 0x20000
        program = [
            "lis r3,3",           # r3 = 0x30000
            "addi r3,r3,-0x8000", # adjust for lis sign games: r3 = 0x28000
            "li r4,7",
            "li r5,5",
            "add r6,r4,r5",
            "stw r6,0(r3)",
            "lwz r7,0(r3)",
        ]
        words, _ = assembler.assemble_program(program, 0x10000)
        blob = make_executable(
            text_addr=0x10000,
            code_words=words,
            data_addr=data_addr,
            data=bytes(16),
            symbols={
                "main": (0x10000, 4 * len(words), True),
                "cell": (data_addr, 4, False),
            },
        )
        loaded = load_image(read_elf(blob))
        machine = SequentialMachine(model)
        load_into_machine(machine, loaded)
        machine.run(loaded.entry)
        assert machine.gpr(7).to_int() == 12
        assert machine.gpr(6).to_int() == 12
