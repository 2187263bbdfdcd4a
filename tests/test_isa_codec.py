"""Encode/decode/assemble/disassemble consistency across the whole corpus."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.assembler import Assembler, AssemblerError
from repro.isa.disasm import disassemble, render
from repro.isa.model import default_model
from repro.isa.spec import DecodeTable, EncodingError, parse_layout, spec


@pytest.fixture(scope="module")
def model():
    return default_model()


@pytest.fixture(scope="module")
def assembler(model):
    return Assembler(model)


class TestLayouts:
    def test_parse_layout_fig2_stdu(self):
        fields = parse_layout("62 RS:5 RA:5 DS:14 1:2")
        assert fields[0].value == 62 and fields[0].width == 6
        names = [f.name for f in fields if f.name]
        assert names == ["RS", "RA", "DS"]

    def test_layout_must_cover_32_bits(self):
        with pytest.raises(EncodingError):
            parse_layout("31 RT:5 RA:5")

    def test_field_extract_insert_roundtrip(self):
        fields = parse_layout("31 RT:5 RA:5 RB:5 266:9 OE:1 Rc:1")
        rt = next(f for f in fields if f.name == "RT")
        word = rt.insert(0, 13)
        assert rt.extract(word) == 13

    def test_value_too_large_rejected(self):
        fields = parse_layout("31 RT:5 RA:5 RB:5 266:9 OE:1 Rc:1")
        rt = next(f for f in fields if f.name == "RT")
        with pytest.raises(EncodingError):
            rt.insert(0, 32)


class TestDecodeTable:
    def test_every_spec_decodes_its_own_encoding(self, model):
        for instruction_spec in model.table.all_specs():
            fields = {
                f.name: 1 if f.width > 1 else 0
                for f in instruction_spec.operand_fields()
            }
            word = instruction_spec.encode(fields)
            decoded = model.decode(word)
            assert decoded is not None, instruction_spec.name
            assert decoded.spec.name == instruction_spec.name

    def test_unknown_word_returns_none(self, model):
        assert model.decode(0xFFFFFFFF) is None

    def test_ambiguous_encodings_rejected(self):
        a = spec("A", "a", "D", "fixed-point", "14 RT:5 RA:5 SI:16",
                 "RT, RA, SI", "function clause execute (A (RT)) = { NOP() }")
        b = spec("B", "b", "D", "fixed-point", "14 RS:5 RA:5 UI:16",
                 "RA, RS, UI", "function clause execute (B (RS)) = { NOP() }")
        with pytest.raises(EncodingError):
            DecodeTable([a, b])

    def test_decode_is_cached(self, model):
        word = (14 << 26) | (1 << 21) | 7
        assert model.decode(word) is model.decode(word)

    def test_fixed_mask_value_equals_a_recomputation(self, model):
        for instruction_spec in model.table.all_specs():
            mask = value = 0
            for f in instruction_spec.layout:
                if f.name is None:
                    mask |= f.mask
                    value |= f.value << f.shift
            assert instruction_spec.fixed_mask_value() == (mask, value)
            assert instruction_spec.matches(value)
            assert not instruction_spec.matches(value ^ (mask & -mask))


class TestAssembler:
    CASES = [
        ("addi r1,r0,100", (14 << 26) | (1 << 21) | 100),
        ("li r1,100", (14 << 26) | (1 << 21) | 100),
        ("li r1,-1", (14 << 26) | (1 << 21) | 0xFFFF),
        ("stw r7,0(r1)", (36 << 26) | (7 << 21) | (1 << 16)),
        ("lwz r5,8(r2)", (32 << 26) | (5 << 21) | (2 << 16) | 8),
        ("std r3,8(r1)", (62 << 26) | (3 << 21) | (1 << 16) | (2 << 2)),
        ("sync", (31 << 26) | (598 << 1)),
        ("lwsync", (31 << 26) | (1 << 21) | (598 << 1)),
        ("isync", (19 << 26) | (150 << 1)),
        ("eieio", (31 << 26) | (854 << 1)),
        ("mr r6,r5", (31 << 26) | (5 << 21) | (6 << 16) | (5 << 11) | (444 << 1)),
        ("nop", (24 << 26)),
        ("blr", (19 << 26) | (20 << 21) | (16 << 1)),
        ("mflr r0", (31 << 26) | (0 << 21) | (8 << 16) | (339 << 1)),
        ("mtctr r9", (31 << 26) | (9 << 21) | (9 << 16) | (467 << 1)),
    ]

    @pytest.mark.parametrize("text,expected", CASES)
    def test_known_encodings(self, assembler, text, expected):
        assert assembler.assemble_instruction(text) == expected

    def test_record_and_overflow_suffixes(self, assembler, model):
        plain = assembler.assemble_instruction("add r3,r1,r2")
        record = assembler.assemble_instruction("add. r3,r1,r2")
        overflow = assembler.assemble_instruction("addo. r3,r1,r2")
        assert record == plain | 1
        assert overflow == plain | 1 | (1 << 10)
        assert model.decode(record).field("Rc") == 1

    def test_cmpw_expansion(self, assembler, model):
        word = assembler.assemble_instruction("cmpw r5,r7")
        decoded = model.decode(word)
        assert decoded.mnemonic == "cmp"
        assert decoded.field("L") == 0 and decoded.field("BF") == 0

    def test_cmpdi_uses_doubleword(self, assembler, model):
        word = assembler.assemble_instruction("cmpdi r5,3")
        decoded = model.decode(word)
        assert decoded.mnemonic == "cmpi" and decoded.field("L") == 1

    def test_branch_conditions(self, assembler, model):
        word = assembler.assemble_instruction("beq 0x20", address=0x10)
        decoded = model.decode(word)
        assert decoded.mnemonic == "bc"
        assert decoded.field("BO") == 12 and decoded.field("BI") == 2
        assert decoded.field("BD") == (0x20 - 0x10) >> 2

    def test_branch_with_cr_field(self, assembler, model):
        word = assembler.assemble_instruction("bne cr3,0x8", address=0)
        decoded = model.decode(word)
        assert decoded.field("BI") == 4 * 3 + 2

    def test_labels_two_pass(self, assembler):
        words, labels = assembler.assemble_program(
            ["b end", "nop", "end:", "nop"], base=0x1000
        )
        assert labels["end"] == 0x1008
        # LI encodes (0x1008 - 0x1000) >> 2 = 2.
        assert (words[0] >> 2) & 0xFFFFFF == 2

    def test_label_same_line(self, assembler):
        words, labels = assembler.assemble_program(
            ["L: nop", "b L"], base=0x100
        )
        assert labels["L"] == 0x100
        assert len(words) == 2

    def test_sldi_expansion(self, assembler, model):
        word = assembler.assemble_instruction("sldi r3,r4,8")
        decoded = model.decode(word)
        assert decoded.mnemonic == "rldicr"

    def test_mtocrf_cr_operand(self, assembler, model):
        word = assembler.assemble_instruction("mtocrf cr3,r5")
        decoded = model.decode(word)
        assert decoded.field("FXM") == 1 << (7 - 3)

    def test_unknown_mnemonic(self, assembler):
        with pytest.raises(AssemblerError):
            assembler.assemble_instruction("frobnicate r1,r2")

    def test_operand_count_checked(self, assembler):
        with pytest.raises(AssemblerError):
            assembler.assemble_instruction("add r1,r2")

    def test_out_of_range_immediate(self, assembler):
        with pytest.raises(AssemblerError):
            assembler.assemble_instruction("addi r1,r0,40000")

    def test_misaligned_ds_offset(self, assembler):
        with pytest.raises(AssemblerError):
            assembler.assemble_instruction("std r1,3(r2)")


class TestRoundTrip:
    """disassemble(assemble(x)) == normalise(x), property-based over specs."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random_instruction_roundtrip(self, data):
        model = default_model()
        assembler = Assembler(model)
        specs = model.table.all_specs()
        instruction_spec = data.draw(st.sampled_from(specs))
        fields = {}
        for field_def in instruction_spec.operand_fields():
            fields[field_def.name] = data.draw(
                st.integers(0, (1 << field_def.width) - 1)
            )
        if "SPR" in fields:
            n = data.draw(st.sampled_from([1, 8, 9]))
            fields["SPR"] = (n & 0x1F) << 5 | (n >> 5)
        word = instruction_spec.encode(fields)
        decoded = model.decode(word)
        assert decoded is not None
        assert decoded.spec.name == instruction_spec.name
        assert dict(decoded.fields) == fields
        # Disassemble then re-assemble: identical up to hint fields that
        # assembly syntax cannot express (e.g. the BH branch hint).
        text = render(decoded, address=0x1000)
        reassembled = assembler.assemble_instruction(text, address=0x1000)
        syntax_text = " ".join(instruction_spec.syntax)
        hint_mask = 0
        for field_def in instruction_spec.operand_fields():
            mentioned = (
                field_def.name in syntax_text
                or field_def.name in ("Rc", "OE", "LK", "AA", "SPR", "FXM",
                                      "SHL", "SHH", "MBE", "LI", "BD", "DS", "D")
            )
            if not mentioned:
                hint_mask |= field_def.mask
        assert reassembled & ~hint_mask == word & ~hint_mask, (
            f"{text!r}: {reassembled:#x} != {word:#x}"
        )

    def test_disassemble_unknown(self, model):
        assert disassemble(model, 0xFFFFFFFF).startswith(".long")
