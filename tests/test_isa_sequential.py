"""Tests for the sequential executor and selected instruction semantics."""

import pytest

from repro.isa.assembler import Assembler
from repro.isa.model import default_model
from repro.isa.sequential import Memory, SequentialError, SequentialMachine
from repro.sail.values import Bits

MODEL = default_model()
ASM = Assembler(MODEL)


def run_program(lines, setup=None, base=0x10000, machine=None):
    machine = machine or SequentialMachine(MODEL)
    if setup:
        setup(machine)
    words, _ = ASM.assemble_program(lines, base)
    for i, word in enumerate(words):
        machine.memory.load_bytes(base + 4 * i, word.to_bytes(4, "big"))
    machine.run(base)
    return machine


class TestArithmetic:
    def test_addi_li_chain(self):
        machine = run_program(["li r1,100", "addi r2,r1,-1"])
        assert machine.gpr(2).to_int() == 99

    def test_add_record_sets_cr0_gt(self):
        machine = run_program(["li r1,1", "li r2,2", "add. r3,r1,r2"])
        assert machine.gpr(3).to_int() == 3
        assert machine.reg("CR").to_int() >> 28 == 0b0100  # GT

    def test_add_record_sets_cr0_lt(self):
        machine = run_program(["li r1,-5", "li r2,2", "add. r3,r1,r2"])
        assert machine.reg("CR").to_int() >> 28 == 0b1000  # LT

    def test_addc_carry(self):
        machine = run_program(
            ["li r1,-1", "li r2,1", "addc r3,r1,r2"]
        )
        assert machine.gpr(3).to_int() == 0
        assert machine.reg("XER").to_int() >> 29 & 1 == 1  # CA

    def test_adde_consumes_carry(self):
        machine = run_program(
            ["li r1,-1", "li r2,1", "addc r3,r1,r2", "li r4,0",
             "adde r5,r4,r4"]
        )
        assert machine.gpr(5).to_int() == 1

    def test_addo_overflow_sets_so_and_ov(self):
        # r1 = 0x7FFF...F (64-bit maxint); r1 + r1 overflows.
        machine = run_program(
            ["li r1,-1", "srdi r1,r1,1", "addo r3,r1,r1"]
        )
        xer = machine.reg("XER").to_int()
        assert xer >> 31 & 1 == 1  # SO
        assert xer >> 30 & 1 == 1  # OV

    def test_addo_no_overflow_clears_ov(self):
        machine = run_program(["li r1,1", "addo r3,r1,r1"])
        assert machine.reg("XER").to_int() >> 30 & 1 == 0

    def test_neg_minint(self):
        machine = run_program(["li r1,1", "sldi r1,r1,63", "nego r2,r1"])
        assert machine.gpr(2).to_int() == 1 << 63  # -minint == minint
        assert machine.reg("XER").to_int() >> 30 & 1 == 1  # OV

    def test_mullw_and_mulhw(self):
        machine = run_program(
            ["li r1,-2", "li r2,3", "mullw r3,r1,r2", "mulhw r4,r1,r2"]
        )
        assert machine.gpr(3).to_signed() == -6
        # mulhw: high word of -6 is 0xFFFFFFFF; top half of r4 is undef.
        low = machine.gpr(4).slice(32, 63)
        assert low.to_int() == 0xFFFFFFFF

    def test_divw(self):
        machine = run_program(["li r1,-7", "li r2,2", "divw r3,r1,r2"])
        assert machine.gpr(3).slice(32, 63).to_signed() == -3

    def test_divide_by_zero_result_is_undef(self):
        machine = run_program(["li r1,5", "li r2,0", "divw r3,r1,r2"])
        assert machine.gpr(3).has_undef


class TestLogicalAndRotates:
    def test_and_or_xor(self):
        machine = run_program(
            ["li r1,0b1100", "li r2,0b1010",
             "and r3,r1,r2", "or r4,r1,r2", "xor r5,r1,r2"]
        )
        assert machine.gpr(3).to_int() == 0b1000
        assert machine.gpr(4).to_int() == 0b1110
        assert machine.gpr(5).to_int() == 0b0110

    def test_xor_same_register_is_zero(self):
        machine = run_program(["li r1,0x1234", "xor r2,r1,r1"])
        assert machine.gpr(2) == Bits.zeros(64)

    def test_extsb(self):
        machine = run_program(["li r1,0x80", "extsb r2,r1"])
        assert machine.gpr(2).to_signed() == -128

    def test_cntlzw(self):
        machine = run_program(["li r1,1", "cntlzw r2,r1"])
        assert machine.gpr(2).to_int() == 31

    def test_rlwinm_mask(self):
        machine = run_program(["li r1,0xFF", "rlwinm r2,r1,4,24,27"])
        # rotate 0xFF left 4 -> 0xFF0; mask bits 24..27 -> 0xF0.
        assert machine.gpr(2).to_int() == 0xF0

    def test_sldi_srdi(self):
        machine = run_program(["li r1,1", "sldi r2,r1,40", "srdi r3,r2,8"])
        assert machine.gpr(2).to_int() == 1 << 40
        assert machine.gpr(3).to_int() == 1 << 32

    def test_srawi_carry(self):
        machine = run_program(["li r1,-5", "srawi r2,r1,1"])
        assert machine.gpr(2).to_signed() == -3
        assert machine.reg("XER").to_int() >> 29 & 1 == 1


class TestMemory:
    def test_store_load_roundtrip_all_sizes(self):
        machine = run_program(
            ["lis r1,2", "li r2,0x1234",
             "stb r2,0(r1)", "lbz r3,0(r1)",
             "sth r2,8(r1)", "lhz r4,8(r1)",
             "stw r2,16(r1)", "lwz r5,16(r1)",
             "std r2,24(r1)", "ld r6,24(r1)"]
        )
        assert machine.gpr(3).to_int() == 0x34
        assert machine.gpr(4).to_int() == 0x1234
        assert machine.gpr(5).to_int() == 0x1234
        assert machine.gpr(6).to_int() == 0x1234

    def test_update_form_writes_base(self):
        machine = run_program(
            ["lis r1,2", "li r2,0xAB", "stbu r2,4(r1)"]
        )
        assert machine.gpr(1).to_int() == 0x20004
        assert machine.memory.read(0x20004, 1).to_int() == 0xAB

    def test_byte_reversed_load(self):
        machine = run_program(
            ["lis r1,2", "lis r2,0x1122", "addi r2,r2,0x3344",
             "stw r2,0(r1)", "lwbrx r3,r0,r1"]
        )
        assert machine.gpr(3).to_int() == 0x44332211

    def test_big_endian_layout(self):
        machine = run_program(["lis r1,2", "li r2,0x0102", "sth r2,0(r1)"])
        assert machine.memory.read(0x20000, 1).to_int() == 0x01
        assert machine.memory.read(0x20001, 1).to_int() == 0x02

    def test_access_wraps_at_top_of_address_space(self):
        machine = run_program(
            ["li r1,-2", "lis r2,0x0102", "ori r2,r2,0x0304",
             "stw r2,0(r1)", "lwz r3,0(r1)"]
        )
        assert machine.gpr(3).to_int() == 0x01020304
        assert machine.memory.read(0, 2).to_int() == 0x0304
        assert max(machine.memory.snapshot()) < 1 << 64

    def test_load_image_equals_byte_at_a_time_loading(self):
        image = {0x10000 + i: (7 * i) % 256 for i in range(300)}
        image.update({(1 << 64) + 3: 0xAB, (1 << 64) - 1: 0xCD, 0x20: 0})
        bulk, single = Memory(), Memory()
        single.load_bytes(0x10005, b"\x99")  # overwritten by both
        bulk.load_bytes(0x10005, b"\x99")
        bulk.load_image(image)
        for addr, byte in image.items():
            single.load_bytes(addr, bytes([byte]))
        assert bulk.snapshot() == single.snapshot()
        assert bulk.read(3, 1).to_int() == 0xAB  # wrapped

    def test_holds_image_is_exact_equality_with_known_bytes(self):
        image = {0x100: 1, 0x101: 0xFF, 0x102: 0}
        memory = Memory()
        memory.load_image(image)
        assert memory.holds_image(image)
        # A byte written through ``write`` is an equal, unshared value.
        memory.write(0x101, 1, Bits.from_int(0xFF, 8))
        assert memory.holds_image(image)
        assert not memory.holds_image({**image, 0x103: 0})  # image-only
        assert not memory.holds_image({0x100: 1, 0x101: 0xFF})  # memory-only
        assert not memory.holds_image({**image, 0x100: 2})
        memory.write(0x100, 1, Bits.from_string("0000000u"))
        assert not memory.holds_image(image)  # undef bits are not known


class TestBranches:
    def test_forward_branch_skips(self):
        machine = run_program(
            ["li r1,1", "b skip", "li r1,2", "skip:", "li r3,3"]
        )
        assert machine.gpr(1).to_int() == 1
        assert machine.gpr(3).to_int() == 3

    def test_conditional_taken_and_not(self):
        machine = run_program(
            ["li r1,5", "cmpwi r1,5", "beq eq", "li r2,0", "b out",
             "eq:", "li r2,1", "out:", "nop"]
        )
        assert machine.gpr(2).to_int() == 1

    def test_bdnz_loop(self):
        machine = run_program(
            ["li r1,4", "mtctr r1", "li r2,0",
             "loop:", "addi r2,r2,1", "bdnz loop"]
        )
        assert machine.gpr(2).to_int() == 4
        assert machine.reg("CTR").to_int() == 0

    def test_bl_sets_lr_and_blr_returns(self):
        machine = run_program(
            ["bl func", "li r3,1", "b end",
             "func:", "li r4,2", "blr",
             "end:", "nop"]
        )
        assert machine.gpr(3).to_int() == 1
        assert machine.gpr(4).to_int() == 2

    def test_bctr(self):
        machine = run_program(
            ["lis r1,1", "addi r1,r1,0x10", "mtctr r1", "bctr"],
            base=0x10000,
        )
        # Jumped to 0x10010, past the program: halted there.
        assert machine.cia == 0x10010


class TestAtomicsSequential:
    def test_lwarx_stwcx_success(self):
        machine = run_program(
            ["lis r1,2", "li r2,9", "lwarx r3,r0,r1", "stwcx. r2,r0,r1",
             "lwz r4,0(r1)", "mfcr r5"]
        )
        assert machine.gpr(4).to_int() == 9
        assert machine.gpr(5).to_int() >> 29 & 1 == 1  # CR0.EQ

    def test_stwcx_fails_without_reservation(self):
        machine = run_program(
            ["lis r1,2", "li r2,9", "stwcx. r2,r0,r1", "lwz r4,0(r1)"]
        )
        assert machine.gpr(4).to_int() == 0  # store not performed


class TestMachineInterface:
    def test_invalid_form_raises(self):
        machine = SequentialMachine(MODEL)
        # lwzu with RA == RT is an invalid form.
        word = ASM.assemble_instruction("lwzu r5,0(r5)")
        with pytest.raises(SequentialError):
            machine.execute(MODEL.decode_or_raise(word))

    def test_undecodable_word_raises(self):
        machine = SequentialMachine(MODEL)
        machine.memory.load_bytes(0x100, (0xFFFFFFFF).to_bytes(4, "big"))
        machine.cia = 0x100
        with pytest.raises(SequentialError):
            machine.step()

    def test_barrier_kinds_recorded(self):
        machine = run_program(["sync", "lwsync", "eieio", "isync"])
        assert machine.barriers_seen == ["sync", "lwsync", "eieio", "isync"]

    def test_mtspr_mfspr_roundtrip(self):
        machine = run_program(["li r1,0x77", "mtlr r1", "mflr r2"])
        assert machine.gpr(2).to_int() == 0x77
