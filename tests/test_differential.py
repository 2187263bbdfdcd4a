"""Differential validation of the Sail model against the golden emulator.

This is the unit-test slice of the section-7 sequential validation: a
handful of seeded random tests per instruction, run on both implementations
and compared up to undef.  The full-scale run (the paper's 6984 tests) lives
in benchmarks/test_e2_sequential_validation.py.
"""

from collections import Counter

import pytest

from repro.golden import emulator as golden
from repro.golden.emulator import GoldenMachine
from repro.isa.model import default_model
from repro.isa.sequential import SequentialMachine
from repro.sail.values import Bits
from repro.testgen import compare
from repro.testgen.compare import ComparisonResult, Mismatch, run_differential
from repro.testgen.sequential import (
    DATA_BASE,
    DATA_SIZE,
    TEST_CIA,
    MachineSetup,
    SequentialTest,
    generate_suite,
    generate_tests,
)

MODEL = default_model()
SPEC_NAMES = sorted(s.name for s in MODEL.table.all_specs())


@pytest.mark.parametrize("spec_name", SPEC_NAMES)
def test_instruction_matches_golden(spec_name):
    spec = MODEL.table.by_name(spec_name)
    for test in generate_tests(MODEL, spec, count=4, seed=2015):
        result = run_differential(MODEL, test)
        assert result.passed, (
            f"{spec_name} word=0x{test.word:08x} seed={test.seed}: "
            + "; ".join(str(m) for m in result.mismatches[:5])
        )


def test_generated_words_decode_to_their_spec():
    for spec in MODEL.table.all_specs():
        for test in generate_tests(MODEL, spec, count=2, seed=7):
            decoded = MODEL.decode(test.word)
            assert decoded is not None
            assert decoded.spec.name == spec.name


def test_generation_is_deterministic():
    spec = MODEL.table.by_name("Add")
    first = generate_tests(MODEL, spec, count=3, seed=11)
    second = generate_tests(MODEL, spec, count=3, seed=11)
    assert [t.word for t in first] == [t.word for t in second]
    assert [t.setup.gprs for t in first] == [t.setup.gprs for t in second]


def test_different_seeds_differ():
    spec = MODEL.table.by_name("Add")
    a = generate_tests(MODEL, spec, count=8, seed=1)
    b = generate_tests(MODEL, spec, count=8, seed=2)
    assert [t.setup.gprs for t in a] != [t.setup.gprs for t in b]


def test_invalid_forms_are_avoided():
    spec = MODEL.table.by_name("Lwzu")  # invalid when RA==0 or RA==RT
    for test in generate_tests(MODEL, spec, count=20, seed=3):
        decoded = MODEL.decode(test.word)
        assert not decoded.is_invalid_form


def test_access_past_top_of_address_space_wraps():
    # stdx with RA = RB = 2^64 - 3 stores 8 bytes from 2^64 - 6, so its
    # last two bytes land at 0x0 and 0x1, as on the golden emulator.
    spec = MODEL.table.by_name("Stdx")
    (test,) = [
        t for t in generate_tests(MODEL, spec, count=4, seed=1003)
        if t.word == 0x7DE6312A
    ]
    fields = dict(MODEL.decode(test.word).fields)
    assert test.setup.gprs[fields["RA"]] == (1 << 64) - 3
    assert test.setup.gprs[fields["RB"]] == (1 << 64) - 3
    result = run_differential(MODEL, test)
    assert result.passed, [str(m) for m in result.mismatches]


def test_mismatches_are_reported_per_location(monkeypatch):
    """Corrupt the golden side after execution and pin what is reported."""
    setup = MachineSetup(
        gprs=tuple(range(32)), cr=0, so=0, ov=0, ca=0, lr=0, ctr=0,
        cia=TEST_CIA,
        memory={DATA_BASE + i: i for i in range(4)},
    )
    nop = SequentialTest("Ori", 0x60000000, setup, seed=0)
    execute = golden.execute

    def corrupting_execute(machine, instruction):
        nia = execute(machine, instruction)
        machine.gpr[5] ^= 0x10
        machine.memory[DATA_BASE + 2] ^= 0xFF
        machine.memory[0x2000] = 0x7  # a byte only the golden side wrote
        return nia

    assert run_differential(MODEL, nop).passed
    monkeypatch.setattr(golden, "execute", corrupting_execute)
    assert run_differential(MODEL, nop).mismatches == [
        Mismatch("GPR5", "0x0000000000000005", "0x15"),
        Mismatch("mem[0x2000]", "0x00", "0x7"),
        Mismatch(f"mem[0x{DATA_BASE + 2:x}]", "0x02", "0xfd"),
    ]


# ----------------------------------------------------------------------
# The whole-state check against the per-location comparison
# ----------------------------------------------------------------------
#
# ``run_differential`` first checks the final state as a whole and runs
# the per-location comparison only when that check fails.  The reference
# below is the per-location comparison on its own, kept verbatim from
# before the whole-state check existed (byte-at-a-time memory set-up
# included); both must report identical mismatch lists.


def _reference_setup_model_machine(model, setup):
    machine = SequentialMachine(model)
    for i, value in enumerate(setup.gprs):
        machine.set_gpr(i, value)
    machine.set_reg("CR", setup.cr)
    xer = (setup.so << 31) | (setup.ov << 30) | (setup.ca << 29)
    machine.set_reg("XER", xer)
    machine.set_reg("LR", setup.lr)
    machine.set_reg("CTR", setup.ctr)
    machine.cia = setup.cia
    for addr, byte in setup.memory.items():
        machine.memory.load_bytes(addr, bytes([byte]))
    return machine


def _reference_setup_golden_machine(setup):
    machine = GoldenMachine()
    machine.gpr = list(setup.gprs)
    machine.cr = setup.cr
    machine.so, machine.ov, machine.ca = setup.so, setup.ov, setup.ca
    machine.lr, machine.ctr = setup.lr, setup.ctr
    machine.cia = setup.cia
    machine.memory = dict(setup.memory)
    return machine


_ZERO_BYTE = Bits.zeros(8)


def _reference_check(result, location, model_value, golden_value):
    concrete = Bits.from_int(golden_value, model_value.width)
    if not model_value.matches_up_to_undef(concrete):
        result.mismatches.append(
            Mismatch(location, repr(model_value), hex(golden_value))
        )


def _reference_differential(model, test):
    """Execute one test on both machines and compare final state."""
    result = ComparisonResult(test)
    instruction = test.decode(model)

    model_machine = _reference_setup_model_machine(model, test.setup)
    golden_machine = _reference_setup_golden_machine(test.setup)

    model_nia = model_machine.execute(instruction)
    golden_nia = golden.execute(golden_machine, instruction)

    if model_nia != golden_nia:
        result.mismatches.append(
            Mismatch("NIA", hex(model_nia), hex(golden_nia))
        )

    for i in range(32):
        _reference_check(
            result, f"GPR{i}", model_machine.gpr(i), golden_machine.gpr[i]
        )
    _reference_check(result, "CR", model_machine.reg("CR"), golden_machine.cr)
    _reference_check(
        result, "XER", model_machine.reg("XER"), golden_machine.xer
    )
    _reference_check(result, "LR", model_machine.reg("LR"), golden_machine.lr)
    _reference_check(
        result, "CTR", model_machine.reg("CTR"), golden_machine.ctr
    )

    model_memory = model_machine.memory.snapshot()
    golden_memory = golden_machine.memory
    for addr in sorted(model_memory.keys() | golden_memory.keys()):
        model_byte = model_memory.get(addr, _ZERO_BYTE)
        golden_byte = golden_memory.get(addr, 0)
        # Most bytes are fully known and equal: compare them as integers
        # and leave undef bits and mismatches to the lifted comparison.
        if model_byte.ones == golden_byte and model_byte.is_known:
            continue
        _reference_check(
            result, f"mem[0x{addr:x}]", model_byte, golden_byte
        )
    return result


def _flip_gpr(machine, n):
    machine.gpr[n % 32] ^= 1 << (n % 64)


def _flip_cr(machine, n):
    machine.cr ^= 1 << (n % 32)


def _flip_xer(machine, n):
    flag = ("so", "ov", "ca")[n % 3]
    setattr(machine, flag, getattr(machine, flag) ^ 1)


def _flip_lr(machine, n):
    machine.lr ^= 1 << (n % 64)


def _flip_ctr(machine, n):
    machine.ctr ^= 1 << (n % 64)


def _flip_data_byte(machine, n):
    machine.memory[DATA_BASE + n % DATA_SIZE] ^= 1 << (n % 8)


def _golden_only_nonzero_byte(machine, n):
    machine.memory[0x2000 + n] = 1 + n % 255


def _golden_only_zero_byte(machine, n):
    machine.memory[0x3000 + n] = 0


#: Golden-side faults, applied after the golden machine executes.  Each
#: but the last changes a compared value; a golden-only zero byte equals
#: the model's default and must report nothing.
CORRUPTIONS = (
    _flip_gpr, _flip_cr, _flip_xer, _flip_lr, _flip_ctr, _flip_data_byte,
    _golden_only_nonzero_byte, _golden_only_zero_byte,
)


def _with_model_undef_bits(execute):
    """``execute``, then leave undef bits in a model register and a model
    memory byte, as an instruction with undefined results would."""

    def undef(value, bits):
        return Bits(value.width, value.ones & ~bits, value.undefs | bits)

    def run(machine, instruction):
        nia = execute(machine, instruction)
        registers = machine.registers.values
        registers["GPR7"] = undef(registers["GPR7"], 0xF0)
        byte = machine.memory.read(DATA_BASE + 5, 1)
        machine.memory.write(DATA_BASE + 5, 1, undef(byte, 0x3))
        return nia

    return run


class TestWholeStateCheck:
    @pytest.mark.parametrize(
        "model_undef", [False, True], ids=["model-known", "model-undef"]
    )
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mismatch_lists_equal_the_per_location_reference(
        self, seed, model_undef, monkeypatch
    ):
        """Every generated test, clean and with one golden-side fault,
        reports exactly what the per-location comparison reports."""
        if model_undef:
            monkeypatch.setattr(
                SequentialMachine, "execute",
                _with_model_undef_bits(SequentialMachine.execute),
            )
        execute = golden.execute
        fault = [None]

        def faulty_execute(machine, instruction):
            nia = execute(machine, instruction)
            if fault[0] is not None:
                fault[0](machine)
            return nia

        monkeypatch.setattr(golden, "execute", faulty_execute)
        compared = 0
        reported = Counter()
        differing = []
        for n, test in enumerate(generate_suite(MODEL, 2, seed)):
            corruption = CORRUPTIONS[n % len(CORRUPTIONS)]
            for name in ("clean", corruption.__name__):
                fault[0] = (
                    None if name == "clean" else lambda m: corruption(m, n)
                )
                expected = _reference_differential(MODEL, test).mismatches
                got = run_differential(MODEL, test).mismatches
                compared += 1
                reported[name] += bool(expected)
                if got != expected:
                    differing.append((test.spec_name, name, got, expected))
        assert differing == []
        assert compared == 2 * 2 * len(SPEC_NAMES)
        assert reported["clean"] == 0
        assert reported["_golden_only_zero_byte"] == 0
        for corruption in CORRUPTIONS[:-1]:
            assert reported[corruption.__name__] > 0, corruption.__name__

    def test_a_clean_test_skips_the_per_location_comparison(
        self, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError("per-location comparison ran")

        monkeypatch.setattr(compare, "_compare_locations", refuse)
        spec = MODEL.table.by_name("Stdx")
        for test in generate_tests(MODEL, spec, count=4, seed=5):
            assert run_differential(MODEL, test).passed
