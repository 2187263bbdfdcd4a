"""Differential validation of the Sail model against the golden emulator.

This is the unit-test slice of the section-7 sequential validation: a
handful of seeded random tests per instruction, run on both implementations
and compared up to undef.  The full-scale run (the paper's 6984 tests) lives
in benchmarks/test_e2_sequential_validation.py.
"""

import pytest

from repro.golden import emulator as golden
from repro.isa.model import default_model
from repro.testgen.compare import Mismatch, run_differential
from repro.testgen.sequential import (
    DATA_BASE,
    TEST_CIA,
    MachineSetup,
    SequentialTest,
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
