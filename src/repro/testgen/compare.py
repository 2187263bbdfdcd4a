"""Differential execution: the Sail model vs the golden emulator.

Runs one generated test on both implementations from identical initial
state and compares every architected register, the next-instruction address,
and all touched memory, *up to undef*: wherever the model's value has undef
bits, any hardware (golden) value is acceptable -- exactly the comparison
discipline of section 7 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..golden.emulator import GoldenMachine
from ..golden import emulator as golden
from ..isa.model import IsaModel
from ..isa.sequential import SequentialMachine
from ..sail.values import Bits
from .sequential import MachineSetup, SequentialTest


@dataclass
class Mismatch:
    location: str
    model_value: str
    golden_value: str

    def __str__(self) -> str:
        return f"{self.location}: model={self.model_value} golden={self.golden_value}"


@dataclass
class ComparisonResult:
    test: SequentialTest
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches


def _setup_model_machine(
    model: IsaModel, setup: MachineSetup
) -> SequentialMachine:
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


def _setup_golden_machine(setup: MachineSetup) -> GoldenMachine:
    machine = GoldenMachine()
    machine.gpr = list(setup.gprs)
    machine.cr = setup.cr
    machine.so, machine.ov, machine.ca = setup.so, setup.ov, setup.ca
    machine.lr, machine.ctr = setup.lr, setup.ctr
    machine.cia = setup.cia
    machine.memory = dict(setup.memory)
    return machine


_ZERO_BYTE = Bits.zeros(8)


def _check(
    result: ComparisonResult, location: str, model_value: Bits, golden_value: int
) -> None:
    concrete = Bits.from_int(golden_value, model_value.width)
    if not model_value.matches_up_to_undef(concrete):
        result.mismatches.append(
            Mismatch(location, repr(model_value), hex(golden_value))
        )


def run_differential(model: IsaModel, test: SequentialTest) -> ComparisonResult:
    """Execute one test on both machines and compare final state."""
    result = ComparisonResult(test)
    instruction = test.decode(model)

    model_machine = _setup_model_machine(model, test.setup)
    golden_machine = _setup_golden_machine(test.setup)

    model_nia = model_machine.execute(instruction)
    golden_nia = golden.execute(golden_machine, instruction)

    if model_nia != golden_nia:
        result.mismatches.append(
            Mismatch("NIA", hex(model_nia), hex(golden_nia))
        )

    for i in range(32):
        _check(result, f"GPR{i}", model_machine.gpr(i), golden_machine.gpr[i])
    _check(result, "CR", model_machine.reg("CR"), golden_machine.cr)
    _check(result, "XER", model_machine.reg("XER"), golden_machine.xer)
    _check(result, "LR", model_machine.reg("LR"), golden_machine.lr)
    _check(result, "CTR", model_machine.reg("CTR"), golden_machine.ctr)

    model_memory = model_machine.memory.snapshot()
    golden_memory = golden_machine.memory
    for addr in sorted(model_memory.keys() | golden_memory.keys()):
        model_byte = model_memory.get(addr, _ZERO_BYTE)
        golden_byte = golden_memory.get(addr, 0)
        # Most bytes are fully known and equal: compare them as integers
        # and leave undef bits and mismatches to the lifted comparison.
        if model_byte.ones == golden_byte and model_byte.is_known:
            continue
        _check(result, f"mem[0x{addr:x}]", model_byte, golden_byte)
    return result


@dataclass
class SuiteReport:
    """Aggregate results over a generated suite (the paper's 6984-test run)."""

    total: int = 0
    passed: int = 0
    failures: List[ComparisonResult] = field(default_factory=list)
    per_instruction: Dict[str, int] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return self.passed == self.total


def run_suite(model: IsaModel, tests) -> SuiteReport:
    report = SuiteReport()
    for test in tests:
        outcome = run_differential(model, test)
        report.total += 1
        report.per_instruction[test.spec_name] = (
            report.per_instruction.get(test.spec_name, 0) + 1
        )
        if outcome.passed:
            report.passed += 1
        else:
            report.failures.append(outcome)
    return report
