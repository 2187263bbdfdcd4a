"""Differential execution: the Sail model vs the golden emulator.

Runs one generated test on both implementations from identical initial
state and compares every architected register, the next-instruction address,
and all touched memory, *up to undef*: wherever the model's value has undef
bits, any hardware (golden) value is acceptable -- exactly the comparison
discipline of section 7 of the paper.

Most tests end in identical, fully known states, so the final states are
first checked as a whole (integer equality per register, one dict
equality for memory); only a test that fails that check is compared
location by location, which is what names every mismatch.
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
    machine.memory.load_image(setup.memory)
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


#: The architected registers compared, in report order.
_REGISTER_NAMES = (
    *(f"GPR{i}" for i in range(32)), "CR", "XER", "LR", "CTR",
)


def _golden_registers(machine: GoldenMachine) -> tuple:
    """The golden register values in ``_REGISTER_NAMES`` order."""
    return (*machine.gpr, machine.cr, machine.xer, machine.lr, machine.ctr)


def _same_state(
    model_machine: SequentialMachine, golden_machine: GoldenMachine
) -> bool:
    """The whole-state check: every register's concrete bits equal to the
    golden value as an integer, and memory holding exactly the golden
    bytes, every bit known.

    When it holds, the per-location comparison finds nothing (undef bits
    hold 0 in ``ones`` and match any golden bit); when it does not, that
    comparison decides.
    """
    values = model_machine.registers.values
    for name, golden_value in zip(
        _REGISTER_NAMES, _golden_registers(golden_machine)
    ):
        value = values.get(name)
        if value is None or value.ones != golden_value:
            return False
    return model_machine.memory.holds_image(golden_machine.memory)


def _compare_locations(
    result: ComparisonResult,
    model_machine: SequentialMachine,
    golden_machine: GoldenMachine,
) -> None:
    """The per-location comparison up to undef, in report order."""
    for name, golden_value in zip(
        _REGISTER_NAMES, _golden_registers(golden_machine)
    ):
        _check(result, name, model_machine.reg(name), golden_value)

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
    if result.mismatches or not _same_state(model_machine, golden_machine):
        _compare_locations(result, model_machine, golden_machine)
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
