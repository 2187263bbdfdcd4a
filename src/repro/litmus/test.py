"""Litmus test representation and final-condition evaluation.

A litmus test names an initial state (registers and memory), per-thread
assembly programs, and a final-state condition (``exists (...)`` etc.).
The condition language follows herdtools: conjunction ``/\\``, disjunction
``\\/``, negation ``~``, atoms ``T:rN=v`` (register) and ``[x]=v`` or
``x=v`` (memory).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union


# ----------------------------------------------------------------------
# Condition AST
# ----------------------------------------------------------------------


class Condition:
    __slots__ = ()


@dataclass(frozen=True)
class RegisterEquals(Condition):
    tid: int
    register: str  # architected instance name, e.g. "GPR5"
    value: int


@dataclass(frozen=True)
class MemoryEquals(Condition):
    location: str  # symbolic variable name
    value: int


@dataclass(frozen=True)
class Not(Condition):
    operand: Condition


@dataclass(frozen=True)
class And(Condition):
    left: Condition
    right: Condition


@dataclass(frozen=True)
class Or(Condition):
    left: Condition
    right: Condition


@dataclass(frozen=True)
class TrueCondition(Condition):
    pass


def evaluate_condition(
    condition: Condition,
    registers: Dict[Tuple[int, str], Optional[int]],
    memory: Dict[str, Optional[int]],
) -> bool:
    """Evaluate a condition over one outcome.

    ``None`` values (undef bits in a final register) never satisfy an
    equality -- the envelope still contains the execution, but the litmus
    condition asks for a specific concrete value.
    """
    if isinstance(condition, RegisterEquals):
        return registers.get((condition.tid, condition.register)) == condition.value
    if isinstance(condition, MemoryEquals):
        return memory.get(condition.location) == condition.value
    if isinstance(condition, Not):
        return not evaluate_condition(condition.operand, registers, memory)
    if isinstance(condition, And):
        return evaluate_condition(
            condition.left, registers, memory
        ) and evaluate_condition(condition.right, registers, memory)
    if isinstance(condition, Or):
        return evaluate_condition(
            condition.left, registers, memory
        ) or evaluate_condition(condition.right, registers, memory)
    if isinstance(condition, TrueCondition):
        return True
    raise TypeError(f"unknown condition {condition!r}")


def condition_registers(condition: Condition) -> List[Tuple[int, str]]:
    """All (tid, register) pairs a condition mentions."""
    if isinstance(condition, RegisterEquals):
        return [(condition.tid, condition.register)]
    if isinstance(condition, (And, Or)):
        return condition_registers(condition.left) + condition_registers(
            condition.right
        )
    if isinstance(condition, Not):
        return condition_registers(condition.operand)
    return []


def condition_locations(condition: Condition) -> List[str]:
    """All memory locations a condition mentions."""
    if isinstance(condition, MemoryEquals):
        return [condition.location]
    if isinstance(condition, (And, Or)):
        return condition_locations(condition.left) + condition_locations(
            condition.right
        )
    if isinstance(condition, Not):
        return condition_locations(condition.operand)
    return []


# ----------------------------------------------------------------------
# The test itself
# ----------------------------------------------------------------------


@dataclass
class LitmusTest:
    """A parsed litmus test, ready for the runner."""

    name: str
    arch: str
    programs: List[List[str]]  # instruction text per thread
    init_registers: Dict[int, Dict[str, Union[int, str]]]  # rN -> value/var
    init_memory: Dict[str, int]  # variable -> initial value
    quantifier: str  # "exists" | "forall" | "not exists"
    condition: Condition
    source: str = ""
    #: variables that should be doubleword cells (ld/std tests)
    doubleword: bool = False

    @property
    def thread_count(self) -> int:
        return len(self.programs)

    def locations(self) -> List[str]:
        names = set(self.init_memory)
        for assignments in self.init_registers.values():
            for value in assignments.values():
                if isinstance(value, str):
                    names.add(value)
        names.update(condition_locations(self.condition))
        return sorted(names)
