"""Pretty-printer for the herdtools ``.litmus`` format (POWER flavour).

``emit_litmus`` is the inverse of ``parser.parse_litmus``: it renders a
``LitmusTest`` back to source in a canonical normal form (sorted initial
state, aligned instruction columns, bracketed memory atoms).  The normal
form is a fixed point of ``parse`` followed by ``emit``, which the
round-trip property test pins down: ``emit(parse(emit(t))) == emit(t)``.
"""

from __future__ import annotations

import re
from typing import List, Tuple, Union

from .test import (
    And,
    Condition,
    LitmusTest,
    MemoryEquals,
    Not,
    Or,
    RegisterEquals,
    TrueCondition,
)


def _register_source_name(name: str) -> str:
    """Architected instance name back to litmus syntax (GPR5 -> r5)."""
    match = re.fullmatch(r"GPR(\d+)", name)
    if match:
        return f"r{int(match.group(1))}"
    return name.lower()


def _register_sort_key(name: str) -> Tuple[int, Union[int, str]]:
    match = re.fullmatch(r"GPR(\d+)", name)
    if match:
        return (0, int(match.group(1)))
    return (1, name)


# ----------------------------------------------------------------------
# Conditions
# ----------------------------------------------------------------------

#: Precedence levels: Or binds loosest, And tighter, atoms tightest.
_PREC_OR, _PREC_AND, _PREC_ATOM = 0, 1, 2


def format_condition(condition: Condition) -> str:
    """Render a condition AST without the outer ``exists (...)`` wrapper."""
    return _format(condition, _PREC_OR)


def _format(condition: Condition, context: int) -> str:
    if isinstance(condition, RegisterEquals):
        reg = _register_source_name(condition.register)
        return f"{condition.tid}:{reg}={condition.value}"
    if isinstance(condition, MemoryEquals):
        return f"[{condition.location}]={condition.value}"
    if isinstance(condition, TrueCondition):
        return "true"
    if isinstance(condition, Not):
        return f"~({_format(condition.operand, _PREC_OR)})"
    if isinstance(condition, And):
        text = (
            f"{_format(condition.left, _PREC_AND)}"
            f" /\\ {_format(condition.right, _PREC_AND)}"
        )
        return f"({text})" if context > _PREC_AND else text
    if isinstance(condition, Or):
        text = (
            f"{_format(condition.left, _PREC_OR)}"
            f" \\/ {_format(condition.right, _PREC_OR)}"
        )
        return f"({text})" if context > _PREC_OR else text
    raise TypeError(f"unknown condition {condition!r}")


# ----------------------------------------------------------------------
# The test
# ----------------------------------------------------------------------


def emit_litmus(test: LitmusTest) -> str:
    """Render a ``LitmusTest`` to canonical ``.litmus`` source."""
    lines: List[str] = [f"{test.arch} {test.name}", "{"]

    for tid in sorted(test.init_registers):
        assignments = test.init_registers[tid]
        parts = []
        for name in sorted(assignments, key=_register_sort_key):
            value = assignments[name]
            parts.append(f"{tid}:{_register_source_name(name)}={value}")
        if parts:
            lines.append("; ".join(parts) + ";")
    memory_parts = [
        f"{var}={test.init_memory[var]}" for var in sorted(test.init_memory)
    ]
    if memory_parts:
        lines.append("; ".join(memory_parts) + ";")
    lines.append("}")

    lines.extend(_format_code_table(test.programs))

    quantifier = {"exists": "exists", "not exists": "~exists", "forall": "forall"}[
        test.quantifier
    ]
    lines.append(f"{quantifier} ({format_condition(test.condition)})")
    return "\n".join(lines) + "\n"


def _format_code_table(programs: List[List[str]]) -> List[str]:
    depth = max(len(program) for program in programs)
    rows: List[List[str]] = [[f"P{tid}" for tid in range(len(programs))]]
    for i in range(depth):
        rows.append(
            [
                program[i] if i < len(program) else ""
                for program in programs
            ]
        )
    widths = [
        max(len(rows[r][c]) for r in range(len(rows)))
        for c in range(len(programs))
    ]
    return [
        " " + " | ".join(cell.ljust(w) for cell, w in zip(row, widths)) + " ;"
        for row in rows
    ]
