"""Declarative instruction specifications for the POWER ISA model.

The paper extracts decode/execute definitions from the vendor XML (section
4); here each instruction is a single ``InstructionSpec`` carrying

  * the 32-bit encoding layout (fixed opcode bits + named operand fields),
    written in a compact string form, e.g. for ``stdu`` (Fig. 2):
        ``"62 RS:5 RA:5 DS:14 1:2"``
  * the Sail pseudocode of its ``execute`` clause,
  * assembly syntax for the litmus front-end's assembler/disassembler,
  * the invalid-form predicate (the paper's ``invalid`` function clause).

Decode, assembly and disassembly are all generated from the layout, mirroring
the paper's generated boilerplate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..sail.values import Bits


class EncodingError(Exception):
    """A malformed instruction-specification layout."""


@dataclass(frozen=True)
class FieldDef:
    """One contiguous bit field of a 32-bit instruction word."""

    name: Optional[str]  # None for fixed opcode bits
    pos: int  # first bit, POWER MSB-0 numbering
    width: int
    value: Optional[int] = None  # fixed value when name is None

    @property
    def shift(self) -> int:
        return 32 - self.pos - self.width

    @property
    def mask(self) -> int:
        return ((1 << self.width) - 1) << self.shift

    def extract(self, word: int) -> int:
        return (word & self.mask) >> self.shift

    def insert(self, word: int, value: int) -> int:
        if value < 0 or value >= (1 << self.width):
            raise EncodingError(
                f"value {value} does not fit field {self.name} ({self.width} bits)"
            )
        return (word & ~self.mask) | (value << self.shift)


def parse_layout(layout: str) -> Tuple[FieldDef, ...]:
    """Parse a layout string into field definitions.

    Tokens are ``value:width`` for fixed bits or ``NAME:width`` for operand
    fields; a bare leading integer is the 6-bit primary opcode.
    """
    fields: List[FieldDef] = []
    pos = 0
    for index, token in enumerate(layout.split()):
        if ":" in token:
            head, width_text = token.rsplit(":", 1)
            width = int(width_text)
        else:
            head, width = token, 6
            if index != 0:
                raise EncodingError(f"width missing in token {token!r}")
        if head.isdigit():
            fields.append(FieldDef(None, pos, width, int(head)))
        else:
            fields.append(FieldDef(head, pos, width))
        pos += width
    if pos != 32:
        raise EncodingError(f"layout {layout!r} covers {pos} bits, expected 32")
    return tuple(fields)


#: Operand fields holding general-purpose register numbers.
REG_FIELDS = frozenset({"RT", "RA", "RB", "RS"})

#: Immediate fields interpreted as signed in assembly syntax.
SIGNED_FIELDS = frozenset({"SI", "D", "DS", "BD", "LI"})


@dataclass(frozen=True)
class InstructionSpec:
    """A complete description of one underlying instruction."""

    name: str  # Sail AST constructor name, e.g. "Stdu"
    mnemonic: str  # base mnemonic, e.g. "stdu"
    form: str  # vendor form name: D, DS, X, XO, M, MD, B, I, XL, XFX
    facility: str  # "branch" | "fixed-point" | "barrier" | "atomic"
    layout: Tuple[FieldDef, ...]
    pseudocode: str
    syntax: Tuple[str, ...]  # e.g. ("RT", "D(RA)")
    invalid_when: Optional[str] = None  # Python expression over field values
    category: str = ""  # finer grouping for the coverage table

    def __post_init__(self) -> None:
        # Decoding tries ``matches`` on many specs per word: fix the opcode
        # bits' mask and value once per spec.
        mask = value = 0
        for f in self.layout:
            if f.name is None:
                mask |= f.mask
                value |= f.value << f.shift
        object.__setattr__(self, "_fixed", (mask, value))

    # -- encoding ------------------------------------------------------

    def operand_fields(self) -> Tuple[FieldDef, ...]:
        return tuple(f for f in self.layout if f.name is not None)

    def fixed_mask_value(self) -> Tuple[int, int]:
        """The opcode bits' ``(mask, value)``: ``word`` decodes as this
        spec when ``word & mask == value``."""
        return self._fixed

    def primary_opcode(self) -> int:
        first = self.layout[0]
        if first.name is not None or first.pos != 0 or first.width != 6:
            raise EncodingError(f"{self.name}: first field is not a primary opcode")
        return first.value

    def encode(self, operands: Dict[str, int]) -> int:
        """Build the 32-bit word from named operand field values."""
        _, word = self.fixed_mask_value()
        seen = set()
        for f in self.operand_fields():
            try:
                word = f.insert(word, operands[f.name])
            except KeyError:
                raise EncodingError(f"{self.name}: missing operand {f.name}")
            seen.add(f.name)
        extra = set(operands) - seen
        if extra:
            raise EncodingError(f"{self.name}: unknown operands {sorted(extra)}")
        return word

    def decode_fields(self, word: int) -> Dict[str, int]:
        return {f.name: f.extract(word) for f in self.operand_fields()}

    def field_bits(self, word: int) -> Dict[str, Bits]:
        """Operand fields as sized ``Bits``, ready for the Sail environment."""
        return {
            f.name: Bits.from_int(f.extract(word), f.width)
            for f in self.operand_fields()
        }

    def matches(self, word: int) -> bool:
        mask, value = self._fixed
        return (word & mask) == value

    def is_invalid_form(self, fields: Dict[str, int]) -> bool:
        """Evaluate the invalid-form predicate on decoded field values."""
        if self.invalid_when is None:
            return False
        return bool(eval(self.invalid_when, {"__builtins__": {}}, dict(fields)))


class DecodeTable:
    """Primary-opcode-indexed decoder over a set of specs."""

    def __init__(self, specs: Iterable[InstructionSpec]):
        self._by_primary: Dict[int, List[InstructionSpec]] = {}
        self._by_name: Dict[str, InstructionSpec] = {}
        for spec in specs:
            self._by_primary.setdefault(spec.primary_opcode(), []).append(spec)
            if spec.name in self._by_name:
                raise EncodingError(f"duplicate spec name {spec.name}")
            self._by_name[spec.name] = spec
        self._check_no_overlap()

    def _check_no_overlap(self) -> None:
        for primary, specs in self._by_primary.items():
            for i, a in enumerate(specs):
                mask_a, value_a = a.fixed_mask_value()
                for b in specs[i + 1 :]:
                    mask_b, value_b = b.fixed_mask_value()
                    common = mask_a & mask_b
                    if (value_a & common) == (value_b & common):
                        raise EncodingError(
                            f"ambiguous encodings: {a.name} vs {b.name}"
                        )

    def lookup(self, word: int) -> Optional[InstructionSpec]:
        primary = (word >> 26) & 0x3F
        for spec in self._by_primary.get(primary, ()):
            if spec.matches(word):
                return spec
        return None

    def by_name(self, name: str) -> InstructionSpec:
        return self._by_name[name]

    def all_specs(self) -> List[InstructionSpec]:
        return list(self._by_name.values())


def spec(
    name: str,
    mnemonic: str,
    form: str,
    facility: str,
    layout: str,
    syntax: str,
    pseudocode: str,
    invalid_when: Optional[str] = None,
    category: str = "",
) -> InstructionSpec:
    """Convenience constructor used throughout ``repro.isa.defs``."""
    parts = tuple(s.strip() for s in syntax.split(",")) if syntax else ()
    return InstructionSpec(
        name=name,
        mnemonic=mnemonic,
        form=form,
        facility=facility,
        layout=parse_layout(layout),
        pseudocode=pseudocode,
        syntax=parts,
        invalid_when=invalid_when,
        category=category or facility,
    )
