"""POWER assembler for the litmus front-end.

Generated from the same declarative encodings as the decoder (mirroring the
paper's assembly parsing code produced by the extraction tool, section 4),
plus the extended mnemonics the litmus corpus uses (li, mr, cmpw, beq,
lwsync, sldi, mflr, ...).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .model import IsaModel
from .spec import REG_FIELDS, SIGNED_FIELDS, InstructionSpec


class AssemblerError(Exception):
    """Unparseable assembly or out-of-range operand."""


_CR_FLAG_BITS = {"lt": 0, "gt": 1, "eq": 2, "so": 3, "un": 3}


def _parse_register(text: str) -> int:
    text = text.strip().lower()
    if text.startswith("r"):
        text = text[1:]
    if not text.isdigit() or not 0 <= int(text) < 32:
        raise AssemblerError(f"bad register {text!r}")
    return int(text)


def _parse_cr_field(text: str) -> int:
    text = text.strip().lower()
    if text.startswith("cr"):
        text = text[2:]
    if not text.isdigit() or not 0 <= int(text) < 8:
        raise AssemblerError(f"bad CR field {text!r}")
    return int(text)


def _parse_int(text: str) -> int:
    text = text.strip()
    try:
        return int(text, 0)
    except ValueError:
        raise AssemblerError(f"bad integer {text!r}")


def _encode_signed(value: int, width: int, name: str) -> int:
    low, high = -(1 << (width - 1)), (1 << (width - 1)) - 1
    if not low <= value <= high:
        raise AssemblerError(f"{name}={value} out of range [{low},{high}]")
    return value & ((1 << width) - 1)


def _encode_unsigned(value: int, width: int, name: str) -> int:
    if not 0 <= value < (1 << width):
        raise AssemblerError(f"{name}={value} does not fit {width} bits")
    return value


_MEM_OPERAND = re.compile(r"^(?P<disp>[^()]*)\((?P<base>[^()]+)\)$")


class Assembler:
    """Two-pass assembler over the instruction-spec table."""

    def __init__(self, model: IsaModel):
        self._model = model
        self._by_mnemonic: Dict[str, InstructionSpec] = {}
        for spec in model.table.all_specs():
            self._by_mnemonic[spec.mnemonic] = spec

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def assemble_instruction(
        self,
        text: str,
        address: int = 0,
        labels: Optional[Dict[str, int]] = None,
    ) -> int:
        """Assemble one instruction to its 32-bit opcode."""
        mnemonic, operands = self._split(text)
        mnemonic, operands = _expand_extended(mnemonic, operands)
        spec, flags = self._lookup(mnemonic)
        fields = self._encode_operands(
            spec, operands, address, labels or {}, flags
        )
        fields.update(flags)
        for field_def in spec.operand_fields():
            fields.setdefault(field_def.name, 0)
        return spec.encode(fields)

    def assemble_program(
        self, instructions: List[str], base: int
    ) -> Tuple[List[int], Dict[str, int]]:
        """Two-pass assembly of a label-bearing instruction list."""
        labels: Dict[str, int] = {}
        cleaned: List[Tuple[int, str]] = []
        address = base
        for line in instructions:
            line = line.strip()
            while ":" in line and _looks_like_label(line.split(":", 1)[0]):
                label, line = line.split(":", 1)
                labels[label.strip()] = address
                line = line.strip()
            if not line:
                continue
            cleaned.append((address, line))
            address += 4
        words = [
            self.assemble_instruction(text, addr, labels)
            for addr, text in cleaned
        ]
        return words, labels

    # ------------------------------------------------------------------

    def _split(self, text: str) -> Tuple[str, List[str]]:
        text = text.strip()
        if not text:
            raise AssemblerError("empty instruction")
        parts = text.split(None, 1)
        mnemonic = parts[0].lower()
        if len(parts) == 1:
            return mnemonic, []
        operands = [op.strip() for op in parts[1].split(",")]
        return mnemonic, operands

    def _lookup(self, mnemonic: str) -> Tuple[InstructionSpec, Dict[str, int]]:
        flags: Dict[str, int] = {}
        if mnemonic in self._by_mnemonic:
            return self._by_mnemonic[mnemonic], flags
        # Branch link/absolute suffixes: bl, ba, bla, bcl, bclrl, bcctrl...
        stripped = mnemonic
        branch_flags: Dict[str, int] = {}
        if stripped.endswith("a") and stripped[:-1] in ("b", "bc", "bl", "bcl"):
            branch_flags["AA"] = 1
            stripped = stripped[:-1]
        if stripped.endswith("l") and stripped[:-1] in ("b", "bc", "bclr", "bcctr"):
            branch_flags["LK"] = 1
            stripped = stripped[:-1]
        if branch_flags and stripped in self._by_mnemonic:
            return self._by_mnemonic[stripped], branch_flags
        stripped = mnemonic
        if stripped.endswith("."):
            flags["Rc"] = 1
            stripped = stripped[:-1]
        if stripped in self._by_mnemonic:
            spec = self._by_mnemonic[stripped]
            if any(f.name == "Rc" for f in spec.operand_fields()):
                return spec, flags
        if stripped.endswith("o"):
            flags["OE"] = 1
            stripped = stripped[:-1]
            if stripped in self._by_mnemonic:
                return self._by_mnemonic[stripped], flags
        raise AssemblerError(f"unknown mnemonic {mnemonic!r}")

    def _encode_operands(
        self,
        spec: InstructionSpec,
        operands: List[str],
        address: int,
        labels: Dict[str, int],
        flags: Optional[Dict[str, int]] = None,
    ) -> Dict[str, int]:
        templates = [t for t in spec.syntax if t]
        if len(operands) != len(templates):
            raise AssemblerError(
                f"{spec.mnemonic}: expected {len(templates)} operands "
                f"({', '.join(templates)}), got {len(operands)}"
            )
        widths = {f.name: f.width for f in spec.operand_fields()}
        fields: Dict[str, int] = {}
        absolute = bool((flags or {}).get("AA"))
        for template, operand in zip(templates, operands):
            self._encode_one(
                spec, template, operand, address, labels, widths, fields,
                absolute,
            )
        return fields

    def _encode_one(
        self, spec, template, operand, address, labels, widths, fields,
        absolute=False,
    ) -> None:
        match = _MEM_OPERAND.match(template)
        if match:  # e.g. "D(RA)" / "DS(RA)"
            disp_field, base_field = match.group("disp"), match.group("base")
            opmatch = _MEM_OPERAND.match(operand)
            if not opmatch:
                raise AssemblerError(f"expected disp(base), got {operand!r}")
            disp = _parse_int(opmatch.group("disp") or "0")
            base = _parse_register(opmatch.group("base"))
            if disp_field == "DS":
                if disp % 4:
                    raise AssemblerError(f"DS displacement {disp} not a multiple of 4")
                fields["DS"] = _encode_signed(disp // 4, widths["DS"], "DS")
            else:
                fields[disp_field] = _encode_signed(
                    disp, widths[disp_field], disp_field
                )
            fields[base_field] = base
            return
        if template in REG_FIELDS:
            fields[template] = _parse_register(operand)
            return
        if template == "target":
            target = labels.get(operand)
            if target is None:
                target = _parse_int(operand)
            offset = target if absolute else target - address
            # Addresses wrap modulo 2^64; reduce the offset to the signed
            # 64-bit range so e.g. a backward branch rendered as a large
            # wrapped absolute address round-trips.
            offset &= (1 << 64) - 1
            if offset >> 63:
                offset -= 1 << 64
            if offset % 4:
                raise AssemblerError(f"misaligned branch target {operand!r}")
            field = "LI" if "LI" in widths else "BD"
            fields[field] = _encode_signed(offset // 4, widths[field], field)
            fields["AA"] = 1 if absolute else 0
            return
        if template == "spr":
            n = {"xer": 1, "lr": 8, "ctr": 9}.get(
                operand.lower(), None
            )
            if n is None:
                n = _parse_int(operand)
            fields["SPR"] = ((n & 0x1F) << 5) | (n >> 5)
            return
        if template == "fxm":
            if operand.lower().startswith("cr"):
                fields["FXM"] = 1 << (7 - _parse_cr_field(operand))
            else:
                fields["FXM"] = _encode_unsigned(_parse_int(operand), 8, "FXM")
            return
        if template == "sh6":
            sh = _parse_int(operand)
            if not 0 <= sh < 64:
                raise AssemblerError(f"shift {sh} out of range")
            fields["SHL"], fields["SHH"] = sh & 0x1F, sh >> 5
            return
        if template in ("mb6", "me6"):
            mb = _parse_int(operand)
            if not 0 <= mb < 64:
                raise AssemblerError(f"mask bound {mb} out of range")
            fields["MBE"] = ((mb & 0x1F) << 1) | (mb >> 5)
            return
        if template in ("BF", "BFA"):
            fields[template] = _parse_cr_field(operand)
            return
        width = widths.get(template)
        if width is None:
            raise AssemblerError(
                f"{spec.mnemonic}: unknown operand template {template!r}"
            )
        value = _parse_int(operand)
        if template in SIGNED_FIELDS:
            fields[template] = _encode_signed(value, width, template)
        else:
            fields[template] = _encode_unsigned(value, width, template)


def _looks_like_label(text: str) -> bool:
    text = text.strip()
    return bool(text) and bool(re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", text))


# ----------------------------------------------------------------------
# Extended mnemonics
# ----------------------------------------------------------------------

_BRANCH_CONDITIONS = {
    "blt": (12, 0),
    "bge": (4, 0),
    "bgt": (12, 1),
    "ble": (4, 1),
    "beq": (12, 2),
    "bne": (4, 2),
    "bso": (12, 3),
    "bns": (4, 3),
}


def _expand_extended(
    mnemonic: str, operands: List[str]
) -> Tuple[str, List[str]]:
    """Rewrite an extended mnemonic to its underlying instruction."""
    if mnemonic == "li":
        return "addi", [operands[0], "0", operands[1]]
    if mnemonic == "lis":
        return "addis", [operands[0], "0", operands[1]]
    if mnemonic == "la":
        return "addi", [operands[0], _swap_disp(operands[1])[1], _swap_disp(operands[1])[0]]
    if mnemonic in ("mr", "mr."):
        base = "or" + ("." if mnemonic.endswith(".") else "")
        return base, [operands[0], operands[1], operands[1]]
    if mnemonic in ("not", "not."):
        base = "nor" + ("." if mnemonic.endswith(".") else "")
        return base, [operands[0], operands[1], operands[1]]
    if mnemonic == "nop":
        return "ori", ["0", "0", "0"]
    if mnemonic in ("sub", "sub.", "subo", "subo."):
        return "subf" + mnemonic[3:], [operands[0], operands[2], operands[1]]
    if mnemonic == "subi":
        return "addi", [operands[0], operands[1], str(-_parse_int(operands[2]))]
    if mnemonic in ("cmpw", "cmpd", "cmplw", "cmpld"):
        base = "cmpl" if "l" in mnemonic[3:] or mnemonic.startswith("cmpl") else "cmp"
        base = "cmp" if mnemonic in ("cmpw", "cmpd") else "cmpl"
        length = "1" if mnemonic.endswith("d") else "0"
        if len(operands) == 3:
            return base, [operands[0], length, operands[1], operands[2]]
        return base, ["cr0", length, operands[0], operands[1]]
    if mnemonic in ("cmpwi", "cmpdi", "cmplwi", "cmpldi"):
        base = "cmpi" if mnemonic in ("cmpwi", "cmpdi") else "cmpli"
        length = "1" if mnemonic[3] == "d" or mnemonic[4] == "d" else "0"
        length = "1" if ("di" in mnemonic) else "0"
        if len(operands) == 3:
            return base, [operands[0], length, operands[1], operands[2]]
        return base, ["cr0", length, operands[0], operands[1]]
    if mnemonic in _BRANCH_CONDITIONS:
        bo, flag = _BRANCH_CONDITIONS[mnemonic]
        if len(operands) == 2:
            bi = 4 * _parse_cr_field(operands[0]) + flag
            return "bc", [str(bo), str(bi), operands[1]]
        return "bc", [str(bo), str(flag), operands[0]]
    if mnemonic == "bdnz":
        return "bc", ["16", "0", operands[0]]
    if mnemonic == "bdz":
        return "bc", ["18", "0", operands[0]]
    if mnemonic == "blr":
        return "bclr", ["20", "0"]
    if mnemonic == "bctr":
        return "bcctr", ["20", "0"]
    if mnemonic == "beqlr":
        return "bclr", ["12", "2"]
    if mnemonic == "bnelr":
        return "bclr", ["4", "2"]
    if mnemonic == "mtlr":
        return "mtspr", ["lr", operands[0]]
    if mnemonic == "mflr":
        return "mfspr", [operands[0], "lr"]
    if mnemonic == "mtctr":
        return "mtspr", ["ctr", operands[0]]
    if mnemonic == "mfctr":
        return "mfspr", [operands[0], "ctr"]
    if mnemonic == "mtxer":
        return "mtspr", ["xer", operands[0]]
    if mnemonic == "mfxer":
        return "mfspr", [operands[0], "xer"]
    if mnemonic == "mtcr":
        return "mtcrf", ["0xff", operands[0]]
    if mnemonic in ("lwsync", "hwsync", "sync"):
        if operands:
            return "sync", operands
        return "sync", ["1" if mnemonic == "lwsync" else "0"]
    if mnemonic in ("slwi", "slwi."):
        n = _parse_int(operands[2])
        suffix = "." if mnemonic.endswith(".") else ""
        return "rlwinm" + suffix, [
            operands[0], operands[1], str(n), "0", str(31 - n),
        ]
    if mnemonic in ("srwi", "srwi."):
        n = _parse_int(operands[2])
        suffix = "." if mnemonic.endswith(".") else ""
        return "rlwinm" + suffix, [
            operands[0], operands[1], str((32 - n) % 32), str(n), "31",
        ]
    if mnemonic == "clrlwi":
        n = _parse_int(operands[2])
        return "rlwinm", [operands[0], operands[1], "0", str(n), "31"]
    if mnemonic in ("sldi", "sldi."):
        n = _parse_int(operands[2])
        suffix = "." if mnemonic.endswith(".") else ""
        return "rldicr" + suffix, [
            operands[0], operands[1], str(n), str(63 - n),
        ]
    if mnemonic in ("srdi", "srdi."):
        n = _parse_int(operands[2])
        suffix = "." if mnemonic.endswith(".") else ""
        return "rldicl" + suffix, [
            operands[0], operands[1], str((64 - n) % 64), str(n),
        ]
    if mnemonic == "clrldi":
        n = _parse_int(operands[2])
        return "rldicl", [operands[0], operands[1], "0", str(n)]
    if mnemonic == "crclr":
        return "crxor", [operands[0], operands[0], operands[0]]
    if mnemonic == "crset":
        return "creqv", [operands[0], operands[0], operands[0]]
    if mnemonic == "crmove":
        return "cror", [operands[0], operands[1], operands[1]]
    return mnemonic, operands


def _swap_disp(operand: str) -> Tuple[str, str]:
    match = _MEM_OPERAND.match(operand)
    if not match:
        raise AssemblerError(f"expected disp(base), got {operand!r}")
    return match.group("disp") or "0", match.group("base")
