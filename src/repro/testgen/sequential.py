"""Automatic generation of sequential single-instruction tests (section 7).

The paper generates tests "for interesting partly-random combinations of
machine state and instruction parameters, taking care with branches and
suchlike", runs each on hardware and in the model, and compares logged
register/memory state up to undef.  Here the golden emulator plays the
hardware; generation is seeded and deterministic.

Per-instruction special-casing mirrors the paper's: a handful of fields need
constrained values (SPR numbers, one-hot FXM masks, sync's L field), update
forms must avoid their invalid forms, and memory accesses are biased into a
seeded data region so loads read interesting bytes.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..isa.model import DecodedInstruction, IsaModel
from ..isa.spec import InstructionSpec

#: Seeded data region for memory-access tests.
DATA_BASE = 0x0001_0000
DATA_SIZE = 0x400
DATA_CENTER = DATA_BASE + DATA_SIZE // 2

#: Where the instruction under test notionally sits.
TEST_CIA = 0x0005_0000

_INTERESTING_64 = (
    0,
    1,
    2,
    (1 << 63) - 1,
    1 << 63,
    (1 << 64) - 1,
    0x8000_0000,
    0x7FFF_FFFF,
    0xFFFF_FFFF,
    0x0123_4567_89AB_CDEF,
)


@dataclass
class MachineSetup:
    """A complete initial machine state, applicable to either emulator."""

    gprs: Tuple[int, ...]
    cr: int
    so: int
    ov: int
    ca: int
    lr: int
    ctr: int
    cia: int
    memory: Dict[int, int] = field(default_factory=dict)


@dataclass
class SequentialTest:
    """One generated test: an opcode plus the initial machine state."""

    spec_name: str
    word: int
    setup: MachineSetup
    seed: int

    def decode(self, model: IsaModel) -> DecodedInstruction:
        return model.decode_or_raise(self.word)


def _random_value(rng: random.Random) -> int:
    if rng.random() < 0.4:
        return rng.choice(_INTERESTING_64)
    return rng.getrandbits(rng.choice((8, 16, 32, 64)))


def _random_setup(rng: random.Random) -> MachineSetup:
    gprs = tuple(_random_value(rng) for _ in range(32))
    memory = {
        DATA_BASE + i: rng.getrandbits(8) for i in range(DATA_SIZE)
    }
    return MachineSetup(
        gprs=gprs,
        cr=rng.getrandbits(32),
        so=rng.getrandbits(1),
        ov=rng.getrandbits(1),
        ca=rng.getrandbits(1),
        lr=rng.getrandbits(62) << 2,
        ctr=rng.getrandbits(64),
        cia=TEST_CIA,
        memory=memory,
    )


def _random_fields(spec: InstructionSpec, rng: random.Random) -> Dict[str, int]:
    fields: Dict[str, int] = {}
    for f in spec.operand_fields():
        fields[f.name] = rng.getrandbits(f.width)
    _constrain_fields(spec, fields, rng)
    return fields


def _constrain_fields(
    spec: InstructionSpec, fields: Dict[str, int], rng: random.Random
) -> None:
    """The per-instruction special cases (13 in the paper; fewer here)."""
    if "SPR" in fields:
        n = rng.choice((1, 8, 9))
        fields["SPR"] = (n & 0x1F) << 5 | (n >> 5)
    if spec.name in ("Mtocrf", "Mfocrf"):
        fields["FXM"] = 1 << rng.randrange(8)
    if spec.name == "Sync":
        fields["L"] = rng.randrange(2)
    if spec.name == "Bcctr":
        # Decrement forms are invalid: force BO[2]=1.
        fields["BO"] |= 0b00100
    if spec.invalid_when is not None:
        for _ in range(64):
            if not spec.is_invalid_form(fields):
                break
            for name in ("RA", "RT", "RS"):
                if name in fields:
                    fields[name] = rng.randrange(32)
        else:
            raise RuntimeError(f"cannot satisfy valid-form for {spec.name}")


def _bias_memory_access(
    spec: InstructionSpec,
    fields: Dict[str, int],
    setup: MachineSetup,
    rng: random.Random,
) -> None:
    """Point base/index registers into the seeded data region."""
    if spec.category not in ("load", "store", "atomic"):
        return
    gprs = list(setup.gprs)
    ra = fields.get("RA", 0)
    if ra != 0:
        gprs[ra] = DATA_CENTER + rng.randrange(-64, 64)
    if "RB" in fields:
        rb = fields["RB"]
        gprs[rb] = rng.randrange(-64, 64) % (1 << 64)
        if ra == 0:
            gprs[rb] = DATA_CENTER + rng.randrange(-64, 64)
    for name in ("D",):
        if name in fields:
            fields[name] = rng.randrange(-128, 128) % (1 << 16)
    if "DS" in fields:
        fields["DS"] = rng.randrange(-32, 32) % (1 << 14)
    # Update forms read and write RA; keep RA distinct from RT/RS biasing.
    setup.gprs = tuple(gprs)


def generate_tests(
    model: IsaModel,
    spec: InstructionSpec,
    count: int,
    seed: int = 0,
) -> List[SequentialTest]:
    """Deterministically generate ``count`` tests for one instruction."""
    tests: List[SequentialTest] = []
    for index in range(count):
        # zlib.crc32 is stable across processes (unlike built-in hash).
        case_seed = zlib.crc32(
            f"{spec.name}/{seed}/{index}".encode()
        ) & 0x7FFF_FFFF
        rng = random.Random(case_seed)
        setup = _random_setup(rng)
        fields = _random_fields(spec, rng)
        _bias_memory_access(spec, fields, setup, rng)
        word = spec.encode(fields)
        decoded = model.decode(word)
        if decoded is None or decoded.spec.name != spec.name:
            raise RuntimeError(
                f"generated word 0x{word:08x} for {spec.name} decodes to "
                f"{decoded.spec.name if decoded else None}"
            )
        tests.append(SequentialTest(spec.name, word, setup, case_seed))
    return tests


def generate_suite(
    model: IsaModel, per_instruction: int, seed: int = 0
) -> List[SequentialTest]:
    """A full suite across every instruction in the corpus."""
    suite: List[SequentialTest] = []
    for spec in model.table.all_specs():
        suite.extend(generate_tests(model, spec, per_instruction, seed))
    return suite
