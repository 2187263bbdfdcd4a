"""Sequential execution of the Sail model ("the model run in sequential mode").

Section 7 of the paper validates instruction semantics by running the model
sequentially and comparing register/memory state against POWER 7 hardware.
``SequentialMachine`` is that sequential mode: a single hardware thread,
architected register state, flat byte memory, instructions executed one at a
time by driving the Sail interpreter's outcomes.

Memory is byte-granular and lifted (each byte a ``Bits(8)``), so undef bits
flow through exactly as in the concurrent model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..sail.outcomes import (
    Barrier,
    Done,
    ReadMem,
    ReadReg,
    RegSlice,
    WriteMem,
    WriteReg,
)
from ..sail.values import Bits, FALSE, TRUE
from .model import DecodedInstruction, IsaModel, default_model


class SequentialError(Exception):
    """Execution failed (undecodable opcode, invalid form, bad address...)."""


@dataclass
class RegisterFile:
    """Architected register state, bit-granular via ``RegSlice`` accesses."""

    values: Dict[str, Bits] = field(default_factory=dict)

    def _shape_width(self, machine: "SequentialMachine", reg: str) -> Bits:
        info = machine.model.registry.shape_of_instance(reg)
        return Bits.zeros(info.width)

    def read(self, machine: "SequentialMachine", reg_slice: RegSlice) -> Bits:
        info = machine.model.registry.shape_of_instance(reg_slice.reg)
        value = self.values.get(reg_slice.reg)
        if value is None:
            value = Bits.zeros(info.width)
        return value.slice(reg_slice.lo - info.start, reg_slice.hi - info.start)

    def write(
        self, machine: "SequentialMachine", reg_slice: RegSlice, value: Bits
    ) -> None:
        info = machine.model.registry.shape_of_instance(reg_slice.reg)
        old = self.values.get(reg_slice.reg)
        if old is None:
            old = Bits.zeros(info.width)
        self.values[reg_slice.reg] = old.update_slice(
            reg_slice.lo - info.start, reg_slice.hi - info.start, value
        )

    def snapshot(self) -> Dict[str, Bits]:
        return dict(self.values)


#: Byte addresses wrap at the top of the 64-bit effective address space.
_ADDRESS_MASK = (1 << 64) - 1

#: The 256 concrete byte values, shared (``Bits`` is immutable).
_BYTE_VALUES = tuple(Bits.from_int(byte, 8) for byte in range(256))


class Memory:
    """Flat byte-addressed memory of lifted bytes (default zero)."""

    def __init__(self):
        self._bytes: Dict[int, Bits] = {}

    def read(self, addr: int, size: int) -> Bits:
        value = Bits(0)
        for i in range(size):
            value = value.concat(
                self._bytes.get((addr + i) & _ADDRESS_MASK, _BYTE_VALUES[0])
            )
        return value

    def write(self, addr: int, size: int, value: Bits) -> None:
        if value.width != 8 * size:
            raise SequentialError(
                f"write width {value.width} != 8*{size}"
            )
        for i in range(size):
            self._bytes[(addr + i) & _ADDRESS_MASK] = value.slice(
                8 * i, 8 * i + 7
            )

    def load_bytes(self, addr: int, data: bytes) -> None:
        for i, byte in enumerate(data):
            self._bytes[(addr + i) & _ADDRESS_MASK] = _BYTE_VALUES[byte]

    def load_image(self, image: Dict[int, int]) -> None:
        """Install a whole ``{address: byte}`` image in one update.

        Addresses wrap as in ``load_bytes``; each byte (0..255) becomes
        its shared concrete value.
        """
        self._bytes.update(
            {
                addr & _ADDRESS_MASK: _BYTE_VALUES[byte]
                for addr, byte in image.items()
            }
        )

    def holds_image(self, image: Dict[int, int]) -> bool:
        """True when memory is exactly ``image``: the same addresses, each
        holding its byte (0..255) with every bit known."""
        return self._bytes == {
            addr: _BYTE_VALUES[byte] for addr, byte in image.items()
        }

    def snapshot(self) -> Dict[int, Bits]:
        return dict(self._bytes)


class SequentialMachine:
    """One thread, executing instructions in program order."""

    def __init__(self, model: Optional[IsaModel] = None):
        self.model = model if model is not None else default_model()
        self.registers = RegisterFile()
        self.memory = Memory()
        self.reservation: Optional[int] = None
        self.cia = 0
        self.instructions_retired = 0
        self.barriers_seen = []

    # -- register conveniences -----------------------------------------

    def set_gpr(self, index: int, value: int) -> None:
        self.registers.values[f"GPR{index}"] = Bits.from_int(value, 64)

    def gpr(self, index: int) -> Bits:
        return self.registers.read(
            self, self.model.registry.full_slice(f"GPR{index}")
        )

    def set_reg(self, name: str, value: int) -> None:
        info = self.model.registry.shape_of_instance(name)
        self.registers.values[name] = Bits.from_int(value, info.width)

    def reg(self, name: str) -> Bits:
        return self.registers.read(self, self.model.registry.full_slice(name))

    # -- execution -------------------------------------------------------

    def execute(self, instruction: DecodedInstruction) -> int:
        """Execute one instruction; returns the next instruction address."""
        if instruction.is_invalid_form:
            raise SequentialError(f"invalid form: {instruction}")
        # Step through the model's memoised compiled Sail, so sequential
        # execution (and the golden-emulator co-execution path) runs the
        # same engine as the concurrent explorer.
        model = self.model
        state = model.initial_state(instruction)
        nia: Optional[int] = None
        outcome = model.run_to_outcome(state)
        while not isinstance(outcome, Done):
            if isinstance(outcome, ReadReg):
                if outcome.slice.reg == "CIA":
                    value = Bits.from_int(self.cia, 64)
                else:
                    value = self.registers.read(self, outcome.slice)
                next_state = model.resume(outcome.state, value)
            elif isinstance(outcome, WriteReg):
                if outcome.slice.reg == "NIA":
                    if not outcome.value.is_known:
                        raise SequentialError("branch target has lifted bits")
                    nia = outcome.value.to_int()
                else:
                    self.registers.write(self, outcome.slice, outcome.value)
                next_state = model.resume(outcome.state, None)
            elif isinstance(outcome, ReadMem):
                addr = outcome.addr.to_int()
                if outcome.kind == "reserve":
                    self.reservation = addr
                value = self.memory.read(addr, outcome.size)
                next_state = model.resume(outcome.state, value)
            elif isinstance(outcome, WriteMem):
                addr = outcome.addr.to_int()
                if outcome.kind == "conditional":
                    success = self.reservation is not None
                    if success:
                        self.memory.write(addr, outcome.size, outcome.value)
                    self.reservation = None
                    next_state = model.resume(outcome.state, TRUE if success else FALSE)
                else:
                    self.memory.write(addr, outcome.size, outcome.value)
                    self.reservation = None
                    next_state = model.resume(outcome.state, None)
            elif isinstance(outcome, Barrier):
                self.barriers_seen.append(outcome.kind)
                next_state = model.resume(outcome.state, None)
            else:  # pragma: no cover - exhaustive over outcome union
                raise SequentialError(f"unexpected outcome {outcome!r}")
            outcome = model.run_to_outcome(next_state)
        self.instructions_retired += 1
        return nia if nia is not None else self.cia + 4

    def step(self) -> bool:
        """Fetch/decode/execute at CIA; False when no instruction is mapped."""
        word_bits = self.memory.read(self.cia, 4)
        if not word_bits.is_known:
            return False
        word = word_bits.to_int()
        if word == 0:
            return False
        instruction = self.model.decode(word)
        if instruction is None:
            raise SequentialError(f"cannot decode 0x{word:08x} at 0x{self.cia:x}")
        self.cia = self.execute(instruction)
        return True

    def run(self, entry: int, max_instructions: int = 100000) -> int:
        """Run from ``entry`` until an unmapped/zero word; returns final CIA."""
        self.cia = entry
        for _ in range(max_instructions):
            if not self.step():
                return self.cia
        raise SequentialError("instruction budget exhausted")
