"""The assembled POWER ISA model.

``IsaModel`` plays the role of the paper's ``context``: the complete ISA
definition.  At construction it parses (and sanity-checks) the Sail
pseudocode of every instruction specification, builds the decode table, and
wires up the execution backend and the exhaustive footprint analysis.

Instructions execute on one backend: the ahead-of-time compiled bodies
(``sail/compile.py``).  The reference CEK interpreter (``sail/interp.py``)
stays the footprint engine -- ``footprint`` converts compiled states to
interpreter states first -- and the differential reference the compiled
backend is checked against, outcome for outcome
(``tests/test_sail_compile.py``).  Decoded instructions and their initial
states are cached per opcode, and Sail steps are memoised, so equal
instruction states reached along different interleavings are usually the
same object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..sail.analysis import Footprint, FootprintAnalysis
from ..sail.ast import FunctionClause
from ..sail.compile import CompiledBackend, CompiledState
from ..sail.interp import Interp, InterpState
from ..sail.parser import parse_execute_clause
from .defs import ALL_SPECS
from .registers import Registry, power_registry
from .spec import DecodeTable, InstructionSpec


class DecodeError(Exception):
    """An opcode that does not correspond to any known instruction."""


@dataclass(frozen=True)
class DecodedInstruction:
    """One decoded instruction: spec + concrete field values.

    Corresponds to an element of the paper's instruction AST type; the
    ``fields`` are the operand field values extracted from the opcode.
    """

    spec: InstructionSpec
    word: int
    fields: Tuple[Tuple[str, int], ...]

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def mnemonic(self) -> str:
        return self.spec.mnemonic

    def field(self, name: str) -> int:
        for key, value in self.fields:
            if key == name:
                return value
        raise KeyError(name)

    @property
    def is_invalid_form(self) -> bool:
        return self.spec.is_invalid_form(dict(self.fields))

    def __str__(self) -> str:
        operands = " ".join(f"{k}={v}" for k, v in self.fields)
        return f"{self.mnemonic} {operands}".strip()


#: Entries each of the model's memo tables holds before it is cleared.  A
#: model lives as long as its process (the daemon keeps one), and every
#: memoised value is recomputed on a miss; ``CompiledState`` hashes and
#: compares by value, so a state rebuilt after a clear still hits the
#: downstream tables.
MEMO_LIMIT = 65536


class IsaModel:
    """The complete ISA definition (decode + execute + analysis)."""

    def __init__(self, specs=None):
        self.registry: Registry = power_registry()
        self._view = self.registry.parser_view()
        self.interp = Interp(self.registry)
        self.analysis = FootprintAnalysis(self.interp)
        self.compiled = CompiledBackend(self.registry, self.interp)
        self.table = DecodeTable(specs if specs is not None else ALL_SPECS)
        self._clauses: Dict[str, FunctionClause] = {}
        self._decode_cache: Dict[int, Optional[DecodedInstruction]] = {}
        self._initial_cache: Dict[int, object] = {}
        self._outcome_cache: Dict[object, object] = {}
        self._resume_cache: Dict[Tuple, object] = {}
        for spec in self.table.all_specs():
            clause = parse_execute_clause(spec.pseudocode, self._view)
            if clause.ast_name != spec.name:
                raise ValueError(
                    f"pseudocode clause {clause.ast_name} does not match "
                    f"spec {spec.name}"
                )
            field_names = {f.name for f in spec.operand_fields()}
            unknown = set(clause.fields) - field_names
            if unknown:
                raise ValueError(
                    f"{spec.name}: clause fields {sorted(unknown)} not in encoding"
                )
            self._clauses[spec.name] = clause

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------

    def decode(self, word: int) -> Optional[DecodedInstruction]:
        """Decode a 32-bit opcode; None when unrecognised."""
        cache = self._decode_cache
        if word in cache:
            return cache[word]
        spec = self.table.lookup(word)
        decoded = None
        if spec is not None:
            decoded = DecodedInstruction(
                spec, word, tuple(sorted(spec.decode_fields(word).items()))
            )
        if len(cache) >= MEMO_LIMIT:
            cache.clear()
        cache[word] = decoded
        return decoded

    def decode_or_raise(self, word: int) -> DecodedInstruction:
        decoded = self.decode(word)
        if decoded is None:
            raise DecodeError(f"cannot decode opcode 0x{word:08x}")
        return decoded

    # ------------------------------------------------------------------
    # Instruction states
    # ------------------------------------------------------------------

    def initial_state(self, instruction: DecodedInstruction):
        """The Sail instruction state at the start of execution.

        Cached per opcode so instances share AST and initial state; restarts
        (section 5) reset an instance to exactly this state, a
        ``CompiledState`` that ``run_to_outcome`` / ``resume`` step.
        """
        cache = self._initial_cache
        cached = cache.get(instruction.word)
        if cached is not None:
            return cached
        clause = self._clauses[instruction.name]
        state = self.compiled.initial_state(
            instruction.spec,
            clause,
            instruction.word,
            instruction.spec.field_bits(instruction.word),
        )
        if len(cache) >= MEMO_LIMIT:
            cache.clear()
        cache[instruction.word] = state
        return state

    def run_to_outcome(self, state):
        """Run ``state`` to its next externally visible outcome, memoised.

        ``run_to_outcome`` is a pure function of an immutable state, and the
        exhaustive explorer re-executes identical instruction states along
        every interleaving, so the concurrency model's deterministic Sail
        stepping is served from this (bounded) cache.
        """
        cache = self._outcome_cache
        outcome = cache.get(state)
        if outcome is None:
            if len(cache) >= MEMO_LIMIT:
                cache.clear()
            outcome = self.compiled.run_to_outcome(state)
            cache[state] = outcome
        return outcome

    def resume(self, state, value):
        """Resume a pending instruction state with a value, memoised.

        ``resume`` is pure, and the explorer resumes identical pending
        states with identical values along every interleaving; returning
        the *same* state object each time also makes the downstream
        ``run_to_outcome`` memo and state-key hashing hit by identity.
        """
        cache = self._resume_cache
        key = (state, value)
        resumed = cache.get(key)
        if resumed is None:
            if len(cache) >= MEMO_LIMIT:
                cache.clear()
            resumed = self.compiled.resume(state, value)
            cache[key] = resumed
        return resumed

    # ------------------------------------------------------------------
    # Footprints
    # ------------------------------------------------------------------

    def interp_state(self, state) -> InterpState:
        """The reference-interpreter equivalent of an instruction state.

        Exhaustive lifted exploration (``fork_on_lifted`` / ``_UnknownInt``)
        lives in the interpreter only; callers that drive it directly
        convert compiled states here first.  Interpreter states pass
        through unchanged.
        """
        if type(state) is CompiledState:
            return self.compiled.to_interp_state(state)
        return state

    def footprint(self, state, cia: Optional[int] = None) -> Footprint:
        """Exhaustive analysis of a (possibly partially executed) state.

        Always runs on the reference interpreter (the ``fork_on_lifted`` /
        ``_UnknownInt`` machinery lives there); compiled states are
        converted by replaying their recorded values first.
        """
        if type(state) is CompiledState:
            state = self.compiled.to_interp_state(state)
        return self.analysis.analyze(state, cia)

    def static_footprint(
        self, instruction: DecodedInstruction, cia: Optional[int] = None
    ) -> Footprint:
        return self.footprint(self.initial_state(instruction), cia)


_DEFAULT_MODEL: Optional[IsaModel] = None


def default_model() -> IsaModel:
    """A process-wide shared ISA model (parsing the corpus takes a moment)."""
    global _DEFAULT_MODEL
    if _DEFAULT_MODEL is None:
        _DEFAULT_MODEL = IsaModel()
    return _DEFAULT_MODEL
