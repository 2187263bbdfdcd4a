"""Run litmus tests through the exhaustive concurrency model.

Builds a ``SystemState`` from a parsed test (allocating addresses for the
symbolic variables, assembling each thread's program), explores all
executions, and evaluates the final condition over every outcome --
the test-oracle workflow of section 6 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..concurrency.exhaustive import ExplorationResult
from ..concurrency.params import DEFAULT_PARAMS, ModelParams
from ..concurrency.search import SequentialDFS
from ..concurrency.system import SystemState
from ..isa.assembler import Assembler
from ..isa.model import IsaModel, default_model
from ..sail.values import Bits
from .test import LitmusTest, evaluate_condition

#: Data segment layout for symbolic variables.
DATA_BASE = 0x0000_1000
DATA_STRIDE = 0x10

#: Per-thread code segments.
CODE_BASE = 0x0005_0000
CODE_STRIDE = 0x0001_0000


@dataclass
class LitmusResult:
    """Everything the oracle reports for one test."""

    test: LitmusTest
    outcomes: Set[Tuple[Tuple, Tuple]]
    witnessed: bool  # did some outcome satisfy the (existential) condition
    holds_always: bool  # did every outcome satisfy it (for forall)
    exploration: ExplorationResult
    addresses: Dict[str, int]

    @property
    def status(self) -> str:
        """The model's verdict in litmus terms.

        A partial outcome set (a search the state budget or the context
        bound stopped) is a sound *under*-approximation of the envelope:
        outcomes in it are genuinely reachable, so existential verdicts
        -- a witness was found, or a forall condition has a concrete
        counterexample -- survive incompleteness.  Universal claims
        (nothing witnesses / every outcome satisfies) need the whole
        envelope and degrade to "StateLimit".
        """
        if self.exploration.complete:
            if self.test.quantifier == "exists":
                return "Allowed" if self.witnessed else "Forbidden"
            if self.test.quantifier == "not exists":
                return "Forbidden" if self.witnessed else "Validated"
            return "Always" if self.holds_always else "Sometimes"
        if self.test.quantifier == "exists" and self.witnessed:
            return "Allowed"
        if self.test.quantifier == "not exists" and self.witnessed:
            return "Forbidden"
        if (
            self.test.quantifier not in ("exists", "not exists")
            and self.outcomes
            and not self.holds_always
        ):
            return "Sometimes"
        return "StateLimit"

    def outcome_table(self) -> List[Tuple[str, bool]]:
        """Human-readable outcome lines plus condition verdicts."""
        lines = []
        for registers, memory in sorted(self.outcomes):
            regs, mem = self._decode_outcome(registers, memory)
            text = " ".join(
                f"{tid}:{name.lower().replace('gpr', 'r')}={value}"
                for (tid, name), value in sorted(regs.items())
                if value is not None
            )
            mem_text = " ".join(
                f"[{var}]={value}" for var, value in sorted(mem.items())
            )
            satisfied = evaluate_condition(self.test.condition, regs, mem)
            lines.append(((text + " " + mem_text).strip(), satisfied))
        return lines

    def _decode_outcome(self, registers, memory):
        regs = {(tid, name): value for tid, name, value in registers}
        addr_to_var = {addr: var for var, addr in self.addresses.items()}
        mem = {}
        for addr, _size, value in memory:
            var = addr_to_var.get(addr)
            if var is not None:
                mem[var] = value
        return regs, mem


def addresses_for(test: LitmusTest) -> Dict[str, int]:
    """The deterministic data-segment layout of a test's variables.

    Shared by ``build_system`` and the service engine (which decodes
    cached outcome sets back to variable names without rebuilding the
    system state).
    """
    return {
        var: DATA_BASE + i * DATA_STRIDE
        for i, var in enumerate(test.locations())
    }


def build_system(
    test: LitmusTest,
    model: Optional[IsaModel] = None,
    params: ModelParams = DEFAULT_PARAMS,
) -> Tuple[SystemState, Dict[str, int]]:
    """Construct the initial system state for a litmus test."""
    model = model if model is not None else default_model()
    assembler = Assembler(model)
    cell_size = 8 if test.doubleword else 4

    addresses = addresses_for(test)

    program_memory: Dict[int, int] = {}
    entries: Dict[int, int] = {}
    for tid, program in enumerate(test.programs):
        base = CODE_BASE + tid * CODE_STRIDE
        words, _labels = assembler.assemble_program(program, base)
        entries[tid] = base
        for i, word in enumerate(words):
            program_memory[base + 4 * i] = word

    initial_registers: Dict[int, Dict[str, Bits]] = {}
    for tid in range(test.thread_count):
        regs: Dict[str, Bits] = {}
        for name, value in test.init_registers.get(tid, {}).items():
            if isinstance(value, str):
                concrete = addresses[value]
            else:
                concrete = value
            width = model.registry.shape_of_instance(name).width
            regs[name] = Bits.from_int(concrete, width)
        initial_registers[tid] = regs

    initial_memory = []
    for var, addr in sorted(addresses.items()):
        value = test.init_memory.get(var, 0)
        initial_memory.append(
            (addr, cell_size, Bits.from_int(value, 8 * cell_size))
        )

    symbols = {addr: var for var, addr in addresses.items()}
    system = SystemState(
        model,
        program_memory,
        entries,
        initial_registers,
        initial_memory,
        params=params,
        symbols=symbols,
    )
    return system, addresses


def run_litmus(
    test: LitmusTest,
    model: Optional[IsaModel] = None,
    params: ModelParams = DEFAULT_PARAMS,
    max_states: Optional[int] = None,
    reduction: str = "none",
    context_bound: Optional[int] = None,
) -> LitmusResult:
    """Exhaustively run one litmus test and evaluate its condition.

    ``reduction``/``context_bound`` apply the partial-order reduction
    options (``reduction="sleep"`` preserves the outcome envelope;
    ``reduction="dpor"`` layers source sets and canonical state keys on
    top; a context bound may truncate it).  A search stopped by the
    state budget or the context bound evaluates the outcomes found so
    far: ``exploration.complete`` is False, ``exploration.stop_reason``
    says why, and ``status`` keeps only the verdicts those outcomes
    prove.
    """
    model = model if model is not None else default_model()
    system, addresses = build_system(test, model, params)
    cell_size = 8 if test.doubleword else 4
    from .test import condition_locations

    cells = [
        (addresses[var], cell_size)
        for var in sorted(set(condition_locations(test.condition)))
    ]
    result = SequentialDFS(reduction, context_bound).explore(
        system, memory_cells=cells, max_states=max_states
    )

    witnessed = False
    holds_always = bool(result.outcomes)
    addr_to_var = {addr: var for var, addr in addresses.items()}
    for registers, memory in result.outcomes:
        regs = {(tid, name): value for tid, name, value in registers}
        mem = {
            addr_to_var[addr]: value
            for addr, _size, value in memory
            if addr in addr_to_var
        }
        if evaluate_condition(test.condition, regs, mem):
            witnessed = True
        else:
            holds_always = False

    return LitmusResult(
        test=test,
        outcomes=result.outcomes,
        witnessed=witnessed,
        holds_always=holds_always,
        exploration=result,
        addresses=addresses,
    )


def run_corpus(
    entries=None,
    jobs: Optional[int] = None,
    params: ModelParams = DEFAULT_PARAMS,
    max_states: Optional[int] = None,
    reduction: str = "none",
    context_bound: Optional[int] = None,
):
    """Exhaustively run a corpus of litmus tests across worker processes.

    ``entries`` may hold ``CorpusEntry``-like objects (anything with
    ``name``/``source`` attributes) or plain ``(name, source)`` pairs;
    ``None`` runs the built-in corpus.  ``jobs`` is the worker budget
    (default: usable CPU count), one test per worker.  Returns a
    ``repro.concurrency.parallel.CorpusReport`` with per-test verdicts
    and merged ``ExplorationStats``.
    ``reduction``/``context_bound`` apply the partial-order reduction
    options to every test's search.
    """
    from ..concurrency.parallel import explore_corpus

    if entries is None:
        from .library import corpus

        entries = corpus()
    items = []
    for entry in entries:
        if isinstance(entry, tuple):
            items.append(entry)
        else:
            items.append((entry.name, entry.source))
    return explore_corpus(
        items,
        jobs=jobs,
        params=params,
        max_states=max_states,
        reduction=reduction,
        context_bound=context_bound,
    )
