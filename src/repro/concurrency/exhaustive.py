"""Exhaustive exploration: compute the set of all allowed executions.

This is the test-oracle mode of section 6: a memoised depth-first search
over the system-state transition graph.  Final states are summarised as
*outcomes* -- per-thread final register values plus possible final memory
values (one outcome per linearisation of residual coherence freedom).

This module is a thin facade over the search subsystem
(``repro.concurrency.search``): the historical ``explore`` and
``find_witness`` entry points delegate to ``SequentialDFS``, which is
bit-identical -- states visited, transitions taken, outcomes -- to the
pre-refactor loops.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from .search import SequentialDFS
from .search.core import (  # noqa: F401  (re-exported compatibility surface)
    ExplorationLimit,
    ExplorationResult,
    ExplorationStats,
    Outcome,
    Witness,
    outcome_of as _outcome_of,
    registers_of_interest as _registers_of_interest,
)
from .system import SystemState, Transition
from .thread import ModelError


def explore(
    initial: SystemState,
    memory_cells: Iterable[Tuple[int, int]] = (),
    max_states: Optional[int] = None,
    collect_deadlocks: bool = False,
    reduction: str = "none",
    context_bound: Optional[int] = None,
) -> ExplorationResult:
    """Exhaustively enumerate all reachable final states.

    ``memory_cells`` lists (addr, size) memory locations whose final values
    the caller cares about (from the litmus test's final condition);
    ``reduction``/``context_bound`` apply the partial-order reduction
    options (``"sleep"`` preserves the outcome envelope, a context bound
    may truncate it; ``"dpor"`` layers source sets and canonical state
    keys on top).  A search stopped by the state budget or the context
    bound returns the outcomes found so far, with
    ``ExplorationResult.complete`` False and ``stop_reason`` saying why.
    """
    return SequentialDFS(reduction, context_bound).explore(
        initial,
        memory_cells=memory_cells,
        max_states=max_states,
        collect_deadlocks=collect_deadlocks,
    )


def find_witness(
    initial: SystemState,
    predicate,
    memory_cells: Iterable[Tuple[int, int]] = (),
    max_states: Optional[int] = None,
    reduction: str = "none",
    context_bound: Optional[int] = None,
) -> Optional[Witness]:
    """Search for one execution whose outcome satisfies ``predicate``.

    Returns a ``Witness`` (unpackable as ``(trace, final_state)``, with
    ``.stats`` carrying the same accounting as ``explore``) for the first
    witnessing execution found, or None if the predicate is unsatisfiable.
    The trace is the abstract-machine run behind the outcome -- the
    executable counterpart of the paper's execution diagrams.
    ``reduction``/``context_bound`` behave as in ``explore``, except
    that a search the budget or the context bound stopped raises
    ``ExplorationLimit`` instead of returning an unsupported ``None``
    (witness searches run ``dpor`` as sleep sets).
    """
    return SequentialDFS(reduction, context_bound).find_witness(
        initial,
        predicate,
        memory_cells=memory_cells,
        max_states=max_states,
    )


def run_one(initial: SystemState, choose=None, max_steps: int = 100000):
    """Run a single (pseudo-random or guided) execution to completion.

    ``choose(state, transitions)`` picks one transition; the default takes
    the first.  Used by the interactive front-end and the emulator mode.
    """
    state = initial
    last: Optional[Transition] = None
    for step in range(max_steps):
        if state.is_final():
            return state
        transitions = state.enumerate_transitions()
        if not transitions:
            raise ModelError(
                f"deadlock in single execution after {step} steps "
                f"(last transition: {last if last is not None else 'none'})\n"
                + state.render()
            )
        transition = transitions[0] if choose is None else choose(
            state, transitions
        )
        state = state.apply(transition)
        last = transition
    raise ModelError(
        f"execution did not terminate within the step budget "
        f"({max_steps} steps; last transition: "
        f"{last if last is not None else 'none'})"
    )
