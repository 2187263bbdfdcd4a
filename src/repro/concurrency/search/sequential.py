"""The search backend: single-process depth-first search.

``SequentialDFS`` answers the oracle's two questions over the unified
driver (``core.run_search``): all reachable outcomes (``explore``) and
one witnessing execution (``find_witness``).  Its states visited,
transitions taken, final states, deadlocks and outcome sets are
bit-identical to the historical ``explore``/``find_witness`` loops
(asserted by ``tests/test_search_strategies.py`` against the recorded
E6 numbers and by the fast-state-engine regression tests).

``reduction``/``context_bound`` opt in to the pruning layer
(``reduction.py``): sleep-set partial-order reduction and dpor preserve
the outcome envelope; a context bound may truncate it.

``explore`` ends early in two ways, and both return the outcomes found
so far with ``ExplorationResult.stop_reason`` saying why
(``complete=False``): the state budget ran out (the budget's
``ExplorationLimit`` message, with ``states_visited`` equal to the
budget), or the context bound cut a path.  Those outcomes are real
executions, so an existential verdict drawn from them is sound.
``find_witness`` has no such flag to set: an exhausted or truncated
witness search raises ``ExplorationLimit``, because ``None`` would read
as a proof that the predicate is unsatisfiable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from .core import (
    CollectOutcomes,
    ExplorationLimit,
    ExplorationResult,
    ExplorationStats,
    StopOnWitness,
    Witness,
    extend_trace,
    run_search,
)
from .reduction import make_reducer
from ..symmetry import CanonicalKeys
from ..system import SystemState


#: The state budget of a search given no ``max_states``.
DEFAULT_MAX_STATES = 2_000_000


@dataclass(frozen=True)
class SequentialDFS:
    """Memoised in-process DFS, with the pruning options applied."""

    reduction: str = "none"
    context_bound: Optional[int] = None

    @staticmethod
    def _limit(max_states: Optional[int]) -> int:
        return DEFAULT_MAX_STATES if max_states is None else max_states

    def _pruning(self, initial: SystemState):
        """The search's reducer, canonical keys and empty seen store."""
        reducer = make_reducer(self.reduction, self.context_bound)
        if reducer is not None and reducer.dpor:
            return reducer, CanonicalKeys(initial), {}
        seen = {} if reducer is not None and reducer.sleep else set()
        return reducer, None, seen

    def _truncated(self, reducer, search: str) -> Optional[str]:
        """Why a within-budget search is partial, or ``None``."""
        if reducer is None or not reducer.truncated:
            return None
        return f"context bound {self.context_bound} truncated the {search}"

    def explore(
        self,
        initial: SystemState,
        memory_cells: Iterable[Tuple[int, int]] = (),
        max_states: Optional[int] = None,
        collect_deadlocks: bool = False,
    ) -> ExplorationResult:
        """Enumerate reachable final states; collect all outcomes.

        ``memory_cells`` lists (addr, size) memory locations whose final
        values the caller cares about (from the litmus final condition).
        A search stopped by the state budget or the context bound returns
        its partial outcome set (``complete=False``) instead of raising.
        """
        limit = self._limit(max_states)
        stats = ExplorationStats()
        reducer, canon, seen = self._pruning(initial)
        visitor = CollectOutcomes(tuple(memory_cells), collect_deadlocks)
        started = time.perf_counter()
        try:
            run_search(
                initial, visitor, limit=limit, stats=stats,
                strict_deadlocks=True, seen=seen, reducer=reducer,
                canon=canon,
            )
        except ExplorationLimit as exhausted:
            # ``exhausted.stats`` is ``stats``: the work done equals the
            # budget exactly.
            stop_reason = str(exhausted)
        else:
            stop_reason = self._truncated(reducer, "search")
        stats.seconds = time.perf_counter() - started
        stats.unique_states = len(seen)
        return ExplorationResult(
            visitor.outcomes,
            stats,
            visitor.deadlock_states,
            stop_reason=stop_reason,
        )

    def find_witness(
        self,
        initial: SystemState,
        predicate,
        memory_cells: Iterable[Tuple[int, int]] = (),
        max_states: Optional[int] = None,
    ) -> Optional[Witness]:
        """Search for one execution whose outcome satisfies ``predicate``."""
        limit = self._limit(max_states)
        stats = ExplorationStats()
        visitor = StopOnWitness(predicate, tuple(memory_cells))
        reducer, canon, seen = self._pruning(initial)
        started = time.perf_counter()
        try:
            found = run_search(
                initial,
                visitor,
                limit=limit,
                stats=stats,
                strict_deadlocks=False,
                payload=(),
                extend=extend_trace,
                seen=seen,
                reducer=reducer,
                canon=canon,
            )
        finally:
            # Also on ExplorationLimit: the exception carries this same
            # stats object, and its partial work must not report zero
            # seconds or zero coverage.
            stats.seconds = time.perf_counter() - started
            stats.unique_states = len(seen)
        if found is None:
            truncated = self._truncated(reducer, "witness search")
            if truncated is not None:
                # A truncated witness search proves nothing: ``None``
                # would read as unsatisfiability, which the cut paths
                # cannot support.
                raise ExplorationLimit(
                    f"{truncated} before it completed", stats
                )
            return None
        state, path = found
        return Witness(list(path), state, stats)
