"""Budget-aware iterative deepening over the state budget.

``BoundedIterative`` runs the sequential driver under a *growing* state
budget: start small (``initial_budget``), multiply by ``growth`` on
exhaustion, stop at the caller's ``max_states``.  Unlike the other
strategies its ``explore`` never raises ``ExplorationLimit``:
exhausting the final budget returns the partial outcome set with
``ExplorationResult.complete = False``, so corpus pipelines can report
a "StateLimit" verdict *and* keep the outcomes and work accounting of
everything that was explored.  ``find_witness`` has no such flag to
set, so an exhausted witness search still raises -- returning ``None``
would read as a proof of unsatisfiability the search cannot support.

Searches that fit the first budget do exactly the sequential engine's
work (identical outcomes and counters).  Larger graphs pay the classic
iterative-deepening retraversal cost -- a geometric factor of at most
``growth / (growth - 1)`` over the final iteration -- and the returned
stats accumulate every iteration's work, because that is what the search
actually cost.  ``unique_states`` is the exception: each iteration
restarts from scratch over a superset of its predecessor's graph, so
the final iteration's seen-set size *is* the coverage.

The registers-of-interest static cache is a pure function of fetch
addresses (program memory is fixed), so one ``static_cache`` is built
per search and shared by every deepening iteration's visitor instead of
being rebuilt from scratch each round.

``reduction``/``context_bound`` run each iteration through the pruning
layer (``reduction.py``); a context-bound truncation downgrades even a
within-budget iteration to ``complete=False``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from .base import SearchStrategy
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


@dataclass(frozen=True)
class BoundedIterative(SearchStrategy):
    """Iterative state-budget deepening with partial-result degradation."""

    initial_budget: int = 4096
    growth: int = 4
    reduction: str = "none"
    context_bound: Optional[int] = None

    name = "bounded"

    def _budgets(self, limit: int):
        budget = min(max(1, self.initial_budget), limit)
        while True:
            yield budget
            if budget >= limit:
                return
            budget = min(budget * max(2, self.growth), limit)

    def explore(
        self,
        initial: SystemState,
        memory_cells: Iterable[Tuple[int, int]] = (),
        max_states: Optional[int] = None,
        collect_deadlocks: bool = False,
    ) -> ExplorationResult:
        limit = self.resolve_limit(initial, max_states)
        cells = tuple(memory_cells)
        work = ExplorationStats()
        static_cache = {}
        canon = None
        dpor = make_reducer(self.reduction, self.context_bound)
        if dpor is not None and dpor.dpor:
            # One canonicaliser for every deepening iteration: its key
            # memo table carries over (each iteration re-walks a
            # superset of its predecessor's states).  The per-search
            # seen map stays per-iteration.
            canon = CanonicalKeys(initial)
        started = time.perf_counter()
        for budget in self._budgets(limit):
            stats = ExplorationStats()
            visitor = CollectOutcomes(
                cells, collect_deadlocks, static_cache=static_cache
            )
            reducer = make_reducer(self.reduction, self.context_bound)
            seen = {} if reducer is not None and reducer.sleep else set()
            try:
                run_search(
                    initial,
                    visitor,
                    limit=budget,
                    stats=stats,
                    strict_deadlocks=True,
                    seen=seen,
                    reducer=reducer,
                    canon=canon,
                )
            except ExplorationLimit:
                work.merge(stats)
                work.unique_states = len(seen)
                partial = visitor
                continue
            work.merge(stats)
            work.unique_states = len(seen)
            work.seconds = time.perf_counter() - started
            return ExplorationResult(
                visitor.outcomes,
                work,
                visitor.deadlock_states,
                complete=reducer is None or not reducer.truncated,
            )
        # Only reachable via the except path at the final (full) budget:
        # the caller's own budget is exhausted, so degrade to a partial
        # outcome set instead of raising mid-search.
        work.seconds = time.perf_counter() - started
        return ExplorationResult(
            partial.outcomes,
            work,
            partial.deadlock_states,
            complete=False,
        )

    def find_witness(
        self,
        initial: SystemState,
        predicate,
        memory_cells: Iterable[Tuple[int, int]] = (),
        max_states: Optional[int] = None,
    ) -> Optional[Witness]:
        limit = self.resolve_limit(initial, max_states)
        cells = tuple(memory_cells)
        work = ExplorationStats()
        static_cache = {}
        last_error = None
        started = time.perf_counter()
        # Witness searches downgrade dpor to sleep sets; see
        # ``SequentialDFS.find_witness``.
        reduction = "sleep" if self.reduction == "dpor" else self.reduction
        for budget in self._budgets(limit):
            stats = ExplorationStats()
            visitor = StopOnWitness(predicate, cells, static_cache=static_cache)
            reducer = make_reducer(reduction, self.context_bound)
            seen = {} if reducer is not None and reducer.sleep else set()
            try:
                found = run_search(
                    initial,
                    visitor,
                    limit=budget,
                    stats=stats,
                    strict_deadlocks=False,
                    payload=(),
                    extend=extend_trace,
                    seen=seen,
                    reducer=reducer,
                )
            except ExplorationLimit as exc:
                work.merge(stats)
                work.unique_states = len(seen)
                last_error = str(exc)
                continue
            work.merge(stats)
            work.unique_states = len(seen)
            work.seconds = time.perf_counter() - started
            if found is None:
                if reducer is not None and reducer.truncated:
                    # Within budget but context-truncated: absence of a
                    # witness proves nothing, stay loud.
                    raise ExplorationLimit(
                        f"context bound {self.context_bound} truncated "
                        "the witness search before it completed",
                        work,
                    )
                return None
            state, path = found
            return Witness(list(path), state, work)
        # Budget exhausted without completing: ``None`` would read as a
        # *proof* that the predicate is unsatisfiable, which the search
        # cannot support -- witness absence must stay loud.  (Partial
        # degradation is explore()'s contract, where the result carries
        # an explicit ``complete`` flag.)
        work.seconds = time.perf_counter() - started
        raise ExplorationLimit(
            last_error or f"exceeded {limit} states; "
            "increase params.max_states",
            work,
        )
