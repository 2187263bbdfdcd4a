"""The reference backend: single-process depth-first search.

``SequentialDFS`` is the pre-refactor engine re-expressed over the
unified driver: states visited, transitions taken, final states,
deadlocks and outcome sets are bit-identical to the historical
``explore``/``find_witness`` loops (asserted by
``tests/test_search_strategies.py`` against the recorded E6 numbers and
by the fast-state-engine regression tests).

``reduction``/``context_bound`` opt in to the pruning layer
(``reduction.py``): sleep-set partial-order reduction preserves the
outcome envelope; a context bound may truncate it, which the result
reports as ``complete=False`` (and ``find_witness`` keeps loud by
raising ``ExplorationLimit`` instead of returning an unsupported
``None``).
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
class SequentialDFS(SearchStrategy):
    """Memoised in-process DFS -- the baseline every backend must match."""

    reduction: str = "none"
    context_bound: Optional[int] = None

    name = "sequential"

    def explore(
        self,
        initial: SystemState,
        memory_cells: Iterable[Tuple[int, int]] = (),
        max_states: Optional[int] = None,
        collect_deadlocks: bool = False,
    ) -> ExplorationResult:
        limit = self.resolve_limit(initial, max_states)
        stats = ExplorationStats()
        reducer = make_reducer(self.reduction, self.context_bound)
        if reducer is not None and reducer.dpor:
            canon = CanonicalKeys(initial)
            seen = {}
        else:
            canon = None
            seen = {} if reducer is not None and reducer.sleep else set()
        visitor = CollectOutcomes(tuple(memory_cells), collect_deadlocks)
        started = time.perf_counter()
        try:
            run_search(
                initial, visitor, limit=limit, stats=stats,
                strict_deadlocks=True, seen=seen, reducer=reducer,
                canon=canon,
            )
        finally:
            # Also on ExplorationLimit: the exception carries this same
            # stats object, and its partial work must not report zero
            # seconds (it would inflate downstream throughput numbers)
            # or zero coverage.
            stats.seconds = time.perf_counter() - started
            stats.unique_states = len(seen)
        return ExplorationResult(
            visitor.outcomes,
            stats,
            visitor.deadlock_states,
            complete=reducer is None or not reducer.truncated,
        )

    def find_witness(
        self,
        initial: SystemState,
        predicate,
        memory_cells: Iterable[Tuple[int, int]] = (),
        max_states: Optional[int] = None,
    ) -> Optional[Witness]:
        limit = self.resolve_limit(initial, max_states)
        stats = ExplorationStats()
        visitor = StopOnWitness(predicate, tuple(memory_cells))
        # Witness searches run dpor as its (equally sound,
        # envelope-preserving) sleep-set layer.  Whether the dpor driver,
        # with its normal-form merging and end-game cut, could return
        # witness traces itself is an open item in ROADMAP.md.
        reduction = "sleep" if self.reduction == "dpor" else self.reduction
        reducer = make_reducer(reduction, self.context_bound)
        seen = {} if reducer is not None and reducer.sleep else set()
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
            )
        finally:
            stats.seconds = time.perf_counter() - started
            stats.unique_states = len(seen)
        if found is None:
            if reducer is not None and reducer.truncated:
                # A truncated witness search proves nothing: ``None``
                # would read as unsatisfiability, which the cut paths
                # cannot support.
                raise ExplorationLimit(
                    f"context bound {self.context_bound} truncated the "
                    "witness search before it completed",
                    stats,
                )
            return None
        state, path = found
        return Witness(list(path), state, stats)
