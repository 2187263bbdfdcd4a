"""The search subsystem of the exhaustive oracle.

The oracle's two questions -- all reachable outcomes, or one witnessing
execution -- are answered by ``SequentialDFS`` over a single unified DFS
driver (``core.run_search``).

``SequentialDFS`` takes ``reduction``/``context_bound`` (see
``reduction``): sleep-set partial-order reduction preserves the outcome
envelope while pruning commuting interleavings; ``reduction="dpor"``
(see ``dpor``) layers source sets and a canonical state-key quotient on
top of sleep sets.  A search ends early in two ways: the state budget
runs out, or the context bound cuts a path.  ``explore`` then returns
the outcomes found so far, flagged ``complete=False`` with a
``stop_reason``; those outcomes are real executions, so existential
verdicts drawn from them survive.  Parallelism lives one level up: the
service engine's ``run_batch`` runs one test per worker process
(``concurrency.parallel``).
"""

from __future__ import annotations

from .core import (
    ExplorationLimit,
    ExplorationResult,
    ExplorationStats,
    Outcome,
    Witness,
    outcome_of,
    registers_of_interest,
    run_search,
)
from .reduction import REDUCTIONS, Reducer, make_reducer
from .sequential import SequentialDFS

__all__ = [
    "ExplorationLimit",
    "ExplorationResult",
    "ExplorationStats",
    "Outcome",
    "REDUCTIONS",
    "Reducer",
    "SequentialDFS",
    "Witness",
    "make_reducer",
    "outcome_of",
    "registers_of_interest",
    "run_search",
]
