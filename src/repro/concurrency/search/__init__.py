"""Pluggable search strategies for the exhaustive oracle.

The oracle's two questions -- all reachable outcomes, or one witnessing
execution -- are answered by interchangeable ``SearchStrategy``
backends over a single unified DFS driver (``core.run_search``):

* ``SequentialDFS`` -- the reference single-process engine,
  bit-identical to the historical ``explore``/``find_witness``;
* ``BoundedIterative`` -- growing-state-budget iterative deepening that
  returns partial outcome sets flagged ``complete=False`` instead of
  raising ``ExplorationLimit`` mid-search.

Every backend accepts ``reduction``/``context_bound`` (see
``reduction``): sleep-set partial-order reduction preserves the outcome
envelope while pruning commuting interleavings; a context bound trades
completeness (reported via ``ExplorationResult.complete``) for a
drastically smaller search.  ``reduction="dpor"`` (see ``dpor``) layers
source sets and a canonical state-key quotient on top of sleep sets,
and ``symmetry=True`` additionally folds permutation-equivalent threads
into orbit representatives.  Parallelism lives one level up: the corpus
runner (``concurrency.parallel``) runs one test per worker process.

``resolve_strategy`` turns ``None`` / a name / an instance into a
strategy; ``make_strategy`` builds one by name with tuning options (the
CLI's ``--strategy`` / ``--reduction`` / ``--context-bound``);
``apply_reduction`` rebuilds an existing strategy with reduction options
applied; ``build_strategy`` composes all of the above into the one
construction path shared by the CLI, the litmus runner, the testgen
harness, and the service engine.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Type

from .base import SearchStrategy
from .bounded import BoundedIterative
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

#: Name -> class registry for the CLI and corpus-worker protocol.
STRATEGIES: Dict[str, Type[SearchStrategy]] = {
    SequentialDFS.name: SequentialDFS,
    BoundedIterative.name: BoundedIterative,
}


def make_strategy(
    name: str,
    initial_budget: Optional[int] = None,
    reduction: str = "none",
    context_bound: Optional[int] = None,
    symmetry: bool = False,
) -> SearchStrategy:
    """Build a strategy by registry name, applying only relevant options."""
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown search strategy {name!r} "
            f"(choose from {sorted(STRATEGIES)})"
        ) from None
    options = {
        "reduction": reduction,
        "context_bound": context_bound,
        "symmetry": symmetry,
    }
    if cls is BoundedIterative and initial_budget is not None:
        options["initial_budget"] = initial_budget
    return cls(**options)


def apply_reduction(
    strategy: SearchStrategy,
    reduction: str = "none",
    context_bound: Optional[int] = None,
    symmetry: bool = False,
) -> SearchStrategy:
    """A copy of ``strategy`` with the pruning options applied.

    Every registered backend carries the three fields, so this is a
    plain ``dataclasses.replace``; no-op when all options are defaults
    (so callers can thread them unconditionally without disturbing
    explicitly pre-configured strategy instances).
    """
    if reduction == "none" and context_bound is None and not symmetry:
        return strategy
    return dataclasses.replace(
        strategy,
        reduction=reduction,
        context_bound=context_bound,
        symmetry=symmetry,
    )


def resolve_strategy(spec=None, **options) -> SearchStrategy:
    """Coerce ``None`` / a name / a ``SearchStrategy`` into a strategy."""
    if spec is None:
        return SequentialDFS()
    if isinstance(spec, SearchStrategy):
        return spec
    if isinstance(spec, str):
        return make_strategy(spec, **options)
    raise TypeError(f"not a search strategy: {spec!r}")


def build_strategy(
    spec=None,
    reduction: str = "none",
    context_bound: Optional[int] = None,
    symmetry: bool = False,
) -> SearchStrategy:
    """One-stop strategy construction shared by every query entry point.

    Accepts whatever the caller has -- ``None``, a registry name, or a
    pre-built ``SearchStrategy`` -- and applies the common tuning
    options uniformly: ``reduction``/``context_bound``/``symmetry``
    rebuild any backend with the pruning options.  This replaces the
    ``apply_reduction(resolve_strategy(...))`` combinations that used to
    be spelled out separately in the CLI, the litmus runner, and the
    testgen harness; the service engine keys its verdict cache off the
    instance this returns.
    """
    return apply_reduction(
        resolve_strategy(spec), reduction, context_bound, symmetry
    )


__all__ = [
    "BoundedIterative",
    "ExplorationLimit",
    "ExplorationResult",
    "ExplorationStats",
    "Outcome",
    "REDUCTIONS",
    "Reducer",
    "STRATEGIES",
    "SearchStrategy",
    "SequentialDFS",
    "Witness",
    "apply_reduction",
    "build_strategy",
    "make_reducer",
    "make_strategy",
    "outcome_of",
    "registers_of_interest",
    "resolve_strategy",
    "run_search",
]
