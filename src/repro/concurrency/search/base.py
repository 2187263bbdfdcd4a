"""The ``SearchStrategy`` API: interchangeable exploration backends.

A strategy answers the two oracle questions over a system-state graph --
*all* reachable outcomes (``explore``) and *one* witnessing execution
(``find_witness``) -- and is free to organise the traversal however it
likes: plain DFS or budget-bounded iterative deepening.  Strategies are
small frozen dataclasses so they are picklable (corpus workers receive
them by value), hashable and cheaply replaceable (``dataclasses.replace``
applies the pruning options).
"""

from __future__ import annotations

import abc
from typing import ClassVar, Iterable, Optional, Tuple

from .core import ExplorationResult, Witness
from ..system import SystemState


class SearchStrategy(abc.ABC):
    """One way of traversing a system-state transition graph."""

    #: Registry / CLI name of the strategy.
    name: ClassVar[str] = "abstract"

    @abc.abstractmethod
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
        Raises ``ExplorationLimit`` on budget exhaustion unless the
        strategy degrades to a partial result (``result.complete`` is
        then False).
        """

    @abc.abstractmethod
    def find_witness(
        self,
        initial: SystemState,
        predicate,
        memory_cells: Iterable[Tuple[int, int]] = (),
        max_states: Optional[int] = None,
    ) -> Optional[Witness]:
        """Search for one execution whose outcome satisfies ``predicate``."""

    @staticmethod
    def resolve_limit(initial: SystemState, max_states: Optional[int]) -> int:
        return (
            max_states if max_states is not None else initial.params.max_states
        )
