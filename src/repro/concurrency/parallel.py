"""Parallel litmus-corpus exploration.

State graphs of distinct litmus tests are independent, so the unit of
parallelism is one test: the corpus is spread one test at a time across
``multiprocessing`` workers, each of which builds (or, with the ``fork``
start method, inherits) the process-wide ISA model and runs the exhaustive
oracle through a pluggable ``SearchStrategy``.  Results come back as slim,
picklable ``CorpusTestResult`` records whose ``ExplorationStats`` are
merged into corpus-level totals.

``explore_corpus`` takes ``(name, source)`` pairs so workers re-parse the
litmus source themselves -- litmus files are tiny, and shipping text keeps
the worker protocol independent of every internal class being picklable.
(Strategies themselves are frozen dataclasses, picklable by value.)
Each test is searched by one process; ``corpus_job_count`` sizes the
pool.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from .params import DEFAULT_PARAMS, ModelParams
from .search import SearchStrategy, resolve_strategy
from .search.core import ExplorationLimit, ExplorationStats

#: One unit of work: (name, litmus source, params, max_states, strategy).
Task = Tuple[str, str, ModelParams, Optional[int], SearchStrategy]


@dataclass
class CorpusTestResult:
    """Slim, picklable summary of one test's exhaustive run."""

    name: str
    status: str  # litmus verdict ("Allowed", ...) or "StateLimit" on budget
    witnessed: bool
    holds_always: bool
    outcomes: Set[Tuple]  # the full outcome set (register/memory tuples)
    stats: ExplorationStats
    error: Optional[str] = None  # set when the state budget was exhausted
    complete: bool = True  # False: ``outcomes`` is a partial set

    @property
    def outcome_count(self) -> int:
        return len(self.outcomes)


@dataclass
class CorpusReport:
    """All per-test results of a corpus run plus scheduling metadata."""

    results: List[CorpusTestResult]
    jobs: int
    wall_seconds: float

    def merged_stats(self) -> ExplorationStats:
        """Corpus totals: sums of counters, max frontier, summed CPU time."""
        merged = ExplorationStats()
        for result in self.results:
            merged.merge(result.stats)
        return merged

    def by_name(self, name: str) -> CorpusTestResult:
        for result in self.results:
            if result.name == name:
                return result
        raise KeyError(name)


def default_job_count() -> int:
    """Usable CPUs: the scheduling affinity mask where the OS exposes it.

    ``os.cpu_count()`` reports the machine's cores even when the process
    is pinned to fewer (cgroup-limited containers, taskset), which
    over-subscribes the pool; prefer the affinity mask.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def corpus_job_count(budget: int, test_count: int) -> int:
    """Worker processes for ``test_count`` tests under a ``budget``.

    One worker per test at most, never more than the budget, and never
    0: an empty corpus runs inline (1) instead of starting workers for
    work that does not exist.  A budget below 1 is an error.
    """
    if budget < 1:
        raise ValueError(f"jobs must be >= 1, got {budget}")
    return max(1, min(budget, test_count))


def _init_worker() -> None:
    """Warm the process-wide ISA model once per worker."""
    from ..isa.model import default_model

    default_model()


# ----------------------------------------------------------------------
# Graceful worker shutdown
# ----------------------------------------------------------------------
#
# A corpus run interrupted mid-``pool.map`` (KeyboardInterrupt at the
# CLI, SIGTERM against the serve daemon) used to leak its children: the
# parent unwound, the workers kept exploring.  Every live pool is now
# registered; ``explore_corpus`` terminates its own pool on the way out
# of an interrupt, and ``shutdown_active_pools`` lets a signal handler
# (the daemon's SIGTERM path) terminate-and-join whatever is running
# from outside the exploring thread.

_ACTIVE_POOLS: Set = set()  # live ``multiprocessing.Pool`` objects
_ACTIVE_POOLS_LOCK = threading.Lock()


def _register_pool(pool) -> None:
    with _ACTIVE_POOLS_LOCK:
        _ACTIVE_POOLS.add(pool)


def _unregister_pool(pool) -> None:
    with _ACTIVE_POOLS_LOCK:
        _ACTIVE_POOLS.discard(pool)


def shutdown_active_pools() -> int:
    """Terminate-and-join every live corpus pool; returns how many.

    Installed behind the serve daemon's SIGTERM handler and usable from
    any cleanup path that must not strand worker children.
    """
    with _ACTIVE_POOLS_LOCK:
        pools = list(_ACTIVE_POOLS)
        _ACTIVE_POOLS.clear()
    for pool in pools:
        pool.terminate()
        pool.join()
    return len(pools)


def _run_task(task: Task) -> CorpusTestResult:
    """Worker body: parse and exhaustively run one litmus test."""
    # Imported lazily: this module lives below repro.litmus in the package
    # graph, and the imports also must happen inside spawned workers.
    from ..isa.model import default_model
    from ..litmus.parser import parse_litmus
    from ..litmus.runner import run_litmus

    name, source, params, max_states, strategy = task
    test = parse_litmus(source)
    try:
        result = run_litmus(
            test,
            default_model(),
            params=params,
            max_states=max_states,
            strategy=strategy,
        )
    except ExplorationLimit as limit:
        # A budget-exhausted test is a reportable per-test outcome, not a
        # corpus-wide crash (e.g. IRIW+syncs exceeds the Python budget).
        # The work done up to exhaustion still counts toward the totals.
        return CorpusTestResult(
            name=name if name else test.name,
            status="StateLimit",
            witnessed=False,
            holds_always=False,
            outcomes=set(),
            stats=limit.stats if limit.stats is not None else ExplorationStats(),
            error=str(limit),
            complete=False,
        )
    complete = result.exploration.complete
    return CorpusTestResult(
        name=name if name else test.name,
        status=result.status,
        witnessed=result.witnessed,
        holds_always=result.holds_always,
        outcomes=result.outcomes,
        stats=result.exploration.stats,
        error=None if complete else "state budget exhausted (partial outcomes)",
        complete=complete,
    )


def explore_corpus(
    items: Sequence[Tuple[str, str]],
    jobs: Optional[int] = None,
    params: ModelParams = DEFAULT_PARAMS,
    max_states: Optional[int] = None,
    strategy=None,
) -> CorpusReport:
    """Exhaustively run a corpus of litmus tests, one per worker.

    ``items`` is a sequence of (name, litmus source) pairs; ``jobs`` is
    the worker budget (default: usable CPU count), capped at one worker
    per test by ``corpus_job_count``.  ``strategy`` picks the per-test
    search backend (name or ``SearchStrategy``; default sequential DFS).
    ``jobs=1`` (or a single test) runs inline in this process -- same
    results, no pool overhead.
    """
    budget = jobs if jobs is not None else default_job_count()
    strategy = resolve_strategy(strategy)
    tasks: List[Task] = [
        (name, source, params, max_states, strategy)
        for name, source in items
    ]
    corpus_jobs = corpus_job_count(budget, len(tasks))
    started = time.perf_counter()
    if corpus_jobs == 1:
        results = [_run_task(task) for task in tasks]
    else:
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in methods else None
        context = multiprocessing.get_context(method)
        if method == "fork":
            # Parse the ISA model once here; forked workers inherit it.
            _init_worker()
        pool = context.Pool(processes=corpus_jobs, initializer=_init_worker)
        _register_pool(pool)
        try:
            # Per-test granularity (chunksize=1): state-graph sizes vary
            # by orders of magnitude, so fine-grained scheduling
            # load-balances.
            results = pool.map(_run_task, tasks, chunksize=1)
            pool.close()
            pool.join()
        except BaseException:
            # KeyboardInterrupt/SIGTERM unwinding must not strand the
            # children mid-exploration.
            pool.terminate()
            pool.join()
            raise
        finally:
            _unregister_pool(pool)
    wall = time.perf_counter() - started
    return CorpusReport(results=results, jobs=corpus_jobs, wall_seconds=wall)
