"""Worker processes for batches of litmus tests.

State graphs of distinct litmus tests are independent, so the unit of
parallelism is one test: ``pool_map`` spreads a batch one test at a
time across ``multiprocessing`` workers, each of which builds (or, with
the ``fork`` start method, inherits) the process-wide ISA model.  The
service engine's ``run_batch`` is its one caller: every worker runs the
engine's single-request body on one resolved request and returns its
``Verdict``.  ``corpus_job_count`` sizes the pool, and
``check_job_budget`` refuses a budget below 1.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, List, Sequence, Set


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


def check_job_budget(budget: int) -> int:
    """``budget``, if it is a usable worker budget (at least 1)."""
    if budget < 1:
        raise ValueError(f"jobs must be >= 1, got {budget}")
    return budget


def corpus_job_count(budget: int, test_count: int) -> int:
    """Worker processes for ``test_count`` tests under a ``budget``.

    One worker per test at most, never more than the budget, and never
    0: an empty corpus runs inline (1) instead of starting workers for
    work that does not exist.  A budget below 1 is an error.
    """
    return max(1, min(check_job_budget(budget), test_count))


def _init_worker() -> None:
    """Warm the process-wide ISA model once per worker."""
    from ..isa.model import default_model

    default_model()


# ----------------------------------------------------------------------
# Graceful worker shutdown
# ----------------------------------------------------------------------
#
# A batch interrupted mid-``pool.map`` (KeyboardInterrupt at the
# CLI, SIGTERM against the serve daemon) used to leak its children: the
# parent unwound, the workers kept exploring.  Every live pool is now
# registered; ``pool_map`` terminates its own pool on the way out
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
    """Terminate-and-join every live worker pool; returns how many.

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


def pool_map(function: Callable, items: Sequence, jobs: int) -> List:
    """``[function(item) for item in items]`` across ``jobs`` workers.

    ``jobs`` is a worker count from ``corpus_job_count``; ``jobs=1``
    runs inline in this process -- same results, no pool overhead.
    ``function`` and every item and result must pickle.  Results come
    back in item order.
    """
    if jobs == 1:
        return [function(item) for item in items]
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    method = "fork" if "fork" in methods else None
    context = multiprocessing.get_context(method)
    if method == "fork":
        # Parse the ISA model once here; forked workers inherit it.
        _init_worker()
    pool = context.Pool(processes=jobs, initializer=_init_worker)
    _register_pool(pool)
    try:
        # Per-test granularity (chunksize=1): state-graph sizes vary by
        # orders of magnitude, so fine-grained scheduling load-balances.
        results = pool.map(function, items, chunksize=1)
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
    return results
