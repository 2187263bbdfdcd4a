"""Intra-test parallel exploration: sharded-frontier multiprocessing DFS.

One litmus test's state graph is explored by several OS processes:

1. *Prefix expansion.*  The parent runs a breadth-first expansion of the
   graph down to ``shard_depth`` levels, deduplicating against a shared
   seen-set and summarising any final/deadlocked states it meets.  The
   surviving leaves are the *subtree roots*.
2. *Key-digest partitioning.*  Each root is assigned to the worker that
   owns its state key's digest partition (``crc32(key bytes) % jobs``),
   so ownership is a pure function of the state -- not of scheduling
   order, and not of ``PYTHONHASHSEED``: the digest walks the key
   structure itself instead of trusting the builtin salted ``hash``, so
   partition assignment (and with it work accounting and worker-failure
   reproduction) is byte-identical across interpreter runs.
3. *Worker DFS.*  Workers are forked (the ``fork`` start method is
   required: subtree root states and the prefix seen-set are inherited
   by memory, never pickled), and each runs the ordinary sequential
   driver over its roots with ONE worker-local seen-set seeded from the
   prefix, so duplicates *within* a partition are explored once.
4. *Join.*  Outcome sets (plain picklable tuples) and
   ``ExplorationStats`` come back over per-worker pipes (EOF on a pipe
   means the worker died without reporting -- a loud failure, not a
   hang) and are merged; a state reachable from roots owned by two
   different workers is explored by both, which costs time but never
   changes the result because outcomes merge as sets.

Determinism argument: the prefix expansion and every worker DFS are
deterministic, and the only cross-worker effects are set unions and
commutative counter merges, so verdicts and outcome sets are identical
to ``SequentialDFS`` regardless of scheduling.  Work *accounting* is not
bit-stable: cross-partition duplicates and scheduling skew make
``states_visited``/``transitions_taken`` an honest measure of work done,
not of unique states; ``unique_states`` (the prefix seen-set size plus
each worker's seen-set growth) is the states-covered counter.

The state budget is enforced per shard: the prefix charges the shared
budget, and each worker may visit up to the remaining budget in its own
partition, so a sharded run can do up to ``jobs`` times the sequential
work before giving up -- budget exhaustion still raises
``ExplorationLimit`` (with merged partial stats attached).

``reduction``/``context_bound`` (see ``reduction.py``) thread through
the whole pipeline: the prefix expansion prunes exactly as the reduced
driver would, each subtree root carries its sleep set and scheduling
context into the owning worker, and workers resume ``run_search`` from
those seeds.  Sleep-set pruning stays sound across partitions because
every pruned interleaving is covered by a sibling subtree that is
itself some worker's root, and outcomes merge as sets; a context-bound
truncation in the prefix or any worker downgrades the merged result to
``complete=False``.

Witness searches ship transition-*index* paths back from workers and
replay them in the parent (enumeration is deterministic), so traces
never need to be picklable.  When sharding is impossible -- one job,
no ``fork`` start method, already inside a daemonic pool worker, or
deadlock-state collection requested -- the strategy degrades to
``SequentialDFS`` (with the same reduction options).

``reduction="dpor"`` is accepted but the sharded pipeline itself runs
it as sleep sets (see ``ShardedParallel._shard_reduction`` for why the
mutable whole-search dpor state cannot be partitioned across one-shot
fork workers); only the sequential degradation path runs true
source-DPOR with symmetry canonicalisation.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from .base import SearchStrategy
from .core import (
    CollectOutcomes,
    ExplorationLimit,
    ExplorationResult,
    ExplorationStats,
    StopOnWitness,
    Witness,
    extend_index_path,
    extend_trace,
    replay_index_path,
    run_search,
    visit_sleep,
)
from .reduction import make_reducer
from .sequential import SequentialDFS
from ..events import BarrierId, WriteId
from ..keys import CachedKey
from ..system import SystemState, Transition
from ..thread import ModelError
from ...sail.values import Bits

#: Parent-side exploration context inherited by forked workers:
#: (roots, prefix seen-structure, cells, per-worker limit, predicate,
#: (reduction, context_bound) policy).
_SHARD_CONTEXT = None

#: A subtree root: (prefix trace, state, sleep set, scheduling context).
Root = Tuple[Tuple[Transition, ...], SystemState, frozenset,
             Tuple[Optional[int], int]]


def _serialize_key(value, out: bytearray) -> None:
    """Append a stable, hash-seed-independent encoding of a key part.

    State keys are nested tuples of ints/strings/identifiers/``Bits``
    wrapped in ``CachedKey`` layers, but instance keys also embed opaque
    in-flight operation objects; those fall back to their type name.
    The digest built from this encoding needs *determinism*, not
    injectivity -- a collision only co-locates two roots in the same
    partition.
    """
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif type(value) is int:
        out += b"i%d;" % value
    elif type(value) is str:
        out += b"s%d:" % len(value)
        out += value.encode("utf-8", "surrogatepass")
    elif type(value) is CachedKey:
        _serialize_key(value.value, out)
    elif type(value) is tuple:
        out += b"("
        for item in value:
            _serialize_key(item, out)
        out += b")"
    elif type(value) is WriteId or type(value) is BarrierId:
        out += b"I"
        _serialize_key(value._sort_key, out)
    elif type(value) is Bits:
        out += b"B%d,%d,%d,%d;" % (
            value.width, value.ones, value.undefs, value.unknowns
        )
    elif type(value) is frozenset:
        parts = []
        for item in value:
            piece = bytearray()
            _serialize_key(item, piece)
            parts.append(bytes(piece))
        out += b"{"
        for piece in sorted(parts):
            out += piece
        out += b"}"
    else:
        out += b"?"
        out += type(value).__name__.encode("utf-8")


def _stable_digest(key) -> int:
    """``zlib.crc32`` over the stable encoding of a state key."""
    out = bytearray()
    _serialize_key(key, out)
    return zlib.crc32(bytes(out))


def _shard_worker(worker_id: int, root_indexes: List[int], mode: str,
                  connection):
    """Worker body: DFS over the owned subtree roots, one local seen-set.

    The report is the worker's last act; the connection's write end then
    closes with the process, so the parent sees EOF -- not a hang -- if
    the worker dies before (or while) reporting.  Reports carry the
    worker's seen-set *growth* over the prefix (its ``unique_states``
    contribution) and whether its reducer truncated the search.
    """
    roots, prefix_seen, cells, limit, predicate, policy = _SHARD_CONTEXT
    stats = ExplorationStats()
    reducer = make_reducer(*policy)
    if reducer is not None and reducer.sleep:
        # Stored sleep sets are immutable frozensets: a shallow dict
        # copy keeps the worker's updates off the (forked) prefix map.
        seen = dict(prefix_seen)
    else:
        seen = set(prefix_seen)
    prefix_unique = len(prefix_seen)

    def report(kind, payload, error):
        stats.unique_states = len(seen) - prefix_unique
        truncated = reducer is not None and reducer.truncated
        connection.send((kind, payload, stats, error, truncated))

    if mode == "explore":
        visitor = CollectOutcomes(cells)
        try:
            for index in root_indexes:
                _trace, state, sleep, context = roots[index]
                run_search(
                    state,
                    visitor,
                    limit=limit,
                    stats=stats,
                    strict_deadlocks=True,
                    seen=seen,
                    reducer=reducer,
                    sleep_seed=sleep,
                    context_seed=context,
                )
            report("ok", visitor.outcomes, None)
        except ExplorationLimit as exc:
            report("limit", visitor.outcomes, str(exc))
        except BaseException as exc:
            report("error", visitor.outcomes, repr(exc))
        return
    visitor = StopOnWitness(predicate, cells)
    try:
        for index in root_indexes:
            _trace, state, sleep, context = roots[index]
            found = run_search(
                state,
                visitor,
                limit=limit,
                stats=stats,
                strict_deadlocks=False,
                payload=(),
                extend=extend_index_path,
                seen=seen,
                reducer=reducer,
                sleep_seed=sleep,
                context_seed=context,
            )
            if found is not None:
                _state, path = found
                report("witness", (index, path), None)
                return
        report("ok", None, None)
    except ExplorationLimit as exc:
        report("limit", None, str(exc))
    except BaseException as exc:
        report("error", None, repr(exc))


@dataclass(frozen=True)
class ShardedParallel(SearchStrategy):
    """Fork-based intra-test parallel search over a sharded frontier.

    ``jobs=None`` resolves to the machine's usable CPU count at search
    time; ``shard_depth`` is how many transition levels the parent
    expands before handing subtrees to workers (deeper = more, smaller
    shards = better load balance, more prefix work).
    """

    jobs: Optional[int] = None
    shard_depth: int = 3
    reduction: str = "none"
    context_bound: Optional[int] = None
    #: With ``reduction="dpor"``: honoured only on the degradation path
    #: (see ``_shard_reduction``); the sharded pipeline itself runs
    #: sleep sets.
    symmetry: bool = False

    name = "sharded"

    # -- plumbing ---------------------------------------------------------

    def _shard_reduction(self) -> str:
        """The reduction the *sharded* pipeline actually runs.

        ``dpor`` normalises to ``sleep`` here: source-DPOR backtrack
        sets and the canonical seen map are mutable whole-search state
        that workers would have to share and merge mid-flight, which the
        fork-and-report pipeline (one-shot result pipes, no cross-worker
        channel) cannot express.  Sleep sets are the sound projection
        that *does* partition -- each root carries its own frozen sleep
        seed.  The ``_sequential`` degradation path is not affected: it
        runs full dpor (and symmetry) in one process.
        """
        return "sleep" if self.reduction == "dpor" else self.reduction

    def effective_jobs(self) -> int:
        """The worker count a search would actually use (public: the
        benchmark harness records it to keep entries comparable)."""
        if self.jobs is not None:
            return max(1, self.jobs)
        from ..parallel import default_job_count

        return default_job_count()

    @staticmethod
    def can_fork() -> bool:
        """Whether sharding is possible here (public: see effective_jobs)."""
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            return False
        # Daemonic pool workers (the corpus runner's) may not fork
        # children; degrade to the sequential engine there.
        return not multiprocessing.current_process().daemon

    def _sequential(self) -> SequentialDFS:
        """The degradation target, carrying the same reduction options."""
        return SequentialDFS(
            reduction=self.reduction,
            context_bound=self.context_bound,
            symmetry=self.symmetry,
        )

    def _expand(
        self,
        initial: SystemState,
        visitor,
        limit: int,
        stats: ExplorationStats,
        strict_deadlocks: bool,
        reducer,
    ):
        """Breadth-first prefix expansion to ``shard_depth`` levels.

        Returns ``(roots, seen, found)`` where ``roots`` are
        ``(prefix-trace, state, sleep set, context)`` leaves still to be
        searched, ``seen`` is the prefix dedup structure (a plain key
        set, or a key -> stored-sleep-set map under sleep-set
        reduction), and ``found`` is a non-``None`` visitor stop value
        (an early witness) if the prefix already decided the search.

        The per-state handling (final summarisation, deadlock
        accounting, strict-deadlock ModelError, budget check before
        counting, seen-keyed push, sleep/context pruning) mirrors
        ``core.run_search``/``core._run_reduced`` in breadth-first order
        and must stay semantically in lock-step with them; the
        cross-strategy equivalence tests pin the observable agreement.
        """
        sleep_on = reducer is not None and reducer.sleep
        root_sleep: frozenset = frozenset()
        roots: List[Root] = [((), initial, root_sleep, (None, 0))]
        if sleep_on:
            seen = {initial.key(): root_sleep}
        else:
            seen = {initial.key()}
        for _level in range(max(0, self.shard_depth)):
            next_roots: List[Root] = []
            for trace, state, sleep, context in roots:
                stats.max_frontier = max(
                    stats.max_frontier, len(roots) + len(next_roots)
                )
                # Budget check *before* counting, exactly as
                # ``core.run_search``: partial stats equal the budget.
                if stats.states_visited >= limit:
                    stats.unique_states = len(seen)
                    raise ExplorationLimit(
                        f"exceeded {limit} states; "
                        "increase params.max_states",
                        stats,
                    )
                stats.states_visited += 1
                if state.is_final():
                    stats.final_states += 1
                    found = visitor.on_final(state, trace)
                    if found is not None:
                        return [], seen, found
                    continue
                transitions = state.enumerate_transitions()
                if not transitions:
                    if state.threads_finished():
                        stats.deadlocks += 1
                        visitor.on_deadlock(state)
                        continue
                    if strict_deadlocks:
                        raise ModelError(
                            "deadlock: no transitions from a non-final "
                            "state\n" + state.render()
                        )
                    continue
                explored: List[Transition] = []
                for transition in transitions:
                    if sleep_on and transition in sleep:
                        continue
                    if reducer is not None and not reducer.within_bound(
                        context, transition
                    ):
                        continue
                    if sleep_on:
                        child_sleep = frozenset(
                            z
                            for source in (sleep, explored)
                            for z in source
                            if reducer.independent(state, z, transition)
                        )
                    else:
                        child_sleep = sleep
                    successor = state.apply(transition)
                    stats.transitions_taken += 1
                    key = successor.key()
                    if sleep_on:
                        # A root pushed after partial coverage will be
                        # explored fully by its worker -- a sound
                        # superset of the woken difference.
                        pruned, _wake = visit_sleep(seen, key, child_sleep)
                        explored.append(transition)
                        if pruned:
                            continue
                    else:
                        if key in seen:
                            continue
                        seen.add(key)
                    next_roots.append((
                        trace + (transition,),
                        successor,
                        child_sleep,
                        reducer.advance_context(context, transition)
                        if reducer is not None else context,
                    ))
            roots = next_roots
            if not roots:
                break
        return roots, seen, None

    def _partition(self, roots, jobs: int) -> List[List[int]]:
        """Key-digest-partitioned ownership: root -> worker by state key.

        Stable across interpreter runs (``PYTHONHASHSEED`` never enters):
        regression-tested by the hash-seed subprocess test.
        """
        bundles: List[List[int]] = [[] for _ in range(jobs)]
        for index, (_trace, state, _sleep, _context) in enumerate(roots):
            bundles[_stable_digest(state.key()) % jobs].append(index)
        return [bundle for bundle in bundles if bundle]

    @staticmethod
    def _collect(workers):
        """Yield one report per worker, detecting dead workers as EOF.

        Each worker has a dedicated pipe whose write end only the worker
        holds (the parent closes its copy right after the fork), so a
        worker that dies before -- or in the middle of -- sending its
        report delivers EOF instead of leaving the parent blocked on a
        half-written message.  ``connection.wait`` multiplexes the
        still-pending pipes.
        """
        from multiprocessing.connection import wait

        pending = {
            connection: process for process, connection in workers
        }
        while pending:
            for connection in wait(list(pending)):
                process = pending.pop(connection)
                try:
                    yield connection.recv()
                except EOFError:
                    process.join()
                    raise ModelError(
                        "sharded worker died without reporting "
                        f"(exit code {process.exitcode})"
                    ) from None

    @staticmethod
    def _terminate(workers):
        """Stop every still-running worker (the search is decided)."""
        for process, _connection in workers:
            if process.is_alive():
                process.terminate()

    @staticmethod
    def _reap(workers):
        """Close the read ends, then join every worker.

        Closing first matters on error paths: a sibling worker blocked
        in ``connection.send`` (payload larger than the pipe buffer)
        gets ``BrokenPipeError`` and exits instead of deadlocking the
        ``join``; on the normal path every pipe is already drained and
        the close is a no-op.
        """
        for _process, connection in workers:
            connection.close()
        for process, _connection in workers:
            process.join()

    def _dispatch(self, roots, seen, cells, limit, predicate, mode):
        """Fork one worker per non-empty partition; return the workers.

        Each entry is a ``(process, read-connection)`` pair; the parent
        drops its copy of the write end immediately so worker death is
        observable as EOF on the read end.
        """
        import multiprocessing

        global _SHARD_CONTEXT
        context = multiprocessing.get_context("fork")
        bundles = self._partition(roots, self.effective_jobs())
        _SHARD_CONTEXT = (
            roots, seen, cells, limit, predicate,
            (self._shard_reduction(), self.context_bound),
        )
        workers = []
        try:
            for worker_id, bundle in enumerate(bundles):
                receiver, sender = context.Pipe(duplex=False)
                process = context.Process(
                    target=_shard_worker,
                    args=(worker_id, bundle, mode, sender),
                    daemon=False,
                )
                process.start()
                sender.close()
                workers.append((process, receiver))
        finally:
            _SHARD_CONTEXT = None
        return workers

    # -- the strategy API -------------------------------------------------

    def explore(
        self,
        initial: SystemState,
        memory_cells: Iterable[Tuple[int, int]] = (),
        max_states: Optional[int] = None,
        collect_deadlocks: bool = False,
    ) -> ExplorationResult:
        jobs = self.effective_jobs()
        if jobs <= 1 or collect_deadlocks or not self.can_fork():
            return self._sequential().explore(
                initial, memory_cells, max_states, collect_deadlocks
            )
        limit = self.resolve_limit(initial, max_states)
        cells = tuple(memory_cells)
        stats = ExplorationStats()
        visitor = CollectOutcomes(cells)
        reducer = make_reducer(self._shard_reduction(), self.context_bound)
        seen = None
        started = time.perf_counter()
        try:
            roots, seen, _found = self._expand(
                initial, visitor, limit, stats,
                strict_deadlocks=True, reducer=reducer,
            )
            if len(roots) <= 1:
                # Graph too shallow to shard: finish inline on the shared
                # seen-set -- same traversal a one-partition worker would do.
                for _trace, state, sleep, context in roots:
                    run_search(
                        state,
                        visitor,
                        limit=limit,
                        stats=stats,
                        strict_deadlocks=True,
                        seen=seen,
                        reducer=reducer,
                        sleep_seed=sleep,
                        context_seed=context,
                    )
                return ExplorationResult(
                    visitor.outcomes, stats, [],
                    complete=reducer is None or not reducer.truncated,
                )
        finally:
            # Also on ExplorationLimit from the prefix or the inline
            # search: the exception carries this stats object, and its
            # partial work must not report zero seconds or coverage.
            stats.seconds = time.perf_counter() - started
            if seen is not None:
                stats.unique_states = len(seen)

        worker_limit = max(1, limit - stats.states_visited)
        workers = self._dispatch(
            roots, seen, cells, worker_limit, None, "explore"
        )
        outcomes = visitor.outcomes
        truncated = reducer is not None and reducer.truncated
        limit_error = None
        worker_error = None
        try:
            for kind, payload, wstats, error, wtruncated in self._collect(
                workers
            ):
                stats.merge(wstats)
                truncated = truncated or wtruncated
                if payload:
                    outcomes |= payload
                if kind == "limit" and limit_error is None:
                    limit_error = error
                elif kind == "error" and worker_error is None:
                    worker_error = error
                    # A worker error decides the whole explore; don't
                    # let the surviving shards burn CPU for a result
                    # that will be discarded (stop collecting too --
                    # terminated workers would only report as EOF).
                    self._terminate(workers)
                    break
        except BaseException:
            self._terminate(workers)
            raise
        finally:
            self._reap(workers)
        stats.seconds = time.perf_counter() - started
        if worker_error is not None:
            raise ModelError(f"sharded worker failed: {worker_error}")
        if limit_error is not None:
            raise ExplorationLimit(limit_error, stats)
        return ExplorationResult(outcomes, stats, [], complete=not truncated)

    def find_witness(
        self,
        initial: SystemState,
        predicate,
        memory_cells: Iterable[Tuple[int, int]] = (),
        max_states: Optional[int] = None,
    ) -> Optional[Witness]:
        jobs = self.effective_jobs()
        if jobs <= 1 or not self.can_fork():
            return self._sequential().find_witness(
                initial, predicate, memory_cells, max_states
            )
        limit = self.resolve_limit(initial, max_states)
        cells = tuple(memory_cells)
        stats = ExplorationStats()
        visitor = StopOnWitness(predicate, cells)
        reducer = make_reducer(self._shard_reduction(), self.context_bound)
        seen = None
        started = time.perf_counter()
        try:
            roots, seen, found = self._expand(
                initial, visitor, limit, stats,
                strict_deadlocks=False, reducer=reducer,
            )
            if found is not None:
                state, trace = found
                return Witness(list(trace), state, stats)
            if len(roots) <= 1:
                for trace, state, sleep, context in roots:
                    found = run_search(
                        state,
                        visitor,
                        limit=limit,
                        stats=stats,
                        strict_deadlocks=False,
                        payload=trace,
                        extend=extend_trace,
                        seen=seen,
                        reducer=reducer,
                        sleep_seed=sleep,
                        context_seed=context,
                    )
                    if found is not None:
                        final_state, full_trace = found
                        return Witness(list(full_trace), final_state, stats)
                if reducer is not None and reducer.truncated:
                    # A truncated witness search proves nothing:
                    # ``None`` would read as unsatisfiability, which
                    # the cut paths cannot support.
                    raise ExplorationLimit(
                        f"context bound {self.context_bound} truncated "
                        "the witness search before it completed",
                        stats,
                    )
                return None
        finally:
            # Also on ExplorationLimit: see explore() above.
            stats.seconds = time.perf_counter() - started
            if seen is not None:
                stats.unique_states = len(seen)

        worker_limit = max(1, limit - stats.states_visited)
        workers = self._dispatch(
            roots, seen, cells, worker_limit, predicate, "witness"
        )
        witness_payload = None
        truncated = reducer is not None and reducer.truncated
        limit_error = None
        worker_error = None
        try:
            for kind, payload, wstats, error, wtruncated in self._collect(
                workers
            ):
                stats.merge(wstats)
                truncated = truncated or wtruncated
                if kind == "witness":
                    witness_payload = payload
                    # A witness decides the search; stop the other shards.
                    self._terminate(workers)
                    break
                if kind == "limit" and limit_error is None:
                    limit_error = error
                elif kind == "error" and worker_error is None:
                    # Keep collecting: another shard may still produce a
                    # witness, which decides the search despite the error.
                    worker_error = error
        except BaseException:
            self._terminate(workers)
            raise
        finally:
            self._reap(workers)
        stats.seconds = time.perf_counter() - started
        if witness_payload is not None:
            root_index, index_path = witness_payload
            prefix_trace, root_state = roots[root_index][:2]
            subtree_trace, final_state = replay_index_path(
                root_state, index_path
            )
            return Witness(
                list(prefix_trace) + subtree_trace, final_state, stats
            )
        if worker_error is not None:
            raise ModelError(f"sharded worker failed: {worker_error}")
        if limit_error is not None:
            # No shard found a witness but one gave up: inconclusive.
            raise ExplorationLimit(limit_error, stats)
        if truncated:
            raise ExplorationLimit(
                f"context bound {self.context_bound} truncated the "
                "witness search before it completed",
                stats,
            )
        return None
