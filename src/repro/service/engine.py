"""The envelope engine: one request API over the whole query path.

Every way of asking the oracle a question -- ``ppcmem2 run`` on a file,
the ``corpus``/``litmus``/``gen --check`` verbs, the testgen harness's
``check_suite``, the serve daemon's job queue -- goes through
``EnvelopeEngine``: ``run_request(request) -> Verdict`` is the single
façade, with

* canonicalisation: the litmus source is parsed and re-emitted through
  ``litmus/emit.emit_litmus`` (a parse/emit fixed point), so two
  differently-formatted copies of the same test are the same query;
* an optional persistent ``VerdictCache``: a repeated query returns the
  stored verdict in microseconds, and any parameter change (budget,
  reduction, context bound, ...) correctly misses because the
  parameters are part of the key (``service.cache.cache_key``);
* ``run_batch`` for many requests at once: it resolves and looks up
  each request as ``run_request`` does, and its misses run one per
  worker process through ``_explore``, the same single-request body,
  so one ``Verdict`` type travels from worker to caller -- this is the
  daemon's job executor.

Verdicts are plain data (JSON-serialisable via ``to_payload``), so the
same object flows from the engine into the cache, over the daemon's
HTTP API, and back out of ``ppcmem2 client``.  A search the state budget
or the context bound stopped yields a verdict with ``complete=False``,
its partial outcomes, a status those outcomes prove (an existential
verdict survives, a universal claim becomes "StateLimit") and the
reason in ``error``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..concurrency.params import DEFAULT_PARAMS, ModelParams
from ..concurrency.search import REDUCTIONS
from ..concurrency.search.core import ExplorationStats
from .cache import VerdictCache, cache_key

#: Outcome tuples as produced by the search core: hashable nested tuples.
Outcome = Tuple[Tuple, Tuple]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: The search options of a request (the JSON "options" the daemon
#: accepts), each with a check on its value and what the value must be.
REQUEST_OPTIONS = {
    "reduction": (
        lambda value: isinstance(value, str) and value in REDUCTIONS,
        f"one of {list(REDUCTIONS)}",
    ),
    "context_bound": (
        lambda value: value is None or (_is_int(value) and value >= 0),
        "an integer >= 0 or null",
    ),
    "symmetry": (
        lambda value: value is False,
        "false (thread-symmetry reduction was removed)",
    ),
    "max_states": (
        lambda value: value is None or (_is_int(value) and value >= 1),
        "an integer >= 1 or null",
    ),
}


def check_option(option: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is valid for ``option``.

    The one range check of every search option: each ``EngineRequest``
    runs it on construction, and the CLI parses its flags through it.
    """
    valid, rule = REQUEST_OPTIONS[option]
    if not valid(value):
        raise ValueError(f"option {option!r} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class EngineRequest:
    """One oracle query: a litmus source plus the exploration parameters.

    Every field is plain data, so requests serialise over the service
    protocol unchanged.  Every value is checked on construction, before
    anything is resolved, run or cached; a bad one raises ``ValueError``
    naming the field or option.

    ``symmetry`` is accepted only as ``False``: thread-symmetry
    reduction was removed, and callers that still pass the field keep
    working.  The field is not in the cache key.
    """

    source: str
    name: Optional[str] = None
    reduction: str = "none"
    context_bound: Optional[int] = None
    symmetry: bool = False
    max_states: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.source, str):
            raise ValueError(
                f"'source' must be a string, got {type(self.source).__name__}"
            )
        if self.name is not None and not isinstance(self.name, str):
            raise ValueError(
                "'name' must be a string or null, "
                f"got {type(self.name).__name__}"
            )
        for option in REQUEST_OPTIONS:
            check_option(option, getattr(self, option))

    @classmethod
    def from_options(
        cls, source: str, name: Optional[str] = None, options: Optional[dict] = None
    ) -> "EngineRequest":
        """Build a request from a JSON-safe options dict (daemon path)."""
        options = options or {}
        if not isinstance(options, dict):
            raise ValueError(f"options must be an object, got {options!r}")
        unknown = set(options) - set(REQUEST_OPTIONS)
        if unknown:
            raise ValueError(f"unknown request options: {sorted(unknown)}")
        return cls(source=source, name=name, **options)


@dataclass
class Verdict:
    """The oracle's answer to one request -- plain, serialisable data."""

    name: str
    status: str
    quantifier: str
    witnessed: bool
    holds_always: bool
    complete: bool
    outcomes: FrozenSet[Outcome]
    outcome_lines: Tuple[Tuple[str, bool], ...]
    stats: Dict[str, Any]
    error: Optional[str]
    key: str
    cached: bool = False

    def to_payload(self) -> Dict[str, Any]:
        """JSON-encodable form: what the cache stores and the API ships."""
        return {
            "name": self.name,
            "status": self.status,
            "quantifier": self.quantifier,
            "witnessed": self.witnessed,
            "holds_always": self.holds_always,
            "complete": self.complete,
            "outcomes": [
                [
                    [list(entry) for entry in registers],
                    [list(cell) for cell in memory],
                ]
                for registers, memory in sorted(self.outcomes, key=repr)
            ],
            "outcome_lines": [list(line) for line in self.outcome_lines],
            "stats": dict(self.stats),
            "error": self.error,
            "key": self.key,
        }

    @classmethod
    def from_payload(
        cls, payload: Dict[str, Any], cached: bool = False
    ) -> "Verdict":
        outcomes = frozenset(
            (
                tuple(tuple(entry) for entry in registers),
                tuple(tuple(cell) for cell in memory),
            )
            for registers, memory in payload["outcomes"]
        )
        return cls(
            name=payload["name"],
            status=payload["status"],
            quantifier=payload["quantifier"],
            witnessed=payload["witnessed"],
            holds_always=payload["holds_always"],
            complete=payload["complete"],
            outcomes=outcomes,
            outcome_lines=tuple(
                (text, satisfied)
                for text, satisfied in payload["outcome_lines"]
            ),
            stats=dict(payload["stats"]),
            error=payload["error"],
            key=payload["key"],
            cached=cached,
        )


def _cached_verdict(payload: Dict[str, Any]) -> Verdict:
    return Verdict.from_payload(payload, cached=True)


@dataclass
class BatchResult:
    """Verdicts for a batch of requests plus scheduling/cache metadata."""

    verdicts: List[Verdict]
    jobs: int
    wall_seconds: float
    hits: int
    misses: int

    def merged_stats(self) -> ExplorationStats:
        merged = ExplorationStats()
        for verdict in self.verdicts:
            merged.merge(_stats_from_dict(verdict.stats))
        return merged


@dataclass(frozen=True)
class _Resolved:
    """A request after canonicalisation: what actually runs and its key."""

    name: str
    test: Any  # parsed LitmusTest
    reduction: str
    context_bound: Optional[int]
    max_states: Optional[int]
    key: str


def _stats_to_dict(stats: ExplorationStats) -> Dict[str, Any]:
    return {
        "states_visited": stats.states_visited,
        "transitions_taken": stats.transitions_taken,
        "final_states": stats.final_states,
        "deadlocks": stats.deadlocks,
        "max_frontier": stats.max_frontier,
        "unique_states": stats.unique_states,
        "reused_successors": stats.reused_successors,
        "seconds": stats.seconds,
    }


def _stats_from_dict(data: Dict[str, Any]) -> ExplorationStats:
    return ExplorationStats(
        states_visited=data.get("states_visited", 0),
        transitions_taken=data.get("transitions_taken", 0),
        final_states=data.get("final_states", 0),
        deadlocks=data.get("deadlocks", 0),
        max_frontier=data.get("max_frontier", 0),
        seconds=data.get("seconds", 0.0),
        unique_states=data.get("unique_states", 0),
        reused_successors=data.get("reused_successors", 0),
    )


class EnvelopeEngine:
    """The shared query engine behind the CLI, the harness and the daemon.

    ``cache`` is an optional ``VerdictCache``; without one every request
    explores cold (the pre-service behaviour).  ``params`` are the model
    parameters (part of the key).  Every request runs on the
    process-wide ISA model (``isa.model.default_model``), in this
    process or in the workers ``run_batch`` fans out to.
    """

    def __init__(
        self,
        cache: Optional[VerdictCache] = None,
        params: ModelParams = DEFAULT_PARAMS,
    ):
        self.cache = cache
        self.params = params

    # ------------------------------------------------------------------

    @property
    def model(self):
        from ..isa.model import default_model

        return default_model()

    def resolve(self, request: EngineRequest) -> _Resolved:
        """Parse + canonicalise a request and derive its cache key.

        The key covers the canonical source and every search parameter
        (reduction, context bound, budget, model parameters), so what is
        keyed is exactly what runs.
        """
        from ..litmus.emit import emit_litmus
        from ..litmus.parser import parse_litmus

        test = parse_litmus(request.source)
        key = cache_key(
            emit_litmus(test),
            reduction=request.reduction,
            context_bound=request.context_bound,
            max_states=request.max_states,
            params=self.params,
        )
        return _Resolved(
            name=request.name or test.name,
            test=test,
            reduction=request.reduction,
            context_bound=request.context_bound,
            max_states=request.max_states,
            key=key,
        )

    def request_key(self, request: EngineRequest) -> str:
        return self.resolve(request).key

    # ------------------------------------------------------------------

    def run_request(self, request: EngineRequest) -> Verdict:
        """Answer one request: cache hit in microseconds, or explore."""
        resolved = self.resolve(request)
        hit = self._lookup(resolved)
        if hit is not None:
            return hit
        verdict = self._explore(resolved)
        self._store(resolved, verdict)
        return verdict

    def run_batch(
        self,
        requests: Sequence[EngineRequest],
        jobs: Optional[int] = None,
    ) -> BatchResult:
        """Answer many requests, fanning cache misses across workers.

        The ``jobs`` budget (default: usable CPUs) is checked first, so
        a refused batch touches nothing.  Every request is then resolved
        and looked up as in ``run_request``.  The misses run one per
        worker process within the budget; each worker runs ``_explore``
        on its resolved request, in an engine with no cache, and the
        verdicts it returns are stored here.  Verdict order matches
        request order.
        """
        from ..concurrency.parallel import (
            check_job_budget,
            corpus_job_count,
            default_job_count,
            pool_map,
        )

        started = time.perf_counter()
        budget = check_job_budget(
            jobs if jobs is not None else default_job_count()
        )
        resolved = [self.resolve(request) for request in requests]
        verdicts = [self._lookup(res) for res in resolved]
        misses = [i for i, verdict in enumerate(verdicts) if verdict is None]
        workers = corpus_job_count(budget, len(misses))
        explored = pool_map(
            EnvelopeEngine(params=self.params)._explore,
            [resolved[i] for i in misses],
            workers,
        )
        for i, verdict in zip(misses, explored):
            verdicts[i] = verdict
            self._store(resolved[i], verdict)
        return BatchResult(
            verdicts=verdicts,
            jobs=workers,
            wall_seconds=time.perf_counter() - started,
            hits=len(resolved) - len(misses),
            misses=len(misses),
        )

    # ------------------------------------------------------------------

    def _lookup(self, resolved: _Resolved) -> Optional[Verdict]:
        if self.cache is None:
            return None
        return self.cache.get(resolved.key, decode=_cached_verdict)

    def _store(self, resolved: _Resolved, verdict: Verdict) -> None:
        if self.cache is None:
            return
        self.cache.put(resolved.key, verdict.name, verdict.to_payload())

    def _explore(self, resolved: _Resolved) -> Verdict:
        """The single-request body: run one resolved request's search.

        ``run_request`` calls it in process and ``run_batch``'s workers
        call it on an engine with no cache; it never reads or writes the
        cache itself.
        """
        from ..litmus.runner import run_litmus

        result = run_litmus(
            resolved.test,
            self.model,
            params=self.params,
            max_states=resolved.max_states,
            reduction=resolved.reduction,
            context_bound=resolved.context_bound,
        )
        exploration = result.exploration
        return Verdict(
            name=resolved.name,
            status=result.status,
            quantifier=resolved.test.quantifier,
            witnessed=result.witnessed,
            holds_always=result.holds_always,
            complete=exploration.complete,
            outcomes=frozenset(result.outcomes),
            outcome_lines=tuple(result.outcome_table()),
            stats=_stats_to_dict(exploration.stats),
            error=exploration.stop_reason,
            key=resolved.key,
        )
