"""Envelope-oracle harness for generated concurrent tests (section 7).

The diy-generated suite comes with *a priori* architectural expectations:
a critical cycle is forbidden exactly when every thread segment of the
cycle maintains its endpoints in order, and allowed as soon as one
segment is a genuine relaxation.  A segment's guarantee is the
*composition* of the guarantees along it, not an edge-by-edge property:
a ``sync`` orders every access po-before it against every access
po-after it, so ``SyncdWW;PodWW`` is still maintained end to end, and an
unresolved address or branch keeps every po-later store from committing,
which is exactly the paper's section 2.1.6 LB+addrs+WW / LB+datas+WW
split.  ``_run_maintained`` encodes the per-thread ordering rules
(validated empirically against the model and the published tables):

* ``sync`` orders all access pairs across it; ``lwsync`` all but
  store-load; ``eieio`` store-store only.
* Address dependencies order the read before the dependent access; data
  dependencies order the read before the dependent store; control
  dependencies order the read before a dependent *store* but not a
  dependent load (branches are speculated); control+isync orders the
  read before everything po-later (the refetch discards speculation).
* Any address or control dependency additionally blocks every po-later
  store from committing (the store might conflict / must not commit
  speculatively), so plain po *to a store* after such a dependency is
  maintained by composition.

Cycle-level expectations:

* every segment maintained by ``sync`` alone -- Forbidden for any thread
  count (sync is A- and B-cumulative);
* two threads, every segment maintained -- Forbidden (no multi-copy
  visibility to lose);
* some segment not maintained -- Allowed (a critical cycle with one
  relaxed step is observable);
* otherwise -- the closure abstains (``closure_expectation`` returns
  ``None``) and ``expectation`` falls back to the axiomatic
  commit/propagation-order solver (``testgen.axiomatic``), which
  decides the remaining classes: write-started lwsync/eieio segments
  into ``Wse`` (the R+lwsync+sync family) and cumulativity-sensitive
  3+-thread cycles (WRC+addrs vs WRC+lwsync+addr).

``check_suite`` runs a generated suite through the exhaustive explorer
(via the parallel corpus runner) and reports every test whose verdict
contradicts its expectation; each check records which oracle tier
decided it (``OracleCheck.oracle``).  A search the state budget stops
still checks the verdict its partial outcomes prove (an "Allowed"
witness); only a "StateLimit" verdict is reported as a skip, not a
violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from ..concurrency.params import DEFAULT_PARAMS, ModelParams
from ..litmus.diy import Edge, GeneratedTest

#: Dependency edges whose unresolved input blocks every po-later store.
_BLOCKING_DEPS = frozenset(
    {"DpAddrdR", "DpAddrdW", "DpCtrldR", "DpCtrldW", "DpCtrlIsyncdR"}
)


def thread_runs(
    edges: Sequence[Edge],
) -> List[Tuple[List[str], List[Edge], Edge]]:
    """Split a cycle into per-thread segments.

    Each segment is ``(directions, internal_edges, out_edge)``: the
    directions of its events (length k+1), the k internal edges between
    them, and the external edge leaving the segment.  The cycle must be
    rotated so its last edge is external (as ``diy._build_rotation``
    guarantees); segments then start at every external-edge target.
    """
    runs: List[Tuple[List[str], List[Edge], Edge]] = []
    directions: List[str] = []
    internals: List[Edge] = []
    for edge in edges:
        directions.append(edge.src)
        if edge.external:
            runs.append((directions, internals, edge))
            directions, internals = [], []
        else:
            internals.append(edge)
    if directions:
        raise ValueError("cycle must be rotated to end on an external edge")
    return runs


#: Internal bases whose ordering survives feeding a coherence (Wse) edge
#: in a cycle that contains reads: full sync, and dependencies (a
#: dependent store's coherence point waits for the read to bind).
#: lwsync and eieio order only the writes' *coherence points*, which a
#: read elsewhere in the cycle cannot observe (R+lwsync+sync is allowed).
_COHERENCE_SAFE_BASES = frozenset(
    {"Syncd", "DpAddrd", "DpDatad", "DpCtrld", "DpCtrlIsyncd"}
)


def _ordered_pairs(
    directions: Sequence[str],
    internals: Sequence[Edge],
    bases: Optional[frozenset] = None,
) -> Set[Tuple[int, int]]:
    """All event pairs (i, j) the architecture orders within one segment.

    ``bases`` restricts which edge bases may contribute ordering (used
    for the sync-only and coherence-safe closures).
    """
    count = len(directions)
    ordered: Set[Tuple[int, int]] = set()
    for gap, edge in enumerate(internals):
        if bases is not None and edge.base not in bases:
            continue
        before = range(gap + 1)
        after = range(gap + 1, count)
        if edge.base == "Syncd":
            ordered.update((i, j) for i in before for j in after)
        elif edge.base == "LwSyncd":
            ordered.update(
                (i, j)
                for i in before
                for j in after
                if not (directions[i] == "W" and directions[j] == "R")
            )
        elif edge.base == "Eieiod":
            ordered.update(
                (i, j)
                for i in before
                for j in after
                if directions[i] == "W" and directions[j] == "W"
            )
        elif edge.base in ("DpAddrd", "DpDatad"):
            ordered.add((gap, gap + 1))
        elif edge.base == "DpCtrld":
            if edge.tgt == "W":
                ordered.add((gap, gap + 1))
        elif edge.base == "DpCtrlIsyncd":
            # The isync refetch after the dependent branch orders the
            # read before everything po-later.
            ordered.update((gap, j) for j in after)
        if edge.name in _BLOCKING_DEPS:
            if edge.name == "DpAddrdW":
                # A store with an undetermined address blocks po-later
                # stores from committing *and* po-later loads from being
                # satisfied (they might have to forward from it).
                ordered.update((gap, j) for j in after)
            else:
                ordered.update(
                    (gap, j) for j in after if directions[j] == "W"
                )
    return ordered


def _transitively_reachable(
    pairs: Set[Tuple[int, int]], start: int, end: int
) -> bool:
    frontier = [start]
    seen = {start}
    while frontier:
        node = frontier.pop()
        if node == end:
            return True
        for i, j in pairs:
            if i == node and j not in seen:
                seen.add(j)
                frontier.append(j)
    return end in seen


def run_maintained(
    directions: Sequence[str],
    internals: Sequence[Edge],
    bases: Optional[frozenset] = None,
) -> bool:
    """Is the segment's first event ordered before its last?

    ``bases`` restricts which edge bases contribute (``{"Syncd"}`` gives
    the criterion for the cumulativity-proof all-sync rule).
    """
    if len(directions) <= 1:
        return True
    pairs = _ordered_pairs(directions, internals, bases=bases)
    return _transitively_reachable(pairs, 0, len(directions) - 1)


def _run_status(
    directions: Sequence[str],
    internals: Sequence[Edge],
    out_edge: Edge,
    all_wse: bool,
) -> str:
    """One segment's verdict: "maintained", "relaxed" or "weak".

    When every communication edge of the cycle is ``Wse`` (``all_wse``)
    the cycle lives entirely in the storage subsystem's commit order,
    where lwsync/eieio coherence-point ordering is exactly what is
    needed (2+2W+lwsyncs and 2+2W+eieios are forbidden), so the plain
    closure decides.  In a cycle that observes through reads, a segment
    feeding a ``Wse`` edge must deliver more than coherence-point order:

    * sync, dependencies and commit-blocking still do (R+syncs and
      S+sync+addr are forbidden);
    * a segment *starting with a read* is anchored at that read's
      satisfaction -- the thread has seen the incoming write chain, and
      its final store must commit coherence-after everything it saw
      (S+lwsyncs is forbidden);
    * a write-started segment held together only by lwsync/eieio is
      genuinely ambiguous -- R+lwsync+sync and R+eieio+sync are allowed
      (coherence-point order does not make a read elsewhere observe the
      first write) but all-Wse contexts still forbid -- so it is "weak"
      and the cycle gets no expectation.
    """
    full = run_maintained(directions, internals)
    if all_wse or out_edge.base != "Wse":
        return "maintained" if full else "relaxed"
    if run_maintained(directions, internals, bases=_COHERENCE_SAFE_BASES):
        return "maintained"
    if not full:
        return "relaxed"
    if directions[0] == "R":
        return "maintained"
    return "weak"


def closure_expectation(edges: Sequence[Edge]) -> Optional[str]:
    """The composition-closure invariant, or ``None`` if it cannot decide.

    This is the fast per-segment analysis; ``expectation`` falls back to
    the axiomatic solver (``testgen.axiomatic``) for the ``None`` cases.
    """
    runs = thread_runs(edges)
    all_wse = all(out.base == "Wse" for _dirs, _internals, out in runs)
    statuses = [
        _run_status(directions, internals, out, all_wse)
        for directions, internals, out in runs
    ]
    if any(status == "relaxed" for status in statuses):
        return "Allowed"
    if any(status == "weak" for status in statuses):
        return None
    if all(
        run_maintained(directions, internals, bases=frozenset({"Syncd"}))
        for directions, internals, _out in runs
    ):
        return "Forbidden"
    if len(runs) == 2:
        return "Forbidden"
    return None  # cumulativity-sensitive: not asserted here


def expectation(
    edges: Sequence[Edge], axiomatic: bool = True
) -> Optional[str]:
    """The envelope invariant for one cycle.

    The composition closure decides first (it is cheap and validated
    family by family); the cases it leaves open -- write-started
    lwsync/eieio segments into ``Wse`` and cumulativity-sensitive
    3+-thread cycles -- fall back to the axiomatic commit/propagation
    solver, which decides every well-formed cycle.  ``axiomatic=False``
    restores the closure-only behaviour (and its ``None`` verdicts).
    """
    if not axiomatic:
        return closure_expectation(edges)
    return expectation_with_oracle(edges)[0]


def expectation_with_oracle(
    edges: Sequence[Edge],
) -> Tuple[Optional[str], Optional[str]]:
    """Like ``expectation`` but names the deciding oracle.

    Returns ``(verdict, "closure" | "axiomatic")``.
    """
    verdict = closure_expectation(edges)
    if verdict is not None:
        return verdict, "closure"
    from .axiomatic import decide

    return decide(edges).status, "axiomatic"


@dataclass
class OracleCheck:
    """One generated test's verdict against its envelope expectation."""

    name: str
    family: str
    edge_names: Sequence[str]
    expected: Optional[str]  # None: no invariant asserted
    status: str  # model verdict, or "StateLimit"
    ok: Optional[bool]  # None when skipped/unasserted
    error: Optional[str] = None
    oracle: Optional[str] = None  # "closure" | "axiomatic"


@dataclass
class OracleReport:
    """Suite-level outcome of an oracle-invariant run."""

    checks: List[OracleCheck]
    jobs: int
    wall_seconds: float
    stats: "object" = None  # merged ExplorationStats

    @property
    def violations(self) -> List[OracleCheck]:
        return [check for check in self.checks if check.ok is False]

    @property
    def checked(self) -> int:
        return sum(1 for check in self.checks if check.ok is not None)

    @property
    def skipped(self) -> int:
        return sum(
            1
            for check in self.checks
            if check.ok is None and check.status == "StateLimit"
        )

    @property
    def unasserted(self) -> int:
        return sum(
            1
            for check in self.checks
            if check.ok is None and check.status != "StateLimit"
        )

    @property
    def solver_decided(self) -> int:
        """Checks whose expectation came from the axiomatic solver."""
        return sum(1 for check in self.checks if check.oracle == "axiomatic")

    @property
    def sound(self) -> bool:
        return not self.violations


def check_suite(
    tests: Sequence[GeneratedTest],
    jobs: Optional[int] = None,
    params: ModelParams = DEFAULT_PARAMS,
    max_states: Optional[int] = 150_000,
    reduction: str = "none",
    context_bound: Optional[int] = None,
    engine=None,
) -> OracleReport:
    """Run a generated suite and check every envelope invariant.

    The suite runs as one batch through the service engine
    (``repro.service.EnvelopeEngine.run_batch``): tests run one per
    worker within a ``jobs`` worker budget, and -- when ``engine``
    carries a ``VerdictCache`` -- previously-decided tests are answered
    from the cache instead of re-explored.  ``max_states`` bounds each
    test's exploration: a blowup keeps the outcomes found before the
    budget ran out, so a witness among them is still checked against
    the expectation, and a universal claim becomes a "StateLimit" skip,
    not a failure.  ``reduction="sleep"`` prunes commuting
    interleavings while preserving every verdict; ``context_bound``
    trades completeness for speed (a truncated test keeps its partial
    outcomes the same way).  ``reduction="dpor"`` layers source sets and
    canonical state keys on top of sleep sets.
    """
    from ..service.engine import EngineRequest, EnvelopeEngine

    if engine is None:
        engine = EnvelopeEngine(params=params)
    requests = [
        EngineRequest(
            source=test.source,
            name=test.name,
            reduction=reduction,
            context_bound=context_bound,
            max_states=max_states,
        )
        for test in tests
    ]
    batch = engine.run_batch(requests, jobs=jobs)
    checks: List[OracleCheck] = []
    for test, verdict in zip(tests, batch.verdicts):
        expected, oracle = expectation_with_oracle(test.edges)
        if verdict.status == "StateLimit" or expected is None:
            ok: Optional[bool] = None
        else:
            ok = verdict.status == expected
        checks.append(
            OracleCheck(
                name=test.name,
                family=test.family,
                edge_names=test.edge_names,
                expected=expected,
                status=verdict.status,
                ok=ok,
                error=verdict.error,
                oracle=oracle,
            )
        )
    return OracleReport(
        checks=checks,
        jobs=batch.jobs,
        wall_seconds=batch.wall_seconds,
        stats=batch.merged_stats(),
    )
