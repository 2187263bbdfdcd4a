"""Verdict-preserving partial-order reduction: sleep sets + context bounds.

The exhaustive oracle's state space is dominated by interleavings of
*commuting* transitions: storage propagations of writes to different
locations, and thread-side steps of different threads that do not touch
the same storage state.  Exploring every ordering of a commuting pair
doubles work without ever changing the reachable outcome envelope.  This
module supplies the two pruning mechanisms the search driver
(``core.run_search``) applies when a search asks for them:

* **Sleep sets** (Godefroid).  After exploring transition ``t`` from a
  state, every sibling ``z`` that is *independent* of ``t`` enters the
  ``t``-successor's sleep set: the interleaving ``z;t;...`` need not be
  explored below ``t`` because it is equivalent to ``t;z;...``, which
  the ``z``-sibling's subtree covers.  Sleeping transitions are pruned,
  and survive into grandchildren as long as the transitions actually
  taken stay independent of them.  Because sleep-set pruning interacts
  with state caching, the seen "set" becomes a map from state key to
  the *intersection* of every arrival's sleep set (Godefroid's
  state-caching variant): an arrival whose sleep set contains the
  stored one is pruned outright, and a partially-covered arrival
  re-explores only the woken difference ``stored - sleep``.

* **Context bounds** (context-bounded model checking, cf. PAPERS.md).
  A path that switches the acting thread more than ``context_bound``
  times is cut.  Any pruning makes the result a partial outcome set;
  the engine records it (``Reducer.truncated``) and ``SequentialDFS``
  reports it through ``ExplorationResult.stop_reason`` (so
  ``complete = False``) -- the same partial-result shape as a search
  whose state budget runs out.

Independence relation
---------------------

Two transitions enabled in the same state are *independent* when they
commute: each stays enabled after the other and both orders reach
states with identical continuations and outcomes.  The relation here is
a conservative under-approximation derived from the transition kinds in
``system.py`` / ``storage.py`` (see PERFORMANCE.md for the full
argument against the ``_dirty_threads`` invariants):

* An explicit ``ack_sync`` is kept dependent on everything (the eager
  closure takes every enabled acknowledgement, so a search never lists
  one).  A ``propagate_barrier`` that delivers a sync's event to
  the *last* missing thread triggers the acknowledgement eagerly
  inside ``apply`` (``_completes_sync``); since eager steps read only
  their own thread's state plus the acknowledged-sync set, that
  side effect's observable scope is the sync's *origin* thread, and
  the completing step is additionally dependent on the origin's
  thread-side transitions (and on other completing steps -- two acks
  reorder the set updates and closures).
* Other barrier traffic (``commit_barrier``, ``propagate_barrier``)
  matters exactly where the barrier *event* lands: the tail of one
  thread's propagation list.  Propagation lists only ever append, so a
  barrier step never enters the backward scans (Group-A prefixes,
  coherence-point blocker windows) of events already in any list --
  the step is dependent only on transitions that append to the *same*
  thread's list, on same-thread thread-side steps (for
  ``commit_barrier``), and on barrier steps landing in the same list;
  everything else, including two barrier events landing in different
  lists, commutes exactly.
* ``reach_coherence_point`` reads the cp status of writes around
  barriers (write-write cumulativity), but other cp commits only ever
  *enable* it (blockers leave, never join), appends land after the
  write's scan window, and its own effect -- coherence edges plus the
  cps set -- stays inside the write's overlap component: the footprint
  check below suffices.
* The same write propagating to two different target threads is an
  exact diamond (disjoint list appends, coherence edges into the write,
  Group-A prefix in the untouched origin list): always independent.
* Thread-side transitions of the *same* thread are dependent (they
  contend on one thread's state, including its eager closure).  A
  propagation *into* a thread is not thread-side: it disturbs no eager
  fixpoint (``_dirty_threads``) and every thread-visible read of the
  propagation list -- read responses, reservation validity, the
  coherence placement of commits -- consults only footprint-overlapping
  entries, so propagation/thread pairs reduce to the footprint check.
* Everything else interferes only through storage *locations*: each
  transition gets a footprint of written byte ranges (``mut``) and
  coherence-observing byte ranges (``obs``), closed over the connected
  components of the overlap graph of all accepted writes (coherence
  edges never leave a component, so disjoint components share no
  coherence, propagation-order or atomicity constraints).  Two
  transitions are dependent iff one's ``mut`` intersects the other's
  ``mut`` or ``obs`` under that closure.

Propagations of non-interfering writes to the *same* thread commute
only up to the order of that thread's propagation list -- the two
orders produce key-distinct states.  Every thread-visible function of
the list (read values and provenance, Group-A membership, coherence
placement, coherence-point blocking, final-memory enumeration) is
insensitive to the relative order of non-overlapping writes, so the two
states are observationally equivalent and pruning one order preserves
the outcome envelope; this is exactly the exponential the seen-set can
never deduplicate on its own.

Every *other* independent pair commutes exactly: both orders reach
key-identical states.  ``Reducer.commutes_exactly`` is that restriction
(no shared propagation list); the unreduced search uses it to take the
second edge of a commuting diamond from the first's record instead of
applying it (``core.run_search``, PERFORMANCE.md "Commuting-diamond
successor reuse").
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from ..system import SystemState, Transition

#: A sync acknowledgement unblocks the sync's thread and feeds every
#: Group-A check: dependent on everything, never reduced.
GLOBAL_KINDS = frozenset({"ack_sync"})

#: Kinds that land a barrier event at the tail of one thread's
#: propagation list; dependence is scoped to that list (plus the eager
#: acknowledgement a completing sync propagation triggers).
BARRIER_KINDS = frozenset({"commit_barrier", "propagate_barrier"})

#: Kinds that append an event to the acting/target thread's
#: propagation list (``resolve_sc`` appends only on success, handled
#: in ``_append_targets``).
_APPENDING_KINDS = frozenset(
    {"propagate_write", "propagate_barrier", "commit_store",
     "commit_barrier"}
)

#: Thread-side read satisfaction: consults only the reading thread's
#: own state and propagation list -- never the coherence-point set.
_READ_KINDS = frozenset({"satisfy_read_storage", "satisfy_read_forward"})

#: Bound on the per-search memo tables (footprints, overlap components).
_CACHE_LIMIT = 65536


def _tail_cp_blocker(state: SystemState, target: int) -> bool:
    """Would a write appended to ``target``'s list gain a cp blocker?

    Mirrors ``Storage._has_cp_blocker`` for a hypothetical tail append
    of a settled-overlap write: only the barrier window matters (any
    write before the list's last barrier not yet past its coherence
    point; the overlap branch is vacuous by assumption).
    """
    storage = state.storage
    events = storage.events_propagated_to[target]
    last_barrier = -1
    for i in range(len(events) - 1, -1, -1):
        if events[i][0] == "b":
            last_barrier = i
            break
    if last_barrier < 0:
        return False
    cps = storage.coherence_points
    return any(
        events[i][0] == "w" and events[i][1] not in cps
        for i in range(last_barrier)
    )


#: The ``reduction`` modes, weakest first.
REDUCTIONS = ("none", "sleep", "dpor")


class Reducer:
    """Per-search pruning engine: sleep sets and/or a context bound.

    One instance lives for the duration of one ``run_search``; it
    carries the mutable pruning state the frozen ``SequentialDFS``
    dataclass cannot: memo tables and the ``truncated`` flag that downgrades
    results to ``complete=False``.
    """

    def __init__(self, reduction: str = "none",
                 context_bound: Optional[int] = None):
        if reduction not in REDUCTIONS:
            raise ValueError(
                f"unknown reduction {reduction!r} "
                "(choose none, sleep or dpor)"
            )
        # dpor layers source sets on top of the sleep-set machinery, so
        # both flags hold for it; the drivers dispatch on ``dpor`` first.
        self.sleep = reduction in ("sleep", "dpor")
        self.dpor = reduction == "dpor"
        self.context_bound = context_bound
        #: Set when any pruning was *lossy* (a context-bound cut): the
        #: outcome set is then a sound under-approximation, not the
        #: envelope.  Sleep-set pruning is verdict-preserving and does
        #: not set this.
        self.truncated = False
        # (overlap components per storage-write population, footprints
        # per accepted write) -- both pure functions of their keys.
        self._components: Dict[object, List[Tuple[int, int]]] = {}
        self._write_footprints: Dict[object, tuple] = {}

    # -- context bounding --------------------------------------------------

    @staticmethod
    def acting_thread(transition: Transition) -> Optional[int]:
        """The thread a transition charges a context switch to.

        Thread-side transitions act on their own thread; storage-side
        transitions belong to no execution context (the storage
        subsystem is not a scheduled thread).
        """
        if transition.ioid is not None:
            return transition.tid
        return None

    def within_bound(self, context: Tuple[Optional[int], int],
                     transition: Transition) -> bool:
        """May ``transition`` extend a path in ``context`` -- and if not,
        record that the search is now lossy."""
        if self.context_bound is None:
            return True
        _tid, switches = self.advance_context(context, transition)
        if switches > self.context_bound:
            self.truncated = True
            return False
        return True

    @staticmethod
    def advance_context(context: Tuple[Optional[int], int],
                        transition: Transition) -> Tuple[Optional[int], int]:
        """The (acting thread, switch count) context after a transition."""
        tid, switches = context
        acting = Reducer.acting_thread(transition)
        if acting is None or acting == tid:
            return (tid if acting is None else acting, switches)
        return (acting, switches if tid is None else switches + 1)

    # -- the independence relation ----------------------------------------

    def independent(self, state: SystemState, a: Transition,
                    b: Transition) -> bool:
        """Conservative commutation test for two transitions at ``state``."""
        a_kind = a.kind
        b_kind = b.kind
        if a_kind in GLOBAL_KINDS or b_kind in GLOBAL_KINDS:
            return False
        a_bar = a_kind in BARRIER_KINDS
        b_bar = b_kind in BARRIER_KINDS
        if a_bar or b_bar:
            if a_bar and b_bar:
                # Two barrier steps append to their respective ``tid``
                # lists: disjoint tails commute exactly.  A completing
                # sync propagation additionally acknowledges and
                # re-closes the sync's origin thread, so two completing
                # steps (two acks) or a completion paired with the
                # origin's own ``commit_barrier`` stay dependent; the
                # order of two barrier events within *one* list is
                # conservatively dependent.
                if a.tid == b.tid:
                    return False
                comp_a = self._completes_sync(state, a)
                comp_b = self._completes_sync(state, b)
                if comp_a and comp_b:
                    return False
                if comp_a or comp_b:
                    comp, oth = (a, b) if comp_a else (b, a)
                    if oth.tid == comp.detail[0].tid:
                        return False
                return True
            barrier, other = (a, b) if a_bar else (b, a)
            if self._completes_sync(state, barrier) and (
                other.ioid is not None
                and other.tid == _sync_origin(barrier)
            ):
                # Delivering a sync's event to its last missing thread
                # acknowledges it eagerly inside ``apply``; the
                # acknowledgement's observable scope is the sync's
                # origin thread (eager steps read only their own
                # thread's state plus the acknowledged-sync set), so
                # the completion contends with that thread's
                # thread-side steps.
                return False
            if barrier.tid in _append_targets(other):
                # Barrier/event order within one propagation list is
                # semantically significant (coherence-point blocker
                # windows, Group-A prefixes of later events).
                return False
            if (
                barrier.ioid is not None
                and other.ioid is not None
                and other.tid == barrier.tid
            ):
                # ``commit_barrier`` vs thread-side steps of its own
                # thread: ordinary same-thread contention (po-previous
                # barrier commitment gates reads, eager closure).
                return False
            # Appends to *other* lists never precede existing events,
            # so they stay out of every backward scan the barrier's
            # enabledness performs; non-appending thread-side steps of
            # the target consult only their own thread's po-previous
            # barriers and the (separately gated) acknowledged-sync
            # set -- and barrier events carry no data footprint.
            return True
        a_prop = a_kind == "propagate_write"
        b_prop = b_kind == "propagate_write"
        if a_prop and b_prop and a.detail[0] == b.detail[0]:
            # The same write propagating to two different threads:
            # appends to disjoint per-thread lists, coherence edges all
            # point *into* the write, the Group-A prefix lives in the
            # origin thread's (untouched) list -- an exact diamond.
            return True
        if a.ioid is not None and b.ioid is not None and a.tid == b.tid:
            # Two transitions of the same thread contend on that
            # thread's instruction state (including its eager closure).
            # A *propagation into* the thread is not in this class:
            # ``_dirty_threads`` proves propagations disturb no eager
            # fixpoint, and every thread-visible read of the propagation
            # list (read responses, reservation validity, coherence
            # placement of commits) consults only footprint-overlapping
            # entries -- so those pairs fall through to the footprint
            # check below.
            return False
        if (
            a.ioid is not None and b.ioid is not None
            and a_kind != "resolve_sc" and b_kind != "resolve_sc"
        ):
            # Thread-side steps of *different* threads (same-thread
            # pairs were rejected above), neither a store-conditional
            # resolution: each consults and mutates only its own
            # thread's state, reservation and propagation list.  A
            # committed store lands in the origin's own list and draws
            # coherence edges only against that list -- the new write
            # is in no other list, so no read response, coherence
            # restart check or reservation elsewhere can tell the
            # orders apart.
            return True
        verdict = self._settled_write_scope(state, a, b)
        if verdict is not None:
            return verdict
        mut_a, obs_a = self._footprint(state, a)
        mut_b, obs_b = self._footprint(state, b)
        if not mut_a and not mut_b:
            return True
        components = self._overlap_components(state)
        spans_a_mut = _close(components, mut_a)
        spans_b_mut = _close(components, mut_b)
        if _intersects(spans_a_mut, _close(components, obs_b) + spans_b_mut):
            return False
        if _intersects(spans_b_mut, _close(components, obs_a) + spans_a_mut):
            return False
        return True

    def commutes_exactly(self, state: SystemState, a: Transition,
                         b: Transition) -> bool:
        """Do both orders of ``a`` and ``b`` reach key-identical states?

        ``independent`` minus the pairs that append to one propagation
        list, which commute only up to that list's order.  Callers rule
        out states with a recorded store-conditional atomicity pair.
        """
        targets = _append_targets(a)
        if targets and targets == _append_targets(b):
            return False
        return self.independent(state, a, b)

    def _completes_sync(self, state: SystemState,
                        transition: Transition) -> bool:
        """Would this barrier step make a sync acknowledgeable?

        ``apply`` acknowledges an ackable sync eagerly, so a barrier
        step that completes one carries a globally visible effect (the
        sync's thread unblocks) on top of its list append.  Mirrors
        ``Storage.can_acknowledge_sync`` one append ahead.
        """
        storage = state.storage
        if transition.kind == "commit_barrier":
            # The committed event lands only in the committing thread's
            # own list; it can complete a sync only when that list is
            # the only one.
            return len(storage.threads) <= 1
        bid = transition.detail[0]
        if bid not in storage.unacknowledged_syncs:
            return False
        event = ("b", bid)
        return all(
            event in storage._events_pos[tid]
            for tid in storage.threads
            if tid != transition.tid
        )

    def _settled_write_scope(self, state: SystemState, a: Transition,
                             b: Transition) -> Optional[bool]:
        """Exact scoping for storage steps of *settled-overlap* writes.

        A write all of whose overlapping writes are settled (past their
        coherence points and present in every propagation list -- e.g.
        initial memory, which ``accept_initial_writes`` installs that
        way) adds no new coherence edge when it propagates or commits
        its coherence point: the edges its loops would add already
        exist (``accept_write`` drew them against the origin list,
        which held every settled write).  Its steps' effects shrink to

        * ``propagate_write`` -- one tail append to the target list:
          commutes with every thread-side step of *other* threads (they
          consult only their own thread's state and list);
        * ``reach_coherence_point`` -- the ``cps``-set gains the wid:
          commutes with read satisfaction (options and values derive
          from the reader's list content alone, never ``cps``), and
          with the write's own propagation unless the append lands
          behind a barrier with a non-cp'd write before it (which would
          create a ``_has_cp_blocker`` entry and disable the cp step).

        Returns ``True`` for those pairs, ``None`` (fall through to the
        footprint check) otherwise -- never ``False``.
        """
        for x, y in ((a, b), (b, a)):
            if x.kind == "propagate_write":
                wid = x.detail[0]
                if (
                    y.ioid is not None
                    and y.tid != x.tid
                    and self._overlaps_settled(state, wid)
                ):
                    return True
                if (
                    y.kind == "reach_coherence_point"
                    and y.detail[0] == wid
                    and self._overlaps_settled(state, wid)
                    and not _tail_cp_blocker(state, x.tid)
                ):
                    return True
            elif (
                x.kind == "reach_coherence_point"
                and y.kind in _READ_KINDS
                and self._overlaps_settled(state, x.detail[0])
            ):
                return True
        return None

    @staticmethod
    def _overlaps_settled(state: SystemState, wid) -> bool:
        """Is every write overlapping ``wid`` past its coherence point
        and present in every thread's propagation list?"""
        storage = state.storage
        cps = storage.coherence_points
        for other in storage._overlaps.get(wid, ()):
            if other not in cps:
                return False
            event = ("w", other)
            for tid in storage.threads:
                if event not in storage._events_pos[tid]:
                    return False
        return True

    def _footprint(self, state: SystemState, transition: Transition):
        """(written ranges, coherence-observing ranges) of a transition.

        Write-keyed kinds are memoised (a ``WriteId``'s address and
        size never change once accepted).  Thread-side footprints are
        *not*: a computed address can differ between two paths whose
        enumeration produced equal ``Transition`` values, so an
        equality-keyed memo could serve a stale footprint.
        """
        kind = transition.kind
        if kind == "propagate_write" or kind == "reach_coherence_point":
            wid = transition.detail[0]
            cached = self._write_footprints.get(wid)
            if cached is None:
                write = state.storage.writes_seen[wid]
                ranges = ((write.addr, write.size),)
                cached = (ranges, ranges)
                if len(self._write_footprints) >= _CACHE_LIMIT:
                    self._write_footprints.clear()
                self._write_footprints[wid] = cached
            return cached
        if kind == "commit_store":
            instance = state.threads[transition.tid].instances[transition.ioid]
            ranges = tuple(
                (write.addr, write.size) for write in instance.mem_writes
            )
            return (ranges, ranges)
        if kind == "resolve_sc":
            instance = state.threads[transition.tid].instances[transition.ioid]
            _, addr, size, _value, _pending = instance.mos
            ranges = ((addr, size),)
            # The failing resolution writes nothing, but both detail
            # variants share enabledness conditions over the reserved
            # location; treat them uniformly.
            return (ranges if transition.detail[0] else (), ranges)
        if kind == "satisfy_read_storage":
            instance = state.threads[transition.tid].instances[transition.ioid]
            _, _rkind, addr, size, _pending = instance.mos
            # Reads mutate no storage but their CoRR restart check
            # observes the coherence order over their footprint.
            return ((), ((addr, size),))
        # satisfy_read_forward: thread-internal.
        return ((), ())

    def _overlap_components(self, state: SystemState):
        """Disjoint address intervals covering each overlap component.

        Coherence edges connect only overlapping writes, so the
        connected components of the overlap graph bound how far any
        coherence/atomicity constraint can reach.  Merging the sorted
        write intervals wherever they intersect yields exactly one
        interval per component.
        """
        storage = state.storage
        cache_key = storage._writes_key
        if cache_key is None:
            cache_key = tuple(sorted(storage.writes_seen))
        components = self._components.get(cache_key)
        if components is not None:
            return components
        merged: List[Tuple[int, int]] = []
        for write in sorted(
            storage.writes_seen.values(), key=lambda w: w.addr
        ):
            end = write.addr + write.size
            if merged and write.addr < merged[-1][1]:
                if end > merged[-1][1]:
                    merged[-1] = (merged[-1][0], end)
            else:
                merged.append((write.addr, end))
        if len(self._components) >= _CACHE_LIMIT:
            self._components.clear()
        self._components[cache_key] = merged
        return merged


def _sync_origin(transition: Transition) -> Optional[int]:
    """The thread a completing barrier step's acknowledgement unblocks."""
    if transition.kind == "propagate_barrier":
        return transition.detail[0].tid
    return transition.tid  # commit_barrier: its own thread


def _append_targets(transition: Transition) -> Tuple[int, ...]:
    """Threads whose propagation list the transition appends events to."""
    if transition.kind in _APPENDING_KINDS:
        return (transition.tid,)
    if transition.kind == "resolve_sc" and transition.detail[0]:
        # A successful store-conditional commits its write.
        return (transition.tid,)
    return ()


def _close(components: List[Tuple[int, int]],
           ranges) -> List[Tuple[int, int]]:
    """Expand byte ranges to the overlap components they touch."""
    closed: List[Tuple[int, int]] = []
    starts = [start for start, _end in components]
    for addr, size in ranges:
        end = addr + size
        closed.append((addr, end))
        index = bisect_right(starts, addr) - 1
        # Components intersecting [addr, end): at most a few; scan.
        if index < 0:
            index = 0
        for start, comp_end in components[index:]:
            if start >= end:
                break
            if comp_end > addr:
                closed.append((start, comp_end))
    return closed


def _intersects(spans_a: List[Tuple[int, int]],
                spans_b: List[Tuple[int, int]]) -> bool:
    for a_start, a_end in spans_a:
        for b_start, b_end in spans_b:
            if a_start < b_end and b_start < a_end:
                return True
    return False


def make_reducer(reduction: str = "none",
                 context_bound: Optional[int] = None) -> Optional[Reducer]:
    """A ``Reducer`` when any pruning is requested, else ``None``.

    ``None`` selects the unreduced driver, whose counters stay
    bit-identical to the reference engine's.
    """
    if reduction == "none" and context_bound is None:
        return None
    return Reducer(reduction, context_bound)
