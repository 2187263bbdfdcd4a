"""Source-DPOR exploration over canonical state keys.

``run_dpor`` is the ``--reduction dpor`` driver ``core.run_search``
dispatches to: a depth-first search with explicit frames (one per state
on the current path) combining three layers:

1. **Canonical seen keys** (``symmetry.CanonicalKeys``): states are
   deduplicated modulo the commuting normal form of their propagation
   lists.  ``reduction.py`` establishes that normal-form-equal states
   are observationally equivalent with *identical* enabled transition
   sets, so merging them (and sharing their per-state bookkeeping)
   preserves the outcome envelope.

2. **Sleep sets** exactly as the ``--reduction sleep`` loop: after
   exploring ``t``, independent siblings (the fine state-conditional
   ``Reducer.independent`` relation) sleep below it.

3. **Source-DPOR race detection** (Abdulla, Aronis, Jonsson, Sagonas:
   source sets without wakeup trees -- sound, not minimal): each frame
   starts with a *single* enabled transition in its backtrack set; when
   a step taken at depth ``d`` races with an earlier step at depth
   ``i`` (the race is detected over an *abstract* dependence relation
   on cell-level footprints, a sound over-approximation of
   ``Reducer.independent``'s negation unioned over states -- barrier
   steps are scoped to their propagation list, appends into it, their
   may-complete sync's origin thread, and other may-completing syncs,
   not treated as dependent on everything -- with happens-before
   tracked as transitively-closed bitmask chains), the reversal is
   scheduled at frame ``i``: the racing transition itself is added
   when an equal-valued transition is enabled at ``i`` and the step is
   happens-before-independent of every intermediate step (a *weak
   initial* of the reversing sequence -- because ``_absdep`` unions
   the fine relation over states, hb-clearness means the step commutes
   with the whole intermediate sequence at every state, so this is
   sound for any kind); otherwise the frame *saturates*
   (backtrack := every awake transition), which trivially contains any
   source set.

Revisits are *stateful*: a seen entry stores the transitions already
explored from the state plus a **blob** summary (thread ids, touched
cells, list-append targets, barrier targets and may-complete sync
origins, global-kind flag) of every step in its covered subtree.  An
arrival whose awake set is covered is pruned; a partially-covered
arrival resumes a frame over the difference.  Either way the stored
blob is replayed against every frame on the path (saturating the
dependent ones -- the aggregate stands in for per-step race replay,
trading precision for per-arrival cost) and merged into the parent's
accumulating blob.
Entries are final whenever consulted: a frame for key ``K`` on the
stack means the current state descends from ``K``, so a second arrival
at ``K`` would close a cycle -- impossible in the DAG of states.

On conflict-dense tests saturation makes the race layer degrade toward
plain sleep sets over canonical keys; the measured win (PERFORMANCE.md)
comes primarily from the canonical-key quotient, with the race layer
pruning the sparse-conflict shapes.

The race layer is integer arithmetic throughout: a step summary's cell
footprints are cell bitmasks (``symmetry._Geometry.cells_of_range``),
and a blob's thread sets are ``1 << tid`` masks, so unions, meets and
blob merges are single integer operations.  A search meets only a few
dozen distinct step summaries, so ``race_scan`` interns each to a small
per-search id and memoises ``_absdep`` on id pairs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..symmetry import OUT_OF_CELLS, CanonicalKeys
from ..events import INITIAL_TID
from ..system import SystemState, Transition
from ..thread import ModelError
from .core import ExplorationLimit, ExplorationStats
from .reduction import (
    BARRIER_KINDS,
    GLOBAL_KINDS,
    _APPENDING_KINDS,
    Reducer,
)


#: Kinds that append an event to a propagation list.  ``resolve_sc``
#: appends only on success, which is state-dependent -- the abstraction
#: treats it as always appending.
_ABS_APPENDING = _APPENDING_KINDS | {"resolve_sc"}

#: Empty blob: (thread-side tids, written cells, observed cells,
#: global-kind flag, list-append targets, barrier-append targets,
#: may-complete sync origins, may-complete flag).  Thread sets are
#: ``1 << tid`` bitmasks, cell sets are ``cells_of_range`` bitmasks, and
#: the two flags are bools.
_EMPTY_BLOB = (0, 0, 0, False, 0, 0, 0, False)


def _inter(a: int, b: int) -> bool:
    """Do two cell masks meet (a leaking footprint meets any other)?"""
    if not a or not b:
        return False
    return bool((a | b) & OUT_OF_CELLS or a & b)


def _absdep(a: tuple, b: tuple) -> bool:
    """Abstract dependence of two step summaries.

    A sound over-approximation of ``not Reducer.independent``, unioned
    over every state where both steps could fire: kinds in
    ``GLOBAL_KINDS`` are dependent on everything; barrier steps mirror
    the fine relation's scoping (same propagation list, appends into
    the barrier's list, a possibly-completing sync against its origin
    thread's steps or another possibly-completing sync,
    ``commit_barrier`` against its own thread) with the state-dependent
    ``_completes_sync`` over-approximated by a static may-complete
    flag; same-thread thread-side steps are dependent,
    different-thread thread-side steps (no store-conditional) are
    independent, and everything else meets over cell footprints.
    """
    kind_a, tid_a, side_a, mut_a, obs_a, bar_a = a
    kind_b, tid_b, side_b, mut_b, obs_b, bar_b = b
    if kind_a in GLOBAL_KINDS or kind_b in GLOBAL_KINDS:
        return True
    if bar_a is not None or bar_b is not None:
        if bar_a is not None and bar_b is not None:
            if tid_a == tid_b:
                # Two barrier events in one list: order is significant.
                return True
            may_a, org_a, key_a = bar_a
            may_b, org_b, key_b = bar_b
            if may_a and may_b and key_a != key_b:
                # Two eager acknowledgements may reorder.  The *same*
                # barrier delivered to two different lists can never
                # complete twice at one state (completion means every
                # other list already holds the event), so same-key
                # pairs skip this rule.
                return True
            if (may_a and tid_b == org_a) or (may_b and tid_a == org_b):
                return True
            return False
        if bar_a is not None:
            may, origin, _key = bar_a
            b_tid, b_side = tid_a, side_a
            o_kind, o_tid, o_side = kind_b, tid_b, side_b
        else:
            may, origin, _key = bar_b
            b_tid, b_side = tid_b, side_b
            o_kind, o_tid, o_side = kind_a, tid_a, side_a
        if may and o_side and o_tid == origin:
            # A completing delivery acknowledges eagerly; the ack's
            # observable scope is the sync's origin thread.
            return True
        if o_kind in _ABS_APPENDING and o_tid == b_tid:
            # An append into the barrier's list: relative order decides
            # Group-A membership and cp-blocker windows.
            return True
        if b_side and o_side and o_tid == b_tid:
            # ``commit_barrier`` vs its own thread's thread-side steps.
            return True
        return False
    if side_a and side_b:
        if tid_a == tid_b:
            return True
        if kind_a != "resolve_sc" and kind_b != "resolve_sc":
            return False
    return (
        _inter(mut_a, mut_b)
        or _inter(mut_a, obs_b)
        or _inter(mut_b, obs_a)
    )


def _blob_dep(step: tuple, blob: tuple) -> bool:
    """Would ``step`` race with *some* step summarised by ``blob``?"""
    tids, mut, obs, special, appends, btargets, borigins, bcomplete = blob
    if not (tids or mut or obs or special or appends):
        return False
    kind, tid, side, step_mut, step_obs, bar = step
    if kind in GLOBAL_KINDS or special:
        return True
    # ``tid`` is None only for sync acknowledgements (global, answered
    # above) and coherence points (no barrier, not thread-side, not
    # appending), so no shift below sees it.
    if bar is not None:
        may, origin, _key = bar
        bit = 1 << tid
        if appends & bit:
            # The subtree appended into this barrier's list.
            return True
        if borigins & bit:
            # A barrier event landing in a may-complete sync's origin
            # list (the blob granularity cannot check the fine rule's
            # ioid side, so any event there counts).
            return True
        if may and (bcomplete or tids >> origin & 1):
            return True
        if side and tids & bit:
            return True
        return False
    if side and (tids | borigins) >> tid & 1:
        return True
    if kind in _ABS_APPENDING and btargets >> tid & 1:
        return True
    return (
        _inter(step_mut, mut)
        or _inter(step_mut, obs)
        or _inter(mut, step_obs)
    )


class _Frame:
    """One state on the current DFS path."""

    __slots__ = (
        "state", "payload", "sleep", "context", "transitions", "backtrack",
        "explored", "explored_set", "explored_enc", "saturated", "entry",
        "blob", "taken_abs", "taken_id", "hb_taken",
    )

    def __init__(self, state, payload, sleep, context, transitions,
                 entry, backtrack, explored_enc):
        self.state = state
        self.payload = payload
        self.sleep = sleep
        self.context = context
        self.transitions = transitions
        #: Transitions scheduled for exploration (ignored once saturated).
        self.backtrack = backtrack
        self.explored: List[Transition] = []
        self.explored_set = set()
        #: Encodings explored on *previous* visits (never fed into child
        #: sleep sets -- conservative).
        self.explored_enc = explored_enc
        self.saturated = False
        self.entry = entry
        #: Mutable summary of the subtree below (same eight fields as
        #: ``_EMPTY_BLOB``).
        self.blob = [0, 0, 0, False, 0, 0, 0, False]
        self.taken_abs: Optional[tuple] = None
        #: ``race_scan``'s per-search id of ``taken_abs``.
        self.taken_id = -1
        self.hb_taken = 0


def run_dpor(
    initial: SystemState,
    visitor,
    *,
    limit: int,
    stats: ExplorationStats,
    strict_deadlocks: bool,
    reducer: Reducer,
    canon: CanonicalKeys,
    payload=None,
    extend: Optional[Callable] = None,
    seen=None,
):
    """The source-DPOR loop (see the module docstring).

    ``seen`` maps canonical key -> ``[explored encodings, blob, cut]``; it
    must be private to one search (entries assume this loop's visit
    protocol).  Mirrors ``core._run_reduced``'s budget, final, deadlock
    and accounting semantics: a state counts as visited when a frame is
    created for it (or when a final/stuck state is first reached);
    pruned revisits are uncounted.
    """
    if seen is None:
        seen = {}
    frames: List[_Frame] = []
    encode = canon.encode_transition

    def count_visit() -> None:
        if stats.states_visited >= limit:
            raise ExplorationLimit.over_budget(limit, stats)
        stats.states_visited += 1

    single_list = len(initial.storage.threads) <= 1
    cells_of = canon.geometry.cells_of_range
    #: Step summary -> small per-search id, and per step id the memoised
    #: ``_absdep(path step, step)`` answers keyed by the path step's id.
    summary_ids: Dict[tuple, int] = {}
    dependence: Dict[int, Dict[int, bool]] = {}

    def abstract(state: SystemState, transition: Transition) -> tuple:
        mut_ranges, obs_ranges = reducer._footprint(state, transition)
        mut = 0
        for addr, size in mut_ranges:
            mut |= cells_of(addr, size)
        obs = 0
        for addr, size in obs_ranges:
            obs |= cells_of(addr, size)
        kind = transition.kind
        bar = None
        if kind in BARRIER_KINDS:
            # (may-complete-a-sync, sync origin tid, barrier identity).
            # Sync-ness is immutable once the barrier exists, so the
            # may-complete flag over-approximates ``_completes_sync``
            # across every state the step could fire in; a committed
            # event lands only in its own thread's list, completing
            # only in single-list systems.
            if kind == "commit_barrier":
                bar = (single_list, transition.tid, transition.ioid)
            else:
                bid = transition.detail[0]
                barrier = state.storage.barriers_seen[bid]
                bar = (barrier.kind == "sync", bid.tid, bid)
        return (
            kind,
            transition.tid,
            transition.ioid is not None,
            mut,
            obs,
            bar,
        )

    def saturate(frame: _Frame) -> None:
        frame.saturated = True

    def replay_blob(blob: tuple, upto: int) -> None:
        """Saturate every path frame whose taken step races the blob."""
        for index in range(upto):
            frame = frames[index]
            if not frame.saturated and _blob_dep(frame.taken_abs, blob):
                saturate(frame)

    def merge_blob(target: list, blob: tuple) -> None:
        for field in range(8):
            target[field] |= blob[field]

    # -- outcome-determined end-game cut ---------------------------------
    #
    # Once every thread has finished, the register part of the outcome is
    # fixed, and once every write overlapping an *observed* cell is past
    # its coherence point (``reach_coherence_point`` totally orders
    # overlapping writes), the memory part is too: every final reachable
    # from here yields the same outcome.  The remaining storage end-game
    # (interleavings of leftover propagations, coherence commitments and
    # barrier deliveries) is replaced by (a) one deterministic playout
    # that proves *some* final is reachable (cp-stuck tails are dead
    # paths and yield no outcome, so eager emission without the playout
    # would be unsound) and (b) a statically-computed blob standing in
    # for every step the skipped subtree could take, replayed against
    # the path exactly like a revisit blob -- races between end-game
    # storage traffic and earlier thread steps still schedule their
    # reversals.  Descendants only consume end-game capabilities (threads
    # are finished, so no new writes or barriers appear), hence the blob
    # computed at the cut state covers the whole subtree.
    # The cut coexists with ``strict_deadlocks``: the storage end-game
    # (threads finished, only propagations / coherence commitments /
    # barrier acks left) always keeps some transition enabled until the
    # state is final, and if the deterministic playout nevertheless
    # finds a stuck state it returns ``None`` and the subtree is
    # explored normally -- the ModelError tripwire fires on that path.
    cells = getattr(visitor, "cells", None)
    final_cut = (
        cells is not None
        and not getattr(visitor, "collect_deadlocks", False)
        and reducer.context_bound is None
    )

    def outcome_frozen(state: SystemState) -> bool:
        """Is every reachable final's outcome already determined?

        Registers are fixed once threads finish; the memory part of an
        outcome is the per-cell coherence maximum, and
        ``final_memory_values`` enumerates linear extensions of the
        established ``coherence_after`` -- so once each observed cell's
        overlapping writes are pairwise coherence-ordered (the order
        only ever grows, and it grows acyclically), the cell's final
        value can no longer change.  Writes past their coherence point
        are not required: ordering edges accrue during propagation and
        coherence commitment, long before cp-completion.
        """
        if not state.threads_finished():
            return False
        storage = state.storage
        # ``add_coherence`` keeps the order transitively closed, so two
        # writes are ordered exactly when one lists the other directly.
        ordered = storage.coherence_before
        writes = list(storage.writes_seen.values())
        for addr, size in cells:
            # Initial writes are coherence-before every overlapping write
            # by fiat (see ``_order_consistent``), not via explicit
            # ``coherence_after`` edges -- they never make a cell
            # undetermined.
            relevant = [
                w.wid for w in writes
                if w.tid != INITIAL_TID and w.overlaps(addr, size)
            ]
            for i, first in enumerate(relevant):
                for second in relevant[i + 1:]:
                    if not (ordered(first, second)
                            or ordered(second, first)):
                        return False
        return True

    def endgame_blob(state: SystemState) -> tuple:
        """Over-approximate summary of every possible step below."""
        storage = state.storage
        tids = list(storage.threads)
        touched = 0
        appends = 0
        btargets = 0
        borigins = 0
        bcomplete = False
        past_cp = storage.coherence_points
        for write in storage.writes_seen.values():
            event = ("w", write.wid)
            missing = 0
            for t in tids:
                if not storage.is_propagated_to(event, t):
                    missing |= 1 << t
            if missing or write.wid not in past_cp:
                touched |= cells_of(write.addr, write.size)
                appends |= missing
        for bid, barrier in storage.barriers_seen.items():
            event = ("b", bid)
            missing = 0
            for t in tids:
                if not storage.is_propagated_to(event, t):
                    missing |= 1 << t
            if missing:
                appends |= missing
                btargets |= missing
                if barrier.kind == "sync":
                    borigins |= 1 << bid.tid
                    bcomplete = True
        return (
            0, touched, touched,
            bool(storage.unacknowledged_syncs),
            appends, btargets, borigins,
            bcomplete,
        )

    def complete_final(state: SystemState, child_payload):
        """Deterministic storage playout to some reachable final."""
        steps = 0
        while not state.is_final():
            transitions = prune_props(state, state.enumerate_transitions())
            if not transitions or steps > 100_000:
                return None
            chosen = transitions[0]
            if extend:
                child_payload = extend(child_payload, chosen)
            state = state.apply(chosen)
            stats.transitions_taken += 1
            steps += 1
        return state, child_payload

    def thread_done(state: SystemState, tid: int) -> bool:
        thread = state.threads[tid]
        finished = thread._finished_cache
        if finished is None:
            finished = state._thread_finished(thread)
            thread._finished_cache = finished
        return finished

    def prune_props(state: SystemState, transitions):
        """Drop outcome-irrelevant propagations into finished threads.

        A finished thread never issues another read, so a write
        propagated to it can only matter through (a) the Group-A
        condition of a barrier delivery into that thread's list (sync
        acknowledgement needs delivery everywhere, delivery needs the
        barrier's origin-prefix writes at the target) and (b) the
        coherence edges the propagation commits.  (b) is subsumed by
        ``reach_coherence_point``, which can commit any linearisation
        the propagation could have forced (propagation only ever
        *constrains* rcp choices; finality never requires full
        propagation).  (a) is preserved by exception: syncs not yet
        delivered to the target, plus the transitive closure of what
        their deliveries require (origin-list prefixes, write Group-A
        barriers), stay enumerable; non-sync barrier deliveries
        outside that closure only impose coherence-point windows --
        constraints, which removing never blocks a witness.  Future
        barriers are covered because the filter is re-evaluated per
        state -- the moment a new barrier commits with the write in
        its Group A, the propagation reappears in the transition
        list.

        Soundness is two inclusions.  Pruned executions are verbatim
        full-system executions (transitions are only removed), so no
        outcome is added.  None is lost either: delay each pruned
        propagation until the filter stops pruning it (a barrier needs
        it -- by then its own Group-A barriers are delivered and its
        origin-order predecessors in the target list are inserted
        first, so it is enabled) or drop it entirely; dropping only
        removes committed coherence edges, and the resulting final is
        a full-system-reachable state whose value enumeration is a
        superset of the witnessed one.
        """
        if not final_cut:
            return transitions
        storage = state.storage
        events_pos = storage._events_pos
        barriers_seen = storage.barriers_seen
        needed: dict = {}

        def needed_at(target: int):
            """Events still required at ``target``: syncs not yet
            delivered there (acknowledgement needs delivery everywhere)
            plus, transitively, whatever their deliveries need -- a
            barrier's whole origin-list prefix, a write's origin-list
            Group-A barriers."""
            cached = needed.get(target)
            if cached is not None:
                return cached
            cached = set()
            target_pos = events_pos[target]
            stack = [
                ("b", bid)
                for bid, barrier in barriers_seen.items()
                if barrier.kind == "sync" and ("b", bid) not in target_pos
            ]
            while stack:
                event = stack.pop()
                if event in cached:
                    continue
                cached.add(event)
                origin = event[1].tid
                position = events_pos[origin].get(event)
                if position is None:
                    continue
                barriers_only = event[0] == "w"
                for entry in storage.events_propagated_to[origin][:position]:
                    if barriers_only and entry[0] != "b":
                        continue
                    if entry not in target_pos and entry not in cached:
                        stack.append(entry)
            needed[target] = cached
            return cached

        def survives(t: Transition) -> bool:
            if t.kind == "propagate_write":
                tag = "w"
            elif t.kind == "propagate_barrier":
                tag = "b"
            else:
                return True
            if not thread_done(state, t.tid):
                return True
            return (tag, t.detail[0]) in needed_at(t.tid)

        kept = [t for t in transitions if survives(t)]
        if len(kept) == len(transitions):
            return transitions
        # Never manufacture a stuck state out of a live one: if only
        # pruned propagations remain, keep the original list.
        return kept if kept else transitions

    def race_scan(transition: Transition, t_abs: tuple) -> None:
        """Detect races of the step being taken against the path."""
        depth = len(frames) - 1
        frame = frames[depth]
        t_id = summary_ids.get(t_abs)
        if t_id is None:
            t_id = summary_ids[t_abs] = len(summary_ids)
            dependence[t_id] = {}
        row = dependence[t_id]
        direct = []
        hb = 0
        for index in range(depth):
            racer = frames[index]
            dep = row.get(racer.taken_id)
            if dep is None:
                dep = row[racer.taken_id] = _absdep(racer.taken_abs, t_abs)
            if dep:
                direct.append(index)
                hb |= (1 << index) | racer.hb_taken
        covered = 0
        for index in reversed(direct):
            if (covered >> index) & 1:
                covered |= frames[index].hb_taken
                continue
            racer = frames[index]
            covered |= (1 << index) | racer.hb_taken
            if racer.saturated:
                continue
            between = ((1 << depth) - 1) & ~((1 << (index + 1)) - 1)
            if (
                (hb & between) == 0
                and transition in racer.transitions
            ):
                # A weak initial of the race-reversing sequence: one
                # source-set member suffices.  Sound for *every* kind:
                # ``hb & between == 0`` means the step is abstractly --
                # hence (``_absdep`` unions the fine relation over
                # states) at every state -- independent of each
                # intermediate step, so an equal-valued transition
                # enabled at the racer commutes with the whole
                # intermediate sequence and taking it there explores
                # exactly the reversal trace; any intermediate that
                # could change what the transition does (a propagation
                # feeding a read, a same-thread step, an eager sync
                # acknowledgement) is dependent by footprint /
                # same-tid / barrier / global rules and already blocks
                # the hb-clear test.
                if (
                    transition not in racer.explored_set
                    and encode(transition) not in racer.explored_enc
                ):
                    racer.backtrack.add(transition)
            else:
                saturate(racer)
        frame.taken_abs = t_abs
        frame.taken_id = t_id
        frame.hb_taken = hb
        # The step itself joins the frame's subtree summary.  Steps
        # without a tid (coherence points, sync acknowledgements) are
        # neither thread-side, appending nor barrier steps.
        blob = frame.blob
        kind, tid, side, mut, obs, bar = t_abs
        if side:
            blob[0] |= 1 << tid
        blob[1] |= mut
        blob[2] |= obs
        if kind in GLOBAL_KINDS:
            blob[3] = True
        if kind in _ABS_APPENDING:
            blob[4] |= 1 << tid
        if bar is not None:
            blob[5] |= 1 << tid
            if bar[0]:
                blob[6] |= 1 << bar[1]
                blob[7] = True

    def next_transition(frame: _Frame) -> Optional[Transition]:
        for transition in frame.transitions:
            if transition in frame.explored_set:
                continue
            if transition in frame.sleep:
                continue
            if not frame.saturated and transition not in frame.backtrack:
                continue
            if frame.explored_enc and (
                encode(transition) in frame.explored_enc
            ):
                continue
            if not reducer.within_bound(frame.context, transition):
                continue
            return transition
        return None

    def push(state, child_payload, sleep, context, transitions, entry,
             backtrack, explored_enc) -> None:
        frames.append(_Frame(
            state, child_payload, sleep, context, transitions, entry,
            backtrack, explored_enc,
        ))
        stats.max_frontier = max(stats.max_frontier, len(frames))

    def arrive(state, child_payload, sleep, context, transitions=None):
        """Handle one reached state; returns a visitor result or None.

        ``transitions``, when given, is the state's pruned enabled list
        (already computed by the caller's disabled-sibling repair).
        """
        ckey = canon.canonical(state)
        entry = seen.get(ckey)
        if entry is not None:
            blob = entry[1]
            if blob is not _EMPTY_BLOB:
                replay_blob(blob, len(frames))
                if frames:
                    merge_blob(frames[-1].blob, blob)
            if entry[2]:
                # A key cut on first visit: outcome already emitted and
                # (same canonical key => same continuations) determined
                # identically here; the blob replay above re-established
                # the subtree's race obligations.
                return None
            if state.is_final():
                return None
            if transitions is None:
                transitions = prune_props(
                    state, state.enumerate_transitions()
                )
            if not transitions:
                return None
            need = [
                transition
                for transition in transitions
                if transition not in sleep
                and encode(transition) not in entry[0]
            ]
            if not need:
                return None
            count_visit()
            push(state, child_payload, sleep, context, transitions, entry,
                 {need[0]}, entry[0])
            return None
        count_visit()
        entry = [set(), _EMPTY_BLOB, False]
        seen[ckey] = entry
        if state.is_final():
            stats.final_states += 1
            return visitor.on_final(state, child_payload)
        if transitions is None:
            transitions = prune_props(state, state.enumerate_transitions())
        if not transitions:
            if state.threads_finished():
                stats.deadlocks += 1
                visitor.on_deadlock(state)
                return None
            if strict_deadlocks:
                raise ModelError(
                    "deadlock: no transitions from a non-final state\n"
                    + state.render()
                )
            return None
        if final_cut and outcome_frozen(state):
            done = complete_final(state, child_payload)
            if done is not None:
                blob = endgame_blob(state)
                replay_blob(blob, len(frames))
                if frames:
                    merge_blob(frames[-1].blob, blob)
                entry[1] = blob
                entry[2] = True
                stats.final_states += 1
                return visitor.on_final(done[0], done[1])
            # Frozen but cp-stuck along the deterministic playout:
            # explore normally (sound either way; outcomes, if any,
            # are still the determined one).
        awake = [t for t in transitions if t not in sleep]
        backtrack = {awake[0]} if awake else set()
        push(state, child_payload, sleep, context, transitions, entry,
             backtrack, entry[0])
        return None

    found = arrive(initial, payload, frozenset(), (None, 0))
    if found is not None:
        return found
    while frames:
        frame = frames[-1]
        transition = next_transition(frame)
        if transition is None:
            # Frame done: publish this visit's coverage to the entry and
            # fold the subtree summary into the parent.
            entry = frame.entry
            if frame.explored:
                entry[0].update(encode(t) for t in frame.explored)
            blob = tuple(frame.blob)
            if blob != _EMPTY_BLOB:
                stored = entry[1]
                entry[1] = (
                    blob if stored is _EMPTY_BLOB else tuple(
                        a | b for a, b in zip(stored, blob)
                    )
                )
            frames.pop()
            if frames:
                merge_blob(frames[-1].blob, blob)
            continue
        state = frame.state
        child_sleep = frozenset(
            z
            for source in (frame.sleep, frame.explored)
            for z in source
            if reducer.independent(state, z, transition)
        )
        t_abs = abstract(state, transition)
        successor = state.apply(transition)
        stats.transitions_taken += 1
        race_scan(transition, t_abs)
        frame.explored.append(transition)
        frame.explored_set.add(transition)
        succ_enabled = None
        if not frame.saturated:
            # Disabled-sibling races: an awake sibling this step disables
            # (a store-conditional branch killed by resolving the other
            # way, a propagation blocked by a fresh coherence commitment)
            # never occurs in the subtree below, so the occurrence-based
            # race scan cannot schedule its reversal -- schedule it here.
            # Siblings that merely stay enabled are covered by the scan:
            # they are taken somewhere below or provably redundant.
            succ_enabled = (
                () if successor.is_final()
                else prune_props(successor, successor.enumerate_transitions())
            )
            if len(succ_enabled) < len(frame.transitions):
                still = set(succ_enabled)
                for sibling in frame.transitions:
                    if (
                        sibling not in still
                        and sibling not in frame.explored_set
                        and sibling not in frame.sleep
                    ):
                        frame.backtrack.add(sibling)
        found = arrive(
            successor,
            extend(frame.payload, transition) if extend else None,
            child_sleep,
            reducer.advance_context(frame.context, transition),
            succ_enabled,
        )
        if found is not None:
            return found
    return None
