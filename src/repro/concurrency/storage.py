"""The storage subsystem of the concurrency model (section 5).

This is the paper's

    type storage_subsystem_state = <|
      threads: set thread_id;
      writes_seen: set write;
      coherence: rel write write;
      events_propagated_to: thread_id -> list event;
      unacknowledged_sync_requests: set barrier; |>

extended for mixed-size accesses: coherence relates *overlapping* writes with
distinct footprints, and read responses are assembled per byte from the most
recent covering write in the reader's propagation list.

It abstracts from cache protocol and storage hierarchy: a coherence
commitment here corresponds to, e.g., one write winning a race for cache-line
ownership in an implementation.  Coherence edges are established when writes
are accepted and when propagation forces an ordering; the residual freedom
(writes never co-propagated) is enumerated when final memory values are
evaluated (see ``final_memory_values``).

Store-conditional success additionally records an *atomicity constraint*: no
other write may ever be coherence-ordered between the write read by the
load-reserve and the conditional write (section 5's treatment of the
load-reserve/store-conditional primitives).
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..sail.values import Bits
from .events import INITIAL_TID, BarrierEvent, BarrierId, Write, WriteId
from .keys import CachedKey, intern_key

#: An entry of a propagation list: ("w", WriteId) or ("b", BarrierId).
Event = Tuple[str, object]


class CoherenceViolation(Exception):
    """A transition would create a coherence cycle or break an atomic pair."""


#: Key of an empty propagation list; the chain grows one cons pair per event.
_EMPTY_EVENTS_KEY = CachedKey(())


class StorageChanges:
    """What the mutators changed since the storage-side options were listed.

    ``SystemState._storage_transitions`` derives a state's options from
    the list cached at the last enumeration by re-checking only the
    candidates whose predicate reads one of these inputs.  A record
    exists only while such a list is cached (``_transitions_cache``), so
    a storage that was never enumerated pays nothing for it.
    """

    __slots__ = ("lists", "appended", "coherence", "writes", "barriers", "cps")

    def __init__(self):
        #: Threads whose propagation list grew.
        self.lists: Set[int] = set()
        #: Writes appended to some propagation list (accepted or propagated).
        self.appended: Set[WriteId] = set()
        #: Writes that may have gained a coherence edge: every write on
        #: either side of a committed edge (``add_coherence`` closes the
        #: relation, so each before-write meets each after-write).
        self.coherence: Set[WriteId] = set()
        #: Newly accepted writes.
        self.writes: Set[WriteId] = set()
        #: Newly accepted barriers.
        self.barriers: Set[BarrierId] = set()
        #: Writes that reached their coherence point.
        self.cps: Set[WriteId] = set()

    def copy(self) -> "StorageChanges":
        other = StorageChanges.__new__(StorageChanges)
        other.lists = set(self.lists)
        other.appended = set(self.appended)
        other.coherence = set(self.coherence)
        other.writes = set(self.writes)
        other.barriers = set(self.barriers)
        other.cps = set(self.cps)
        return other


class StorageSubsystem:
    """Mutable storage-subsystem state with explicit transition methods.

    The explorer clones the state before applying branching transitions;
    ``clone`` and ``key`` are therefore part of the core interface.  The
    transition methods validate their preconditions by default; the system
    state passes ``checked=True`` when applying a transition that was just
    produced by enumeration (the check already ran on an identical state).
    """

    __slots__ = (
        "threads",
        "writes_seen",
        "coherence_after",
        "events_propagated_to",
        "barriers_seen",
        "unacknowledged_syncs",
        "acknowledged_syncs",
        "atomic_pairs",
        "coherence_points",
        "_events_pos",
        "_barrier_prefix",
        "_overlaps",
        "_writes_prop",
        "_read_cache",
        "_sorted_wids",
        "_sorted_bids",
        "_transitions_cache",
        "_changes",
        "_key_cache",
        "_writes_key",
        "_coh_key",
        "_events_keys",
        "_events_tuple",
        "_syncs_key",
        "_atomic_key",
        "_cp_key",
    )

    def __init__(self, threads: Iterable[int]):
        self.threads: Tuple[int, ...] = tuple(threads)
        self.writes_seen: Dict[WriteId, Write] = {}
        #: coherence successors: wid -> set of wids coherence-after it
        #: (kept transitively closed).
        self.coherence_after: Dict[WriteId, Set[WriteId]] = {}
        self.events_propagated_to: Dict[int, List[Event]] = {
            tid: [] for tid in self.threads
        }
        self.barriers_seen: Dict[BarrierId, BarrierEvent] = {}
        self.unacknowledged_syncs: Set[BarrierId] = set()
        self.acknowledged_syncs: Set[BarrierId] = set()
        #: (w_read, w_conditional) pairs that must stay coherence-adjacent.
        self.atomic_pairs: Set[Tuple[WriteId, WriteId]] = set()
        #: Writes past their coherence point (initial writes start there).
        #: Coherence points give barriers their write-write cumulative force
        #: (e.g. forbidding 2+2W+lwsyncs): a write separated from earlier
        #: writes by a barrier in some propagation list cannot reach its
        #: coherence point before they do.
        self.coherence_points: Set[WriteId] = set()
        #: Index of each propagation list: event -> position.  Doubles as an
        #: O(1) membership set for the can_propagate/can_acknowledge checks.
        self._events_pos: Dict[int, Dict[Event, int]] = {
            tid: {} for tid in self.threads
        }
        #: Per-thread propagation-list keys, maintained incrementally as a
        #: hash-consed chain: appending an event hashes one pair instead of
        #: re-walking the whole list.
        self._events_keys: Dict[int, CachedKey] = {
            tid: _EMPTY_EVENTS_KEY for tid in self.threads
        }
        #: The (tid, events-key) tuple assembled into ``key()``; rebuilt only
        #: when a propagation list grows instead of on every ``key()`` call.
        self._events_tuple: Optional[Tuple] = None
        #: Per-thread (position, event) list of barrier events, so Group-A
        #: prefix checks scan the few barriers instead of the whole list.
        self._barrier_prefix: Dict[int, List[Tuple[int, Event]]] = {
            tid: [] for tid in self.threads
        }
        #: wid -> frozenset of overlapping wids, maintained on acceptance so
        #: the hot coherence checks avoid pairwise footprint comparisons.
        self._overlaps: Dict[WriteId, FrozenSet[WriteId]] = {}
        #: Per-thread list of propagated writes; rebuilt on invalidation,
        #: never mutated in place (so clones may share list objects).
        self._writes_prop: Dict[int, Optional[List[Write]]] = {
            tid: [] for tid in self.threads
        }
        #: Per-thread read-response memo, replaced (never cleared in place)
        #: when a write propagates, so clones can share the inner dicts.
        self._read_cache: Dict[int, Dict[Tuple[int, int], tuple]] = {
            tid: {} for tid in self.threads
        }
        #: Sorted write/barrier ids, for deterministic enumeration loops.
        self._sorted_wids: Optional[List[WriteId]] = None
        self._sorted_bids: Optional[List[BarrierId]] = None
        #: Storage-side transition options as of the last enumeration (see
        #: ``SystemState._storage_transitions``): current while ``_changes``
        #: is None, otherwise the base that ``_changes`` is relative to.
        self._transitions_cache: Optional[tuple] = None
        self._changes: Optional[StorageChanges] = None
        #: Memoised ``key()`` and its components; mutators drop exactly the
        #: slices they touch (per-tid event keys live in ``_events_keys``).
        self._key_cache: Optional[CachedKey] = None
        self._writes_key: Optional[CachedKey] = None
        self._coh_key: Optional[CachedKey] = None
        self._syncs_key: Optional[CachedKey] = None
        self._atomic_key: Optional[CachedKey] = None
        self._cp_key: Optional[CachedKey] = None

    def _record(self) -> Optional[StorageChanges]:
        """The change record to extend; None while no option list is cached."""
        changes = self._changes
        if changes is None and self._transitions_cache is not None:
            changes = self._changes = StorageChanges()
        return changes

    def _append_event(self, tid: int, event: Event) -> None:
        """Append to a propagation list, maintaining the derived indexes.

        Like every mutator, this *replaces* the structures it changes
        instead of updating them in place: ``clone`` shares everything, so
        in-place mutation would leak into sibling states.
        """
        events = self.events_propagated_to[tid]
        self.events_propagated_to = {
            **self.events_propagated_to, tid: events + [event]
        }
        self._events_pos = {
            **self._events_pos,
            tid: {**self._events_pos[tid], event: len(events)},
        }
        if event[0] == "w":
            self._writes_prop = {**self._writes_prop, tid: None}
            self._read_cache = {**self._read_cache, tid: {}}
        else:
            self._barrier_prefix = {
                **self._barrier_prefix,
                tid: self._barrier_prefix[tid] + [(len(events), event)],
            }
        # Interned: equal propagation lists reached along different
        # interleavings yield the *same* chain-key object, so seen-set
        # equality on storage keys short-circuits on identity.
        self._events_keys = {
            **self._events_keys,
            tid: intern_key((self._events_keys[tid], event)),
        }
        self._events_tuple = None
        self._key_cache = None
        changes = self._record()
        if changes is not None:
            changes.lists.add(tid)
            if event[0] == "w":
                changes.appended.add(event[1])

    # ------------------------------------------------------------------
    # Cloning and memoisation keys
    # ------------------------------------------------------------------

    def clone(self) -> "StorageSubsystem":
        """O(1) clone: every structure is shared with the original.

        Sound because mutators replace the structures they change rather
        than updating them in place (see ``_append_event``); the only
        in-place writes anywhere are pure-memo fill-ins (``read_response``,
        ``writes_propagated_to``), which are consistent across sharers by
        construction.  The one exception is a pending change record, which
        mutators extend in place: the clone gets its own copy.
        """
        other = StorageSubsystem.__new__(StorageSubsystem)
        other.threads = self.threads
        other.writes_seen = self.writes_seen
        other.coherence_after = self.coherence_after
        other.events_propagated_to = self.events_propagated_to
        other.barriers_seen = self.barriers_seen
        other.unacknowledged_syncs = self.unacknowledged_syncs
        other.acknowledged_syncs = self.acknowledged_syncs
        other.atomic_pairs = self.atomic_pairs
        other.coherence_points = self.coherence_points
        other._events_pos = self._events_pos
        other._barrier_prefix = self._barrier_prefix
        other._overlaps = self._overlaps
        other._writes_prop = self._writes_prop
        other._read_cache = self._read_cache
        other._sorted_wids = self._sorted_wids
        other._sorted_bids = self._sorted_bids
        other._transitions_cache = self._transitions_cache
        changes = self._changes
        other._changes = None if changes is None else changes.copy()
        other._key_cache = self._key_cache
        other._writes_key = self._writes_key
        other._coh_key = self._coh_key
        other._events_keys = self._events_keys
        other._events_tuple = self._events_tuple
        other._syncs_key = self._syncs_key
        other._atomic_key = self._atomic_key
        other._cp_key = self._cp_key
        return other

    def key(self) -> CachedKey:
        """Memoised state key, assembled from per-component cached keys.

        Each component caches its own tuple and hash, so a transition that
        (say) propagates one write re-keys only that thread's event list
        instead of re-walking and re-hashing the whole storage state.
        """
        cached = self._key_cache
        if cached is not None:
            return cached
        if self._writes_key is None:
            self._writes_key = intern_key(tuple(sorted(self.writes_seen)))
        if self._coh_key is None:
            self._coh_key = intern_key(tuple(
                (wid, tuple(sorted(succ)))
                for wid, succ in sorted(self.coherence_after.items())
                if succ
            ))
        events_tuple = self._events_tuple
        if events_tuple is None:
            events_keys = self._events_keys
            events_tuple = tuple(
                (tid, events_keys[tid]) for tid in self.threads
            )
            self._events_tuple = events_tuple
        self.syncs_key()
        if self._atomic_key is None:
            self._atomic_key = intern_key(tuple(sorted(self.atomic_pairs)))
        if self._cp_key is None:
            self._cp_key = intern_key(tuple(sorted(self.coherence_points)))
        # The composite is nearly unique per state (propagation lists move
        # every transition): plain CachedKey, no interning, so the bounded
        # intern table keeps the recurring component keys instead.
        cached = CachedKey((
            self._writes_key,
            self._coh_key,
            events_tuple,
            self._syncs_key,
            self._atomic_key,
            self._cp_key,
        ))
        self._key_cache = cached
        return cached

    # ------------------------------------------------------------------
    # Coherence bookkeeping
    # ------------------------------------------------------------------

    def coherence_before(self, first: WriteId, second: WriteId) -> bool:
        return second in self.coherence_after.get(first, ())

    def _would_cycle(self, first: WriteId, second: WriteId) -> bool:
        return first == second or self.coherence_before(second, first)

    def _breaks_atomic_pair(self, first: WriteId, second: WriteId) -> bool:
        """Would adding first < second wedge a write into an atomic pair?

        For each recorded pair (r, c) -- meaning no write may satisfy
        r < w < c -- reject any new edge that would complete such a
        sandwiching for some existing write.
        """
        for read_wid, cond_wid in self.atomic_pairs:
            for wid in self.writes_seen:
                if wid in (read_wid, cond_wid):
                    continue
                if not self.writes_seen[wid].overlaps_write(
                    self.writes_seen[cond_wid]
                ):
                    continue
                after_read = self.coherence_before(read_wid, wid) or (
                    first == read_wid and second == wid
                )
                before_cond = self.coherence_before(wid, cond_wid) or (
                    first == wid and second == cond_wid
                )
                if after_read and before_cond:
                    return True
        return False

    def add_coherence(self, first: WriteId, second: WriteId) -> None:
        """Commit ``first`` coherence-before ``second`` (with closure)."""
        if self.coherence_before(first, second):
            return
        if self._would_cycle(first, second):
            raise CoherenceViolation(f"coherence cycle: {first} <-> {second}")
        if self._breaks_atomic_pair(first, second):
            raise CoherenceViolation("edge violates store-conditional atomicity")
        self._key_cache = None
        self._coh_key = None
        befores = [
            wid for wid, succ in self.coherence_after.items() if first in succ
        ] + [first]
        afters = frozenset(self.coherence_after.get(second, ())) | {second}
        changes = self._record()
        if changes is not None:
            changes.coherence.update(befores)
            changes.coherence.update(afters)
        coherence = dict(self.coherence_after)
        for before in befores:
            existing = coherence.get(before)
            coherence[before] = afters if existing is None else existing | afters
        self.coherence_after = coherence

    def can_add_coherence(self, first: WriteId, second: WriteId) -> bool:
        if self.coherence_before(first, second):
            return True
        return not (
            self._would_cycle(first, second)
            or self._breaks_atomic_pair(first, second)
        )

    # ------------------------------------------------------------------
    # Propagation-list helpers
    # ------------------------------------------------------------------

    def writes_propagated_to(self, tid: int) -> List[Write]:
        """Writes visible to ``tid``, in propagation order.

        The returned list is a shared cache: callers must not mutate it.
        """
        cached = self._writes_prop[tid]
        if cached is None:
            cached = [
                self.writes_seen[payload]
                for kind, payload in self.events_propagated_to[tid]
                if kind == "w"
            ]
            self._writes_prop[tid] = cached
        return cached

    def is_propagated_to(self, event: Event, tid: int) -> bool:
        return event in self._events_pos[tid]

    def sorted_wids(self) -> List[WriteId]:
        """All seen write ids in sorted order (cached; do not mutate)."""
        cached = self._sorted_wids
        if cached is None:
            cached = sorted(self.writes_seen)
            self._sorted_wids = cached
        return cached

    def sorted_bids(self) -> List[BarrierId]:
        """All seen barrier ids in sorted order (cached; do not mutate)."""
        cached = self._sorted_bids
        if cached is None:
            cached = sorted(self.barriers_seen)
            self._sorted_bids = cached
        return cached

    # -- inputs of the storage-side options (see StorageChanges) ------------

    def origin_prefix_meets(self, bid: BarrierId, wids: Set[WriteId]) -> bool:
        """Does a write before ``bid`` in its origin thread's list lie in ``wids``?"""
        origin = self.events_propagated_to[bid.tid]
        position = self._events_pos[bid.tid][("b", bid)]
        for index in range(position):
            kind, payload = origin[index]
            if kind == "w" and payload in wids:
                return True
        return False

    def writes_listed_after(self, wids: Iterable[WriteId]) -> Set[WriteId]:
        """Writes after one of ``wids`` in some propagation list holding both."""
        result: Set[WriteId] = set()
        for wid in wids:
            event = ("w", wid)
            for tid in self.threads:
                position = self._events_pos[tid].get(event)
                if position is None:
                    continue
                events = self.events_propagated_to[tid]
                for index in range(position + 1, len(events)):
                    kind, payload = events[index]
                    if kind == "w":
                        result.add(payload)
        return result

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------

    def accept_write(self, write: Write) -> None:
        """Accept a write request from its thread (thread-side store commit)."""
        if write.wid in self.writes_seen:
            raise ValueError(f"duplicate write {write.wid}")
        self._key_cache = None
        self._writes_key = None
        self._sorted_wids = None
        changes = self._record()
        if changes is not None:
            changes.writes.add(write.wid)
        self.writes_seen = {**self.writes_seen, write.wid: write}
        self._record_overlaps(write)
        overlapping = self._overlaps[write.wid]
        for prior in self.writes_propagated_to(write.tid):
            if prior.wid in overlapping:
                self.add_coherence(prior.wid, write.wid)
        self._append_event(write.tid, ("w", write.wid))

    def _record_overlaps(self, write: Write) -> None:
        """Extend the wid-overlap map with a newly seen write."""
        wid = write.wid
        overlapping = frozenset(
            other_wid
            for other_wid, other in self.writes_seen.items()
            if other_wid != wid and other.overlaps_write(write)
        )
        overlaps = dict(self._overlaps)
        overlaps[wid] = overlapping
        for other_wid in overlapping:
            overlaps[other_wid] = overlaps[other_wid] | {wid}
        self._overlaps = overlaps

    def accept_initial_writes(self, writes: Iterable[Write]) -> None:
        """Install the initial memory state, propagated to every thread."""
        self._key_cache = None
        self._transitions_cache = None  # listed afresh from the initial state
        self._changes = None
        self._writes_key = None
        self._cp_key = None
        self._sorted_wids = None
        for write in writes:
            self.writes_seen = {**self.writes_seen, write.wid: write}
            self._record_overlaps(write)
            self.coherence_points = self.coherence_points | {write.wid}
            for tid in self.threads:
                self._append_event(tid, ("w", write.wid))

    def accept_barrier(self, barrier: BarrierEvent) -> None:
        self._key_cache = None
        self._sorted_bids = None
        changes = self._record()
        if changes is not None:
            changes.barriers.add(barrier.bid)
        self.barriers_seen = {**self.barriers_seen, barrier.bid: barrier}
        self._append_event(barrier.tid, ("b", barrier.bid))
        if barrier.kind == "sync":
            self._syncs_key = None
            self.unacknowledged_syncs = self.unacknowledged_syncs | {
                barrier.bid
            }

    # -- propagate write -------------------------------------------------

    def _barriers_before_event_in_origin(self, event: Event) -> List[Event]:
        """Barrier events preceding ``event`` in its origin thread's list."""
        kind, payload = event
        tid = payload.tid
        position = self._events_pos[tid].get(event)
        if position is None:
            return [e for e in self.events_propagated_to[tid] if e[0] == "b"]
        return [
            entry
            for entry in self.events_propagated_to[tid][:position]
            if entry[0] == "b"
        ]

    def can_propagate_write(self, wid: WriteId, target: int) -> bool:
        write = self.writes_seen.get(wid)
        if write is None or write.tid == target:
            return False
        event = ("w", wid)
        target_pos = self._events_pos[target]
        if event in target_pos:
            return False
        position = self._events_pos[write.tid].get(event)
        if position is None:
            return False
        # Group-A / cumulativity condition: every barrier that precedes the
        # write in its origin thread's list must already be at the target.
        for barrier_position, entry in self._barrier_prefix[write.tid]:
            if barrier_position >= position:
                break
            if entry not in target_pos:
                return False
        # Coherence: the write must be placeable after every overlapping
        # write already propagated to the target.
        overlapping = self._overlaps[wid]
        for prior in self.writes_propagated_to(target):
            if prior.wid in overlapping:
                if not self.can_add_coherence(prior.wid, wid):
                    return False
        return True

    def propagate_write(
        self, wid: WriteId, target: int, checked: bool = False
    ) -> None:
        if not checked and not self.can_propagate_write(wid, target):
            raise CoherenceViolation(f"cannot propagate {wid} to thread {target}")
        overlapping = self._overlaps[wid]
        for prior in self.writes_propagated_to(target):
            if prior.wid in overlapping:
                self.add_coherence(prior.wid, wid)
        self._append_event(target, ("w", wid))

    # -- propagate barrier -------------------------------------------------

    def write_effectively_propagated(self, wid: WriteId, target: int) -> bool:
        """Is ``wid`` visible at ``target``, possibly as a superseded version?

        A write that is coherence-before a write already propagated to the
        target (covering all its bytes) can never itself propagate there --
        the target already holds a newer version of the data -- so barrier
        Group-A conditions must count it as done.  Without this rule, tests
        like 2+2W+syncs would wedge: the old write can neither propagate
        (coherence cycle) nor be waived (sync never acknowledges).
        """
        if ("w", wid) in self._events_pos[target]:
            return True
        write = self.writes_seen[wid]
        for offset in range(write.size):
            addr = write.addr + offset
            covered = any(
                other.overlaps(addr, 1)
                and self.coherence_before(wid, other.wid)
                for other in self.writes_propagated_to(target)
            )
            if not covered:
                return False
        return True

    def can_propagate_barrier(self, bid: BarrierId, target: int) -> bool:
        barrier = self.barriers_seen.get(bid)
        if barrier is None or barrier.tid == target:
            return False
        event = ("b", bid)
        target_pos = self._events_pos[target]
        if event in target_pos:
            return False
        # All of the barrier's Group A (events before it in its origin
        # thread's list) must already have reached the target; superseded
        # writes count as effectively there.
        origin = self.events_propagated_to[barrier.tid]
        position = self._events_pos[barrier.tid].get(event, len(origin))
        for entry in origin[:position]:
            if entry[0] == "w":
                if not self.write_effectively_propagated(entry[1], target):
                    return False
            elif entry not in target_pos:
                return False
        return True

    def propagate_barrier(
        self, bid: BarrierId, target: int, checked: bool = False
    ) -> None:
        if not checked and not self.can_propagate_barrier(bid, target):
            raise CoherenceViolation(f"cannot propagate {bid} to thread {target}")
        self._append_event(target, ("b", bid))

    # -- coherence points ----------------------------------------------------

    def _has_cp_blocker(self, wid: WriteId) -> bool:
        """Must some other write reach its coherence point before ``wid``?

        Blockers, in every propagation list containing ``wid``: (a) earlier
        overlapping writes; (b) any write separated from ``wid`` by a
        barrier (this is the barriers' write-write cumulative force -- sync,
        lwsync and eieio all order coherence points of the writes around
        them).  Short-circuits on the first blocker not yet at its
        coherence point.
        """
        cps = self.coherence_points
        overlapping = self._overlaps[wid]
        event = ("w", wid)
        for tid in self.threads:
            position = self._events_pos[tid].get(event)
            if position is None:
                continue
            events = self.events_propagated_to[tid]
            last_barrier_index = -1
            for i in range(position - 1, -1, -1):
                if events[i][0] == "b":
                    last_barrier_index = i
                    break
            for i in range(position):
                kind, payload = events[i]
                if kind != "w" or payload in cps:
                    continue
                if i < last_barrier_index or payload in overlapping:
                    return True
        return False

    def can_reach_coherence_point(self, wid: WriteId) -> bool:
        if wid in self.coherence_points or wid not in self.writes_seen:
            return False
        if self._has_cp_blocker(wid):
            return False
        # The coherence edges this step commits must be consistent.
        for other_wid in self._overlaps[wid]:
            if other_wid in self.coherence_points:
                if not self.can_add_coherence(other_wid, wid):
                    return False
            else:
                if not self.can_add_coherence(wid, other_wid):
                    return False
        return True

    def reach_coherence_point(self, wid: WriteId, checked: bool = False) -> None:
        """Commit ``wid``'s coherence position (the PLDI12-style transition).

        The write becomes coherence-after every overlapping write already
        past its coherence point, and coherence-before every overlapping
        write that has not reached it yet.
        """
        if not checked and not self.can_reach_coherence_point(wid):
            raise CoherenceViolation(f"{wid} cannot reach its coherence point")
        self._key_cache = None
        self._cp_key = None
        changes = self._record()
        if changes is not None:
            changes.cps.add(wid)
        for other_wid in sorted(self._overlaps[wid]):
            if other_wid in self.coherence_points:
                self.add_coherence(other_wid, wid)
            else:
                self.add_coherence(wid, other_wid)
        self.coherence_points = self.coherence_points | {wid}

    def all_writes_past_coherence_point(self) -> bool:
        # coherence_points only ever holds seen write ids, so comparing
        # cardinalities is equivalent to the per-write membership test.
        return len(self.coherence_points) == len(self.writes_seen)

    def syncs_key(self) -> CachedKey:
        """Cached key of the sync-acknowledgement state (unacked + acked).

        Used by the system state as the storage-side context of its
        per-thread transition-option cache.
        """
        cached = self._syncs_key
        if cached is None:
            cached = intern_key((
                tuple(sorted(self.unacknowledged_syncs)),
                tuple(sorted(self.acknowledged_syncs)),
            ))
            self._syncs_key = cached
        return cached

    # -- sync acknowledgement ----------------------------------------------

    def can_acknowledge_sync(self, bid: BarrierId) -> bool:
        if bid not in self.unacknowledged_syncs:
            return False
        event = ("b", bid)
        return all(
            event in self._events_pos[tid]
            for tid in self.threads
        )

    def acknowledge_sync(self, bid: BarrierId, checked: bool = False) -> None:
        if not checked and not self.can_acknowledge_sync(bid):
            raise CoherenceViolation(f"cannot acknowledge {bid}")
        self._key_cache = None
        self._syncs_key = None
        self._record()  # the sync-acknowledgement options are always re-listed
        self.unacknowledged_syncs = self.unacknowledged_syncs - {bid}
        self.acknowledged_syncs = self.acknowledged_syncs | {bid}

    def record_atomic_pair(self, read_wid: WriteId, cond_wid: WriteId) -> None:
        """Record a load-reserve/store-conditional atomicity constraint."""
        self._key_cache = None
        self._record()  # with a pair recorded every option is re-checked
        self._atomic_key = None
        self.atomic_pairs = self.atomic_pairs | {(read_wid, cond_wid)}

    # -- read responses -----------------------------------------------------

    def read_response(
        self, tid: int, addr: int, size: int
    ) -> Tuple[Bits, Tuple[Tuple[WriteId, int, int], ...]]:
        """Assemble a read response per byte from the propagation list.

        Returns the value plus the per-byte-run provenance: tuples of
        (write id, first byte offset within the read, length).

        Responses are memoised per thread and invalidated when a write
        propagates to it, since identical reads recur along sibling
        interleavings that share the thread's propagation list.
        """
        cache = self._read_cache[tid]
        cached = cache.get((addr, size))
        if cached is not None:
            return cached
        propagated = self.writes_propagated_to(tid)
        byte_sources: List[Optional[Write]] = [None] * size
        for write in propagated:  # list order; later entries win
            for i in range(size):
                if write.overlaps(addr + i, 1):
                    byte_sources[i] = write
        if any(source is None for source in byte_sources):
            missing = [hex(addr + i) for i, s in enumerate(byte_sources) if s is None]
            raise CoherenceViolation(
                f"read of uninitialised memory at {missing} by thread {tid}"
            )
        value = Bits(0)
        provenance: List[Tuple[WriteId, int, int]] = []
        for i, source in enumerate(byte_sources):
            value = value.concat(source.byte(addr + i))
            if provenance and provenance[-1][0] == source.wid and (
                provenance[-1][1] + provenance[-1][2] == i
            ):
                wid, start, length = provenance[-1]
                provenance[-1] = (wid, start, length + 1)
            else:
                provenance.append((source.wid, i, 1))
        result = (value, tuple(provenance))
        cache[(addr, size)] = result
        return result

    # ------------------------------------------------------------------
    # Final memory values
    # ------------------------------------------------------------------

    def final_memory_values(self, addresses: Iterable[Tuple[int, int]]):
        """Enumerate possible final values for the given (addr, size) cells.

        Writes never co-propagated may be coherence-unrelated at the end of
        an execution; each linear extension of the established coherence
        order yields one possible final memory state.  Returns a list of
        distinct dicts mapping (addr, size) -> int (``None`` when the value
        has undef bits), in no meaningful order.

        The extensions are enumerated per independent group of writes (see
        ``_independent_groups``): writes in different groups are never
        related by ``_order_consistent``, and a byte's coherence-last write
        is decided within the group of the writes covering it.  So a global
        order is consistent exactly when each group's sub-order is, and the
        final states are the Cartesian product of the groups' distinct
        last-writer maps.  Two locations with three writes each cost
        2 * 3! order checks instead of 6!.
        """
        cells = list(addresses)
        relevant: List[Write] = [
            w
            for w in self.writes_seen.values()
            if any(w.overlaps(addr, size) for addr, size in cells)
        ]
        relevant.sort(key=lambda w: w.wid)
        cell_bytes = {addr + i for addr, size in cells for i in range(size)}
        group_memories = []
        for group in self._independent_groups(relevant):
            group_bytes = sorted(
                addr
                for addr in cell_bytes
                if any(w.overlaps(addr, 1) for w in group)
            )
            memories: Dict[tuple, Dict[int, Bits]] = {}
            # Bounded enumeration: litmus tests have a handful of writes
            # per cell.
            for order in permutations(group):
                if not self._order_consistent(order):
                    continue
                last: Dict[int, Write] = {}
                for write in order:
                    for i in range(write.size):
                        last[write.addr + i] = write
                writers = tuple(last[addr].wid for addr in group_bytes)
                if writers not in memories:
                    memories[writers] = {
                        addr: last[addr].byte(addr) for addr in group_bytes
                    }
            group_memories.append(list(memories.values()))
        results = []
        seen_results = set()
        for choice in product(*group_memories):
            memory: Dict[int, Bits] = {}
            for group_memory in choice:
                memory.update(group_memory)
            state = {}
            for addr, size in cells:
                value = Bits(0)
                for i in range(size):
                    value = value.concat(memory.get(addr + i, Bits.zeros(8)))
                state[(addr, size)] = value.to_int() if value.is_known else None
            frozen = tuple(sorted(state.items()))
            if frozen not in seen_results:
                seen_results.add(frozen)
                results.append(state)
        return results

    def _independent_groups(self, writes: List[Write]) -> List[List[Write]]:
        """Split ``writes`` into groups that ``_order_consistent`` never relates.

        Two writes share a group when their bytes overlap, when
        ``coherence_after`` orders them, or when they form an
        ``atomic_pairs`` entry -- the only relations the filter checks.
        Groups are the connected components of those links and keep the
        order of ``writes``.
        """
        members = {w.wid for w in writes}
        links: Dict[WriteId, Set[WriteId]] = {wid: set() for wid in members}

        def link(first: WriteId, second: WriteId) -> None:
            if first in members and second in members:
                links[first].add(second)
                links[second].add(first)

        for wid in members:
            for other in self._overlaps[wid]:
                link(wid, other)
            for other in self.coherence_after.get(wid, ()):
                link(wid, other)
        for read_wid, cond_wid in self.atomic_pairs:
            link(read_wid, cond_wid)
        group_of: Dict[WriteId, int] = {}
        groups: List[List[Write]] = []
        for write in writes:
            if write.wid not in group_of:
                group_of[write.wid] = len(groups)
                stack = [write.wid]
                while stack:
                    for other in links[stack.pop()]:
                        if other not in group_of:
                            group_of[other] = len(groups)
                            stack.append(other)
                groups.append([])
            groups[group_of[write.wid]].append(write)
        return groups

    def _order_consistent(self, order: Tuple[Write, ...]) -> bool:
        position = {w.wid: i for i, w in enumerate(order)}
        for wid, successors in self.coherence_after.items():
            if wid not in position:
                continue
            for succ in successors:
                if succ in position and position[succ] < position[wid]:
                    return False
        # Store-conditional atomicity: nothing may sit between the write the
        # load-reserve read and the conditional write in coherence order.
        for read_wid, cond_wid in self.atomic_pairs:
            if cond_wid not in position:
                continue
            upper = position[cond_wid]
            lower = position.get(read_wid, -1)
            cond_write = self.writes_seen[cond_wid]
            for write in order[lower + 1 : upper]:
                if write.wid != read_wid and write.overlaps_write(cond_write):
                    return False
        # Initial writes are coherence-before everything overlapping.
        for write in order:
            if write.tid == INITIAL_TID:
                for other in order:
                    if (
                        other.tid != INITIAL_TID
                        and other.overlaps_write(write)
                        and position[other.wid] < position[write.wid]
                    ):
                        return False
        return True

    # ------------------------------------------------------------------
    # Rendering (Fig. 3-style state display)
    # ------------------------------------------------------------------

    def render(self, symbol_of=None) -> str:
        def name(addr: int) -> str:
            if symbol_of is None:
                return ""
            symbol = symbol_of(addr)
            return f"({symbol})" if symbol else ""

        lines = ["Storage subsystem state:"]
        shown = ", ".join(
            f"{w}{name(w.addr)}" for w in sorted(
                self.writes_seen.values(), key=lambda w: w.wid
            )
        )
        lines.append(f"  writes seen = {{ {shown} }}")
        edges = []
        for wid, succs in sorted(self.coherence_after.items()):
            for succ in sorted(succs):
                edges.append(f"{wid} -> {succ}")
        lines.append("  coherence = { " + ", ".join(edges) + " }")
        lines.append("  events propagated to:")
        for tid in self.threads:
            events = ", ".join(
                str(self.writes_seen[p]) + name(self.writes_seen[p].addr)
                if k == "w"
                else str(self.barriers_seen[p])
                for k, p in self.events_propagated_to[tid]
            )
            lines.append(f"    Thread {tid}: [ {events} ]")
        lines.append(
            "  unacknowledged sync requests = "
            + "{ "
            + ", ".join(str(b) for b in sorted(self.unacknowledged_syncs))
            + " }"
        )
        return "\n".join(lines)
