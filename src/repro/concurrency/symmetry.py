"""Canonical state keys for the DPOR explorer.

``CanonicalKeys.canonical(state)`` is the seen-set key the
``--reduction dpor`` driver (``search/dpor.py``) deduplicates on: the
state's own memoised component keys, with every propagation list
replaced by its *commuting normal form*.  This quotients out the
explorer's residual exponential: per-thread propagation-list order of
non-overlapping writes.  ``reduction.py`` establishes that every
thread-visible function of a propagation list (read values and
provenance, Group-A membership, coherence placement, coherence-point
blocking, final-memory enumeration) is insensitive to the relative
order of non-overlapping write events, yet the orders are key-distinct
-- the blowup the seen-set can never collapse on its own.  Two writes
in a list stay ordered exactly when their bytes overlap
(``storage._overlaps``); barrier pairs stay ordered while the barrier
can still gate something (see ``_events_component``).

The module keeps the name of the thread-orbit symmetry reduction that
used to live here.  That reduction was deleted: no suite the benchmark
or CI runs under dpor has a thread-symmetric test, and on generated
tests that do it cost more than it merged (PERFORMANCE.md, "Thread
symmetry").  The per-layer benchmark (``perfbench/tracing.py``) still
times ``CanonicalKeys.canonical`` and ``CanonicalKeys.encode_transition``
by these names.  ``encode_transition`` is the identity; the dpor driver
calls it wherever it records or looks up an explored transition, so the
traced call counts stay comparable across versions.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, FrozenSet, List, Tuple

from .events import INITIAL_TID
from .keys import CachedKey
from .system import SystemState, Transition

#: Bound on the per-search normal-form memo table.
_MEMO_LIMIT = 1 << 16

#: Wildcard cell index: a footprint reaching outside every known cell.
OUT_OF_CELLS = -1

#: A propagation-list event's write or barrier id.
_payload = itemgetter(1)


class _Geometry:
    """The data cells of a test: one per initial write."""

    __slots__ = ("cells",)

    def __init__(self, initial: SystemState):
        #: (addr, size) per initial-write index, in initial-write order.
        self.cells: List[Tuple[int, int]] = [
            (write.addr, write.size)
            for _index, write in sorted(
                (wid.ioid[1], write)
                for wid, write in initial.storage.writes_seen.items()
                if wid.tid == INITIAL_TID
            )
        ]

    def cells_of_range(self, addr: int, size: int) -> FrozenSet[int]:
        """Indexes of cells a byte range touches (+ wildcard if it leaks).

        The DPOR race abstraction's footprints are sets of these.
        """
        touched = set()
        covered = 0
        for index, (base, span) in enumerate(self.cells):
            lo = max(addr, base)
            hi = min(addr + size, base + span)
            if lo < hi:
                touched.add(index)
                covered += hi - lo
        if covered < size:
            touched.add(OUT_OF_CELLS)
        return frozenset(touched)


class CanonicalKeys:
    """Normal-form seen keys; one instance lives for one DPOR search."""

    def __init__(self, initial: SystemState):
        self.geometry = _Geometry(initial)
        #: Per-list normal-form parts (see ``_events_component``).
        self._list_memo: Dict[tuple, CachedKey] = {}

    def canonical(self, state: SystemState) -> CachedKey:
        """The state's component keys with normal-form event lists."""
        storage = state.storage
        storage.key()  # materialise the memoised component keys
        threads_part = tuple(
            state.threads[tid].key() for tid in sorted(state.threads)
        )
        return CachedKey((
            "NF",
            threads_part,
            storage._writes_key,
            storage._coh_key,
            self._events_component(storage),
            storage._syncs_key,
            storage._atomic_key,
            storage._cp_key,
        ))

    def encode_transition(self, transition: Transition) -> Transition:
        """The seen-entry encoding of an explored transition: itself."""
        return transition

    # -- the propagation-list quotient -------------------------------------

    def _events_component(self, storage) -> tuple:
        """All propagation lists, quotiented to (event set, live order).

        The model consumes the *order* of a thread's propagation list
        through exactly four predicates (``storage.py``):

        * ``read_response`` / store-conditional resolution -- later
          **overlapping** write wins per byte;
        * ``can_propagate_write(w, target)`` -- barriers before ``w`` in
          ``w``'s *origin* list must already be at the target (Group A);
        * ``can_propagate_barrier(b, target)`` -- every event before
          ``b`` in ``b``'s *origin* list must be at the target (with
          superseded writes waived);
        * ``_has_cp_blocker(w)`` (and the analogous barrier-force check
          in ``reduction.py``) -- writes preceding the last barrier
          before ``w``, and earlier overlapping writes, must reach their
          coherence points first.

        Each consulted order fact dies *permanently* once its consumer
        can no longer fire: a write past its coherence point is skipped
        by every blocker scan, and a fully propagated event (present in
        every list) makes its Group-A gating vacuous -- both conditions
        are monotone.  The canonical encoding is therefore the sorted
        event set plus the still-live ordered pairs, expressed as index
        pairs into the sorted set.  States differing only in dead
        history order (the residual exponential after sleep sets) key
        identically; every predicate above evaluates identically on
        key-equal states, and death's monotonicity keeps the merged
        states equivalent under every future transition.

        Each list's part is memoised on exactly what it reads: the
        thread, the list (its interned chain key), and the per-event
        fully propagated and past-coherence-point flags when the list
        holds a barrier (only barrier pairs read them).  A step usually
        moves one list, so the other parts are reused.
        """
        threads = storage.threads
        events_lists = storage.events_propagated_to
        chain_keys = storage._events_keys
        barrier_prefix = storage._barrier_prefix
        cps = storage.coherence_points
        memo = self._list_memo
        fully = None
        parts = []
        for tid in threads:
            events = events_lists[tid]
            if barrier_prefix[tid]:
                if fully is None:
                    # Fully propagated = present in every thread's list
                    # (initial writes are born that way).
                    events_pos = storage._events_pos
                    fully = set(events_pos[threads[0]])
                    for other in threads[1:]:
                        fully.intersection_update(events_pos[other])
                flags = (
                    tuple(map(fully.__contains__, events)),
                    tuple(map(cps.__contains__, map(_payload, events))),
                )
            else:
                # Without a barrier only write-write pairs exist, and
                # their liveness reads neither flag.
                flags = None
            # ``chain_keys[tid]`` names the list (unlike ``_events_tuple``
            # it is valid without ``storage.key()``).  Write overlap is
            # read but not keyed: this relies on a write id naming one
            # footprint for the whole search (``TestWriteFootprintInvariant``
            # in ``tests/test_search_strategies.py``).
            memo_key = (tid, chain_keys[tid], flags)
            part = memo.get(memo_key)
            if part is None:
                part = self._list_part(storage, tid, events, flags)
                if len(memo) >= _MEMO_LIMIT:
                    memo.clear()
                memo[memo_key] = part
            parts.append(part)
        return tuple(parts)

    @staticmethod
    def _list_part(storage, tid: int, events, flags) -> CachedKey:
        """One propagation list's ``(tid, (sorted events, live pairs))``.

        ``flags`` is ``None`` for a barrier-free list, else the
        per-event (fully propagated, past coherence point) flags.  Parts
        are ``CachedKey``s, so the state key hashes in O(threads) and
        memoised parts compare by identity.
        """
        overlaps = storage._overlaps
        n = len(events)
        if flags is not None:
            fully, past_cp = flags
        live = []
        for j in range(n):
            tag_j, pay_j = events[j]
            for i in range(j):
                tag_i, pay_i = events[i]
                if tag_i == "w":
                    if tag_j == "w":
                        # Same-byte recency + coherence derivation.
                        alive = pay_j in overlaps[pay_i]
                    else:
                        # w in b's Group A, or w a cp-blocker via b.
                        alive = not past_cp[i] or (
                            pay_j.tid == tid
                            and not fully[i]
                            and not fully[j]
                        )
                elif tag_j == "w":
                    # b gates w's propagation (origin Group A), or
                    # delimits w's cp-blocker prefix.
                    alive = not past_cp[j] or (
                        pay_j.tid == tid
                        and not fully[i]
                        and not fully[j]
                    )
                else:
                    # b1 in b2's origin Group A.
                    alive = (
                        pay_j.tid == tid
                        and not fully[i]
                        and not fully[j]
                    )
                if alive:
                    live.append((i, j))
        # Same order as the events themselves ("b" < "w", then id
        # order), without the Python-level id comparisons.
        sort_keys = [(tag, pay._sort_key) for tag, pay in events]
        order = sorted(range(n), key=sort_keys.__getitem__)
        rank = [0] * n
        for position, k in enumerate(order):
            rank[k] = position
        return CachedKey((
            tid,
            (
                tuple(events[k] for k in order),
                tuple(sorted((rank[i], rank[j]) for i, j in live)),
            ),
        ))
