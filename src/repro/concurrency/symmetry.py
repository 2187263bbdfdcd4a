"""Thread symmetry and canonical state keys for the DPOR explorer.

Generated (diy-style) litmus tests are frequently *symmetric*: permuting
the threads together with a matching permutation of the data locations
maps the test onto itself (e.g. a store-buffering cycle over n threads
is invariant under rotation).  The explorer then walks n (or n!)
isomorphic copies of every subtree.  This module detects that symmetry
**from the initial system state alone** and supplies the canonical
seen-set keys the ``--reduction dpor`` driver (``search/dpor.py``)
deduplicates on:

* ``detect_symmetry(initial)`` -- brute-force the automorphism group of
  the initial state: a thread permutation pi is valid when every
  thread's code block equals its image's code block word-for-word
  (modulo the entry-point offset) and the initial registers translate
  consistently under a single data-cell permutation sigma (bound from
  register values that are cell addresses).  Automorphisms of the
  initial state compose and invert, so the accepted set is a group.
* ``CanonicalKeys.canonical(state)`` -- the sorted orbit representative
  (see ``keys.orbit_representative``): the minimum over the group of a
  structural encoding of the state with every thread id, instruction
  id, write/barrier id, address and address-valued datum renamed.

Independently of symmetry, the canonical encoding also quotients by the
explorer's *other* residual exponential: per-thread propagation-list
order of non-overlapping writes.  ``reduction.py`` establishes that
every thread-visible function of a propagation list (read values and
provenance, Group-A membership, coherence placement, coherence-point
blocking, final-memory enumeration) is insensitive to the relative
order of non-overlapping write events, yet the orders are key-distinct
-- the blowup the seen-set can never collapse on its own.  The
encoding therefore replaces each propagation list by its *commuting
normal form*: within each barrier-delimited segment (barriers are kept
as hard boundaries), write events are re-emitted greedily smallest-id
first among those whose earlier cell-overlapping events have already
been emitted.  Overlap is tested at data-cell granularity (same cell =
ordered, conservatively), and a write reaching outside every known cell
blocks all reordering around it.

Renamed values are classified by address range: an int inside a data
cell translates through sigma, an int inside a thread's code block
translates by the entry-point delta (branch targets, link registers),
anything else is fixed.  Detection refuses symmetry when an *initial*
value would be misclassified; run-time values are produced by moves of
those initial values, loads, small immediates and CIA arithmetic, all
of which the classification maps faithfully.

When a state embeds an opaque Sail interpreter continuation (the
``interp`` backend) the walk raises ``_Opaque`` and the caller falls
back to the exact ``state.key()`` -- no merging for that state, still
sound.  The identity-only fast path (symmetry off or trivial) skips
the deep walk entirely and reuses the state's memoised component keys,
recomputing only the normal-form event lists.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import permutations
from operator import itemgetter
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..sail.compile import CompiledState
from ..sail.values import Bits
from .events import INITIAL_TID, BarrierId, WriteId
from .keys import CachedKey, orbit_representative
from .system import SystemState, Transition

#: Bound on the per-search walk memo tables.
_MEMO_LIMIT = 1 << 16

#: Wildcard cell index: a footprint reaching outside every known cell.
OUT_OF_CELLS = -1

#: A propagation-list event's write or barrier id.
_payload = itemgetter(1)


class _Opaque(Exception):
    """The state embeds a value the structural walk cannot encode."""


class _Geometry:
    """Shared address-space layout: data cells and per-thread code blocks."""

    __slots__ = (
        "cells", "cell_starts", "cell_order", "blocks", "block_starts",
        "entries",
    )

    def __init__(self, cells, blocks, entries):
        #: (addr, size) per initial-write index, in initial-write order.
        self.cells: List[Tuple[int, int]] = cells
        order = sorted(range(len(cells)), key=lambda i: cells[i][0])
        self.cell_starts = [cells[i][0] for i in order]
        #: Position in ``cell_starts`` -> initial-write index.
        self.cell_order = order
        #: (lo, hi, tid) per thread code block, sorted by lo.
        self.blocks: List[Tuple[int, int, int]] = blocks
        self.block_starts = [lo for lo, _hi, _tid in blocks]
        #: tid -> entry point.
        self.entries: Dict[int, int] = entries

    def locate_cell(self, value: int) -> Optional[Tuple[int, int]]:
        """(cell index, offset) when ``value`` lies inside a data cell."""
        pos = bisect_right(self.cell_starts, value) - 1
        if pos >= 0:
            index = self.cell_order[pos]
            addr, size = self.cells[index]
            if value < addr + size:
                return index, value - addr
        return None

    def locate_code(self, value: int) -> Optional[Tuple[int, int]]:
        """(tid, offset) when ``value`` lies inside a thread's code block."""
        pos = bisect_right(self.block_starts, value) - 1
        if pos >= 0:
            lo, hi, tid = self.blocks[pos]
            if value < hi:
                return tid, value - lo
        return None

    def cells_of_range(self, addr: int, size: int) -> FrozenSet[int]:
        """Indexes of cells a byte range touches (+ wildcard if it leaks).

        Used both for the normal-form overlap test and for the DPOR
        race abstraction's footprints.
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


class SymElem:
    """One group element: a thread permutation + its cell permutation."""

    __slots__ = ("index", "identity", "pi", "pi_inv", "sigma", "sigma_inv",
                 "geometry")

    def __init__(self, index: int, pi: Dict[int, int],
                 sigma: Dict[int, int], geometry: _Geometry):
        self.index = index
        self.pi = pi
        self.pi_inv = {v: k for k, v in pi.items()}
        self.sigma = sigma
        self.sigma_inv = {v: k for k, v in sigma.items()}
        self.geometry = geometry
        self.identity = all(v == k for k, v in pi.items()) and all(
            v == k for k, v in sigma.items()
        )

    # -- renaming ----------------------------------------------------------

    def map_tid(self, tid: int) -> int:
        return self.pi.get(tid, tid)

    def map_cell(self, index: int) -> int:
        return self.sigma.get(index, index)

    def map_val(self, value: int) -> int:
        """Rename an integer datum by address classification."""
        if self.identity:
            return value
        geometry = self.geometry
        cell = geometry.locate_cell(value)
        if cell is not None:
            index, offset = cell
            return geometry.cells[self.sigma[index]][0] + offset
        code = geometry.locate_code(value)
        if code is not None:
            tid, offset = code
            return geometry.entries[self.pi[tid]] + offset
        return value

    # -- tuple encodings (type-stable, totally ordered) --------------------

    def eioid(self, ioid) -> Tuple[int, int]:
        return (self.pi.get(ioid[0], ioid[0]), ioid[1])

    def ewid(self, wid: WriteId) -> tuple:
        if wid.tid == INITIAL_TID:
            index = self.sigma.get(wid.ioid[1], wid.ioid[1])
            return ("W", INITIAL_TID, (INITIAL_TID, index), wid.index)
        tid = self.pi.get(wid.tid, wid.tid)
        return ("W", tid, (tid, wid.ioid[1]), wid.index)

    def ebid(self, bid: BarrierId) -> tuple:
        tid = self.pi.get(bid.tid, bid.tid)
        return ("B", tid, (tid, bid.ioid[1]))

    def ebits(self, value: Bits) -> tuple:
        if value.is_known:
            return ("b", value.width, self.map_val(value.ones))
        return ("u", value.width, value.ones, value.undefs, value.unknowns)


def _identity_elem(geometry: _Geometry, tids) -> SymElem:
    return SymElem(0, {t: t for t in tids},
                   {i: i for i in range(len(geometry.cells))}, geometry)


class SymmetryGroup:
    """The automorphism group of an initial state (identity always first)."""

    __slots__ = ("geometry", "elems")

    def __init__(self, geometry: _Geometry, elems: List[SymElem]):
        self.geometry = geometry
        self.elems = elems

    @property
    def nontrivial(self) -> bool:
        return len(self.elems) > 1


def _build_geometry(initial: SystemState) -> Tuple[_Geometry, List[Bits]]:
    """The address layout plus the initial cell values (wid-index order)."""
    storage = initial.storage
    init = sorted(
        (wid.ioid[1], write)
        for wid, write in storage.writes_seen.items()
        if wid.tid == INITIAL_TID
    )
    cells = [(write.addr, write.size) for _i, write in init]
    values = [write.value for _i, write in init]
    entries = {}
    for tid, thread in initial.threads.items():
        entries[tid] = thread.initial_fetch_address
    blocks: List[Tuple[int, int, int]] = []
    if entries and None not in entries.values():
        by_entry = sorted((entry, tid) for tid, entry in entries.items())
        entry_points = [entry for entry, _tid in by_entry]
        extents = {tid: entry for entry, tid in by_entry}
        orphan = False
        for addr in initial.program_memory:
            pos = bisect_right(entry_points, addr) - 1
            if pos < 0:
                orphan = True
                break
            _entry, tid = by_entry[pos]
            extents[tid] = max(extents[tid], addr + 4)
        if not orphan:
            blocks = sorted(
                (entries[tid], hi, tid) for tid, hi in extents.items()
            )
    return _Geometry(cells, blocks, entries), values


def detect_symmetry(initial: SystemState) -> Optional[SymmetryGroup]:
    """The automorphism group of ``initial``, or ``None`` when trivial.

    Conservative: any layout irregularity (overlapping cells, unknown or
    address-colliding initial values, shared/orphaned code, too many
    threads for brute force) refuses symmetry rather than risking an
    unsound merge.
    """
    tids = sorted(initial.threads)
    n = len(tids)
    if n < 2 or n > 7:
        return None
    geometry, cell_values = _build_geometry(initial)
    cells = geometry.cells
    if not geometry.blocks or len(geometry.blocks) != n:
        return None
    # Non-overlapping cells, disjoint from code: required so that value
    # classification (and hence sigma-translation) is unambiguous.
    spans = sorted(
        [(a, a + s) for a, s in cells]
        + [(lo, hi) for lo, hi, _tid in geometry.blocks]
    )
    for (_a0, end0), (a1, _e1) in zip(spans, spans[1:]):
        if a1 < end0:
            return None
    # Initial cell values must be known plain data: they are compared
    # (not translated) across sigma pairs below.
    for value in cell_values:
        if not value.is_known:
            return None
        plain = value.to_int()
        if geometry.locate_cell(plain) or geometry.locate_code(plain):
            return None
    # Per-thread code signatures: (offset, opcode) word lists.
    signature: Dict[int, tuple] = {tid: () for tid in tids}
    collected: Dict[int, List[Tuple[int, int]]] = {tid: [] for tid in tids}
    for addr, word in initial.program_memory.items():
        located = geometry.locate_code(addr)
        if located is None:
            return None
        tid, offset = located
        collected[tid].append((offset, word))
    for tid in tids:
        signature[tid] = tuple(sorted(collected[tid]))
    regs = {tid: initial.threads[tid].initial_registers for tid in tids}

    def classify(value: int):
        cell = geometry.locate_cell(value)
        if cell is not None:
            return ("cell",) + cell
        code = geometry.locate_code(value)
        if code is not None:
            return ("code",) + code
        return ("plain", value)

    elems: List[SymElem] = []
    for perm in permutations(range(n)):
        pi = {tids[i]: tids[perm[i]] for i in range(n)}
        if any(signature[t] != signature[pi[t]] for t in tids):
            continue
        if any(set(regs[t]) != set(regs[pi[t]]) for t in tids):
            continue
        sigma: Dict[int, int] = {}
        ok = True
        for tid in tids:
            if not ok:
                break
            image = regs[pi[tid]]
            for name, value in regs[tid].items():
                other = image[name]
                if not value.is_known or not other.is_known:
                    # Untranslated by the walk; must match verbatim.
                    if value == other and value.width == other.width:
                        continue
                    ok = False
                    break
                if value.width != other.width:
                    ok = False
                    break
                mine = classify(value.to_int())
                theirs = classify(other.to_int())
                if mine[0] != theirs[0]:
                    ok = False
                    break
                if mine[0] == "cell":
                    if mine[2] != theirs[2]:
                        ok = False
                        break
                    bound = sigma.get(mine[1])
                    if bound is None:
                        sigma[mine[1]] = theirs[1]
                    elif bound != theirs[1]:
                        ok = False
                        break
                elif mine[0] == "code":
                    if mine[2] != theirs[2] or pi[mine[1]] != theirs[1]:
                        ok = False
                        break
                elif mine[1] != theirs[1]:
                    ok = False
                    break
        if not ok:
            continue
        for i in range(len(cells)):
            sigma.setdefault(i, i)
        if sorted(sigma.values()) != list(range(len(cells))):
            continue
        if any(
            cells[i][1] != cells[sigma[i]][1]
            or cell_values[i] != cell_values[sigma[i]]
            for i in range(len(cells))
        ):
            continue
        elems.append(SymElem(len(elems), pi, sigma, geometry))
    if len(elems) <= 1:
        return None
    elems.sort(key=lambda e: not e.identity)  # identity first
    for index, elem in enumerate(elems):
        elem.index = index
    return SymmetryGroup(geometry, elems)


# ----------------------------------------------------------------------
# Canonical keys
# ----------------------------------------------------------------------


def _encode_opt(value, encode):
    return (0,) if value is None else (1, encode(value))


class CanonicalKeys:
    """Canonical seen-keys: normal-form event lists + orbit minimisation.

    One instance lives for one DPOR search.  ``canonical(state)``
    returns ``(key, elem)`` where ``elem`` is the group element whose
    renaming realised the minimum (always the identity in trivial
    mode); the DPOR driver uses it to translate per-state bookkeeping
    into and out of canonical coordinates.
    """

    def __init__(self, initial: SystemState, group: Optional[SymmetryGroup]):
        if group is not None and group.nontrivial:
            self.group = group
            geometry = group.geometry
        else:
            geometry, _values = _build_geometry(initial)
            self.group = None
        self.geometry = geometry
        tids = sorted(initial.threads)
        self.identity = (
            group.elems[0] if self.group else _identity_elem(geometry, tids)
        )
        self.elems = group.elems if self.group else [self.identity]
        #: (addr, size) list the symmetric search must observe (closed
        #: under sigma by construction: sigma permutes cell indexes).
        self.cells = list(geometry.cells)
        self._write_cells: Dict[WriteId, FrozenSet[int]] = {}
        #: Per-list normal-form parts (see ``_events_component``).
        self._list_memo: Dict[tuple, object] = {}
        self._thread_memo: Dict[tuple, tuple] = {}
        self._instance_memo: Dict[tuple, tuple] = {}
        self._storage_memo: Dict[tuple, tuple] = {}

    @property
    def trivial(self) -> bool:
        return self.group is None

    # -- public API --------------------------------------------------------

    def canonical(self, state: SystemState) -> Tuple[CachedKey, SymElem]:
        """The orbit-representative key of ``state`` + the realising elem."""
        if self.group is None:
            return self._canonical_trivial(state), self.identity
        try:
            candidates = [
                self._walk_state(state, elem) for elem in self.elems
            ]
        except _Opaque:
            # Un-encodable continuation (interp backend): exact key, no
            # merging beyond key equality for this state.
            return state.key(), self.identity
        key, index = orbit_representative(candidates)
        return key, self.elems[index]

    def encode_transition(self, elem: SymElem, transition: Transition):
        """A hashable renaming of ``transition`` (canonical coordinates).

        In trivial mode the transition itself is the encoding (only the
        identity ever encodes, so equality is preserved verbatim).
        """
        if self.group is None:
            return transition
        detail = tuple(
            self._encode_detail(elem, part) for part in transition.detail
        )
        return (
            transition.kind,
            _encode_opt(transition.tid, elem.map_tid),
            _encode_opt(transition.ioid, elem.eioid),
            detail,
        )

    def write_cells(self, wid: WriteId, storage) -> FrozenSet[int]:
        """Cell indexes a write touches (memoised; footprints are fixed)."""
        cached = self._write_cells.get(wid)
        if cached is None:
            write = storage.writes_seen[wid]
            cached = self.geometry.cells_of_range(write.addr, write.size)
            if len(self._write_cells) >= _MEMO_LIMIT:
                self._write_cells.clear()
            self._write_cells[wid] = cached
        return cached

    # -- trivial-mode fast path --------------------------------------------

    def _canonical_trivial(self, state: SystemState) -> CachedKey:
        """Identity-only canonical key: real component keys + normal-form
        event lists.  No renaming, no deep thread walk."""
        storage = state.storage
        storage.key()  # materialise the memoised component keys
        threads_part = tuple(
            state.threads[tid].key() for tid in sorted(state.threads)
        )
        events_part = self._events_component(storage, self.identity, raw=True)
        return CachedKey((
            "NF",
            threads_part,
            storage._writes_key,
            storage._coh_key,
            events_part,
            storage._syncs_key,
            storage._atomic_key,
            storage._cp_key,
        ))

    # -- the propagation-list quotient -------------------------------------

    def _events_component(self, storage, elem: SymElem, raw: bool) -> tuple:
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
        thread, the list (its interned chain key), the per-event fully
        propagated and past-coherence-point flags when the list holds a
        barrier (only barrier pairs read them), and the group element.
        A step usually moves one list, so the other parts are reused.
        """
        threads = storage.threads
        events_lists = storage.events_propagated_to
        chain_keys = storage._events_keys
        barrier_prefix = storage._barrier_prefix
        cps = storage.coherence_points
        index = -1 if raw else elem.index
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
            memo_key = (tid, chain_keys[tid], flags, index)
            part = memo.get(memo_key)
            if part is None:
                part = self._list_part(storage, tid, events, flags, elem, raw)
                if len(memo) >= _MEMO_LIMIT:
                    memo.clear()
                memo[memo_key] = part
            parts.append(part)
        return tuple(parts) if raw else tuple(sorted(parts))

    def _list_part(self, storage, tid: int, events, flags,
                   elem: SymElem, raw: bool):
        """One propagation list's ``(tid, (sorted events, live pairs))``.

        ``flags`` is ``None`` for a barrier-free list, else the
        per-event (fully propagated, past coherence point) flags.  Raw
        parts are ``CachedKey``s -- the state key then hashes in
        O(threads) and memoised parts compare by identity; renamed parts
        stay plain tuples, which ``orbit_representative`` orders.
        """
        overlaps = storage._overlaps
        n = len(events)
        if flags is not None:
            fully, past_cp = flags
        live = []
        for j in range(n):
            tag_j, pay_j = events[j]
            if tag_j not in ("w", "b"):  # pragma: no cover
                raise _Opaque()
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
        if raw:
            encoded = events
            # Same order as the events themselves ("b" < "w", then id
            # order), without the Python-level id comparisons.
            sort_keys = [(tag, pay._sort_key) for tag, pay in events]
        else:
            encoded = sort_keys = [
                ("w", elem.ewid(e[1])) if e[0] == "w"
                else ("b", elem.ebid(e[1]))
                for e in events
            ]
        order = sorted(range(n), key=sort_keys.__getitem__)
        rank = [0] * n
        for position, k in enumerate(order):
            rank[k] = position
        part = (
            tid if raw else elem.map_tid(tid),
            (
                tuple(encoded[k] for k in order),
                tuple(sorted((rank[i], rank[j]) for i, j in live)),
            ),
        )
        return CachedKey(part) if raw else part

    # -- the symmetric deep walk -------------------------------------------

    def _walk_state(self, state: SystemState, elem: SymElem) -> tuple:
        by_new_tid = sorted(
            (elem.map_tid(tid), tid) for tid in state.threads
        )
        threads_part = tuple(
            self._walk_thread(state.threads[tid], elem)
            for _new, tid in by_new_tid
        )
        return ("SYMM", threads_part, self._walk_storage(state.storage, elem))

    def _walk_thread(self, thread, elem: SymElem) -> tuple:
        memo_key = (thread.key(), elem.index)
        cached = self._thread_memo.get(memo_key)
        if cached is not None:
            return cached
        instances = thread.instances
        value = (
            elem.map_tid(thread.tid),
            tuple(
                self._walk_instance(instances[ioid], elem)
                for ioid in thread.sorted_ioids()
            ),
            self._walk_reservation(thread.reservation, elem),
        )
        if len(self._thread_memo) >= _MEMO_LIMIT:
            self._thread_memo.clear()
        self._thread_memo[memo_key] = value
        return value

    def _walk_reservation(self, reservation, elem: SymElem) -> tuple:
        if reservation is None:
            return (0,)
        addr, size, wid, ioid = reservation
        return (1, elem.map_val(addr), size, elem.ewid(wid), elem.eioid(ioid))

    def _walk_instance(self, instance, elem: SymElem) -> tuple:
        memo_key = (instance.key(), elem.index)
        cached = self._instance_memo.get(memo_key)
        if cached is not None:
            return cached
        ebits = elem.ebits
        eioid = elem.eioid
        value = (
            eioid(instance.ioid),
            elem.map_val(instance.address),
            instance.instruction.word,
            self._walk_mos(instance.mos, elem),
            tuple(
                (
                    (r.slice.reg, r.slice.lo, r.slice.hi),
                    ebits(r.value),
                    tuple(sorted(eioid(s) for s in r.sources)),
                )
                for r in instance.reg_reads
            ),
            tuple(
                ((r.slice.reg, r.slice.lo, r.slice.hi), ebits(r.value))
                for r in instance.reg_writes
            ),
            tuple(
                (
                    elem.map_val(r.addr),
                    r.size,
                    ebits(r.value),
                    r.kind,
                    tuple(
                        (elem.ewid(wid), off, length)
                        for wid, off, length in r.storage_sources
                    ),
                    _encode_opt(r.forwarded_from, eioid),
                )
                for r in instance.mem_reads
            ),
            tuple(
                (
                    elem.ewid(w.wid),
                    elem.map_val(w.addr),
                    w.size,
                    ebits(w.value),
                    1 if w.is_conditional else 0,
                )
                for w in instance.mem_writes
            ),
            1 if instance.writes_committed else 0,
            _encode_opt(instance.sc_resolved, lambda b: 1 if b else 0),
            _encode_opt(instance.barrier_kind, lambda k: k),
            1 if instance.barrier_committed else 0,
            _encode_opt(instance.nia, elem.map_val),
            1 if instance.finished else 0,
            _encode_opt(instance.prev, eioid),
            tuple(sorted(
                (elem.map_val(addr), eioid(child))
                for addr, child in instance.children.items()
            )),
            tuple(sorted(eioid(s) for s in instance.addr_sources)),
        )
        if len(self._instance_memo) >= _MEMO_LIMIT:
            self._instance_memo.clear()
        self._instance_memo[memo_key] = value
        return value

    def _walk_mos(self, mos: tuple, elem: SymElem) -> tuple:
        tag = mos[0]
        if tag == "done":
            return ("done",)
        if tag == "plain":
            return ("plain", self._walk_sail(mos[1], elem))
        if tag == "blocked_reg":
            reg_slice, pending = mos[1], mos[2]
            return (
                "blocked_reg",
                (reg_slice.reg, reg_slice.lo, reg_slice.hi),
                self._walk_sail(pending, elem),
            )
        if tag == "pending_read":
            _tag, kind, addr, size, pending = mos
            return ("pending_read", kind, elem.map_val(addr), size,
                    self._walk_sail(pending, elem))
        if tag == "pending_sc":
            _tag, addr, size, value, pending = mos
            return ("pending_sc", elem.map_val(addr), size,
                    elem.ebits(value), self._walk_sail(pending, elem))
        raise _Opaque()

    def _walk_sail(self, pending, elem: SymElem) -> tuple:
        if type(pending) is not CompiledState:
            raise _Opaque()
        # ``code`` is a process-wide pure function of ``word`` and the
        # clause, and ``fields`` of ``word``: the word + resume values
        # determine the continuation.
        values = tuple(
            (0,) if v is None else (1, elem.ebits(v))
            for v in pending.values
        )
        return ("CS", pending.word, 1 if pending.pending else 0, values)

    def _walk_storage(self, storage, elem: SymElem) -> tuple:
        storage_key = storage.key()
        memo_key = (storage_key, elem.index)
        cached = self._storage_memo.get(memo_key)
        if cached is not None:
            return cached
        ewid = elem.ewid
        value = (
            tuple(sorted(ewid(wid) for wid in storage.writes_seen)),
            tuple(sorted(
                (ewid(wid), tuple(sorted(ewid(s) for s in successors)))
                for wid, successors in storage.coherence_after.items()
                if successors
            )),
            self._events_component(storage, elem, raw=False),
            tuple(sorted(elem.ebid(b) for b in storage.unacknowledged_syncs)),
            tuple(sorted(elem.ebid(b) for b in storage.acknowledged_syncs)),
            tuple(sorted(
                (ewid(a), ewid(b)) for a, b in storage.atomic_pairs
            )),
            tuple(sorted(ewid(w) for w in storage.coherence_points)),
        )
        if len(self._storage_memo) >= _MEMO_LIMIT:
            self._storage_memo.clear()
        self._storage_memo[memo_key] = value
        return value

    def _encode_detail(self, elem: SymElem, part):
        if isinstance(part, WriteId):
            return elem.ewid(part)
        if isinstance(part, BarrierId):
            return elem.ebid(part)
        if isinstance(part, tuple):  # an Ioid
            return elem.eioid(part)
        return part  # bools (resolve_sc) and other plain scalars


# ----------------------------------------------------------------------
# Outcome closure
# ----------------------------------------------------------------------


def close_outcomes(outcomes, group: SymmetryGroup, requested_cells):
    """Close an outcome set under the group; project memory to
    ``requested_cells`` (in the requested order).

    A symmetric search only reports outcomes of orbit representatives;
    the pruned copies' outcomes are exactly the group translations.
    Register values and stored values are renamed by classification
    (address registers are registers of interest).
    """
    requested = tuple(requested_cells)
    closed = set()
    for register_part, memory_part in outcomes:
        for elem in group.elems:
            registers = tuple(sorted(
                (
                    elem.map_tid(tid),
                    name,
                    None if value is None else elem.map_val(value),
                )
                for tid, name, value in register_part
            ))
            memory = {
                (elem.map_val(addr), size): elem.map_val(value)
                for addr, size, value in memory_part
            }
            closed.add((
                registers,
                tuple(
                    (addr, size, memory[(addr, size)])
                    for addr, size in requested
                ),
            ))
    return closed
