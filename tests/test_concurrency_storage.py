"""Unit and property tests for the storage subsystem."""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from repro.concurrency.events import (
    BarrierEvent,
    BarrierId,
    Write,
    WriteId,
    initial_write,
)
from repro.concurrency.storage import CoherenceViolation, StorageSubsystem
from repro.sail.values import Bits


def _write(tid, index, addr, size, value, unit=0):
    return Write(
        WriteId(tid, (tid, index), unit), addr, size,
        Bits.from_int(value, 8 * size),
    )


def _storage(threads=(0, 1)):
    storage = StorageSubsystem(threads)
    storage.accept_initial_writes([
        initial_write(0, 0x1000, 4, Bits.zeros(32)),
        initial_write(1, 0x1010, 4, Bits.zeros(32)),
    ])
    return storage


class TestAcceptWrite:
    def test_write_joins_own_propagation_list(self):
        storage = _storage()
        write = _write(0, 0, 0x1000, 4, 1)
        storage.accept_write(write)
        assert ("w", write.wid) in storage.events_propagated_to[0]
        assert ("w", write.wid) not in storage.events_propagated_to[1]

    def test_coherence_after_initial_write(self):
        storage = _storage()
        write = _write(0, 0, 0x1000, 4, 1)
        storage.accept_write(write)
        init_wid = next(
            w for w in storage.writes_seen if w.tid == -1
        )
        init = storage.writes_seen[init_wid]
        if init.addr == 0x1000:
            assert storage.coherence_before(init_wid, write.wid)

    def test_same_thread_same_address_ordered(self):
        storage = _storage()
        first = _write(0, 0, 0x1000, 4, 1)
        second = _write(0, 1, 0x1000, 4, 2)
        storage.accept_write(first)
        storage.accept_write(second)
        assert storage.coherence_before(first.wid, second.wid)

    def test_overlapping_mixed_size_ordered(self):
        storage = _storage()
        word = _write(0, 0, 0x1000, 4, 0xAABBCCDD)
        byte = _write(0, 1, 0x1002, 1, 0xEE)
        storage.accept_write(word)
        storage.accept_write(byte)
        assert storage.coherence_before(word.wid, byte.wid)

    def test_duplicate_write_rejected(self):
        storage = _storage()
        write = _write(0, 0, 0x1000, 4, 1)
        storage.accept_write(write)
        with pytest.raises(ValueError):
            storage.accept_write(write)


class TestPropagation:
    def test_propagate_appends_and_orders(self):
        storage = _storage()
        write = _write(0, 0, 0x1000, 4, 1)
        storage.accept_write(write)
        assert storage.can_propagate_write(write.wid, 1)
        storage.propagate_write(write.wid, 1)
        assert ("w", write.wid) in storage.events_propagated_to[1]
        assert not storage.can_propagate_write(write.wid, 1)

    def test_conflicting_coherence_blocks_propagation(self):
        storage = _storage()
        w0 = _write(0, 0, 0x1000, 4, 1)
        w1 = _write(1, 0, 0x1000, 4, 2)
        storage.accept_write(w0)
        storage.accept_write(w1)
        storage.propagate_write(w0.wid, 1)  # w1 <co w0 at thread 1
        assert storage.coherence_before(w1.wid, w0.wid)
        # Now w1 can never propagate to thread 0 past w0.
        assert not storage.can_propagate_write(w1.wid, 0)

    def test_barrier_blocks_following_write(self):
        storage = _storage()
        w0 = _write(0, 0, 0x1000, 4, 1)
        barrier = BarrierEvent(BarrierId(0, (0, 1)), "sync")
        w1 = _write(0, 2, 0x1010, 4, 1)
        storage.accept_write(w0)
        storage.accept_barrier(barrier)
        storage.accept_write(w1)
        # w1 sits after the barrier: it cannot reach thread 1 before it.
        assert not storage.can_propagate_write(w1.wid, 1)
        storage.propagate_write(w0.wid, 1)
        storage.propagate_barrier(barrier.bid, 1)
        assert storage.can_propagate_write(w1.wid, 1)

    def test_barrier_group_a_accepts_superseded_writes(self):
        """A coherence-superseded Group-A write must not wedge the barrier."""
        storage = _storage()
        w_old = _write(0, 0, 0x1000, 4, 1)
        w_new = _write(1, 0, 0x1000, 4, 2)
        storage.accept_write(w_old)
        storage.accept_write(w_new)
        storage.propagate_write(w_new.wid, 0)  # w_old <co w_new
        barrier = BarrierEvent(BarrierId(0, (0, 1)), "sync")
        storage.accept_barrier(barrier)
        # w_old can never reach thread 1 (w_new is already there), but the
        # barrier may still propagate: thread 1 holds a newer version.
        assert not storage.can_propagate_write(w_old.wid, 1)
        assert storage.can_propagate_barrier(barrier.bid, 1)


class TestSyncAcknowledgement:
    def test_ack_requires_propagation_everywhere(self):
        storage = _storage()
        barrier = BarrierEvent(BarrierId(0, (0, 0)), "sync")
        storage.accept_barrier(barrier)
        assert not storage.can_acknowledge_sync(barrier.bid)
        storage.propagate_barrier(barrier.bid, 1)
        assert storage.can_acknowledge_sync(barrier.bid)
        storage.acknowledge_sync(barrier.bid)
        assert barrier.bid in storage.acknowledged_syncs
        assert barrier.bid not in storage.unacknowledged_syncs

    def test_lwsync_never_enters_ack_queue(self):
        storage = _storage()
        barrier = BarrierEvent(BarrierId(0, (0, 0)), "lwsync")
        storage.accept_barrier(barrier)
        assert not storage.unacknowledged_syncs


class TestReadResponse:
    def test_reads_latest_write_per_byte(self):
        storage = _storage()
        word = _write(0, 0, 0x1000, 4, 0x11223344)
        byte = _write(0, 1, 0x1001, 1, 0xEE)
        storage.accept_write(word)
        storage.accept_write(byte)
        value, provenance = storage.read_response(0, 0x1000, 4)
        assert value.to_int() == 0x11EE3344
        assert len(provenance) == 3  # word / byte / word runs

    def test_unwritten_memory_is_an_error(self):
        storage = _storage()
        with pytest.raises(CoherenceViolation):
            storage.read_response(0, 0x9999, 4)

    def test_only_propagated_writes_visible(self):
        storage = _storage()
        write = _write(0, 0, 0x1000, 4, 7)
        storage.accept_write(write)
        value0, _ = storage.read_response(0, 0x1000, 4)
        value1, _ = storage.read_response(1, 0x1000, 4)
        assert value0.to_int() == 7
        assert value1.to_int() == 0


class TestCoherencePoints:
    def test_initial_writes_start_past_cp(self):
        storage = _storage()
        assert storage.all_writes_past_coherence_point()

    def test_simple_cp_commits_order(self):
        storage = _storage()
        w0 = _write(0, 0, 0x1000, 4, 1)
        w1 = _write(1, 0, 0x1000, 4, 2)
        storage.accept_write(w0)
        storage.accept_write(w1)
        assert storage.can_reach_coherence_point(w0.wid)
        storage.reach_coherence_point(w0.wid)
        # w0 at its CP while w1 is not: w0 <co w1 is now committed.
        assert storage.coherence_before(w0.wid, w1.wid)
        storage.reach_coherence_point(w1.wid)
        assert storage.all_writes_past_coherence_point()

    def test_barrier_orders_coherence_points(self):
        storage = _storage()
        w0 = _write(0, 0, 0x1000, 4, 1)
        barrier = BarrierEvent(BarrierId(0, (0, 1)), "lwsync")
        w1 = _write(0, 2, 0x1010, 4, 2)
        storage.accept_write(w0)
        storage.accept_barrier(barrier)
        storage.accept_write(w1)
        # w1 is behind the barrier: its CP must wait for w0's.
        assert not storage.can_reach_coherence_point(w1.wid)
        storage.reach_coherence_point(w0.wid)
        assert storage.can_reach_coherence_point(w1.wid)


class TestAtomicPairs:
    def test_edge_through_pair_rejected(self):
        storage = _storage()
        w_sc = _write(0, 1, 0x1000, 4, 1)
        w_other = _write(1, 0, 0x1000, 4, 2)
        init_wid = next(
            wid for wid, w in storage.writes_seen.items() if w.addr == 0x1000
        )
        storage.accept_write(w_sc)
        storage.atomic_pairs.add((init_wid, w_sc.wid))
        storage.accept_write(w_other)
        # Squeezing w_other between the pair is forbidden.
        assert not storage.can_add_coherence(w_other.wid, w_sc.wid) or (
            not storage.can_add_coherence(init_wid, w_other.wid)
        )


class TestCloneAndKey:
    def test_clone_is_independent(self):
        storage = _storage()
        write = _write(0, 0, 0x1000, 4, 1)
        clone = storage.clone()
        storage.accept_write(write)
        assert write.wid in storage.writes_seen
        assert write.wid not in clone.writes_seen

    def test_key_distinguishes_states(self):
        a = _storage()
        b = _storage()
        assert a.key() == b.key()
        a.accept_write(_write(0, 0, 0x1000, 4, 1))
        assert a.key() != b.key()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0, 1]),
                              st.sampled_from([0x1000, 0x1010]),
                              st.integers(0, 255)),
                    min_size=0, max_size=5))
    def test_coherence_is_acyclic_invariant(self, writes):
        """After any accept/propagate sequence, coherence stays acyclic.

        It also stays transitively closed: dpor's end-game cut tests
        coherence order by direct ``coherence_after`` membership.
        """
        storage = _storage()
        for index, (tid, addr, value) in enumerate(writes):
            write = _write(tid, index, addr, 4, value)
            storage.accept_write(write)
            for target in (0, 1):
                if storage.can_propagate_write(write.wid, target):
                    storage.propagate_write(write.wid, target)
        after = storage.coherence_after
        for wid, successors in after.items():
            assert wid not in successors  # irreflexive
            for succ in successors:
                assert wid not in after.get(succ, set())
                assert after.get(succ, set()) <= successors  # transitive


class TestFinalMemory:
    def test_unrelated_writes_enumerate_both_orders(self):
        storage = _storage()
        w0 = _write(0, 0, 0x1000, 4, 1)
        w1 = _write(1, 0, 0x1000, 4, 2)
        storage.accept_write(w0)
        storage.accept_write(w1)
        finals = storage.final_memory_values([(0x1000, 4)])
        values = {state[(0x1000, 4)] for state in finals}
        assert values == {1, 2}

    def test_committed_coherence_constrains_finals(self):
        storage = _storage()
        w0 = _write(0, 0, 0x1000, 4, 1)
        w1 = _write(1, 0, 0x1000, 4, 2)
        storage.accept_write(w0)
        storage.accept_write(w1)
        storage.add_coherence(w0.wid, w1.wid)
        finals = storage.final_memory_values([(0x1000, 4)])
        values = {state[(0x1000, 4)] for state in finals}
        assert values == {2}

    def test_cell_spanning_two_independent_writes(self):
        # No initial write links the halves: the cell's bytes come from
        # two independent groups.
        storage = StorageSubsystem((0, 1, 2))
        low = _write(0, 0, 0x1000, 2, 0x0102)
        high = _write(1, 0, 0x1002, 2, 0x0304)
        other_low = _write(2, 0, 0x1000, 2, 0x0506)
        for write in (low, high, other_low):
            storage.accept_write(write)
        cells = [(0x1000, 4)]
        finals = storage.final_memory_values(cells)
        assert {state[(0x1000, 4)] for state in finals} == {
            0x01020304, 0x05060304,
        }
        assert _as_set(finals) == _as_set(
            _all_permutations_final_memory(storage, cells)
        )

    def test_atomic_pair_with_read_from_inside_and_outside_cells(self):
        storage = _storage()
        read_from = _write(0, 0, 0x1010, 4, 7)
        cond = _write(1, 0, 0x1020, 4, 1)
        rival = _write(0, 1, 0x1020, 4, 2)
        for write in (read_from, cond, rival):
            storage.accept_write(write)
        storage.record_atomic_pair(read_from.wid, cond.wid)
        # The load-reserve read a write outside the requested cell, so no
        # overlapping write may precede the conditional one at all.
        cells = [(0x1020, 4)]
        finals = storage.final_memory_values(cells)
        assert {state[(0x1020, 4)] for state in finals} == {2}
        assert _as_set(finals) == _as_set(
            _all_permutations_final_memory(storage, cells)
        )
        # Requested, the read-from write is ordered with the pair's group:
        # the rival may then precede it.
        cells = [(0x1010, 4), (0x1020, 4)]
        finals = storage.final_memory_values(cells)
        assert {state[(0x1020, 4)] for state in finals} == {1, 2}
        assert _as_set(finals) == _as_set(
            _all_permutations_final_memory(storage, cells)
        )

    def test_coherence_through_unrequested_writes_links_cells(self):
        # Bridging writes outside the cells order a1 < c1 and c2 < a2 by
        # transitivity, so the two cells' last writers are not independent:
        # a1 last at 0x1000 with c2 last at 0x1003 would need a cycle.
        storage = StorageSubsystem(range(6))
        a1 = _write(0, 0, 0x1000, 2, 0xA1A1)
        a2 = _write(1, 0, 0x1000, 2, 0xA2A2)
        c1 = _write(2, 0, 0x1002, 2, 0xC1C1)
        c2 = _write(3, 0, 0x1002, 2, 0xC2C2)
        b1 = _write(4, 0, 0x1001, 2, 0xB1B1)
        b2 = _write(5, 0, 0x1001, 2, 0xB2B2)
        for write in (a1, a2, c1, c2, b1, b2):
            storage.accept_write(write)
        for first, second in ((a1, b1), (b1, c1), (c2, b2), (b2, a2)):
            storage.add_coherence(first.wid, second.wid)
        cells = [(0x1000, 1), (0x1003, 1)]
        finals = storage.final_memory_values(cells)
        assert {
            (state[(0x1000, 1)], state[(0x1003, 1)]) for state in finals
        } == {(0xA2, 0xC1), (0xA2, 0xC2), (0xA1, 0xC1)}
        assert _as_set(finals) == _as_set(
            _all_permutations_final_memory(storage, cells)
        )

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_all_permutations_reference(self, data):
        """Grouped enumeration yields exactly the all-orders final states."""
        storage, cells = data.draw(_final_memory_scenarios())
        after = storage.coherence_after
        for successors in after.values():
            for succ in successors:
                assert after.get(succ, set()) <= successors  # closed
        finals = storage.final_memory_values(cells)
        assert len(_as_set(finals)) == len(finals)  # no duplicates
        assert _as_set(finals) == _as_set(
            _all_permutations_final_memory(storage, cells)
        )


def _as_set(finals):
    return {tuple(sorted(state.items())) for state in finals}


def _all_permutations_final_memory(storage, addresses):
    """Reference: check every order of every relevant write at once."""
    cells = list(addresses)
    relevant = [
        w
        for w in storage.writes_seen.values()
        if any(w.overlaps(addr, size) for addr, size in cells)
    ]
    results = []
    seen_results = set()
    for order in permutations(sorted(relevant, key=lambda w: w.wid)):
        if not storage._order_consistent(order):
            continue
        memory = {}
        for write in order:
            for i in range(write.size):
                memory[write.addr + i] = write.byte(write.addr + i)
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


_SIZES = st.sampled_from([1, 2, 4, 8])


@st.composite
def _final_memory_scenarios(draw):
    """A storage state over a 32-byte window, plus the cells to evaluate.

    Mixed sizes at byte offsets give partial overlaps; coherence edges
    between any two writes go in whenever ``can_add_coherence`` allows;
    an optional atomic pair may read from a write outside every cell.
    """
    threads = tuple(range(draw(st.integers(2, 3))))
    storage = StorageSubsystem(threads)
    storage.accept_initial_writes([
        initial_write(index, 0x1000 + 4 * index, 4, Bits.zeros(32))
        for index in draw(st.sets(st.integers(0, 5), max_size=2))
    ])
    writes = list(storage.writes_seen.values())
    specs = draw(st.lists(
        st.tuples(st.sampled_from(threads), st.integers(0, 23), _SIZES),
        min_size=2, max_size=6,
    ))
    for index, (tid, offset, size) in enumerate(specs):
        write = _write(tid, index, 0x1000 + offset, size,
                       draw(st.integers(0, (1 << (8 * size)) - 1)))
        storage.accept_write(write)
        writes.append(write)
    indexes = st.integers(0, len(writes) - 1)
    pair = draw(st.none() | st.tuples(indexes, indexes).filter(
        lambda p: p[0] != p[1]
    ))
    if pair is not None:
        storage.record_atomic_pair(writes[pair[0]].wid, writes[pair[1]].wid)
    for first, second in draw(st.lists(st.tuples(indexes, indexes),
                                       max_size=4)):
        first, second = writes[first].wid, writes[second].wid
        if first != second and storage.can_add_coherence(first, second):
            storage.add_coherence(first, second)
    cells = draw(st.lists(
        st.tuples(st.integers(0x1000, 0x1017), _SIZES),
        min_size=1, max_size=3, unique=True,
    ))
    return storage, cells
