"""Incremental storage-side enumeration against the from-scratch listing.

``SystemState._storage_transitions`` derives a successor's storage-side
options (write and barrier propagation, sync acknowledgement,
coherence-point commitment) from the list cached on its parent, re-checking
only the candidates whose predicate reads an input the transition changed.
``reference_storage_transitions`` below is the from-scratch enumeration it
replaced, kept verbatim.  Every test here runs searches with *every*
enumeration compared against it, element for element -- order,
``Transition`` equality and label -- because the DFS order, and so every
work count, follows the list.
"""

from contextlib import contextmanager
from typing import List

import pytest

from repro.concurrency.search import SequentialDFS
from repro.concurrency.storage import StorageSubsystem
from repro.concurrency.system import SystemState, Transition
from repro.isa.model import default_model
from repro.litmus import diy
from repro.litmus.library import by_name, corpus
from repro.litmus.runner import build_system, run_litmus


def reference_storage_transitions(self) -> List[Transition]:
    """The storage subsystem's enabled transitions (pure in storage)."""
    storage = self.storage
    transitions: List[Transition] = []
    events_pos = storage._events_pos
    writes_seen = storage.writes_seen
    threads = storage.threads
    for wid in storage.sorted_wids():
        origin = wid.tid
        event = ("w", wid)
        origin_pos = events_pos.get(origin)
        if origin_pos is None or event not in origin_pos:
            continue  # initial write, or not committed by its thread
        for tid in threads:
            # Inlined cheap rejections (already propagated / own thread)
            # before the full precondition check.
            if tid == origin or event in events_pos[tid]:
                continue
            if storage.can_propagate_write(wid, tid):
                transitions.append(
                    Transition(
                        kind="propagate_write",
                        tid=tid,
                        detail=(wid,),
                        label=(
                            f"propagate {writes_seen[wid]}"
                            f" to thread {tid}"
                        ),
                    )
                )
    if storage.barriers_seen:
        for bid in storage.sorted_bids():
            for tid in threads:
                if storage.can_propagate_barrier(bid, tid):
                    barrier = storage.barriers_seen[bid]
                    transitions.append(
                        Transition(
                            kind="propagate_barrier",
                            tid=tid,
                            detail=(bid,),
                            label=f"propagate {barrier} to thread {tid}",
                        )
                    )
    if storage.unacknowledged_syncs:
        for bid in sorted(storage.unacknowledged_syncs):
            if storage.can_acknowledge_sync(bid):
                transitions.append(
                    Transition(
                        kind="ack_sync",
                        detail=(bid,),
                        label=f"acknowledge sync {bid}",
                    )
                )
    coherence_points = storage.coherence_points
    for wid in storage.sorted_wids():
        if wid in coherence_points:
            continue
        if storage.can_reach_coherence_point(wid):
            write = writes_seen[wid]
            transitions.append(
                Transition(
                    kind="reach_coherence_point",
                    detail=(wid,),
                    label=f"{write} reaches its coherence point",
                )
            )
    return transitions


class EnumerationCheck:
    """Counts compared enumerations, and those that differ."""

    def __init__(self):
        self.calls = 0
        self.mismatches = 0
        self.first = ""

    def assert_clean(self):
        assert self.calls > 0
        assert not self.mismatches, (
            f"{self.mismatches} of {self.calls} storage-side "
            f"enumerations differ from the reference; first:\n{self.first}"
        )


def _listing(transitions: List[Transition]):
    return [(t, t.label) for t in transitions]


@contextmanager
def comparing_enumerations():
    """Compare every ``enumerate_transitions`` call with the reference.

    Yields the ``EnumerationCheck`` that counts them; also usable outside
    pytest (CI's dpor-smoke job runs it over a larger generated suite).
    """
    check = EnumerationCheck()
    original = SystemState.enumerate_transitions

    def enumerate_and_compare(self):
        result = original(self)
        derived = self.storage._transitions_cache[0]
        expected = reference_storage_transitions(self)
        check.calls += 1
        tail = result[len(result) - len(derived):]
        if _listing(derived) != _listing(expected) or any(
            a is not b for a, b in zip(tail, derived)
        ):
            check.mismatches += 1
            if check.mismatches == 1:
                check.first = (
                    f"derived  {[t.label for t in derived]}\n"
                    f"expected {[t.label for t in expected]}\n"
                    + self.storage.render()
                )
        return result

    SystemState.enumerate_transitions = enumerate_and_compare
    try:
        yield check
    finally:
        SystemState.enumerate_transitions = original


@pytest.fixture
def compared():
    with comparing_enumerations() as check:
        yield check


@pytest.fixture(scope="module")
def model():
    return default_model()


#: The gen-wide suite (PERFORMANCE.md's blowups come from it) at the
#: genwide-dpor benchmark's budget; up to six threads.
GEN_WIDE = dict(seed=0, size=10, max_threads=6, max_run=4)
GEN_WIDE_BUDGET = 600


def test_curated_corpus(compared, model):
    """Every curated test, the store-conditional (ATOM) ones included."""
    assert {"ATOM-base", "ATOM-intervene"} <= {e.name for e in corpus()}
    for entry in corpus():
        run_litmus(entry.parse(), model, max_states=1500)
    compared.assert_clean()


def test_sync_acknowledgement_options(compared, model):
    """The eager closure takes every enabled acknowledgement, so a search
    never lists one: step storage transitions here without the closure."""
    storage_kinds = ("ack_sync", "propagate_barrier", "propagate_write")
    listed = 0
    for name in ("SB+syncs", "MP+syncs", "R+syncs"):
        state, _ = build_system(by_name(name).parse(), model)
        for _ in range(300):
            transitions = state.enumerate_transitions()
            listed += sum(t.kind == "ack_sync" for t in transitions)
            if not transitions:
                break
            storage_side = [t for t in transitions if t.kind in storage_kinds]
            if storage_side:
                state = state.clone()
                state._apply_in_place(storage_side[-1])
            else:
                state = state.apply(transitions[0])
    assert listed > 0
    compared.assert_clean()


@pytest.mark.parametrize(
    "options",
    [
        dict(reduction="none"),
        dict(reduction="sleep"),
        dict(reduction="dpor"),
    ],
    ids=["none", "sleep", "dpor"],
)
def test_gen_wide_suite(compared, model, options):
    for generated in diy.generate(
        GEN_WIDE["seed"], GEN_WIDE["size"],
        max_threads=GEN_WIDE["max_threads"], max_run=GEN_WIDE["max_run"],
    ):
        run_litmus(
            generated.test, model, max_states=GEN_WIDE_BUDGET, **options
        )
    compared.assert_clean()


def test_witness_search(compared, model):
    system, _ = build_system(by_name("WRC+sync+addr").parse(), model)
    assert SequentialDFS().find_witness(
        system, lambda outcome: False, max_states=3000
    ) is None
    system, _ = build_system(by_name("ATOM-intervene").parse(), model)
    assert SequentialDFS().find_witness(system, lambda outcome: True)
    compared.assert_clean()


class TestHandBuiltStates:
    """Storage states the searches above do not reach."""

    @staticmethod
    def _enumerate(storage):
        state = SystemState.__new__(SystemState)
        state.storage = storage
        state.threads = {}
        state._sorted_tids = []
        listed = state.enumerate_transitions()
        assert _listing(listed) == _listing(
            reference_storage_transitions(state)
        )
        return listed

    def test_transitive_coherence_edge_disables_a_propagation(self):
        from repro.concurrency.events import Write, WriteId, initial_write
        from repro.sail.values import Bits

        storage = StorageSubsystem([0, 1, 2])
        storage.accept_initial_writes(
            [initial_write(0, 0x100, 4, Bits.zeros(32))]
        )
        w0, w1, w2 = (
            Write(
                WriteId(tid, (tid, 0), 0), 0x100, 4,
                Bits.from_int(tid + 1, 32),
            )
            for tid in range(3)
        )
        for write in (w0, w1, w2):
            storage.accept_write(write)
        storage.propagate_write(w0.wid, 1)  # w1 <co w0
        listed = self._enumerate(storage)
        assert any(
            t.kind == "propagate_write" and t.detail == (w1.wid,)
            and t.tid == 2 for t in listed
        )
        # w0 <co w2 closes to w1 <co w2: w1 can no longer reach thread 2,
        # which holds w2.  Only w0 and w2 are the edge's own ends.
        storage = storage.clone()
        storage.propagate_write(w2.wid, 0)
        listed = self._enumerate(storage)
        assert not any(
            t.kind == "propagate_write" and t.detail == (w1.wid,)
            and t.tid == 2 for t in listed
        )


class TestChangeRecord:
    """A change record exists only while an option list is cached."""

    def test_no_record_without_a_cached_list(self, model):
        system, _ = build_system(by_name("MP").parse(), model)
        state = system
        for _ in range(6):
            transitions = [
                t for t in state.enumerate_transitions()
                if t.kind in ("commit_store", "propagate_write")
            ]
            if not transitions:
                break
            state.storage._transitions_cache = None
            state = state.apply(transitions[0])
            assert state.storage._changes is None

    def test_clone_shares_list_and_copies_record(self):
        storage = StorageSubsystem([0, 1])
        storage._transitions_cache = ([], 0, 0, 0)
        clean = storage.clone()
        assert clean._changes is None
        assert clean._transitions_cache is storage._transitions_cache
        storage._record().lists.add(0)
        copy = storage.clone()
        assert copy._changes is not storage._changes
        copy._changes.lists.add(1)
        assert storage._changes.lists == {0}
