"""Commuting-diamond successor reuse against the apply-everything loop.

The unreduced ``core.run_search`` takes the second edge of a commuting
diamond from the record of the first instead of applying it.
``reference_run_search`` below is the loop it replaced, kept verbatim
(with the ``Frontier`` it ran on); the tests compare every work count,
outcome set and witness trace with it.  ``comparing_reuse`` additionally
applies every reused successor and checks that its key is the one the
record supplied.
"""

import os
import subprocess
import sys
from contextlib import contextmanager
from typing import List, Optional, Set, Tuple

import pytest

from repro.concurrency.search import (
    ExplorationLimit,
    ExplorationStats,
    SequentialDFS,
    core,
    sequential,
)
from repro.concurrency.events import WriteId
from repro.concurrency.system import SystemState, Transition
from repro.concurrency.thread import ModelError
from repro.isa.model import default_model
from repro.litmus import diy
from repro.litmus.library import by_name, corpus
from repro.litmus.runner import build_system
from repro.litmus.test import condition_locations

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


class Frontier:
    """DFS frontier + seen-set bookkeeping shared by the search modes.

    Each stack entry is a (state, payload) pair; explore-mode searches
    carry no payload, witness searches carry the transition path.
    Popping counts a visited state against the budget; pushing applies a
    transition, counts it, and deduplicates the successor against the
    seen keys.  ``seen`` lets a caller own the dedup set.
    """

    def __init__(self, initial: SystemState, payload, limit: int,
                 stats: ExplorationStats, seen: Optional[Set] = None):
        self.limit = limit
        self.stats = stats
        self.stack: List[Tuple[SystemState, object]] = [(initial, payload)]
        if seen is None:
            self.seen: Set = {initial.key()}
        else:
            seen.add(initial.key())
            self.seen = seen

    def __bool__(self) -> bool:
        return bool(self.stack)

    def pop(self) -> Tuple[SystemState, object]:
        stats = self.stats
        stats.max_frontier = max(stats.max_frontier, len(self.stack))
        # Budget check *before* counting: an ``ExplorationLimit``'s
        # partial stats must equal the budget exactly, not overstate the
        # work by the one state that was never processed.
        if stats.states_visited >= self.limit:
            raise ExplorationLimit(
                f"exceeded {self.limit} states; increase max_states",
                stats,
            )
        state, payload = self.stack.pop()
        stats.states_visited += 1
        return state, payload

    def push(self, state: SystemState, transition: Transition,
             payload) -> None:
        successor = state.apply(transition)
        self.stats.transitions_taken += 1
        key = successor.key()
        if key not in self.seen:
            self.seen.add(key)
            self.stack.append((successor, payload))


def reference_run_search(initial, visitor, *, limit, stats,
                         strict_deadlocks, payload=None, extend=None,
                         seen=None):
    """The unreduced loop as it was before successor reuse."""
    frontier = Frontier(initial, payload, limit, stats, seen=seen)
    while frontier:
        state, path = frontier.pop()
        if state.is_final():
            # Residual propagate/ack transitions only add coherence edges;
            # the final-memory enumeration over linear extensions of the
            # current partial order already covers every continuation.
            stats.final_states += 1
            found = visitor.on_final(state, path)
            if found is not None:
                return found
            continue
        transitions = state.enumerate_transitions()
        if not transitions:
            if state.threads_finished():
                # Threads complete but some write cannot reach its coherence
                # point (a barrier-induced cycle): a dead path representing
                # coherence choices no hardware execution can realise.
                stats.deadlocks += 1
                visitor.on_deadlock(state)
                continue
            if strict_deadlocks:
                raise ModelError(
                    "deadlock: no transitions from a non-final state\n"
                    + state.render()
                )
            continue
        if extend is None:
            for transition in transitions:
                frontier.push(state, transition, None)
        else:
            for transition in transitions:
                frontier.push(state, transition, extend(path, transition))
    return None


@contextmanager
def reference_search():
    """Run every unreduced search through ``reference_run_search``."""
    original = sequential.run_search

    def dispatch(initial, visitor, *, reducer=None, canon=None, **options):
        if reducer is None:
            return reference_run_search(initial, visitor, **options)
        return core.run_search(
            initial, visitor, reducer=reducer, canon=canon, **options
        )

    sequential.run_search = dispatch
    try:
        yield
    finally:
        sequential.run_search = original


class ReuseCheck:
    """Counts reused successors, and those whose applied key differs."""

    def __init__(self):
        self.calls = 0
        self.mismatches = 0
        self.first = ""

    def assert_clean(self):
        assert self.calls > 0
        assert not self.mismatches, (
            f"{self.mismatches} of {self.calls} reused successor keys "
            f"differ from the applied transition's; first:\n{self.first}"
        )


@contextmanager
def comparing_reuse():
    """Apply every reused successor and compare its key with the record's.

    Yields the ``ReuseCheck`` that counts them; also usable outside pytest
    (CI's reduction-smoke job runs it over a larger generated suite).
    """
    check = ReuseCheck()

    def apply_and_compare(state, transition, key):
        check.calls += 1
        if state.apply(transition).key() != key:
            check.mismatches += 1
            if check.mismatches == 1:
                check.first = f"{transition} from\n{state.render()}"

    saved = core.reuse_hook
    core.reuse_hook = apply_and_compare
    try:
        yield check
    finally:
        core.reuse_hook = saved


@pytest.fixture
def compared():
    with comparing_reuse() as check:
        yield check


@pytest.fixture(scope="module")
def model():
    return default_model()


def _cells(test, addresses):
    size = 8 if test.doubleword else 4
    return [
        (addresses[var], size)
        for var in sorted(set(condition_locations(test.condition)))
    ]


def _counts(stats: ExplorationStats):
    return (
        stats.states_visited, stats.transitions_taken, stats.final_states,
        stats.deadlocks, stats.max_frontier, stats.unique_states,
    )


def _explore(test, model, search, budget):
    """(outcomes and completeness, work counts, reused successors)."""
    system, addresses = build_system(test, model)
    result = search.explore(
        system, memory_cells=_cells(test, addresses), max_states=budget
    )
    stats = result.stats
    return (
        (result.outcomes, result.stop_reason),
        _counts(stats),
        stats.reused_successors,
    )


def _against_reference(tests, model, search, budget):
    """Explore each test with reuse and with the reference; returns the
    total reused successors after asserting identical results."""
    reused = 0
    for test in tests:
        outcome, counts, reused_here = _explore(test, model, search, budget)
        with reference_search():
            expected, expected_counts, none = _explore(
                test, model, search, budget
            )
        assert none == 0
        assert (outcome, counts) == (expected, expected_counts), test.name
        reused += reused_here
    return reused


#: The diy suite of the cross-check: up to six threads.
GENERATED = dict(seed=0, size=24, max_threads=6)


def test_curated_corpus(compared, model):
    """Every curated test, the store-conditional (ATOM) ones included."""
    assert {"ATOM-base", "ATOM-intervene"} <= {e.name for e in corpus()}
    tests = [entry.parse() for entry in corpus()]
    assert _against_reference(tests, model, SequentialDFS(), 1500) > 0
    compared.assert_clean()


def test_generated_suite(compared, model):
    tests = [
        generated.test for generated in diy.generate(
            GENERATED["seed"], GENERATED["size"],
            max_threads=GENERATED["max_threads"],
        )
    ]
    assert _against_reference(tests, model, SequentialDFS(), 1500) > 0
    compared.assert_clean()


def _trace(witness):
    if witness is None:
        return None
    return (
        [(t, t.label) for t in witness.trace],
        witness.final_state.key(),
        _counts(witness.stats),
    )


@pytest.mark.parametrize(
    "name", ["MP", "SB+syncs", "WRC+sync+addr", "ATOM-intervene", "R+syncs"]
)
def test_witness_traces(compared, model, name):
    """Each outcome's witness trace, and the unsatisfiable search."""
    test = by_name(name).parse()
    system, addresses = build_system(test, model)
    cells = _cells(test, addresses)
    outcomes = sorted(
        SequentialDFS().explore(system, memory_cells=cells).outcomes,
        key=repr,
    )
    for target in outcomes + [None]:
        predicate = target.__eq__ if target is not None else (
            lambda outcome: False
        )
        found = SequentialDFS().find_witness(system, predicate, cells)
        with reference_search():
            expected = SequentialDFS().find_witness(system, predicate, cells)
        assert (found is None) == (target is None)
        assert _trace(found) == _trace(expected)
    compared.assert_clean()


def test_small_record_bound_keeps_counts(compared, model, monkeypatch):
    """Evicted records only cost reuse: the counts stay the reference's."""
    tests = [by_name(name).parse() for name in ("SB+syncs", "2+2W", "R+syncs")]
    unbounded = _against_reference(tests, model, SequentialDFS(), 3000)
    monkeypatch.setattr(core, "SUCCESSOR_RECORD_LIMIT", 4)
    bounded_reuse = _against_reference(tests, model, SequentialDFS(), 3000)
    assert 0 < bounded_reuse < unbounded
    compared.assert_clean()


class TestReusedSuccessorCounter:
    def test_applies_are_the_transitions_not_reused(self, model,
                                                    monkeypatch):
        """``transitions_taken - reused_successors`` is the number of
        ``SystemState.apply`` calls, on every curated test."""
        calls = [0]
        original = SystemState.apply

        def counted(self, transition):
            calls[0] += 1
            return original(self, transition)

        monkeypatch.setattr(SystemState, "apply", counted)
        reused = 0
        for entry in corpus():
            test = entry.parse()
            system, addresses = build_system(test, model)
            calls[0] = 0
            stats = SequentialDFS().explore(
                system, memory_cells=_cells(test, addresses),
                max_states=500,
            ).stats
            assert stats.transitions_taken - stats.reused_successors == (
                calls[0]
            ), entry.name
            reused += stats.reused_successors
        assert reused > 0

    @pytest.mark.parametrize("reduction", ["sleep", "dpor"])
    def test_zero_under_reductions(self, model, reduction):
        for entry in corpus():
            test = entry.parse()
            system, addresses = build_system(test, model)
            stats = SequentialDFS(reduction=reduction).explore(
                system, memory_cells=_cells(test, addresses),
                max_states=500,
            ).stats
            assert stats.transitions_taken > 0
            assert stats.reused_successors == 0, entry.name

    def test_merge_and_verdict_round_trip(self):
        from repro.service.engine import _stats_from_dict, _stats_to_dict

        total = ExplorationStats(reused_successors=3)
        total.merge(ExplorationStats(reused_successors=4))
        assert total.reused_successors == 7
        assert _stats_from_dict(_stats_to_dict(total)) == total
        row = _stats_to_dict(total)
        del row["reused_successors"]  # a row stored before the counter
        assert _stats_from_dict(row).reused_successors == 0


class TestTransitionHash:
    SAMPLES = [
        Transition("propagate_write", 1, None, (WriteId(0, (0, 1), 0),),
                   label="propagate W x=1 to thread 1"),
        Transition("satisfy_read_storage", 0, (0, 2)),
        Transition("reach_coherence_point", None, None,
                   (WriteId(1, (1, 0), 0),)),
    ]

    def test_hash_is_the_field_tuple_hash(self):
        for transition in self.SAMPLES:
            assert hash(transition) == hash((
                transition.kind, transition.tid, transition.ioid,
                transition.detail,
            ))
            relabelled = Transition(
                transition.kind, transition.tid, transition.ioid,
                transition.detail, label="other",
            )
            assert relabelled == transition
            assert hash(relabelled) == hash(transition)

    _PROBE = """
import pickle, sys
sys.path.insert(0, {src!r})
from repro.concurrency.events import WriteId
from repro.concurrency.system import Transition
samples = [
    Transition("propagate_write", 1, None, (WriteId(0, (0, 1), 0),),
               label="propagate W x=1 to thread 1"),
    Transition("satisfy_read_storage", 0, (0, 2)),
]
if sys.argv[1] == "dump":
    print(pickle.dumps(samples).hex())
else:
    loaded = pickle.loads(bytes.fromhex(sys.argv[2]))
    assert [hash(t) for t in loaded] == [hash(t) for t in samples]
    assert set(loaded) == set(samples)
    assert [t.label for t in loaded] == [t.label for t in samples]
    print("ok")
"""

    def test_unpickled_hash_follows_the_hash_seed(self, tmp_path):
        """Pickled under one ``PYTHONHASHSEED``, hashed under another."""
        script = tmp_path / "probe.py"
        script.write_text(self._PROBE.format(src=_SRC))

        def probe(seed, *args):
            return subprocess.run(
                [sys.executable, str(script), *args],
                capture_output=True, text=True, check=True,
                env=dict(os.environ, PYTHONHASHSEED=seed),
            ).stdout.strip()

        assert probe("2", "check", probe("1", "dump")) == "ok"
