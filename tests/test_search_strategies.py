"""The search backend and its one partial-result contract.

``SequentialDFS`` is the only search backend:

  * it stays bit-identical (states visited, transitions taken,
    outcomes) to the pre-refactor engine -- pinned against the recorded
    seed-baseline counters;
  * a search the state budget stops returns the outcomes found so far
    flagged ``complete=False`` (``stop_reason`` is the budget's
    ``ExplorationLimit`` message, ``states_visited`` equals the budget)
    instead of raising.  Those outcomes are real executions: a subset of
    the complete search's, with the complete verdict or "StateLimit" --
    checked on the curated corpus and a seed-0 generated sample, with and
    without reduction;
  * an exhausted witness search still raises ``ExplorationLimit``.

The heavier 3-4-thread curated shapes run under the ``slow`` marker; the
full slow sweep is opt-in via ``PPCMEM2_SEARCH_FULL=1``.
"""

import os
from contextlib import contextmanager

import pytest

from repro.concurrency.exhaustive import ExplorationLimit, explore
from repro.concurrency.parallel import corpus_job_count, default_job_count
from repro.concurrency.search import SequentialDFS
from repro.isa.model import default_model
from repro.litmus.library import by_name, corpus
from repro.litmus.runner import build_system, run_litmus
from repro.service.engine import EngineRequest, EnvelopeEngine

#: 3-4 thread tests whose exhaustive exploration takes minutes
#: (mirrors tests/test_litmus_corpus.py; IRIW+syncs exceeds the budget).
SLOW = {
    "IRIW", "IRIW+addrs", "IRIW+syncs", "RWC+syncs", "ISA2",
    "WRC", "WRC+addrs", "WRC+sync+addr", "WRC+lwsync+addr",
    "ISA2+sync+data+addr", "2+2W", "2+2W+syncs", "2+2W+lwsyncs",
    "LB+datas+WW", "LB+addrs+WW", "PPOCA", "PPOAA",
}

FAST_NAMES = sorted(e.name for e in corpus() if e.name not in SLOW)
#: Representative heavy shapes checked by default under ``slow``.
SLOW_SAMPLE = ["WRC+sync+addr", "2+2W+syncs", "LB+addrs+WW"]
SLOW_FULL = sorted(SLOW - {"IRIW+syncs"})


@pytest.fixture(scope="module")
def model():
    return default_model()


def _assert_cut_agrees(test, model, reference, **options):
    """Cut the search at half its complete size: the partial result must
    agree with ``reference`` (a complete unreduced search of the same
    test).

    The cut search visits exactly the budget, keeps a subset of the
    envelope, and its status is the complete verdict or "StateLimit".
    """
    full = run_litmus(test, model, **options) if options else reference
    assert full.exploration.complete, test.name
    budget = max(1, full.exploration.stats.states_visited // 2)
    cut = run_litmus(test, model, max_states=budget, **options)
    label = f"{test.name} at {budget} states"
    exploration = cut.exploration
    assert not exploration.complete, label
    assert exploration.stop_reason.startswith(f"exceeded {budget} states")
    assert exploration.stats.states_visited == budget, label
    assert cut.outcomes <= reference.outcomes, label
    assert cut.status in (reference.status, "StateLimit"), label
    return cut


def _assert_partial_agrees(name, model):
    test = by_name(name).parse()
    _assert_cut_agrees(test, model, run_litmus(test, model))


class TestCuratedCorpusEquivalence:
    """Every curated test: a budget-cut search agrees with the complete
    one (see ``_assert_cut_agrees``)."""

    @pytest.mark.parametrize("name", FAST_NAMES)
    def test_fast_entries(self, model, name):
        _assert_partial_agrees(name, model)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", SLOW_SAMPLE)
    def test_slow_sample_entries(self, model, name):
        _assert_partial_agrees(name, model)

    @pytest.mark.slow
    @pytest.mark.skipif(
        not os.environ.get("PPCMEM2_SEARCH_FULL"),
        reason="full slow-corpus partial-result sweep is opt-in "
        "(PPCMEM2_SEARCH_FULL=1)",
    )
    @pytest.mark.parametrize("name", sorted(set(SLOW_FULL) - set(SLOW_SAMPLE)))
    def test_slow_full_sweep(self, model, name):
        _assert_partial_agrees(name, model)


class TestGeneratedSampleEquivalence:
    def test_seed0_sample(self, model):
        from repro.litmus import diy

        tests = diy.generate(0, 8, max_threads=2)
        assert len(tests) == 8
        for generated in tests:
            reference = run_litmus(generated.test, model)
            _assert_cut_agrees(generated.test, model, reference)


class TestSequentialBitIdentity:
    """The refactored sequential engine equals the recorded baseline."""

    #: (states, transitions, finals) pinned from BENCH_e6.json / the seed.
    EXPECTED = {
        "MP": (316, 752, 26),
        "SB+syncs": (1125, 2542, 32),
        "R": (1390, 3284, 106),
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_counters_match_baseline(self, model, name):
        result = run_litmus(by_name(name).parse(), model)
        stats = result.exploration.stats
        states, transitions, finals = self.EXPECTED[name]
        assert stats.states_visited == states
        assert stats.transitions_taken == transitions
        assert stats.final_states == finals


class TestWitnessEquivalence:
    """Witness searches, unreduced and under an ample context bound
    (the pruning loop, with a bound that cuts nothing on MP)."""

    SEARCHES = [SequentialDFS(), SequentialDFS(context_bound=64)]

    @pytest.mark.parametrize(
        "search", SEARCHES, ids=["sequential", "bounded"]
    )
    def test_witness_found_and_replayable(self, model, search):
        system, _ = build_system(by_name("MP").parse(), model)
        witness = search.find_witness(system, lambda outcome: True)
        assert witness is not None
        trace, final = witness
        assert final.is_final()
        assert len(trace) > 0
        assert witness.stats.states_visited > 0
        # The trace must actually drive the initial state to a final one.
        state = system
        for transition in trace:
            state = state.apply(transition)
        assert state.is_final()

    @pytest.mark.parametrize(
        "search", SEARCHES, ids=["sequential", "bounded"]
    )
    def test_unsatisfiable_predicate(self, model, search):
        system, _ = build_system(by_name("MP").parse(), model)
        assert search.find_witness(system, lambda outcome: False) is None


class TestDporWitness:
    """dpor answers witness searches itself, with valid traces."""

    #: Every curated test but IRIW, IRIW+syncs, RWC+syncs and ISA2
    #: completes under dpor within this budget.
    BUDGET = 2_000

    def test_curated_witnesses_match_the_verdict(self, model, monkeypatch):
        from repro.concurrency.search import dpor
        from repro.concurrency.search.core import outcome_of
        from repro.litmus.test import condition_locations, evaluate_condition

        driver_calls = []
        run_dpor = dpor.run_dpor

        def counting_run_dpor(*args, **kwargs):
            driver_calls.append(kwargs["extend"] is not None)
            return run_dpor(*args, **kwargs)

        monkeypatch.setattr(dpor, "run_dpor", counting_run_dpor)
        checked = 0
        for entry in corpus():
            test = entry.parse()
            reference = run_litmus(
                test, model, max_states=self.BUDGET, reduction="dpor"
            )
            if not reference.exploration.complete:
                continue
            system, addresses = build_system(test, model)
            size = 8 if test.doubleword else 4
            cells = [
                (addresses[var], size)
                for var in sorted(set(condition_locations(test.condition)))
            ]
            names = {addr: var for var, addr in addresses.items()}

            def satisfies(outcome):
                registers, memory = outcome
                return evaluate_condition(
                    test.condition,
                    {(tid, reg): value for tid, reg, value in registers},
                    {names[addr]: value for addr, _size, value in memory
                     if addr in names},
                )

            witness = SequentialDFS("dpor").find_witness(
                system, satisfies, cells, max_states=self.BUDGET
            )
            assert (witness is not None) == reference.witnessed, entry.name
            checked += 1
            if witness is None:
                continue
            state = system
            for transition in witness.trace:
                state = state.apply(transition)
            assert state.is_final(), entry.name
            assert state.key() == witness.final_state.key(), entry.name
            assert any(
                satisfies(outcome) for outcome in outcome_of(state, cells)
            ), entry.name
        assert checked >= 44
        # One explore and one witness search per checked test, both run
        # by the dpor driver.
        assert driver_calls.count(True) == checked


class TestBoundedDegradation:
    """A search the state budget stops returns a flagged partial result."""

    def test_partial_result_is_flagged_not_raised(self, model):
        test = by_name("SB+syncs").parse()
        result = run_litmus(test, model, max_states=200)
        assert result.status == "StateLimit"
        assert not result.exploration.complete
        assert result.exploration.stop_reason == (
            "exceeded 200 states; increase max_states"
        )
        assert result.exploration.stats.states_visited == 200
        full = run_litmus(test, model)
        # Partial outcome sets under-approximate the envelope.
        assert result.outcomes <= full.outcomes

    def test_partial_witness_yields_sound_allowed(self, model):
        """Partial outcome sets under-approximate the envelope, so an
        existential verdict found within the budget survives
        incompleteness instead of degrading to StateLimit."""
        test = by_name("MP").parse()  # exists-test, witness found early
        result = run_litmus(test, model, max_states=80)
        assert not result.exploration.complete
        assert result.witnessed
        assert result.status == "Allowed"

    def test_partial_without_witness_stays_statelimit(self, model):
        test = by_name("MP").parse()
        result = run_litmus(test, model, max_states=40)
        assert not result.exploration.complete
        assert not result.witnessed
        assert result.status == "StateLimit"

    def test_ample_budget_is_complete_and_identical(self, model):
        test = by_name("MP").parse()
        budgeted = run_litmus(test, model, max_states=10_000)
        reference = run_litmus(test, model)
        assert budgeted.exploration.complete
        assert budgeted.exploration.stop_reason is None
        assert budgeted.outcomes == reference.outcomes
        assert (
            budgeted.exploration.stats.states_visited
            == reference.exploration.stats.states_visited
        )


class TestPartialVerdicts:
    """The curated tests a 500-state budget stops, whose partial outcome
    sets already witness the architected "Allowed" (the corpus-plain
    benchmark's budget)."""

    @pytest.mark.parametrize(
        "name", ["PPOCA", "SB+lwsyncs", "R", "S", "2+2W", "WRC"]
    )
    def test_allowed_within_500_states(self, model, name):
        entry = by_name(name)
        result = run_litmus(entry.parse(), model, max_states=500)
        assert not result.exploration.complete
        assert result.exploration.stats.states_visited == 500
        assert result.status == entry.architected == "Allowed"


class TestBoundedWitnessSoundness:
    def test_exhausted_witness_search_raises_not_none(self, model):
        """An inconclusive witness search must not look like a proof."""
        system, _ = build_system(by_name("SB+syncs").parse(), model)
        with pytest.raises(ExplorationLimit) as excinfo:
            SequentialDFS().find_witness(
                system, lambda outcome: False, max_states=50
            )
        assert excinfo.value.stats is not None
        assert excinfo.value.stats.states_visited == 50


class TestPartialStatsAccounting:
    def test_exploration_limit_carries_stats(self, model):
        system, _ = build_system(by_name("SB+syncs").parse(), model)
        result = explore(system, max_states=100)
        assert result.complete is False
        assert result.stop_reason.startswith("exceeded 100 states")
        # The budget is checked *before* a state is popped and counted:
        # partial stats equal the budget exactly (regression: the old
        # loop counted first and reported 101).
        assert result.stats.states_visited == 100

    def test_reduced_limit_stats_equal_budget(self, model):
        system, _ = build_system(by_name("SB+syncs").parse(), model)
        for reduction in ("sleep", "dpor"):
            result = explore(system, max_states=100, reduction=reduction)
            assert result.complete is False, reduction
            assert result.stats.states_visited == 100, reduction

    def test_corpus_totals_count_exhausted_work(self, model):
        entry = by_name("SB+syncs")
        request = EngineRequest(source=entry.source, max_states=100)
        for jobs in (1, 2):
            batch = EnvelopeEngine().run_batch([request] * 2, jobs=jobs)
            for verdict in batch.verdicts:
                assert verdict.status == "StateLimit"
                assert not verdict.complete
                assert verdict.error
                assert verdict.stats["states_visited"] > 0
            assert batch.merged_stats().states_visited > 0


class TestWorkerBudgetComposition:
    def test_affinity_respected(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert default_job_count() == 2

    def test_cpu_count_fallback(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert default_job_count() == 3

    def test_plan_prefers_corpus_sharding(self):
        # One worker per test while the budget lasts.
        assert corpus_job_count(4, 10) == 4
        assert corpus_job_count(4, 4) == 4
        assert corpus_job_count(8, 2) == 2

    def test_plan_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            corpus_job_count(0, 3)

    def test_plan_budget_smaller_than_corpus(self):
        # Fewer workers than tests: every worker runs tests back to
        # back sequentially.
        assert corpus_job_count(2, 5) == 2
        assert corpus_job_count(1, 1) == 1
        assert corpus_job_count(7, 100) == 7

    def test_plan_empty_corpus_does_not_oversubscribe(self):
        # An empty corpus runs inline instead of starting a pool with
        # nothing to run.
        assert corpus_job_count(8, 0) == 1
        assert corpus_job_count(1, 0) == 1

    def test_plan_never_oversubscribes_budget(self):
        for budget in range(1, 13):
            for test_count in range(0, 13):
                jobs = corpus_job_count(budget, test_count)
                assert 1 <= jobs <= budget, (budget, test_count, jobs)
                assert jobs <= max(test_count, 1), (budget, test_count, jobs)


def _reduction_matrix(model, reduction, cut):
    """MP, SB+syncs and R under ``reduction``: complete and identical to
    the unreduced search, or (``cut``) stopped at half the reduced
    search's states with a partial result that agrees with it."""
    for name in ("MP", "SB+syncs", "R"):
        test = by_name(name).parse()
        reference = run_litmus(test, model)
        if cut:
            _assert_cut_agrees(test, model, reference, reduction=reduction)
            continue
        reduced = run_litmus(test, model, reduction=reduction)
        label = f"{name} under {reduction}"
        assert reduced.exploration.complete, label
        assert reduced.status == reference.status, label
        assert reduced.outcomes == reference.outcomes, label


class TestReductionEquivalence:
    """Sleep-set reduction preserves the verdict and the outcome set.

    Outcome sets must be bit-identical to the unreduced search on the
    curated corpus and a seed-0 generated sample; a reduced search the
    budget cuts keeps a subset of them.
    """

    @pytest.mark.parametrize("name", FAST_NAMES)
    def test_fast_entries_sequential(self, model, name):
        test = by_name(name).parse()
        reference = run_litmus(test, model)
        reduced = run_litmus(test, model, reduction="sleep")
        assert reduced.exploration.complete, name
        assert reduced.status == reference.status, name
        assert reduced.outcomes == reference.outcomes, name
        assert reduced.witnessed == reference.witnessed, name

    @pytest.mark.parametrize("cut", [False, True], ids=["sequential", "bounded"])
    def test_strategy_matrix(self, model, cut):
        _reduction_matrix(model, "sleep", cut)

    def test_gen_seed0_sample(self, model):
        from repro.litmus import diy

        for generated in diy.generate(0, 8, max_threads=2):
            reference = run_litmus(generated.test, model)
            reduced = run_litmus(generated.test, model, reduction="sleep")
            label = generated.name
            assert reduced.status == reference.status, label
            assert reduced.outcomes == reference.outcomes, label

    @pytest.mark.slow
    @pytest.mark.parametrize("name", SLOW_SAMPLE)
    def test_slow_sample_entries(self, model, name):
        test = by_name(name).parse()
        reference = run_litmus(test, model)
        reduced = run_litmus(test, model, reduction="sleep")
        assert reduced.status == reference.status, name
        assert reduced.outcomes == reference.outcomes, name

    def test_reduction_visits_fewer_states(self, model):
        test = by_name("SB+syncs").parse()
        reference = run_litmus(test, model)
        reduced = run_litmus(test, model, reduction="sleep")
        assert (
            reduced.exploration.stats.states_visited
            < reference.exploration.stats.states_visited
        )

    def test_unique_states_accounted(self, model):
        result = run_litmus(by_name("MP").parse(), model)
        stats = result.exploration.stats
        assert 0 < stats.unique_states <= stats.states_visited


class TestDporEquivalence:
    """Source-DPOR preserves the verdict and the outcome set.

    ``reduction="dpor"`` must answer every oracle question identically
    to the unreduced reference on the curated corpus and a seed-0
    generated sample; a dpor search the budget cuts keeps a subset of
    the outcomes.
    """

    @pytest.mark.parametrize("name", FAST_NAMES)
    def test_fast_entries_sequential(self, model, name):
        test = by_name(name).parse()
        reference = run_litmus(test, model)
        reduced = run_litmus(test, model, reduction="dpor")
        assert reduced.exploration.complete, name
        assert reduced.status == reference.status, name
        assert reduced.outcomes == reference.outcomes, name
        assert reduced.witnessed == reference.witnessed, name

    @pytest.mark.parametrize("cut", [False, True], ids=["sequential", "bounded"])
    def test_strategy_matrix(self, model, cut):
        _reduction_matrix(model, "dpor", cut)

    def test_gen_seed0_sample(self, model):
        from repro.litmus import diy

        for generated in diy.generate(0, 8, max_threads=2):
            reference = run_litmus(generated.test, model)
            reduced = run_litmus(generated.test, model, reduction="dpor")
            label = generated.name
            assert reduced.status == reference.status, label
            assert reduced.outcomes == reference.outcomes, label

    @pytest.mark.parametrize("name", ["ATOM-base", "ATOM-intervene"])
    def test_atomics_disabled_sibling_regression(self, model, name):
        """Store-conditional branches disable each other; taking one
        makes the sibling never *occur* below, so an occurrence-based
        race scan alone would drop the other resolution's outcomes
        (ATOM-base lost its success final before the disabled-sibling
        repair in ``run_dpor``).  Pin both resolutions survive."""
        test = by_name(name).parse()
        reference = run_litmus(test, model)
        reduced = run_litmus(test, model, reduction="dpor")
        assert reduced.exploration.complete, name
        assert reduced.outcomes == reference.outcomes, name
        assert reduced.status == reference.status, name

    def test_dpor_visits_no_more_states_than_sleep(self, model):
        test = by_name("SB+syncs").parse()
        sleep = run_litmus(test, model, reduction="sleep")
        dpor = run_litmus(test, model, reduction="dpor")
        assert (
            dpor.exploration.stats.states_visited
            < sleep.exploration.stats.states_visited
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("name", SLOW_SAMPLE)
    def test_slow_sample_entries(self, model, name):
        test = by_name(name).parse()
        reference = run_litmus(test, model)
        reduced = run_litmus(test, model, reduction="dpor")
        assert reduced.status == reference.status, name
        assert reduced.outcomes == reference.outcomes, name


#: A thread-symmetric SB+syncs: each thread's code and registers map
#: onto the other's under x <-> y.  None of the curated tests is
#: symmetric; dpor must key it like any other test.
SYMMETRIC_SB_SYNCS = """POWER SB+syncs-symmetric
{
0:r1=x; 0:r2=y; 0:r3=1;
1:r1=y; 1:r2=x; 1:r3=1;
x=0; y=0;
}
 P0           | P1           ;
 stw r3,0(r1) | stw r3,0(r1) ;
 sync         | sync         ;
 lwz r4,0(r2) | lwz r4,0(r2) ;
exists (0:r4=0 /\\ 1:r4=0)
"""


def _reference_events_component(storage):
    """``CanonicalKeys._events_component`` as it was before its per-list
    memo: the body verbatim, minus its whole-storage memo."""
    threads = storage.threads
    events_pos = storage._events_pos
    cps = storage.coherence_points
    overlaps = storage._overlaps
    parts = []
    for tid in threads:
        events = storage.events_propagated_to[tid]
        n = len(events)
        # Fully propagated = present in every thread's list; initial
        # writes are born that way.
        fully = [
            all(event in events_pos[t] for t in threads)
            for event in events
        ]
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
                        alive = pay_i not in cps or (
                            pay_j.tid == tid
                            and not fully[i]
                            and not fully[j]
                        )
                elif tag_j == "w":
                    # b gates w's propagation (origin Group A), or
                    # delimits w's cp-blocker prefix.
                    alive = pay_j not in cps or (
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
        order = sorted(range(n), key=lambda k: events[k])
        rank = [0] * n
        for position, k in enumerate(order):
            rank[k] = position
        parts.append((
            tid,
            (
                tuple(events[k] for k in order),
                tuple(sorted((rank[i], rank[j]) for i, j in live)),
            ),
        ))
    return tuple(parts)


class TestNormalFormReference:
    """The memoised normal-form encoding equals the reference on every
    call of a dpor search."""

    NAMES = ("MP", "SB", "SB+syncs", "R", "ATOM-base", "LB", "2+2W", "WRC")

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.concurrency.symmetry import CanonicalKeys

        counts = {"calls": 0}
        memoised = CanonicalKeys._events_component

        def checked(canon, storage):
            value = memoised(canon, storage)
            got = tuple(part.value for part in value)
            assert got == _reference_events_component(storage)
            counts["calls"] += 1
            return value

        monkeypatch.setattr(CanonicalKeys, "_events_component", checked)
        return counts

    def test_curated(self, model, calls):
        for name in self.NAMES:
            run_litmus(
                by_name(name).parse(), model, max_states=3000,
                reduction="dpor",
            )
        assert calls["calls"] > 0

    def test_generated_3thread(self, model, calls):
        from repro.litmus import diy

        for generated in diy.generate(0, 8, max_threads=3):
            run_litmus(
                generated.test, model, max_states=3000, reduction="dpor",
            )
        assert calls["calls"] > 0

    def test_gen_wide(self, model, calls):
        """genwide-dpor's suite: up to six threads, 600 states."""
        for test in _gen_wide_tests():
            run_litmus(test, model, max_states=600, reduction="dpor")
        assert calls["calls"] > 0


def _gen_wide_tests():
    """The genwide-dpor benchmark's fixed suite (up to six threads)."""
    from repro.litmus import diy

    return [
        generated.test
        for generated in diy.generate(0, 10, max_threads=6, max_run=4)
    ]


#: Curated tests the incremental-layer references run on under dpor.
REFERENCE_SAMPLE = TestNormalFormReference.NAMES


class ReferenceCheck:
    """Counts compared answers, and those that differ."""

    def __init__(self, what):
        self.what = what
        self.calls = 0
        self.mismatches = 0
        self.first = ""

    def compare(self, got, expected, context):
        """Count one answer; ``context()`` describes the first mismatch."""
        self.calls += 1
        if got != expected:
            self.mismatches += 1
            if self.mismatches == 1:
                self.first = (
                    f"{context()}\n  got      {got!r}\n"
                    f"  expected {expected!r}"
                )

    def assert_clean(self):
        assert self.calls > 0
        assert not self.mismatches, (
            f"{self.mismatches} of {self.calls} {self.what} differ from "
            f"the reference; first:\n{self.first}"
        )


# -- storage-kept normal-form flags --------------------------------------


def _reference_bits(storage):
    """The (fully, past_cp) flags as ``_events_component`` rebuilt them
    on every call before the storage kept them, packed per list into
    position bitmasks."""
    threads = storage.threads
    events_pos = storage._events_pos
    cps = storage.coherence_points
    bits = {}
    for tid in threads:
        fully = past_cp = 0
        for position, event in enumerate(storage.events_propagated_to[tid]):
            if all(event in events_pos[t] for t in threads):
                fully |= 1 << position
            if event[1] in cps:
                past_cp |= 1 << position
        bits[tid] = (fully, past_cp)
    return bits


@contextmanager
def comparing_normal_form_bits():
    """Compare every ``normal_form_bits`` answer with a from-scratch
    rebuild on a clone whose bits were dropped, and with
    ``_reference_bits``.

    Yields a ``ReferenceCheck``; ``check.kept`` counts the answers that
    came from incrementally kept bits (the ones worth comparing).  Also
    usable outside pytest (CI's dpor-smoke job runs it over a larger
    generated suite).
    """
    from repro.concurrency.storage import StorageSubsystem

    check = ReferenceCheck("normal-form bitmasks")
    check.kept = 0
    original = StorageSubsystem.normal_form_bits

    def compared(storage):
        kept = storage._nf_bits is not None
        bits = original(storage)
        fresh = storage.clone()
        fresh._nf_bits = None
        rebuilt = original(fresh)
        check.kept += kept
        check.compare(
            (bits, bits), (rebuilt, _reference_bits(storage)),
            storage.render,
        )
        return bits

    StorageSubsystem.normal_form_bits = compared
    try:
        yield check
    finally:
        StorageSubsystem.normal_form_bits = original


class TestNormalFormBits:
    """``StorageSubsystem.normal_form_bits``: built on first request, then
    kept by the mutators."""

    @pytest.fixture
    def compared(self):
        with comparing_normal_form_bits() as check:
            yield check

    def test_curated(self, model, compared):
        for name in REFERENCE_SAMPLE:
            run_litmus(
                by_name(name).parse(), model, max_states=3000,
                reduction="dpor",
            )
        compared.assert_clean()
        assert compared.kept > 0

    def test_gen_wide(self, model, compared):
        for test in _gen_wide_tests():
            run_litmus(test, model, max_states=600, reduction="dpor")
        compared.assert_clean()
        assert compared.kept > 0

    def test_siblings_never_share_updates(self):
        """Two clones of one storage step differently; each sees only its
        own bits, and the parent keeps its own."""
        from repro.concurrency.events import Write, WriteId, initial_write
        from repro.concurrency.storage import StorageSubsystem
        from repro.sail.values import Bits

        storage = StorageSubsystem([0, 1, 2])
        storage.accept_initial_writes([
            initial_write(0, 0x100, 4, Bits.zeros(32)),
            initial_write(1, 0x200, 4, Bits.zeros(32)),
        ])
        w0 = Write(WriteId(0, (0, 0), 0), 0x100, 4, Bits.from_int(1, 32))
        w1 = Write(WriteId(1, (1, 0), 0), 0x200, 4, Bits.from_int(2, 32))
        storage.accept_write(w0)
        storage.accept_write(w1)
        before = storage.normal_form_bits()
        assert before == _reference_bits(storage)
        left, right = storage.clone(), storage.clone()
        assert left._nf_bits is before and right._nf_bits is before
        # left: w0 reaches every list (fully propagated), then its cp.
        left.propagate_write(w0.wid, 1)
        left.propagate_write(w0.wid, 2)
        left.reach_coherence_point(w0.wid)
        # right: w1 reaches its cp first, then one more list.
        right.reach_coherence_point(w1.wid)
        right.propagate_write(w1.wid, 2)
        for side in (storage, left, right):
            assert side.normal_form_bits() == _reference_bits(side)
        assert storage.normal_form_bits() is before
        assert left.normal_form_bits() != right.normal_form_bits()
        assert left.normal_form_bits()[0] == (0b111, 0b111)
        assert right.normal_form_bits()[1] == (0b11, 0b111)

    def test_unreduced_search_never_builds_them(self, model, monkeypatch):
        from repro.concurrency.storage import StorageSubsystem

        asked = []
        original = StorageSubsystem.normal_form_bits
        monkeypatch.setattr(
            StorageSubsystem, "normal_form_bits",
            lambda storage: asked.append(storage) or original(storage),
        )
        for name in ("SB+syncs", "MP+syncs", "R"):
            result = run_litmus(by_name(name).parse(), model,
                                reduction="none")
            assert result.exploration.complete
        assert asked == []


# -- the integer race layer against the frozenset one --------------------
#
# The race layer's summaries and blobs were frozensets of cell indexes
# and thread ids, with -1 for the out-of-cells wildcard.  These are its
# functions verbatim (names prefixed ``_reference``); the comparison
# converts the integer summaries back to sets and asks both.

_REFERENCE_OUT_OF_CELLS = -1


def _reference_cells_of_range(geometry, addr, size):
    touched = set()
    covered = 0
    for index, (base, span) in enumerate(geometry.cells):
        lo = max(addr, base)
        hi = min(addr + size, base + span)
        if lo < hi:
            touched.add(index)
            covered += hi - lo
    if covered < size:
        touched.add(_REFERENCE_OUT_OF_CELLS)
    return frozenset(touched)


def _reference_inter(a, b):
    if not a or not b:
        return False
    if _REFERENCE_OUT_OF_CELLS in a or _REFERENCE_OUT_OF_CELLS in b:
        return True
    return not a.isdisjoint(b)


def _reference_absdep(a, b):
    from repro.concurrency.search.dpor import _ABS_APPENDING
    from repro.concurrency.search.reduction import GLOBAL_KINDS

    kind_a, tid_a, side_a, mut_a, obs_a, bar_a = a
    kind_b, tid_b, side_b, mut_b, obs_b, bar_b = b
    if kind_a in GLOBAL_KINDS or kind_b in GLOBAL_KINDS:
        return True
    if bar_a is not None or bar_b is not None:
        if bar_a is not None and bar_b is not None:
            if tid_a == tid_b:
                return True
            may_a, org_a, key_a = bar_a
            may_b, org_b, key_b = bar_b
            if may_a and may_b and key_a != key_b:
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
            return True
        if o_kind in _ABS_APPENDING and o_tid == b_tid:
            return True
        if b_side and o_side and o_tid == b_tid:
            return True
        return False
    if side_a and side_b:
        if tid_a == tid_b:
            return True
        if kind_a != "resolve_sc" and kind_b != "resolve_sc":
            return False
    return (
        _reference_inter(mut_a, mut_b)
        or _reference_inter(mut_a, obs_b)
        or _reference_inter(mut_b, obs_a)
    )


def _reference_blob_dep(step, blob):
    from repro.concurrency.search.dpor import _ABS_APPENDING
    from repro.concurrency.search.reduction import GLOBAL_KINDS

    tids, mut, obs, special, appends, btargets, borigins, bcomplete = blob
    if not (tids or mut or obs or special or appends):
        return False
    kind, tid, side, step_mut, step_obs, bar = step
    if kind in GLOBAL_KINDS or special:
        return True
    if bar is not None:
        may, origin, _key = bar
        if tid in appends:
            return True
        if tid in borigins:
            return True
        if may and (bcomplete or origin in tids):
            return True
        if side and tid in tids:
            return True
        return False
    if side and (tid in tids or tid in borigins):
        return True
    if kind in _ABS_APPENDING and tid in btargets:
        return True
    return (
        _reference_inter(step_mut, mut)
        or _reference_inter(step_mut, obs)
        or _reference_inter(mut, step_obs)
    )


def _mask_members(mask):
    """Bit positions set in ``mask``."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _cells_as_set(mask):
    """A cell mask as the old index set (bit 0 is the -1 wildcard)."""
    return frozenset(bit - 1 for bit in _mask_members(mask))


def _summary_as_sets(summary):
    kind, tid, side, mut, obs, bar = summary
    return (kind, tid, side, _cells_as_set(mut), _cells_as_set(obs), bar)


def _blob_as_sets(blob):
    tids, mut, obs, special, appends, btargets, borigins, bcomplete = blob
    return (
        _mask_members(tids), _cells_as_set(mut), _cells_as_set(obs),
        special, _mask_members(appends), _mask_members(btargets),
        _mask_members(borigins), bcomplete,
    )


def _search_locals():
    """The innermost running ``run_dpor``'s local variables, or None."""
    import sys

    from repro.concurrency.search import dpor

    frame = sys._getframe(1)
    while frame is not None and frame.f_code is not dpor.run_dpor.__code__:
        frame = frame.f_back
    return None if frame is None else frame.f_locals


@contextmanager
def comparing_race_layer():
    """Compare the integer race layer with the frozenset reference.

    * every ``cells_of_range`` mask with ``_reference_cells_of_range``;
    * every ``_blob_dep`` answer with ``_reference_blob_dep`` on the
      step and blob converted back to sets;
    * every dependence answer ``race_scan`` used, memoised ones
      included: after each step (at the successor's ``canonical`` call)
      the memo entry for the step against each earlier path step is
      compared with ``_reference_absdep``, the step's id with its
      summary's intern entry, and the step's happens-before mask with
      the one the reference answers give.

    Yields a ``ReferenceCheck``; ``check.dependence`` counts the
    dependence answers among its comparisons.  Also usable outside pytest
    (CI's dpor-smoke job runs it over a larger generated suite).
    """
    from repro.concurrency.search import dpor
    from repro.concurrency.symmetry import CanonicalKeys, _Geometry

    check = ReferenceCheck("race-layer answers")
    check.dependence = 0
    cells_of_range = _Geometry.cells_of_range
    blob_dep = dpor._blob_dep
    canonical = CanonicalKeys.canonical

    def checked_cells(geometry, addr, size):
        mask = cells_of_range(geometry, addr, size)
        check.compare(
            _cells_as_set(mask),
            _reference_cells_of_range(geometry, addr, size),
            lambda: f"cells_of_range({addr:#x}, {size})",
        )
        return mask

    def checked_blob_dep(step, blob):
        answer = blob_dep(step, blob)
        check.compare(
            answer,
            _reference_blob_dep(_summary_as_sets(step), _blob_as_sets(blob)),
            lambda: f"_blob_dep({step!r}, {blob!r})",
        )
        return answer

    def checked_canonical(canon, state):
        search = _search_locals()
        frames = search["frames"] if search is not None else None
        if frames:
            top = frames[-1]
            check.compare(
                search["summary_ids"].get(top.taken_abs), top.taken_id,
                lambda: f"intern id of {top.taken_abs!r}",
            )
            row = search["dependence"][top.taken_id]
            step = _summary_as_sets(top.taken_abs)
            hb = 0
            for index, earlier in enumerate(frames[:-1]):
                expected = _reference_absdep(
                    _summary_as_sets(earlier.taken_abs), step
                )
                check.dependence += 1
                check.compare(
                    row[earlier.taken_id], expected,
                    lambda: f"_absdep({earlier.taken_abs!r}, "
                    f"{top.taken_abs!r})",
                )
                if expected:
                    hb |= (1 << index) | earlier.hb_taken
            # The happens-before mask ``race_scan`` built from the answers
            # it was served: catches an answer read from the wrong entry.
            check.compare(
                top.hb_taken, hb, lambda: f"hb of {top.taken_abs!r}"
            )
        return canonical(canon, state)

    _Geometry.cells_of_range = checked_cells
    dpor._blob_dep = checked_blob_dep
    CanonicalKeys.canonical = checked_canonical
    try:
        yield check
    finally:
        _Geometry.cells_of_range = cells_of_range
        dpor._blob_dep = blob_dep
        CanonicalKeys.canonical = canonical


class TestIntegerRaceLayer:
    """The bitmask race layer answers exactly like the frozenset one."""

    @pytest.fixture
    def compared(self):
        with comparing_race_layer() as check:
            yield check

    def test_curated(self, model, compared):
        for name in REFERENCE_SAMPLE:
            run_litmus(
                by_name(name).parse(), model, max_states=3000,
                reduction="dpor",
            )
        compared.assert_clean()

    def test_gen_wide(self, model, compared):
        for test in _gen_wide_tests():
            run_litmus(test, model, max_states=600, reduction="dpor")
        compared.assert_clean()

    def test_memo_serves_most_answers(self, model, compared, monkeypatch):
        """Each distinct (path step, step) pair reaches ``_absdep`` once
        per search; every other answer comes from the memo."""
        from repro.concurrency.search import dpor

        misses = []
        absdep = dpor._absdep
        monkeypatch.setattr(
            dpor, "_absdep",
            lambda a, b: misses.append((a, b)) or absdep(a, b),
        )
        run_litmus(
            by_name("SB+syncs").parse(), model, max_states=3000,
            reduction="dpor",
        )
        compared.assert_clean()
        assert len(misses) == len(set(misses))
        assert 0 < len(misses) < compared.dependence

    def test_seeded_random_summaries(self):
        """Every rule on random summaries and blobs, the searches' rare
        corners included: tid-less coherence-point and acknowledgement
        steps (no shift may see their None), leaking footprints, and blob
        fields a sample search leaves empty."""
        import random

        from repro.concurrency.search.dpor import _absdep, _blob_dep

        rng = random.Random(0)
        kinds = (
            ("commit_store", True), ("satisfy_read_storage", True),
            ("resolve_sc", True), ("commit_barrier", True),
            ("propagate_write", False), ("propagate_barrier", False),
            ("reach_coherence_point", False), ("ack_sync", False),
        )

        def summary():
            kind, side = rng.choice(kinds)
            tid = None if kind in ("reach_coherence_point", "ack_sync") \
                else rng.randrange(4)
            bar = None
            if kind in ("commit_barrier", "propagate_barrier"):
                bar = (rng.random() < 0.5, rng.randrange(4),
                       rng.randrange(3))
            return (kind, tid, side, rng.randrange(32), rng.randrange(32),
                    bar)

        def blob():
            return (
                rng.randrange(16), rng.randrange(32), rng.randrange(32),
                rng.random() < 0.1, rng.randrange(16), rng.randrange(16),
                rng.randrange(16), rng.random() < 0.3,
            )

        for _ in range(3000):
            a, b, summary_blob = summary(), summary(), blob()
            assert _absdep(a, b) == _reference_absdep(
                _summary_as_sets(a), _summary_as_sets(b)
            ), (a, b)
            assert _blob_dep(a, summary_blob) == _reference_blob_dep(
                _summary_as_sets(a), _blob_as_sets(summary_blob)
            ), (a, summary_blob)


class TestDporBitIdentity:
    """dpor's work counts equal the ones recorded before the normal-form
    memo: a change to which states merge shows here, not only as a
    timing."""

    #: (states_visited, unique_states, transitions_taken, final_states),
    #: keyed by (test, ``symmetry`` request field).  The field only
    #: accepts ``False`` and must change nothing.
    EXPECTED = {
        ("MP", False): (105, 105, 124, 5),
        ("SB+syncs", False): (343, 323, 491, 19),
        ("R", False): (285, 268, 398, 33),
        ("ATOM-base", False): (4, 4, 4, 2),
        ("SB", False): (93, 91, 111, 4),
    }

    #: ``SYMMETRIC_SB_SYNCS``: the same counts as before thread symmetry
    #: was removed, with symmetry off.
    SYMMETRIC_EXPECTED = (343, 323, 491, 19)

    #: The gen-wide suite's two tests that complete within budget.
    GEN_WIDE_EXPECTED = {
        4: (545, 522, 748, 31),
        5: (126, 126, 134, 3),
    }

    @staticmethod
    def _counts(result):
        stats = result.exploration.stats
        return (
            stats.states_visited, stats.unique_states,
            stats.transitions_taken, stats.final_states,
        )

    @pytest.mark.parametrize("name,symmetry", sorted(EXPECTED))
    def test_curated(self, name, symmetry):
        """Through the service engine, as the genwide-dpor benchmark
        builds its requests."""
        from repro.service import EngineRequest, EnvelopeEngine

        verdict = EnvelopeEngine().run_request(EngineRequest(
            source=by_name(name).source, reduction="dpor", symmetry=symmetry,
        ))
        stats = verdict.stats
        assert (
            stats["states_visited"], stats["unique_states"],
            stats["transitions_taken"], stats["final_states"],
        ) == self.EXPECTED[(name, symmetry)]

    def test_symmetric_fixture(self, model):
        from repro.litmus.parser import parse_litmus

        result = run_litmus(
            parse_litmus(SYMMETRIC_SB_SYNCS), model, reduction="dpor",
        )
        assert result.status == "Forbidden"
        assert self._counts(result) == self.SYMMETRIC_EXPECTED

    @pytest.mark.parametrize("index", sorted(GEN_WIDE_EXPECTED))
    def test_gen_wide(self, model, index):
        from repro.litmus import diy

        generated = diy.generate(0, 10, max_threads=6, max_run=4)[index]
        result = run_litmus(
            generated.test, model, max_states=600, reduction="dpor",
        )
        assert self._counts(result) == self.GEN_WIDE_EXPECTED[index]


class TestWriteFootprintInvariant:
    """A write id names one footprint for the whole search.

    ``Reducer._write_footprints``, ``Reducer._overlap_components`` and
    the normal-form memo (through ``storage._overlaps``) all key on
    write ids but read addresses and sizes; they are sound only while
    this holds.
    """

    def test_one_footprint_per_write_id(self, model, monkeypatch):
        from repro.concurrency.storage import StorageSubsystem
        from repro.litmus import diy

        footprints = {}
        accept = StorageSubsystem.accept_write

        def recording(storage, write):
            seen = footprints.setdefault(write.wid, (write.addr, write.size))
            assert seen == (write.addr, write.size), write.wid
            return accept(storage, write)

        monkeypatch.setattr(StorageSubsystem, "accept_write", recording)
        tests = [entry.parse() for entry in corpus()] + [
            generated.test for generated in diy.generate(3, 24)
        ]
        for test in tests:
            footprints.clear()
            run_litmus(test, model, max_states=1000, reduction="dpor")
            assert footprints, test.name


class TestContextBound:
    def test_context_bound_flags_partial(self, model):
        test = by_name("SB+syncs").parse()
        full = run_litmus(test, model)
        bounded = run_litmus(test, model, context_bound=1)
        assert not bounded.exploration.complete
        assert bounded.exploration.stop_reason == (
            "context bound 1 truncated the search"
        )
        assert bounded.outcomes <= full.outcomes

    def test_ample_context_bound_is_complete(self, model):
        test = by_name("MP").parse()
        full = run_litmus(test, model)
        bounded = run_litmus(test, model, context_bound=64)
        assert bounded.exploration.complete
        assert bounded.outcomes == full.outcomes


class TestCliStrategyFlags:
    def _write(self, tmp_path, name):
        path = tmp_path / f"{name}.litmus"
        path.write_text(by_name(name).source)
        return str(path)

    def test_run_command_with_strategies(self, tmp_path, capsys):
        """There is one search: ``--strategy`` is no longer a flag."""
        from repro.tools.cli import main

        path = self._write(tmp_path, "MP")
        for name in ("bounded", "sequential"):
            with pytest.raises(SystemExit) as excinfo:
                main(["run", path, "--strategy", name])
            assert excinfo.value.code == 2
            assert "unrecognized arguments: --strategy" in (
                capsys.readouterr().err
            )

    def test_run_rejects_sharded_strategy(self, tmp_path, capsys):
        from repro.tools.cli import main

        path = self._write(tmp_path, "MP")
        with pytest.raises(SystemExit) as excinfo:
            main(["run", path, "--strategy", "sharded"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --strategy sharded" in (
            capsys.readouterr().err
        )

    def test_litmus_counts_tests_that_did_not_complete(
        self, tmp_path, capsys
    ):
        from repro.tools.cli import main

        paths = [self._write(tmp_path, name) for name in ("MP", "SB")]
        code = main(["litmus", *paths, "--jobs", "1", "--max-states", "40"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("!! exceeded 40 states") == 2
        assert "2 test(s) did not complete" in out

    def test_run_command_with_reduction(self, tmp_path, capsys):
        from repro.tools.cli import main

        path = self._write(tmp_path, "MP")
        assert main(["run", path, "--reduction", "sleep"]) == 0
        assert "Test MP: Allowed" in capsys.readouterr().out

    def test_run_command_with_dpor(self, tmp_path, capsys):
        from repro.tools.cli import main

        path = self._write(tmp_path, "MP")
        assert main(["run", path, "--reduction", "dpor"]) == 0
        assert "Test MP: Allowed" in capsys.readouterr().out

    def test_run_rejects_symmetry_flag(self, tmp_path, capsys):
        from repro.tools.cli import main

        path = self._write(tmp_path, "MP")
        with pytest.raises(SystemExit) as excinfo:
            main(["run", path, "--reduction", "dpor", "--symmetry"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --symmetry" in capsys.readouterr().err
