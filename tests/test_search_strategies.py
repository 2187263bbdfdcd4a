"""Cross-strategy equivalence for the pluggable search subsystem.

Every backend must answer the oracle questions identically:

  * ``SequentialDFS`` stays bit-identical (states visited, transitions
    taken, outcomes) to the pre-refactor engine -- pinned against the
    recorded seed-baseline counters;
  * ``BoundedIterative`` (ample budget) produces verdicts and outcome
    sets identical to ``SequentialDFS`` for the curated corpus and a
    seed-0 sample of generated tests;
  * ``BoundedIterative`` degrades to a *flagged partial* result instead
    of raising, and ``ExplorationLimit`` carries the partial stats so
    budget exhaustion no longer zeroes work accounting.

The heavier 3-4-thread curated shapes run under the ``slow`` marker; the
full slow sweep is opt-in via ``PPCMEM2_SEARCH_FULL=1``.
"""

import os

import pytest

from repro.concurrency.exhaustive import ExplorationLimit, explore, find_witness
from repro.concurrency.parallel import corpus_job_count, default_job_count
from repro.concurrency.search import (
    BoundedIterative,
    SequentialDFS,
    make_strategy,
    resolve_strategy,
)
from repro.isa.model import default_model
from repro.litmus.library import by_name, corpus
from repro.litmus.runner import build_system, run_corpus, run_litmus

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

STRATEGIES = [BoundedIterative()]


@pytest.fixture(scope="module")
def model():
    return default_model()


def _assert_equivalent(name, model):
    test = by_name(name).parse()
    reference = run_litmus(test, model)  # SequentialDFS default
    assert reference.exploration.complete
    for strategy in STRATEGIES:
        result = run_litmus(test, model, strategy=strategy)
        label = f"{name} via {strategy.name}"
        assert result.exploration.complete, label
        assert result.status == reference.status, label
        assert result.outcomes == reference.outcomes, label
        assert result.witnessed == reference.witnessed, label
        assert result.holds_always == reference.holds_always, label


class TestCuratedCorpusEquivalence:
    @pytest.mark.parametrize("name", FAST_NAMES)
    def test_fast_entries(self, model, name):
        _assert_equivalent(name, model)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", SLOW_SAMPLE)
    def test_slow_sample_entries(self, model, name):
        _assert_equivalent(name, model)

    @pytest.mark.slow
    @pytest.mark.skipif(
        not os.environ.get("PPCMEM2_SEARCH_FULL"),
        reason="full slow-corpus strategy sweep is opt-in "
        "(PPCMEM2_SEARCH_FULL=1)",
    )
    @pytest.mark.parametrize("name", sorted(set(SLOW_FULL) - set(SLOW_SAMPLE)))
    def test_slow_full_sweep(self, model, name):
        _assert_equivalent(name, model)


class TestGeneratedSampleEquivalence:
    def test_seed0_sample(self, model):
        from repro.litmus import diy

        tests = diy.generate(0, 8, max_threads=2)
        assert len(tests) == 8
        for generated in tests:
            reference = run_litmus(generated.test, model)
            for strategy in STRATEGIES:
                result = run_litmus(generated.test, model, strategy=strategy)
                label = f"{generated.name} via {strategy.name}"
                assert result.status == reference.status, label
                assert result.outcomes == reference.outcomes, label


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

    def test_facade_strategy_parameter(self, model):
        system, _ = build_system(by_name("MP").parse(), model)
        default = explore(system)
        named = explore(system, strategy="sequential")
        bounded = explore(system, strategy=BoundedIterative(initial_budget=8))
        assert named.outcomes == default.outcomes
        assert named.stats.states_visited == default.stats.states_visited
        assert bounded.outcomes == default.outcomes


class TestWitnessEquivalence:
    @pytest.mark.parametrize(
        "strategy",
        [SequentialDFS(), BoundedIterative(initial_budget=64)],
        ids=lambda s: s.name,
    )
    def test_witness_found_and_replayable(self, model, strategy):
        system, _ = build_system(by_name("MP").parse(), model)
        witness = strategy.find_witness(system, lambda outcome: True)
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
        "strategy",
        [SequentialDFS(), BoundedIterative()],
        ids=lambda s: s.name,
    )
    def test_unsatisfiable_predicate(self, model, strategy):
        system, _ = build_system(by_name("MP").parse(), model)
        assert strategy.find_witness(system, lambda outcome: False) is None


class TestBoundedDegradation:
    def test_partial_result_is_flagged_not_raised(self, model):
        test = by_name("SB+syncs").parse()
        result = run_litmus(
            test, model,
            strategy=BoundedIterative(initial_budget=64),
            max_states=200,
        )
        assert result.status == "StateLimit"
        assert not result.exploration.complete
        assert result.exploration.stats.states_visited > 0
        full = run_litmus(test, model)
        # Partial outcome sets under-approximate the envelope.
        assert result.outcomes <= full.outcomes

    def test_partial_witness_yields_sound_allowed(self, model):
        """Partial outcome sets under-approximate the envelope, so an
        existential verdict found within the budget survives
        incompleteness instead of degrading to StateLimit."""
        test = by_name("MP").parse()  # exists-test, witness found early
        result = run_litmus(
            test, model,
            strategy=BoundedIterative(initial_budget=80),
            max_states=80,
        )
        assert not result.exploration.complete
        assert result.witnessed
        assert result.status == "Allowed"

    def test_partial_without_witness_stays_statelimit(self, model):
        test = by_name("MP").parse()
        result = run_litmus(
            test, model,
            strategy=BoundedIterative(initial_budget=40),
            max_states=40,
        )
        assert not result.exploration.complete
        assert not result.witnessed
        assert result.status == "StateLimit"

    def test_ample_budget_is_complete_and_identical(self, model):
        test = by_name("MP").parse()
        bounded = run_litmus(test, model, strategy=BoundedIterative())
        reference = run_litmus(test, model)
        assert bounded.exploration.complete
        assert bounded.outcomes == reference.outcomes
        # MP fits the first budget: the work accounting is identical too.
        assert (
            bounded.exploration.stats.states_visited
            == reference.exploration.stats.states_visited
        )


class TestBoundedWitnessSoundness:
    def test_exhausted_witness_search_raises_not_none(self, model):
        """An inconclusive witness search must not look like a proof."""
        system, _ = build_system(by_name("SB+syncs").parse(), model)
        with pytest.raises(ExplorationLimit) as excinfo:
            BoundedIterative(initial_budget=16).find_witness(
                system, lambda outcome: False, max_states=50
            )
        assert excinfo.value.stats is not None
        assert excinfo.value.stats.states_visited > 0


class TestPartialStatsAccounting:
    def test_exploration_limit_carries_stats(self, model):
        system, _ = build_system(by_name("SB+syncs").parse(), model)
        with pytest.raises(ExplorationLimit) as excinfo:
            explore(system, max_states=100)
        assert excinfo.value.stats is not None
        # The budget is checked *before* a state is popped and counted:
        # partial stats equal the budget exactly (regression: the old
        # loop counted first and reported 101).
        assert excinfo.value.stats.states_visited == 100

    def test_reduced_limit_stats_equal_budget(self, model):
        system, _ = build_system(by_name("SB+syncs").parse(), model)
        with pytest.raises(ExplorationLimit) as excinfo:
            explore(system, max_states=100, reduction="sleep")
        assert excinfo.value.stats.states_visited == 100

    def test_corpus_totals_count_exhausted_work(self, model):
        entry = by_name("SB+syncs")
        report = run_corpus([entry], jobs=1, max_states=100)
        result = report.results[0]
        assert result.status == "StateLimit"
        assert not result.complete
        assert result.error
        assert result.stats.states_visited > 0
        assert report.merged_stats().states_visited > 0


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


class TestStrategyResolution:
    def test_resolve_none_is_sequential(self):
        assert isinstance(resolve_strategy(None), SequentialDFS)

    def test_resolve_instance_passthrough(self):
        strategy = BoundedIterative(initial_budget=3)
        assert resolve_strategy(strategy) is strategy

    def test_make_by_name_with_options(self):
        strategy = make_strategy("bounded", initial_budget=5)
        assert strategy == BoundedIterative(initial_budget=5)
        assert isinstance(make_strategy("sequential"), SequentialDFS)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown search strategy"):
            make_strategy("quantum")
        with pytest.raises(TypeError):
            resolve_strategy(42)

    def test_sharded_is_not_a_strategy(self):
        with pytest.raises(ValueError) as excinfo:
            make_strategy("sharded")
        assert "'bounded'" in str(excinfo.value)
        assert "'sequential'" in str(excinfo.value)

    def test_strategies_are_picklable(self):
        import pickle

        for strategy in (SequentialDFS(),
                         BoundedIterative(initial_budget=128)):
            clone = pickle.loads(pickle.dumps(strategy))
            assert clone == strategy


class TestReductionEquivalence:
    """Sleep-set reduction preserves the verdict and the outcome set.

    The matrix crosses reduction on/off with every backend: outcome
    sets must be bit-identical to unreduced ``SequentialDFS`` on the
    curated corpus and a seed-0 generated sample.
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

    @pytest.mark.parametrize(
        "strategy",
        [None, BoundedIterative()],
        ids=lambda s: "sequential" if s is None else s.name,
    )
    def test_strategy_matrix(self, model, strategy):
        for name in ("MP", "SB+syncs", "R"):
            test = by_name(name).parse()
            reference = run_litmus(test, model)
            reduced = run_litmus(
                test, model, strategy=strategy, reduction="sleep"
            )
            label = f"{name} reduced via {strategy}"
            assert reduced.exploration.complete, label
            assert reduced.status == reference.status, label
            assert reduced.outcomes == reference.outcomes, label

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
    generated sample, for both backends (``SequentialDFS`` and
    ``BoundedIterative``).
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

    @pytest.mark.parametrize(
        "strategy",
        [None, BoundedIterative()],
        ids=lambda s: "sequential" if s is None else s.name,
    )
    def test_strategy_matrix(self, model, strategy):
        for name in ("MP", "SB+syncs", "R"):
            test = by_name(name).parse()
            reference = run_litmus(test, model)
            reduced = run_litmus(
                test, model, strategy=strategy, reduction="dpor"
            )
            label = f"{name} dpor via {strategy}"
            assert reduced.exploration.complete, label
            assert reduced.status == reference.status, label
            assert reduced.outcomes == reference.outcomes, label

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


class TestSymmetryCanonicalisation:
    """Thread-symmetry canonicalisation must not change any answer.

    The canonicaliser maps each state key to a sorted orbit
    representative under the permutation group of identical threads;
    on asymmetric tests the group is trivial and the run must stay
    bit-identical, on permutation-rich generated shapes the outcome
    sets must still match exactly (soundness: the quotient merges only
    genuinely equivalent states).
    """

    @pytest.mark.parametrize("reduction", ["sleep", "dpor"])
    def test_corpus_outcomes_identical_with_and_without(
        self, model, reduction
    ):
        for name in ("MP", "SB", "SB+syncs", "ATOM-base"):
            test = by_name(name).parse()
            plain = run_litmus(test, model, reduction=reduction)
            canon = run_litmus(
                test, model, reduction=reduction, symmetry=True
            )
            label = f"{name} {reduction}+symmetry"
            assert canon.exploration.complete, label
            assert canon.status == plain.status, label
            assert canon.outcomes == plain.outcomes, label

    def test_generated_3thread_outcomes_identical(self, model):
        """3-thread generated shapes are where permutation-equivalent
        threads actually appear; the quotient must preserve the full
        outcome set there, not just the verdict."""
        from repro.litmus import diy

        for generated in diy.generate(0, 4, max_threads=3):
            plain = run_litmus(generated.test, model, reduction="dpor")
            canon = run_litmus(
                generated.test, model, reduction="dpor", symmetry=True
            )
            label = generated.name
            assert canon.status == plain.status, label
            assert canon.outcomes == plain.outcomes, label

    def test_symmetry_never_inflates_unique_states(self, model):
        test = by_name("SB+syncs").parse()
        plain = run_litmus(test, model, reduction="dpor")
        canon = run_litmus(test, model, reduction="dpor", symmetry=True)
        assert (
            canon.exploration.stats.unique_states
            <= plain.exploration.stats.unique_states
        )

    def test_make_strategy_carries_symmetry(self):
        strategy = make_strategy("sequential", symmetry=True)
        assert strategy == SequentialDFS(symmetry=True)
        bounded = make_strategy("bounded", reduction="dpor", symmetry=True)
        assert bounded.symmetry and bounded.reduction == "dpor"


#: A thread-symmetric SB+syncs (each thread's code and registers map
#: onto the other's under x <-> y), so ``symmetry=True`` detects a
#: nontrivial group and keys states through the renamed encoding.  None
#: of the curated tests is symmetric.
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


def _reference_events_component(storage, elem, raw):
    """``CanonicalKeys._events_component`` as it was before its per-list
    memo: the body verbatim, minus its whole-storage memo."""
    from repro.concurrency.symmetry import _Opaque

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
        if raw:
            encoded = events
        else:
            encoded = [
                ("w", elem.ewid(e[1])) if e[0] == "w"
                else ("b", elem.ebid(e[1]))
                for e in events
            ]
        order = sorted(range(n), key=lambda k: encoded[k])
        rank = [0] * n
        for position, k in enumerate(order):
            rank[k] = position
        parts.append((
            tid if raw else elem.map_tid(tid),
            (
                tuple(encoded[k] for k in order),
                tuple(sorted((rank[i], rank[j]) for i, j in live)),
            ),
        ))
    return tuple(parts) if raw else tuple(sorted(parts))


def _run_budgeted(test, model, **options):
    """``run_litmus``; a search stopped by its budget still ran."""
    try:
        return run_litmus(test, model, **options)
    except ExplorationLimit:
        return None


class TestNormalFormReference:
    """The memoised normal-form encoding equals the reference on every
    call of a dpor search, raw (trivial group) and renamed alike."""

    NAMES = ("MP", "SB", "SB+syncs", "R", "ATOM-base", "LB", "2+2W", "WRC")

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.concurrency.symmetry import CanonicalKeys

        counts = {"raw": 0, "renamed": 0}
        memoised = CanonicalKeys._events_component

        def checked(canon, storage, elem, raw):
            value = memoised(canon, storage, elem, raw)
            got = tuple(part.value for part in value) if raw else value
            assert got == _reference_events_component(storage, elem, raw)
            counts["raw" if raw else "renamed"] += 1
            return value

        monkeypatch.setattr(CanonicalKeys, "_events_component", checked)
        return counts

    @pytest.mark.parametrize("symmetry", [False, True])
    def test_curated(self, model, calls, symmetry):
        for name in self.NAMES:
            _run_budgeted(
                by_name(name).parse(), model, max_states=3000,
                reduction="dpor", symmetry=symmetry,
            )
        assert calls["raw"] > 0

    @pytest.mark.parametrize("symmetry", [False, True])
    def test_generated_3thread(self, model, calls, symmetry):
        from repro.litmus import diy

        for generated in diy.generate(0, 8, max_threads=3):
            _run_budgeted(
                generated.test, model, max_states=3000,
                reduction="dpor", symmetry=symmetry,
            )
        assert calls["raw"] > 0

    def test_renamed_path(self, model, calls):
        from repro.litmus.parser import parse_litmus

        _run_budgeted(
            parse_litmus(SYMMETRIC_SB_SYNCS), model, max_states=3000,
            reduction="dpor", symmetry=True,
        )
        assert calls["renamed"] > 0 and calls["raw"] == 0


class TestDporBitIdentity:
    """dpor's work counts equal the ones recorded before the normal-form
    memo: a change to which states merge shows here, not only as a
    timing."""

    #: (states_visited, unique_states, transitions_taken, final_states).
    EXPECTED = {
        ("MP", False): (105, 105, 124, 5),
        ("SB+syncs", False): (343, 323, 491, 19),
        ("R", False): (285, 268, 398, 33),
        ("ATOM-base", False): (4, 4, 4, 2),
        # The curated tests have no nontrivial symmetry group, so these
        # two run the raw encoding with ``symmetry=True`` set.
        ("SB", True): (93, 91, 111, 4),
        ("SB+syncs", True): (343, 323, 491, 19),
    }

    #: ``SYMMETRIC_SB_SYNCS`` with ``symmetry=True`` (renamed encoding).
    SYMMETRIC_EXPECTED = (196, 184, 273, 10)

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
    def test_curated(self, model, name, symmetry):
        result = run_litmus(
            by_name(name).parse(), model, reduction="dpor",
            symmetry=symmetry,
        )
        assert self._counts(result) == self.EXPECTED[(name, symmetry)]

    def test_symmetric_renamed(self, model):
        from repro.litmus.parser import parse_litmus

        result = run_litmus(
            parse_litmus(SYMMETRIC_SB_SYNCS), model, reduction="dpor",
            symmetry=True,
        )
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

    ``Reducer._write_footprints``, ``Reducer._overlap_components``,
    ``CanonicalKeys.write_cells`` and the normal-form memos (through
    ``storage._overlaps``) all key on write ids but read addresses and
    sizes; they are sound only while this holds.
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
            _run_budgeted(test, model, max_states=1000, reduction="dpor")
            assert footprints, test.name


class TestContextBound:
    def test_context_bound_flags_partial(self, model):
        test = by_name("SB+syncs").parse()
        full = run_litmus(test, model)
        bounded = run_litmus(test, model, context_bound=1)
        assert not bounded.exploration.complete
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
        from repro.tools.cli import main

        path = self._write(tmp_path, "MP")
        for extra in (["--strategy", "bounded"],
                      ["--strategy", "sequential"]):
            assert main(["run", path, *extra]) == 0
            assert "Test MP: Allowed" in capsys.readouterr().out

    def test_run_rejects_sharded_strategy(self, tmp_path, capsys):
        from repro.tools.cli import main

        path = self._write(tmp_path, "MP")
        with pytest.raises(SystemExit) as excinfo:
            main(["run", path, "--strategy", "sharded"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'sharded'" in capsys.readouterr().err

    def test_run_command_with_reduction(self, tmp_path, capsys):
        from repro.tools.cli import main

        path = self._write(tmp_path, "MP")
        assert main(["run", path, "--reduction", "sleep"]) == 0
        assert "Test MP: Allowed" in capsys.readouterr().out

    def test_run_command_with_dpor_and_symmetry(self, tmp_path, capsys):
        from repro.tools.cli import main

        path = self._write(tmp_path, "MP")
        assert main(
            ["run", path, "--reduction", "dpor", "--symmetry"]
        ) == 0
        assert "Test MP: Allowed" in capsys.readouterr().out

    def test_gen_check_accepts_strategy(self, capsys):
        from repro.tools.cli import main

        code = main(
            ["gen", "--seed", "1", "--size", "2", "--check",
             "--jobs", "2", "--strategy", "bounded",
             "--max-states", "20000"]
        )
        captured = capsys.readouterr()
        assert code in (0, 1)  # soundness verdict, not a crash
        assert "Oracle:" in captured.err
