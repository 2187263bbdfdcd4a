"""E6 -- exploration performance (paper section 8).

The paper reports that sequential checking takes minutes and exhaustive
concurrent checking hours on a single machine, with no optimisation beyond
the straightforward compilation of the definitions.  This bench measures
transitions/second and states explored for representative tests.
"""

from conftest import print_table
from run_bench import SEED_BASELINE

from repro.litmus.library import by_name
from repro.litmus.runner import build_system, run_litmus
from repro.testgen.compare import run_suite
from repro.testgen.sequential import generate_suite

REPRESENTATIVE = ["MP", "MP+syncs", "SB+syncs", "R", "WRC+sync+addr"]


def test_e6_concurrent_exploration_rate(model, benchmark):
    def explore_family():
        return {
            name: run_litmus(by_name(name).parse(), model)
            for name in REPRESENTATIVE
        }

    results = benchmark.pedantic(explore_family, rounds=1, iterations=1)

    rows = []
    total_states = total_transitions = total_seconds = 0.0
    for name in REPRESENTATIVE:
        stats = results[name].exploration.stats
        rate = stats.transitions_taken / stats.seconds if stats.seconds else 0
        rows.append(
            (
                name,
                stats.states_visited,
                stats.final_states,
                stats.transitions_taken,
                f"{stats.seconds:.2f}s",
                f"{rate:,.0f}/s",
            )
        )
        total_states += stats.states_visited
        total_transitions += stats.transitions_taken
        total_seconds += stats.seconds
    rows.append(
        (
            "TOTAL",
            int(total_states),
            "",
            int(total_transitions),
            f"{total_seconds:.2f}s",
            f"{total_transitions / total_seconds:,.0f}/s",
        )
    )
    print_table(
        "E6: exhaustive exploration performance "
        "(paper: concurrent checking takes hours at full corpus scale)",
        ["test", "states", "finals", "transitions", "time", "rate"],
        rows,
    )

    # Before/after against the recorded seed implementation (the fast state
    # engine: COW cloning, cached keys, memoised transition enumeration).
    seed_tests = SEED_BASELINE["per_test"]
    compare_rows = []
    for name in REPRESENTATIVE:
        stats = results[name].exploration.stats
        before = seed_tests[name]
        before_rate = before["transitions"] / before["seconds"]
        after_rate = (
            stats.transitions_taken / stats.seconds if stats.seconds else 0
        )
        compare_rows.append(
            (
                name,
                f"{before_rate:,.0f}/s",
                f"{after_rate:,.0f}/s",
                f"{after_rate / before_rate:.2f}x",
            )
        )
    seed_total = SEED_BASELINE["total"]
    seed_rate = seed_total["transitions"] / seed_total["seconds"]
    total_rate = total_transitions / total_seconds if total_seconds else 0
    compare_rows.append(
        (
            "TOTAL",
            f"{seed_rate:,.0f}/s",
            f"{total_rate:,.0f}/s",
            f"{total_rate / seed_rate:.2f}x",
        )
    )
    print_table(
        "E6: before/after transitions per second "
        "(seed implementation vs fast state engine, same machine)",
        ["test", "seed", "now", "speedup"],
        compare_rows,
    )

    # The state graph itself must be untouched by the engine work: same
    # states, same transitions, same finals as the seed exploration.
    for name in REPRESENTATIVE:
        stats = results[name].exploration.stats
        assert stats.states_visited == seed_tests[name]["states"]
        assert stats.transitions_taken == seed_tests[name]["transitions"]
        assert stats.final_states == seed_tests[name]["finals"]
    assert total_transitions > 0


def test_e6_sequential_rate(model, benchmark):
    tests = generate_suite(model, per_instruction=2, seed=99)

    report = benchmark(lambda: run_suite(model, tests))

    print(
        f"\nE6: sequential mode: {report.total} single-instruction tests "
        f"(paper: full 6984-test run takes minutes)"
    )
    assert report.all_passed


def test_e6_state_count_scales_with_interleaving(model):
    """More racing threads => more states: the combinatorial challenge."""
    small = run_litmus(by_name("CoRR").parse(), model)
    medium = run_litmus(by_name("MP").parse(), model)
    large = run_litmus(by_name("SB+syncs").parse(), model)
    counts = [
        r.exploration.stats.states_visited for r in (small, medium, large)
    ]
    print(f"\nE6: state-count growth CoRR -> MP -> SB+syncs: {counts}")
    assert counts[0] < counts[1] < counts[2]
