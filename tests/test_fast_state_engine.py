"""Regression tests for the fast state engine.

Covers the three layers of the exploration hot path:

  * determinism and key stability: exploring a test twice yields identical
    outcome sets and identical statistics, and states produced through
    copy-on-write cloning are ``key()``-identical to states produced
    through the eager deep-clone reference path;
  * the shared frontier bookkeeping: ``find_witness`` reports the same
    ``ExplorationStats`` accounting as ``explore``;
  * the parallel corpus runner: worker-sharded runs agree bit-for-bit with
    in-process runs.
"""

import pytest

from repro.concurrency.exhaustive import explore, find_witness, run_one
from repro.concurrency.thread import ModelError
from repro.isa.model import default_model
from repro.litmus.library import by_name
from repro.litmus.runner import build_system, run_corpus, run_litmus
from repro.tools.cli import main

DETERMINISM_TESTS = ["MP", "SB+syncs", "WRC+sync+addr"]


@pytest.fixture(scope="module")
def model():
    return default_model()


class TestExplorationDeterminism:
    @pytest.mark.parametrize("name", DETERMINISM_TESTS)
    def test_two_explorations_identical(self, model, name):
        test = by_name(name).parse()
        first = run_litmus(test, model)
        second = run_litmus(test, model)
        assert first.outcomes == second.outcomes
        assert (
            first.exploration.stats.states_visited
            == second.exploration.stats.states_visited
        )
        assert (
            first.exploration.stats.transitions_taken
            == second.exploration.stats.transitions_taken
        )
        assert first.status == second.status

    @pytest.mark.parametrize("name", DETERMINISM_TESTS)
    def test_cow_apply_matches_eager_clone(self, model, name):
        """COW successors are key()-identical to eagerly deep-cloned ones."""
        system, _addresses = build_system(by_name(name).parse(), model)
        frontier = [system]
        seen = {system.key()}
        checked = 0
        while frontier and checked < 25:
            state = frontier.pop()
            if state.is_final():
                continue
            parent_key = state.key()
            for transition in state.enumerate_transitions():
                cow = state.apply(transition)
                reference = state.clone_eager()
                reference._apply_in_place(transition)
                reference.eager_closure()
                assert cow.key() == reference.key(), (
                    f"{name}: COW and eager-clone apply diverge "
                    f"on {transition}"
                )
                # Applying a transition must not disturb the parent.
                assert state.key() == parent_key
                checked += 1
                if cow.key() not in seen:
                    seen.add(cow.key())
                    frontier.append(cow)
        assert checked > 0

    def test_clone_is_isolated(self, model):
        """Mutating a COW clone leaves the original state untouched."""
        system, _addresses = build_system(by_name("MP").parse(), model)
        key_before = system.key()
        transitions = system.enumerate_transitions()
        assert transitions
        successor = system.apply(transitions[0])
        assert system.key() == key_before
        assert successor.key() != key_before


class TestWitnessStats:
    def test_find_witness_reports_stats(self, model):
        system, _addresses = build_system(by_name("MP").parse(), model)

        def always(outcome):
            return True

        witness = find_witness(system, always)
        assert witness is not None
        trace, final = witness  # two-tuple unpacking is preserved
        assert final.is_final()
        assert witness.stats.states_visited > 0
        assert witness.stats.max_frontier > 0

    def test_unsatisfiable_search_visits_whole_graph(self, model):
        system, _addresses = build_system(by_name("MP").parse(), model)
        witness = find_witness(system, lambda outcome: False)
        assert witness is None


class TestRegisterOutcomeMemo:
    """The per-search register memo agrees with a fresh readout."""

    def test_every_corpus_final_state(self, model, monkeypatch):
        from repro.concurrency.search import core
        from repro.litmus.library import corpus

        finals = []
        original = core.outcome_of

        def checked(system, cells, static_cache=None, register_memo=None):
            result = original(system, cells, static_cache, register_memo)
            assert register_memo is not None
            assert result == original(system, cells)  # no memo, no cache
            finals.append(system.threads_key())
            return result

        monkeypatch.setattr(core, "outcome_of", checked)
        for entry in corpus():
            try:
                run_litmus(entry.parse(), model, max_states=500)
            except Exception:  # budget exhaustion keeps the checked finals
                pass
        assert len(finals) > 1000
        assert len(set(finals)) < len(finals) / 4


class TestIsaModelMemoBounds:
    """Every memo table of a long-lived model stays bounded."""

    def test_tables_clear_at_the_limit_and_results_agree(self, monkeypatch):
        from repro.isa import model as isa_model
        from repro.isa.assembler import Assembler

        monkeypatch.setattr(isa_model, "MEMO_LIMIT", 8)
        bounded = isa_model.IsaModel()
        reference = isa_model.IsaModel()
        assembler = Assembler(reference)
        words = [
            assembler.assemble_instruction(f"{op} r3,r4,{i}")
            for op in ("addi", "ori")
            for i in range(40)
        ]
        first = {}
        for word in words:
            decoded = bounded.decode(word)
            assert decoded == reference.decode(word)
            first[word] = bounded.initial_state(decoded)
            bounded.run_to_outcome(first[word])
        # Every table was cleared many times over; rebuilt states are
        # equal by value, so they still hit and agree.
        for word in words:
            state = bounded.initial_state(bounded.decode(word))
            assert state == first[word]
            assert bounded.run_to_outcome(state) == (
                bounded.run_to_outcome(first[word])
            )
        for table in (
            bounded._decode_cache,
            bounded._initial_cache,
            bounded._outcome_cache,
            bounded._resume_cache,
        ):
            assert len(table) <= 8


class TestRunOneDiagnostics:
    def test_step_budget_error_reports_steps_and_last_transition(self, model):
        system, _addresses = build_system(by_name("MP").parse(), model)
        with pytest.raises(ModelError) as excinfo:
            run_one(system, max_steps=0)
        message = str(excinfo.value)
        assert "0 steps" in message
        assert "last transition" in message


class TestParallelCorpusRunner:
    NAMES = ["CoRR", "MP", "SB", "LB"]

    def test_parallel_matches_serial(self, model):
        entries = [by_name(name) for name in self.NAMES]
        serial = {
            entry.name: run_litmus(entry.parse(), model) for entry in entries
        }
        report = run_corpus(entries, jobs=2)
        assert report.jobs == 2
        assert [r.name for r in report.results] == self.NAMES
        for result in report.results:
            reference = serial[result.name]
            assert result.status == reference.status
            assert result.outcomes == reference.outcomes
            assert (
                result.stats.states_visited
                == reference.exploration.stats.states_visited
            )

    def test_merged_stats_are_sums(self, model):
        entries = [by_name(name) for name in self.NAMES]
        report = run_corpus(entries, jobs=1)
        merged = report.merged_stats()
        assert merged.states_visited == sum(
            r.stats.states_visited for r in report.results
        )
        assert merged.transitions_taken == sum(
            r.stats.transitions_taken for r in report.results
        )
        assert merged.max_frontier == max(
            r.stats.max_frontier for r in report.results
        )

    def test_accepts_name_source_pairs(self, model):
        entry = by_name("MP")
        report = run_corpus([(entry.name, entry.source)], jobs=1)
        assert report.results[0].name == "MP"
        assert report.results[0].status == "Allowed"


class TestLitmusCli:
    def test_litmus_command_parallel(self, tmp_path, capsys):
        paths = []
        for name in ["MP", "CoRR"]:
            path = tmp_path / f"{name}.litmus"
            path.write_text(by_name(name).source)
            paths.append(str(path))
        assert main(["litmus", *paths, "--jobs", "2"]) == 0
        output = capsys.readouterr().out
        assert "MP" in output and "CoRR" in output
        assert "2 worker(s)" in output
        assert "Merged stats:" in output

    def test_corpus_jobs_flag_is_accepted(self, tmp_path, capsys):
        # Not the full corpus (slow); just check the flag parses and the
        # parallel path produces the same report format via `litmus`.
        path = tmp_path / "MP.litmus"
        path.write_text(by_name("MP").source)
        assert main(["litmus", str(path), "--jobs", "1"]) == 0
        output = capsys.readouterr().out
        assert "1 worker(s)" in output
