"""The batch path's worker pool must agree with the sequential path.

``EnvelopeEngine.run_batch(..., jobs=2)`` spreads tests across worker
processes and merges their ``ExplorationStats``; on the same corpus
slice the merged counters, per-test verdicts and outcome sets must be
identical to a sequential (``jobs=1``) run, and every verdict must equal
``run_request``'s field for field except the measured seconds.  This
exercises the pool + merge path even on a single-CPU container.
"""

import pytest

from repro.litmus.library import by_name
from repro.service.engine import EngineRequest, EnvelopeEngine

SLICE = ["MP", "MP+syncs", "SB", "LB+datas"]


def _requests():
    return [EngineRequest(source=by_name(name).source) for name in SLICE]


def _comparable(verdict):
    """A verdict's payload without its wall-clock seconds."""
    payload = verdict.to_payload()
    del payload["stats"]["seconds"]
    return payload


def test_jobs2_matches_sequential_run():
    engine = EnvelopeEngine()
    sequential = engine.run_batch(_requests(), jobs=1)
    parallel = engine.run_batch(_requests(), jobs=2)

    assert sequential.jobs == 1
    assert parallel.jobs == 2
    assert parallel.wall_seconds > 0

    by_name_seq = {verdict.name: verdict for verdict in sequential.verdicts}
    by_name_par = {verdict.name: verdict for verdict in parallel.verdicts}
    assert set(by_name_seq) == set(by_name_par) == set(SLICE)

    for name in SLICE:
        seq, par = by_name_seq[name], by_name_par[name]
        assert par.status == seq.status, name
        assert par.witnessed == seq.witnessed, name
        assert par.outcomes == seq.outcomes, name
        for counter in (
            "states_visited", "transitions_taken", "final_states", "deadlocks",
        ):
            assert par.stats[counter] == seq.stats[counter], (name, counter)

    merged_seq = sequential.merged_stats()
    merged_par = parallel.merged_stats()
    assert merged_par.states_visited == merged_seq.states_visited
    assert merged_par.transitions_taken == merged_seq.transitions_taken
    assert merged_par.final_states == merged_seq.final_states
    assert merged_par.deadlocks == merged_seq.deadlocks
    assert merged_par.max_frontier == merged_seq.max_frontier
    assert merged_par.seconds > 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_batch_verdicts_equal_run_request(jobs):
    """One batch mixing reductions and budgets: every verdict equals the
    single-request path's, field for field except ``stats.seconds``."""
    engine = EnvelopeEngine()
    requests = [
        EngineRequest(source=by_name("MP").source),
        EngineRequest(source=by_name("SB").source, reduction="sleep"),
        EngineRequest(source=by_name("SB+syncs").source, max_states=100),
        EngineRequest(
            source=by_name("SB+syncs").source, reduction="dpor",
            max_states=300,
        ),
        EngineRequest(
            source=by_name("WRC+sync+addr").source, reduction="dpor",
            context_bound=1,
        ),
        EngineRequest(source=by_name("LB+datas").source, name="renamed"),
    ]
    batch = engine.run_batch(requests, jobs=jobs)
    assert batch.jobs == jobs
    assert (batch.hits, batch.misses) == (0, len(requests))
    assert not any(verdict.complete for verdict in batch.verdicts[2:5])
    for request, verdict in zip(requests, batch.verdicts):
        assert _comparable(verdict) == _comparable(
            engine.run_request(request)
        )


def test_generated_suite_through_run_batch():
    """Generated tests are first-class batch entries (name/source pairs)."""
    from repro.litmus import diy

    tests = diy.generate(1, 4, max_threads=2)
    batch = EnvelopeEngine().run_batch(
        [
            EngineRequest(source=test.source, name=test.name,
                          max_states=150_000)
            for test in tests
        ],
        jobs=2,
    )
    assert len(batch.verdicts) == 4
    assert {verdict.name for verdict in batch.verdicts} == {
        test.name for test in tests
    }
    for verdict in batch.verdicts:
        assert verdict.status in ("Allowed", "Forbidden", "StateLimit")
