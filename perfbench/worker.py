"""The working process of the in-process workloads.

Started by ``run.py`` with ``PYTHONPATH=src``.  It builds the ISA model,
prints ``READY`` (the end of set-up), generates its seeded inputs, then
runs passes over them, the same inputs in every pass, until
``--seconds`` are used up, and prints one JSON line describing every
operation.  A pass's time is the sum of its operations' times.
``--setup-only`` exits right after ``READY``; an untraced worker starts
one such copy of itself before every pass, so the set-up samples are
spread over the run and over both CPUs.

The first pass is a warm-up: it fills the Sail memo (isa-sequential
starts every pass on a fresh model instead), compiles the instruction
bodies on first use and is excluded from the timings.  With
``--trace 1`` the later passes alternate traced / untraced, so one run
yields both the per-layer numbers (first traced pass) and the tracing
overhead (mean traced minus mean untraced pass time).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import workloads


def _make_ops(workload, seed, model):
    """``(ops, new_pass, run_one)``: a pass's contents and a per-item operation.

    Every pass runs ``ops``, a list of ``(op id, item)``; ``new_pass()`` is
    called before each pass, outside the timed region; ``run_one(item)``
    returns ``(verdict, complete, work counts)``, and ``verdict`` is
    checked against the item's reference after the timed passes.
    """
    if workload == "isa-sequential":
        from repro.isa.model import IsaModel
        from repro.testgen.compare import run_differential

        tests = workloads.isa_tests(model, seed)
        current = [model]

        def new_pass():
            # A fresh model per pass, so a repeated test's Sail steps miss
            # the memo again, as in a one-off run of the suite.
            current[0] = None
            current[0] = IsaModel()

        def run_one(test):
            result = run_differential(current[0], test)
            return result.passed, True, [result.passed, len(result.mismatches)]

        ops = [(f"{t.spec_name}/{t.seed}", t) for t in tests]
        return ops, new_pass, run_one

    from repro.service.engine import EngineRequest, EnvelopeEngine

    engine = EnvelopeEngine()
    if workload == "corpus-plain":
        items = workloads.corpus_items(seed)
        options = dict(max_states=workloads.CORPUS_BUDGET)
    else:
        items = workloads.genwide_items(seed)
        options = dict(
            reduction="dpor", symmetry=False,
            max_states=workloads.GENWIDE_BUDGET,
        )

    def run_one(item):
        verdict = engine.run_request(
            EngineRequest(source=item.source, name=item.name, **options)
        )
        stats = verdict.stats
        work = [
            verdict.status, verdict.complete, stats["states_visited"],
            stats["unique_states"], stats["transitions_taken"],
            stats["final_states"],
        ]
        return verdict.status, verdict.complete, work

    ops = [(item.name, item) for item in items]
    return ops, lambda: None, run_one


def _sample_setup(argv):
    """Seconds from starting a ``--setup-only`` copy of this worker to its
    ``READY``.  The copy runs on this process's CPU while this one waits."""
    command = [sys.executable, os.path.abspath(__file__), *argv, "--setup-only"]
    started = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        if line.strip() != "READY":
            raise RuntimeError(f"set-up sample failed: {line!r}")
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    return ready


def _check(workload, item, verdict, complete):
    """Does one operation's result agree with the reference?"""
    if workload == "isa-sequential":
        return verdict is True
    if verdict == "StateLimit":
        return not complete
    if item.expected is None:
        item.expected = workloads.oracle_expectation(item)
    # A partial outcome set keeps only existential verdicts, and those
    # must still agree with the reference.
    return verdict == item.expected


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)

    from repro.isa.model import default_model

    model = default_model()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    ops, new_pass, run_one = _make_ops(args.workload, args.seed, model)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

    cpus = sorted(os.sched_getaffinity(0))
    records = []
    passes = []
    pass_walls = []
    setup_samples = []
    first_traced = None
    started = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        minimum = 3 if tracer else 2
        if index >= minimum:
            typical = statistics.median(pass_walls)
            if time.perf_counter() - started + typical > args.seconds:
                break
        pass_started = time.perf_counter()
        # The host slows each CPU in stretches of its own; alternating
        # the CPU from pass to pass gives every operation timings on each
        # (a traced pass runs on the CPU of the untraced pass before it).
        slot = index // 2 if tracer else index
        os.sched_setaffinity(0, {cpus[slot % len(cpus)]})
        if not tracer:
            setup_samples.append(_sample_setup(argv))
        new_pass()
        if traced:
            tracer.install()
        pass_seconds = 0.0
        for op_id, item in ops:
            op_start = time.perf_counter()
            if traced:
                with tracer.operation(op_id):
                    verdict, complete, work = run_one(item)
            else:
                verdict, complete, work = run_one(item)
            seconds = time.perf_counter() - op_start
            pass_seconds += seconds
            records.append((index, op_id, item, seconds, verdict, complete, work))
        passes.append(
            {"seconds": pass_seconds, "traced": traced, "warmup": index == 0}
        )
        pass_walls.append(time.perf_counter() - pass_started)
        if index == 1:
            # Read at a fixed point, so it does not depend on how many
            # passes fit into the run.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced:
            tracer.uninstall()
            if first_traced is None:
                first_traced = {
                    "pass": index,
                    "layers": tracer.totals(),
                    "spans": tracer.spans,
                }
            tracer.reset()
        index += 1

    # Reference checks run after every timed pass.
    ops_out = []
    for index, op_id, item, seconds, verdict, complete, work in records:
        ok = _check(args.workload, item, verdict, complete)
        ops_out.append([index, op_id, seconds * 1e3, ok, bool(complete), work])

    result = {
        "ops": ops_out,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "setup_samples": setup_samples,
    }
    if first_traced is not None:
        result["trace_pass"] = first_traced["pass"]
        result["layers"] = first_traced["layers"]
        if args.trace_out:
            with open(args.trace_out, "w") as handle:
                json.dump(
                    {"layers": first_traced["layers"],
                     "spans": first_traced["spans"]},
                    handle,
                )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
