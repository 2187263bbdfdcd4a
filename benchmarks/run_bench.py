#!/usr/bin/env python
"""E6 benchmark harness: run the exploration suite, record a trajectory.

Runs the representative E6 litmus family through the exhaustive oracle and
appends one entry (per-test and total transitions/s, states/s, wall time)
to a ``BENCH_e6.json`` trajectory file, so future performance PRs have a
baseline to compare against on the same machine.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [--output PATH] [--label L]
        [--suite e6|gen|gen-wide|service]
        [--strategy sequential|bounded]
        [--reduction none|sleep|dpor] [--symmetry] [--context-bound N]
        [--sail-backend compiled|interp]
    python benchmarks/run_bench.py --paired REF --workload W --seed S
        [--pairs N] [--seconds T]

``--paired REF`` is the paired protocol for a speed claim: it checks
``REF`` out into a temporary ``git worktree`` and runs ``perfbench/run.py
--workload W --seed S --seconds T --trace 0`` alternately there and in
this working tree, ``N`` pairs, flipping which side goes first each pair
(the host's speed drifts over minutes).  It prints each end-to-end
metric's per-side median and quartiles, how many pairs the working tree
won, and whether the gap between the medians exceeds ``REF``'s
interquartile range.  It exits non-zero when any run is incorrect or the
two sides' work digests differ (a speed claim needs identical work).

``--suite gen`` runs the diy-generated two-thread suite instead of the
curated E6 family, appending a generated-suite throughput entry to the
same trajectory (marked ``"suite": "gen"``).

``--strategy`` picks the search backend per test (entries record it
under ``"strategy"``).

``--suite service`` measures the verdict cache twice on the E6 family:
in process (one cold ``EnvelopeEngine.run_request``, one warm) and over
HTTP (an in-process daemon on an ephemeral port and one
``ServiceClient``: each test queried cold, then ``HTTP_WARM_QUERIES``
times warm).  It exits non-zero when a warm verdict differs from its
cold one, or when the HTTP leg used more than one connection.

``SEED_BASELINE`` holds the seed implementation's numbers measured by the
same protocol (one warm process, stats from inside ``explore``) on the
reference container; the E6 pytest benchmark prints a before/after table
against it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

REPRESENTATIVE = ["MP", "MP+syncs", "SB+syncs", "R", "WRC+sync+addr"]

#: Seed (pre-optimisation) E6 numbers on the reference container:
#: per-test (states, finals, transitions, seconds) plus totals.
SEED_BASELINE = {
    "label": "seed",
    "per_test": {
        "MP": {"states": 316, "finals": 26, "transitions": 752, "seconds": 0.086},
        "MP+syncs": {"states": 312, "finals": 26, "transitions": 577, "seconds": 0.074},
        "SB+syncs": {"states": 1125, "finals": 32, "transitions": 2542, "seconds": 0.332},
        "R": {"states": 1390, "finals": 106, "transitions": 3284, "seconds": 0.377},
        "WRC+sync+addr": {"states": 2152, "finals": 218, "transitions": 5696, "seconds": 0.959},
    },
    "total": {
        "states": 5295,
        "transitions": 12851,
        "seconds": 1.829,
        "transitions_per_second": 7025,
    },
}

DEFAULT_OUTPUT = os.path.join(os.path.dirname(__file__), "BENCH_e6.json")


#: Generated-suite benchmark: two-thread tests from the diy generator,
#: a standing throughput workload for the cycle-based test pipeline.
GEN_SEED = 0
GEN_SIZE = 12

#: Wide generated-suite benchmark: the lifted generator caps (up to 6
#: threads / 4-edge runs), a standing workload for the larger families
#: the axiomatic-solver-backed oracle now decides.  Exploration is
#: state-bounded: blowups record their partial work, not a crash.
GEN_WIDE_SEED = 0
GEN_WIDE_SIZE = 10
GEN_WIDE_MAX_THREADS = 6
GEN_WIDE_MAX_RUN = 4
GEN_WIDE_MAX_STATES = 150_000


def _suite_tests(suite):
    """The (name, LitmusTest) pairs of the chosen benchmark suite."""
    from repro.litmus.library import by_name

    if suite == "e6":
        return [(name, by_name(name).parse()) for name in REPRESENTATIVE]
    from repro.litmus.diy import generate

    if suite == "gen-wide":
        return [
            (test.name, test.test)
            for test in generate(
                GEN_WIDE_SEED,
                GEN_WIDE_SIZE,
                max_threads=GEN_WIDE_MAX_THREADS,
                max_run=GEN_WIDE_MAX_RUN,
            )
        ]
    return [
        (test.name, test.test)
        for test in generate(GEN_SEED, GEN_SIZE, max_threads=2)
    ]


def run_service_suite(sail_backend=None):
    """Cold-vs-warm latency of the service engine on the E6 family.

    Cold: a fresh exploration through ``EnvelopeEngine.run_request``
    (empty cache).  Warm: the identical request again -- a verdict-cache
    hit.  Records per-test latencies, the speedup, and the hit rate;
    asserts the warm verdict is bit-identical to the cold one before
    recording anything.
    """
    import time as _time

    from repro.litmus.library import by_name
    from repro.service import EngineRequest, EnvelopeEngine, VerdictCache

    cache = VerdictCache()
    engine = EnvelopeEngine(cache=cache, sail_backend=sail_backend)
    per_test = {}
    total_cold = total_warm = 0.0
    for name in REPRESENTATIVE:
        request = EngineRequest(source=by_name(name).source, name=name)
        started = _time.perf_counter()
        cold = engine.run_request(request)
        cold_seconds = _time.perf_counter() - started
        started = _time.perf_counter()
        warm = engine.run_request(request)
        warm_seconds = _time.perf_counter() - started
        if not warm.cached or warm.to_payload() != cold.to_payload():
            raise AssertionError(
                f"{name}: warm verdict not a bit-identical cache hit"
            )
        per_test[name] = {
            "status": cold.status,
            "cold_seconds": round(cold_seconds, 6),
            "warm_seconds": round(warm_seconds, 6),
            "speedup": round(cold_seconds / warm_seconds, 1)
            if warm_seconds
            else None,
        }
        total_cold += cold_seconds
        total_warm += warm_seconds
    stats = cache.stats()
    total = {
        "cold_seconds": round(total_cold, 6),
        "warm_seconds": round(total_warm, 6),
        "speedup": round(total_cold / total_warm, 1) if total_warm else None,
        "cache_hits": stats["hits"],
        "cache_misses": stats["misses"],
        "cache_hit_rate": round(
            stats["hits"] / (stats["hits"] + stats["misses"]), 3
        )
        if stats["hits"] + stats["misses"]
        else 0.0,
    }
    return per_test, total


#: Warm queries per E6 test in the service suite's HTTP leg.
HTTP_WARM_QUERIES = 20


def run_service_http_leg(sail_backend=None):
    """Cold-then-warm latency of the E6 family through a real daemon.

    One ``ServiceClient`` talks to an in-process daemon on an ephemeral
    port: each test is queried once cold (a miss), then
    ``HTTP_WARM_QUERIES`` times warm (hits), each hit checked against
    the cold payload.  Returns per-test {cold_ms, warm_p50_ms} and the
    total warm p50 with the number of TCP connections the daemon
    accepted (one, when the client's connection was kept alive).
    """
    from repro.litmus.library import by_name
    from repro.service.client import ServiceClient
    from repro.service.daemon import ServiceDaemon

    daemon = ServiceDaemon(port=0, sail_backend=sail_backend)
    thread = threading.Thread(
        target=daemon.serve_forever,
        kwargs={"install_signal_handlers": False},
        daemon=True,
    )
    thread.start()
    host, port = daemon.address
    per_test, warm_ms = {}, []
    try:
        with ServiceClient(url=f"http://{host}:{port}") as client:
            for name in REPRESENTATIVE:
                source = by_name(name).source
                started = time.perf_counter()
                cold = client.query(source, name=name)
                cold_ms = (time.perf_counter() - started) * 1e3
                hits = []
                for _ in range(HTTP_WARM_QUERIES):
                    started = time.perf_counter()
                    warm = client.query(source, name=name)
                    hits.append((time.perf_counter() - started) * 1e3)
                    if warm != dict(cold, cached=True):
                        raise AssertionError(
                            f"{name}: HTTP warm verdict not a bit-identical "
                            "cache hit"
                        )
                per_test[name] = {
                    "cold_ms": round(cold_ms, 3),
                    "warm_p50_ms": round(statistics.median(hits), 3),
                }
                warm_ms += hits
            connections = client.stats()["connections"]
    finally:
        daemon.shutdown()
        thread.join(timeout=10)
    total = {
        "warm_queries": len(warm_ms),
        "warm_p50_ms": round(statistics.median(warm_ms), 3),
        "connections": connections,
    }
    return per_test, total


def run_suite(model=None, suite="e6", strategy=None, reduction="none"):
    """Run one benchmark suite; returns (per_test, total) dicts.

    ``reduction`` is recorded verbatim in every per-test entry (even
    ``"none"``) so trajectory consumers can compare reduced and
    unreduced entries without consulting the strategy record; the
    per-test ``unique_states`` counter is the coverage that pairs with
    it (canonical-key states under ``dpor``, raw keys otherwise).
    """
    from repro.concurrency.search import ExplorationLimit
    from repro.isa.model import default_model
    from repro.litmus.runner import run_litmus

    model = model if model is not None else default_model()
    max_states = GEN_WIDE_MAX_STATES if suite == "gen-wide" else None
    per_test = {}
    total_states = total_unique = total_transitions = 0
    total_seconds = 0.0
    for name, test in _suite_tests(suite):
        limited = False
        try:
            result = run_litmus(
                test, model, max_states=max_states, strategy=strategy
            )
            stats = result.exploration.stats
        except ExplorationLimit as exc:
            # Budget exhaustion still did (and accounts) real work.
            from repro.concurrency.search import ExplorationStats

            stats = exc.stats if exc.stats is not None else ExplorationStats()
            limited = True
        per_test[name] = {
            "states": stats.states_visited,
            "finals": stats.final_states,
            "transitions": stats.transitions_taken,
            "reused_successors": stats.reused_successors,
            "unique_states": stats.unique_states,
            "reduction": reduction,
            "seconds": round(stats.seconds, 4),
        }
        if limited:
            per_test[name]["limit"] = True
        total_states += stats.states_visited
        total_unique += stats.unique_states
        total_transitions += stats.transitions_taken
        total_seconds += stats.seconds
    total = {
        "states": total_states,
        "unique_states": total_unique,
        "transitions": total_transitions,
        "seconds": round(total_seconds, 4),
        "transitions_per_second": int(total_transitions / total_seconds)
        if total_seconds
        else 0,
        "states_per_second": int(total_states / total_seconds)
        if total_seconds
        else 0,
    }
    return per_test, total


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _perfbench_run(root, workload, seed, seconds):
    """One ``perfbench/run.py --trace 0`` run in ``root``.

    Returns (correct, metrics, work digest); a run that fails outright
    counts as incorrect, with whatever it reported.
    """
    proc = subprocess.run(
        [
            sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except ValueError:  # the run died before its result line
        result = {}
    digest = None
    for line in proc.stderr.splitlines():
        if line.startswith("work digest "):
            digest = line.split()[-1]
    if proc.returncode != 0 or not result.get("correct"):
        print(proc.stderr[-2000:], file=sys.stderr)
    metrics = {
        name: entry["value"]
        for name, entry in result.get("metrics", {}).items()
    }
    correct = proc.returncode == 0 and bool(result.get("correct"))
    return correct, metrics, digest


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def run_paired(ref, workload, seed, pairs, seconds) -> int:
    """The paired protocol (see the module docstring); returns the exit code."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        better = {
            metric["name"]: metric["better"]
            for metric in json.load(handle)["end_to_end"]
        }
    workdir = tempfile.mkdtemp(prefix="paired-")
    ref_root = os.path.join(workdir, "ref")
    subprocess.run(
        ["git", "worktree", "add", "--detach", ref_root, ref],
        cwd=ROOT, check=True, capture_output=True,
    )
    sides = {"ref": ref_root, "work": ROOT}
    runs = {"ref": [], "work": []}
    try:
        for pair in range(pairs):
            order = ("ref", "work") if pair % 2 == 0 else ("work", "ref")
            for side in order:
                run = _perfbench_run(sides[side], workload, seed, seconds)
                runs[side].append(run)
                print(
                    f"pair {pair + 1}/{pairs} {side}: correct={run[0]} "
                    f"digest={run[2]} "
                    + " ".join(f"{k}={v:.4g}" for k, v in run[1].items()),
                    file=sys.stderr, flush=True,
                )
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", ref_root],
            cwd=ROOT, capture_output=True,
        )
        shutil.rmtree(workdir, ignore_errors=True)
    failures = []
    if not all(run[0] for side in runs.values() for run in side):
        failures.append("an incorrect or failed run")
    digests = {run[2] for side in runs.values() for run in side}
    if len(digests) != 1 or None in digests:
        failures.append(f"work digests differ: {sorted(map(str, digests))}")
    print(
        f"{workload} seed {seed}: {pairs} pairs at --seconds {seconds}, "
        f"{ref} (ref) vs working tree (work)"
    )
    print(
        f"{'metric':<16}{'ref median [q1, q3]':>30}"
        f"{'work median [q1, q3]':>30}{'wins':>8}  gap > ref IQR"
    )
    for name, direction in better.items():
        ref_values = [run[1][name] for run in runs["ref"] if name in run[1]]
        work_values = [run[1][name] for run in runs["work"] if name in run[1]]
        if len(ref_values) != pairs or len(work_values) != pairs:
            continue
        sign = 1 if direction == "lower" else -1
        wins = sum(
            sign * (r - w) > 0 for r, w in zip(ref_values, work_values)
        )
        r1, rm, r3 = _quartiles(ref_values)
        w1, wm, w3 = _quartiles(work_values)
        gap = sign * (rm - wm)  # positive: the working tree is better
        trend = "better" if gap > 0 else "worse" if gap < 0 else "equal"
        change = abs(gap) / rm if rm else 0.0
        print(
            f"{name:<16}{f'{rm:.4g} [{r1:.4g}, {r3:.4g}]':>30}"
            f"{f'{wm:.4g} [{w1:.4g}, {w3:.4g}]':>30}"
            f"{f'{wins}/{pairs}':>8}  "
            f"{'yes' if gap > r3 - r1 else 'no'} ({trend} by {change:.1%})"
        )
    for failure in failures:
        print(f"paired run failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    parser.add_argument("--label", default=None, help="trajectory entry label")
    parser.add_argument(
        "--suite",
        choices=("e6", "gen", "gen-wide", "service"),
        default="e6",
        help="e6: the representative curated family (default); "
        "gen: the diy-generated two-thread suite "
        f"(seed {GEN_SEED}, size {GEN_SIZE}); "
        "gen-wide: the lifted-cap generated suite "
        f"(seed {GEN_WIDE_SEED}, size {GEN_WIDE_SIZE}, up to "
        f"{GEN_WIDE_MAX_THREADS} threads / {GEN_WIDE_MAX_RUN}-edge runs, "
        f"state budget {GEN_WIDE_MAX_STATES}); "
        "service: cold-vs-warm verdict-cache latency of the service "
        "engine on the e6 family",
    )
    parser.add_argument(
        "--strategy",
        choices=("sequential", "bounded"),
        default="sequential",
        help="search backend per test (default sequential)",
    )
    parser.add_argument(
        "--reduction",
        choices=("none", "sleep", "dpor"),
        default="none",
        help="partial-order reduction (verdict-preserving): sleep sets, "
        "or source-DPOR over canonical state keys",
    )
    parser.add_argument(
        "--context-bound",
        type=int,
        default=None,
        help="context-switch bound (sound under-approximation)",
    )
    parser.add_argument(
        "--symmetry",
        action="store_true",
        help="with --reduction dpor: canonicalise states modulo "
        "detected thread symmetry",
    )
    parser.add_argument(
        "--sail-backend",
        choices=("compiled", "interp"),
        default=None,
        help="Sail execution backend for the ISA model (default: the "
        "model's resolved default, PPCMEM2_SAIL_BACKEND env or 'compiled')",
    )
    paired = parser.add_argument_group(
        "paired protocol (see the module docstring)"
    )
    paired.add_argument(
        "--paired", metavar="REF", default=None,
        help="compare the working tree with git ref REF",
    )
    paired.add_argument(
        "--workload",
        choices=("corpus-plain", "genwide-dpor", "service-mixed",
                 "isa-sequential"),
    )
    paired.add_argument("--seed", type=int)
    paired.add_argument("--pairs", type=int, default=10)
    paired.add_argument("--seconds", type=int, default=28)
    args = parser.parse_args(argv)
    if args.paired is not None:
        if args.workload is None or args.seed is None:
            parser.error("--paired needs --workload and --seed")
        return run_paired(
            args.paired, args.workload, args.seed, args.pairs, args.seconds
        )

    from repro.concurrency.search import make_strategy

    strategy = make_strategy(
        args.strategy,
        reduction=args.reduction,
        context_bound=args.context_bound,
        symmetry=args.symmetry,
    )
    strategy_record = {"name": args.strategy}
    if args.reduction != "none":
        strategy_record["reduction"] = args.reduction
    if args.context_bound is not None:
        strategy_record["context_bound"] = args.context_bound
    if args.symmetry:
        strategy_record["symmetry"] = True

    from repro.isa.model import IsaModel, resolve_sail_backend

    sail_backend = resolve_sail_backend(args.sail_backend)
    if args.suite == "service":
        per_test, total = run_service_suite(sail_backend=sail_backend)
        http_per_test, total["http"] = run_service_http_leg(
            sail_backend=sail_backend
        )
        for name, entry in http_per_test.items():
            per_test[name]["http"] = entry
    else:
        model = IsaModel(sail_backend=sail_backend)
        per_test, total = run_suite(
            model=model,
            suite=args.suite,
            strategy=strategy,
            reduction=args.reduction,
        )

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        cpus = os.cpu_count() or 1

    trajectory = []
    if os.path.exists(args.output):
        with open(args.output) as handle:
            trajectory = json.load(handle)
    if not trajectory and args.suite == "e6":
        # The seed baseline is an E6 measurement; a gen-only trajectory
        # must not start from unrelated e6 numbers.
        trajectory.append(SEED_BASELINE)
    if args.suite == "e6":
        default_label = f"run-{len(trajectory)}"
    elif args.suite == "service":
        default_label = f"service-cold-warm-{len(trajectory)}"
    elif args.suite == "gen-wide":
        default_label = (
            f"gen-wide-seed{GEN_WIDE_SEED}-size{GEN_WIDE_SIZE}"
            f"-t{GEN_WIDE_MAX_THREADS}r{GEN_WIDE_MAX_RUN}-{len(trajectory)}"
        )
    else:
        default_label = f"gen-seed{GEN_SEED}-size{GEN_SIZE}-{len(trajectory)}"
    entry = {
        "label": args.label or default_label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "suite": args.suite,
        "strategy": strategy_record,
        "sail_backend": sail_backend,
        # Usable cores when the entry was recorded.
        "cpus": cpus,
        "per_test": per_test,
        "total": total,
    }
    trajectory.append(entry)
    with open(args.output, "w") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")

    if args.suite == "service":
        http = total["http"]
        print(f"Service suite ({len(per_test)} tests): "
              f"cold {total['cold_seconds']:.3f}s, "
              f"warm {total['warm_seconds']:.4f}s "
              f"= {total['speedup']:,}x speedup "
              f"(hit rate {total['cache_hit_rate']:.0%})")
        in_process_ms = total["warm_seconds"] * 1e3 / len(per_test)
        print(f"  warm hit: {in_process_ms:.3f} ms in process, "
              f"p50 {http['warm_p50_ms']:.3f} ms over HTTP "
              f"({http['warm_queries']} hits, "
              f"{http['connections']} connection(s))")
    elif args.suite == "e6":
        baseline = trajectory[0]["total"]
        speedup = (
            total["transitions_per_second"] / baseline["transitions_per_second"]
            if baseline.get("transitions_per_second")
            else float("nan")
        )
        print(f"E6 suite: {total['transitions']} transitions "
              f"in {total['seconds']:.2f}s "
              f"= {total['transitions_per_second']:,}/s "
              f"({speedup:.2f}x over {trajectory[0]['label']})")
    else:
        print(f"Generated suite ({len(per_test)} tests): "
              f"{total['transitions']} transitions in {total['seconds']:.2f}s "
              f"= {total['transitions_per_second']:,}/s")
    print(f"trajectory written to {args.output} ({len(trajectory)} entries)")
    if args.suite == "service" and total["http"]["connections"] != 1:
        # A count, not a timing: the client must keep its connection.
        print(f"service HTTP leg used {total['http']['connections']} "
              "connections, expected 1", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
