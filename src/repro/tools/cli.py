"""ppcmem2-style command-line tool (section 6).

Modes:

  * ``ppcmem2 run TEST.litmus``          -- exhaustive oracle run
  * ``ppcmem2 interactive TEST.litmus``  -- step through transitions
  * ``ppcmem2 corpus [--jobs N]``        -- run the built-in corpus
  * ``ppcmem2 litmus [...] --jobs N``    -- run a litmus corpus in parallel
  * ``ppcmem2 gen --seed N --size K``    -- generate a diy-style suite
    (``--check --jobs J`` oracle-checks it against envelope invariants)
  * ``ppcmem2 serve [--port P]``         -- long-running envelope service
    (persistent verdict cache + async batch job queue, see SERVICE.md)
  * ``ppcmem2 client ...``               -- run the CLI verbs against a
    warm ``serve`` daemon instead of exploring cold
  * ``ppcmem2 elf BINARY``               -- sequential execution of an ELF

The oracle verbs are thin clients of the shared service engine
(``repro.service.EnvelopeEngine``); ``corpus``, ``litmus`` and
``gen --check`` spread their tests one per worker process
(``--jobs N``).  ``run``, ``corpus``, ``litmus`` and ``gen`` take
``--reduction {sleep,dpor}`` (verdict-preserving partial-order
reduction; ``dpor`` layers source sets and canonical state keys on top
of sleep sets), ``--context-bound N`` (sound under-approximation) and
``--cache PATH`` (persistent verdict cache: repeated queries are
answered in microseconds).  A test whose search the state budget or the
context bound stops reports the verdict its partial outcomes prove
("StateLimit" for a universal claim) and why it did not complete.
A search flag the engine would refuse (``EngineRequest`` checks every
value), or a ``--jobs`` below 1, is a usage error (exit code 2).  So is
an input file that cannot be read, or does not parse or assemble: the
error is one line that names the path.

The interactive mode shows Fig. 3-style system states: storage subsystem
contents (writes seen, coherence, propagation lists, unacknowledged syncs)
plus each thread's instruction instances with their static footprints, and
the enabled transitions to choose from.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from functools import partial
from typing import List, Optional

from ..concurrency.parallel import check_job_budget
from ..concurrency.search import REDUCTIONS
from ..isa.assembler import AssemblerError
from ..litmus.library import corpus
from ..litmus.parser import LitmusSyntaxError, parse_litmus
from ..litmus.runner import build_system
from ..service.engine import EngineRequest, EnvelopeEngine, check_option


class InputError(Exception):
    """An input file that cannot be read, parsed or assembled."""


def _input_failures() -> tuple:
    """What reading an input file, or parsing or assembling its contents,
    fails with when the file itself is at fault."""
    # Imported here, when something failed: the ELF package would add
    # ~6 ms to every start of every other verb.
    from ..elf.format import ElfError

    return (
        OSError, UnicodeDecodeError, LitmusSyntaxError, AssemblerError,
        ElfError,
    )


@contextmanager
def _blaming(path: str):
    """Re-raise an ``_input_failures()`` exception from the ``with`` block
    (reading ``path``, or parsing or assembling its contents) as an
    ``InputError`` that names the path."""
    try:
        yield
    except _input_failures() as exc:
        reason = exc.strerror if isinstance(exc, OSError) else None
        raise InputError(f"{path}: {reason or exc}") from None


def _read_input(path: str, binary: bool = False):
    """The contents of input file ``path``; every verb reads through here."""
    with _blaming(path), open(path, "rb" if binary else "r") as handle:
        return handle.read()


def _int_flag(check):
    """An argparse ``type``: an integer that ``check`` accepts.

    ``check`` raises ``ValueError`` on a value it refuses, and argparse
    reports that as a usage error before anything runs.
    """

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}"
            ) from None
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


def _request_option(option: str):
    """A flag for request option ``option``, range-checked by the engine."""
    return _int_flag(partial(check_option, option))


def _add_jobs_arg(parser: argparse.ArgumentParser, default, help: str) -> None:
    parser.add_argument(
        "--jobs", type=_int_flag(check_job_budget), default=default, help=help
    )


def _add_cache_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help="persistent verdict cache (sqlite file): repeated queries "
        "with identical parameters are answered from it in microseconds",
    )


def _add_search_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--reduction",
        choices=REDUCTIONS,
        default="none",
        help="partial-order reduction: 'sleep' prunes commuting "
        "interleavings with sleep sets; 'dpor' adds source-DPOR race "
        "scheduling and canonical state keys on top -- both preserve "
        "every verdict (default none)",
    )
    parser.add_argument(
        "--context-bound",
        type=_request_option("context_bound"),
        default=None,
        help="cut paths with more than N context switches; the result "
        "becomes a sound under-approximation (StateLimit on "
        "universal claims)",
    )


def _engine_from(args):
    """The service engine behind every oracle verb (cache optional)."""
    cache = None
    if getattr(args, "cache", None):
        from ..service.cache import VerdictCache

        cache = VerdictCache(args.cache)
    return EnvelopeEngine(cache=cache)


def _request_for(source, name, args, max_states=None):
    return EngineRequest(
        source=source,
        name=name,
        reduction=args.reduction,
        context_bound=args.context_bound,
        max_states=max_states,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ppcmem2",
        description="Architectural envelope test oracle for IBM POWER",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="exhaustively run a litmus test")
    run_parser.add_argument("test", help="path to a .litmus file")
    _add_search_args(run_parser)
    _add_cache_arg(run_parser)

    inter_parser = sub.add_parser(
        "interactive", help="step through a litmus test's transitions"
    )
    inter_parser.add_argument("test", help="path to a .litmus file")

    corpus_parser = sub.add_parser(
        "corpus", help="run the built-in litmus corpus"
    )
    _add_jobs_arg(
        corpus_parser, 1,
        "number of worker processes (default 1: run in-process)",
    )
    _add_search_args(corpus_parser)
    _add_cache_arg(corpus_parser)

    litmus_parser = sub.add_parser(
        "litmus",
        help="run a corpus of litmus tests across worker processes",
    )
    litmus_parser.add_argument(
        "tests", nargs="*", help="paths to .litmus files (default: built-in corpus)"
    )
    litmus_parser.add_argument(
        "--corpus",
        action="store_true",
        help="include the built-in corpus in addition to any files",
    )
    _add_jobs_arg(
        litmus_parser, None, "number of worker processes (default: CPU count)"
    )
    litmus_parser.add_argument(
        "--max-states",
        type=_request_option("max_states"),
        default=None,
        help="state budget per test",
    )
    _add_search_args(litmus_parser)
    _add_cache_arg(litmus_parser)

    gen_parser = sub.add_parser(
        "gen",
        help="generate a diy-style litmus suite (and optionally oracle-check it)",
    )
    gen_parser.add_argument(
        "--seed", type=int, default=0, help="generator seed (default 0)"
    )
    gen_parser.add_argument(
        "--size", type=int, default=20, help="number of distinct tests"
    )
    gen_parser.add_argument(
        "--max-threads",
        type=int,
        default=4,
        help="largest thread count to generate (default 4; up to 6 is "
        "validated against the solver-backed oracle)",
    )
    gen_parser.add_argument(
        "--max-run",
        type=int,
        default=2,
        help="longest internal-edge run per thread (default 2; up to 4 "
        "is validated against the solver-backed oracle)",
    )
    gen_parser.add_argument(
        "--out", default=None, help="write one .litmus file per test here"
    )
    gen_parser.add_argument(
        "--check",
        action="store_true",
        help="run the suite through the explorer and check envelope invariants",
    )
    _add_jobs_arg(
        gen_parser, None, "worker processes for --check (default: CPU count)"
    )
    gen_parser.add_argument(
        "--max-states",
        type=_request_option("max_states"),
        default=150000,
        help="state budget per test for --check (default 150000)",
    )
    _add_search_args(gen_parser)
    _add_cache_arg(gen_parser)

    serve_parser = sub.add_parser(
        "serve",
        help="run the long-running envelope service "
        "(persistent verdict cache + batch job queue)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8765, help="bind port (0: ephemeral)"
    )
    serve_parser.add_argument(
        "--cache",
        default=":memory:",
        metavar="PATH",
        help="verdict cache sqlite file (default: in-memory, lost on exit)",
    )
    _add_jobs_arg(
        serve_parser, None,
        "worker budget per batch (default: usable CPU count)",
    )

    client_parser = sub.add_parser(
        "client", help="talk to a running ppcmem2 serve daemon"
    )
    client_parser.add_argument(
        "--url",
        default=None,
        help="daemon base URL (default http://127.0.0.1:8765)",
    )
    client_sub = client_parser.add_subparsers(dest="action", required=True)
    client_sub.add_parser("health", help="daemon liveness + cache size")
    client_sub.add_parser("stats", help="cache hit/miss and queue counters")
    client_run = client_sub.add_parser(
        "run", help="run one litmus test through the daemon (synchronous)"
    )
    client_run.add_argument("test", help="path to a .litmus file")
    client_run.add_argument(
        "--max-states", type=_request_option("max_states"), default=None
    )
    _add_search_args(client_run)
    client_submit = client_sub.add_parser(
        "submit", help="submit a batch job (async; --wait polls for results)"
    )
    client_submit.add_argument(
        "tests", nargs="*", help="paths to .litmus files"
    )
    client_submit.add_argument(
        "--gen-seed", type=int, default=None,
        help="also submit a generated suite with this seed",
    )
    client_submit.add_argument("--gen-size", type=int, default=20)
    client_submit.add_argument("--gen-max-threads", type=int, default=4)
    client_submit.add_argument("--gen-max-run", type=int, default=2)
    client_submit.add_argument(
        "--max-states", type=_request_option("max_states"), default=None
    )
    client_submit.add_argument(
        "--wait", action="store_true", help="poll until done, print verdicts"
    )
    client_submit.add_argument("--timeout", type=float, default=600.0)
    _add_search_args(client_submit)
    client_status = client_sub.add_parser("status", help="poll a job")
    client_status.add_argument("job", help="job id from submit")
    client_results = client_sub.add_parser(
        "results", help="fetch a finished job's verdicts"
    )
    client_results.add_argument("job", help="job id from submit")

    elf_parser = sub.add_parser("elf", help="run an ELF binary sequentially")
    elf_parser.add_argument("binary", help="path to a Power64 ELF executable")
    elf_parser.add_argument(
        "--max-instructions", type=int, default=100000
    )

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except InputError as exc:
        print(f"ppcmem2: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "run":
        return _cmd_run(args.test, args)
    if args.command == "interactive":
        return _cmd_interactive(args.test)
    if args.command == "corpus":
        return _cmd_corpus(args.jobs, args)
    if args.command == "litmus":
        return _cmd_litmus(
            args.tests,
            args.corpus,
            args.jobs,
            args.max_states,
            args,
        )
    if args.command == "gen":
        return _cmd_gen(args)
    if args.command == "serve":
        from ..service.daemon import serve

        return serve(
            host=args.host,
            port=args.port,
            cache_path=args.cache,
            jobs=args.jobs,
        )
    if args.command == "client":
        return _cmd_client(args)
    if args.command == "elf":
        return _cmd_elf(args.binary, args.max_instructions)
    return 2


def _cmd_run(path: str, args) -> int:
    from ..service.client import format_verdict

    source = _read_input(path)
    engine = _engine_from(args)
    with _blaming(path):
        verdict = engine.run_request(_request_for(source, None, args))
    for line in format_verdict(dict(verdict.to_payload(), cached=verdict.cached)):
        print(line)
    return 0


def _cmd_interactive(path: str) -> int:
    source = _read_input(path)
    with _blaming(path):
        system, _addresses = build_system(parse_litmus(source))
    step = 0
    while True:
        print("=" * 72)
        print(system.render())
        if system.is_final():
            print("-- final state reached --")
            return 0
        transitions = system.enumerate_transitions()
        if not transitions:
            print("-- no enabled transitions --")
            return 1
        print(f"\nEnabled transitions (step {step}):")
        for i, transition in enumerate(transitions):
            print(f"  [{i}] {transition}")
        try:
            choice = input("transition> ").strip()
        except EOFError:
            return 0
        if choice in ("q", "quit", "exit"):
            return 0
        try:
            index = int(choice) if choice else 0
            transition = transitions[index]
        except (ValueError, IndexError):
            print(f"bad choice {choice!r}")
            continue
        system = system.apply(transition)
        step += 1


def _cmd_corpus(jobs: int = 1, args=None) -> int:
    entries = corpus()
    engine = _engine_from(args)
    batch = engine.run_batch(
        [_request_for(entry.source, entry.name, args) for entry in entries],
        jobs=jobs,
    )
    statuses = {v.name: v.status for v in batch.verdicts}
    sound = True
    for entry in entries:
        status = statuses[entry.name]
        ok = status == entry.architected
        sound = sound and ok
        print(
            f"{entry.name:28s} model={status:9s} "
            f"architected={entry.architected:9s} "
            f"hw-observed={'yes' if entry.observed else 'no ':3s} "
            f"{'ok' if ok else 'MISMATCH'}"
        )
    if engine.cache is not None:
        print(f"cache: {batch.hits} hit(s), {batch.misses} miss(es)")
    return 0 if sound else 1


def _cmd_litmus(paths, include_corpus: bool, jobs, max_states,
                args=None) -> int:
    entries = []
    for path in paths:
        source = _read_input(path)
        with _blaming(path):
            test = parse_litmus(source)
            # Assemble here too, so a bad mnemonic names its file instead
            # of failing the whole batch inside a worker.
            build_system(test)
        entries.append((test.name, source))
    if include_corpus or not entries:
        entries.extend((e.name, e.source) for e in corpus())
    engine = _engine_from(args)
    batch = engine.run_batch(
        [
            _request_for(source, name, args, max_states=max_states)
            for name, source in entries
        ],
        jobs=jobs,
    )
    incomplete = 0
    for verdict in batch.verdicts:
        stats = verdict.stats
        cached = " [cached]" if verdict.cached else ""
        print(
            f"{verdict.name:28s} {verdict.status:10s} "
            f"states={stats['states_visited']:6d} "
            f"outcomes={len(verdict.outcomes):4d} "
            f"time={stats['seconds']:.2f}s{cached}"
        )
        if verdict.error:
            incomplete += 1
            print(f"  !! {verdict.error}")
    merged = batch.merged_stats()
    print(
        f"Corpus: {len(batch.verdicts)} tests across {batch.jobs} "
        f"worker(s) in {batch.wall_seconds:.2f}s wall "
        f"({merged.seconds:.2f}s exploration)"
    )
    rate = merged.transitions_taken / merged.seconds if merged.seconds else 0
    print(
        f"Merged stats: states={merged.states_visited} "
        f"transitions={merged.transitions_taken} "
        f"finals={merged.final_states} deadlocks={merged.deadlocks} "
        f"rate={rate:,.0f}/s"
    )
    if engine.cache is not None:
        print(f"cache: {batch.hits} hit(s), {batch.misses} miss(es)")
    if incomplete:
        print(f"{incomplete} test(s) did not complete")
        return 1
    return 0


def _cmd_gen(args) -> int:
    """Generate a diy suite; print (or save) it, optionally oracle-check it."""
    import os

    from ..litmus.diy import generate

    tests = generate(
        args.seed,
        args.size,
        max_threads=args.max_threads,
        max_run=args.max_run,
    )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for test in tests:
            path = os.path.join(args.out, f"{test.name}.litmus")
            with open(path, "w") as handle:
                handle.write(test.source)
        print(f"wrote {len(tests)} tests to {args.out}")
    else:
        for test in tests:
            sys.stdout.write(test.source)
            sys.stdout.write("\n")
    families = sorted({test.family for test in tests})
    print(
        f"generated {len(tests)} distinct tests "
        f"({len(families)} families, seed {args.seed})",
        file=sys.stderr,
    )
    if not args.check:
        return 0

    from ..testgen.concurrent import check_suite

    extra = {}
    if args.cache:
        # A persistent cache turns repeated gen sweeps into lookups.
        extra["engine"] = _engine_from(args)
    report = check_suite(
        tests,
        jobs=args.jobs,
        max_states=args.max_states,
        reduction=args.reduction,
        context_bound=args.context_bound,
        **extra,
    )
    # Diagnostics go to stderr: stdout stays a clean litmus stream.
    for check in report.checks:
        verdict = (
            "ok"
            if check.ok
            else ("--" if check.ok is None else "VIOLATION")
        )
        print(
            f"{check.name:36s} expected={str(check.expected):9s} "
            f"model={check.status:10s} {verdict}",
            file=sys.stderr,
        )
    print(
        f"Oracle: {report.checked} invariants checked "
        f"({report.solver_decided} decided by the axiomatic solver), "
        f"{len(report.violations)} violation(s), {report.skipped} over "
        f"state budget, {report.unasserted} unasserted, "
        f"{report.jobs} worker(s), {report.wall_seconds:.2f}s wall",
        file=sys.stderr,
    )
    # Violations are oracle soundness failures: exit non-zero so CI gen
    # smoke jobs fail loudly instead of scrolling past.
    return 1 if report.violations else 0


def _client_options(args) -> dict:
    """JSON-safe engine options from the shared search flags."""
    options = {}
    if args.reduction != "none":
        options["reduction"] = args.reduction
    if args.context_bound is not None:
        options["context_bound"] = args.context_bound
    if getattr(args, "max_states", None) is not None:
        options["max_states"] = args.max_states
    return options


def _cmd_client(args) -> int:
    import json

    from ..service.client import ServiceClient, ServiceError, format_verdict

    client = ServiceClient(url=args.url)
    try:
        if args.action == "health":
            print(json.dumps(client.health(), indent=2))
            return 0
        if args.action == "stats":
            print(json.dumps(client.stats(), indent=2))
            return 0
        if args.action == "status":
            print(json.dumps(client.job(args.job), indent=2))
            return 0
        if args.action == "results":
            results = client.results(args.job)
            for verdict in results["verdicts"]:
                for line in format_verdict(verdict):
                    print(line)
            return 0
        if args.action == "run":
            source = _read_input(args.test)
            verdict = client.query(source, options=_client_options(args))
            for line in format_verdict(verdict):
                print(line)
            return 0
        if args.action == "submit":
            tests = []
            for path in args.tests:
                source = _read_input(path)
                with _blaming(path):
                    tests.append((parse_litmus(source).name, source))
            gen = None
            if args.gen_seed is not None:
                gen = {
                    "seed": args.gen_seed,
                    "size": args.gen_size,
                    "max_threads": args.gen_max_threads,
                    "max_run": args.gen_max_run,
                }
            submitted = client.submit(
                tests, options=_client_options(args), gen=gen
            )
            if not args.wait:
                print(json.dumps(submitted, indent=2))
                return 0
            results = client.wait(submitted["job"], timeout=args.timeout)
            for verdict in results["verdicts"]:
                for line in format_verdict(verdict):
                    print(line)
            print(
                f"Job {results['job']}: {results['tests']} tests, "
                f"{results['cache_hits']} cache hit(s), "
                f"{results['cache_misses']} miss(es), "
                f"{results['seconds']:.2f}s"
            )
            return 0
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(
            f"error: cannot reach daemon at {client.base_url}: {exc} "
            f"(start one with `ppcmem2 serve`)",
            file=sys.stderr,
        )
        return 1
    finally:
        client.close()
    return 2


def _cmd_elf(path: str, max_instructions: int) -> int:
    from ..elf.loader import load_image, load_into_machine
    from ..elf.reader import read_elf
    from ..isa.sequential import SequentialMachine

    blob = _read_input(path, binary=True)
    with _blaming(path):
        loaded = load_image(read_elf(blob))
    machine = SequentialMachine()
    load_into_machine(machine, loaded)
    final = machine.run(loaded.entry, max_instructions)
    print(f"Halted at 0x{final:x} after {machine.instructions_retired} instructions")
    for i in range(32):
        value = machine.gpr(i)
        if value.is_known and value.to_int():
            print(f"  r{i} = 0x{value.to_int():x}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
