"""Seeded inputs and reference verdicts for the benchmark's workloads.

Everything here runs outside the timed region: the program under test
only ever receives the generated litmus sources / instruction tests.
"""

from __future__ import annotations

import random

#: Per-test state budget of ``corpus-plain`` (sequential DFS, no
#: reduction).  Sized so one pass over the 48-test corpus fits ten times
#: into a run; 22 tests stop at the budget, 26 complete (the largest
#: complete space has 484 states).
CORPUS_BUDGET = 500

#: ``genwide-dpor`` explores a fixed diy suite: per-test cost ranges over
#: four orders of magnitude between shapes (one 6-thread multi-``Wse``
#: cycle runs at ~5 states/s), so a suite drawn afresh from every seed
#: would make the end-to-end figures a property of the seed, not of the
#: code.  ``diy.generate(0, 10, max_threads=6, max_run=4)`` is the suite
#: PERFORMANCE.md's gen-wide measurements use; the seed sets the order.
#: The budget lets the two tests that complete (126 and 545 states)
#: finish and keeps a pass short enough to repeat ~15 times in a run.
GENWIDE_SUITE = dict(seed=0, size=10, max_threads=6, max_run=4)
GENWIDE_BUDGET = 600

#: ``isa-sequential``: generated tests per instruction.
ISA_PER_INSTRUCTION = 1

#: ``service-mixed`` stream: queries per stream, Zipf exponent, the
#: 2-thread diy tests added to the curated corpus, and the per-query
#: state budget.  The diy tests are a fixed suite, like ``GENWIDE_SUITE``,
#: and every test of the population is queried at least once: the
#: misses, most of a stream's time, are then the same 100
#: explorations for every seed, and the seed decides the popularity
#: ranks, the order and the formatting.  The stream and the budget are
#: small enough that a run sends the stream five times (see
#: ``service_mixed.STREAMS``) in about 25 s.
SERVICE_QUERIES = 500
SERVICE_ZIPF = 1.1
SERVICE_DIY_SUITE = dict(seed=0, size=52, max_threads=2, max_run=1)
SERVICE_BUDGET = 200


class Item:
    """One input of a workload: a litmus test plus its reference verdict.

    ``expected`` is the verdict a complete exploration must reach
    (``None``: no reference; every complete verdict is accepted).
    """

    __slots__ = ("name", "source", "expected", "edges")

    def __init__(self, name, source, expected=None, edges=None):
        self.name = name
        self.source = source
        self.expected = expected
        self.edges = edges


def corpus_items(seed):
    """The curated corpus in a seeded order, checked against ``architected``."""
    from repro.litmus.library import corpus

    items = [
        Item(entry.name, entry.source, entry.architected) for entry in corpus()
    ]
    random.Random(seed).shuffle(items)
    return items


def genwide_items(seed):
    """The fixed diy suite in a seeded order; references come later."""
    from repro.litmus.diy import generate

    tests = generate(
        GENWIDE_SUITE["seed"], GENWIDE_SUITE["size"],
        max_threads=GENWIDE_SUITE["max_threads"],
        max_run=GENWIDE_SUITE["max_run"],
    )
    items = [Item(test.name, test.source, None, test.edges) for test in tests]
    random.Random(seed).shuffle(items)
    return items


def oracle_expectation(item):
    """Closure-then-axiomatic envelope verdict of a generated cycle."""
    from repro.testgen.concurrent import expectation_with_oracle

    return expectation_with_oracle(item.edges)[0]


def isa_tests(model, seed):
    """Seeded single-instruction differential tests, every instruction.

    Tests whose memory access runs past the top of the 64-bit address
    space are dropped: the model does not wrap such an access (it writes
    ``mem[2**64]`` where the golden emulator writes ``mem[0]``), a known
    model bug that about one random test in 20,000 hits, and a workload
    must not contain failing operations.
    """
    from repro.golden import emulator as golden
    from repro.testgen.sequential import generate_suite

    class Probe(golden.GoldenMachine):
        """Golden machine noting accesses that run past 2**64."""

        wraps = False

        def load(self, addr, size):
            self.wraps |= addr % (1 << 64) + size > 1 << 64
            return super().load(addr, size)

        def store(self, addr, size, value):
            self.wraps |= addr % (1 << 64) + size > 1 << 64
            super().store(addr, size, value)

    def wraps(test):
        setup = test.setup
        machine = Probe()
        machine.gpr = list(setup.gprs)
        machine.cr = setup.cr
        machine.so, machine.ov, machine.ca = setup.so, setup.ov, setup.ca
        machine.lr, machine.ctr = setup.lr, setup.ctr
        machine.cia = setup.cia
        machine.memory = dict(setup.memory)
        golden.execute(machine, test.decode(model))
        return machine.wraps

    tests = generate_suite(model, ISA_PER_INSTRUCTION, seed)
    return [test for test in tests if not wraps(test)]


def service_population(seed):
    """The curated corpus plus the 2-thread diy suite, in seeded rank order."""
    from repro.litmus.diy import generate
    from repro.litmus.library import corpus

    items = [
        Item(entry.name, entry.source, entry.architected) for entry in corpus()
    ]
    suite = SERVICE_DIY_SUITE
    for test in generate(suite["seed"], suite["size"],
                         max_threads=suite["max_threads"],
                         max_run=suite["max_run"]):
        items.append(Item(test.name, test.source, None, test.edges))
    random.Random(seed).shuffle(items)
    return items


def service_stream(population, seed, count):
    """``count`` population indexes: each once, the rest Zipf-skewed over
    the seeded ranks, in a seeded order."""
    rng = random.Random(seed ^ 0x5EED)
    weights = [1.0 / (rank + 1) ** SERVICE_ZIPF for rank in range(len(population))]
    stream = list(range(len(population))) + rng.choices(
        range(len(population)), weights=weights, k=count - len(population)
    )
    rng.shuffle(stream)
    return stream


def reformat(source, rng):
    """The same test with different whitespace (a fresh client's formatting).

    Pads code-table cells and appends trailing blanks; ``parse_litmus``
    strips both, so canonicalisation must map every variant to one key.
    """
    lines = []
    for line in source.splitlines():
        stripped = line.strip()
        if "|" in stripped and stripped.endswith(";"):
            cells = stripped[:-1].split("|")
            line = "|".join(
                " " * rng.randint(0, 3) + cell.strip() + " " * rng.randint(0, 3)
                for cell in cells
            ) + " ;"
        lines.append(line + " " * rng.randint(0, 2))
    return "\n" * rng.randint(0, 2) + "\n".join(lines) + "\n"
