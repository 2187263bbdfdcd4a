"""Differential equivalence: compiled Sail backend vs the reference interpreter.

The AOT compiler (``repro.sail.compile``) must be *observationally
identical* to the interpreter: same outcome sequence for every
instruction under every injected value stream, same pending-state resume
and restart behaviour, same footprints, and -- through the concurrency
model -- the same litmus verdicts and exploration state counts.  These
tests pin all of that, so the compiled backend can be the only stepping
backend without weakening the interpreter's role as the executable
reference.
"""

import pytest

from repro.isa.model import IsaModel
from repro.sail import interp
from repro.sail.outcomes import (
    Barrier,
    Done,
    Internal,
    ReadMem,
    ReadReg,
    WriteMem,
    WriteReg,
)
from repro.sail.values import Bits
from repro.testgen.sequential import generate_tests


class InterpModel(IsaModel):
    """The reference side: every Sail step runs on the CEK interpreter.

    Steps are not memoised: interpreter states compare by value, so the
    exploration's state counts do not depend on object identity.
    """

    def initial_state(self, instruction):
        cache = self._initial_cache
        state = cache.get(instruction.word)
        if state is None:
            state = cache[instruction.word] = interp.initial_state(
                self._clauses[instruction.name].body,
                instruction.spec.field_bits(instruction.word),
            )
        return state

    def run_to_outcome(self, state):
        return self.interp.run_to_outcome(state)

    def resume(self, state, value):
        return interp.resume(state, value)


MODEL_I = InterpModel()
MODEL_C = IsaModel()

SPEC_NAMES = sorted(s.name for s in MODEL_I.table.all_specs())

#: Safety valve: no instruction in the corpus takes anywhere near this
#: many outcomes; hitting it means a backend diverged into a loop.
MAX_STEPS = 4096


def _salted(width, salt, position):
    """A deterministic, width-correct injected value for step ``position``."""
    raw = (0x9E3779B97F4A7C15 * (salt + 1) + 0x100003 * (position + 1))
    return Bits.from_int(raw & ((1 << width) - 1), width)


def _fingerprint(out):
    """An outcome's observable content, with the opaque state dropped."""
    if isinstance(out, ReadMem):
        return ("ReadMem", out.kind, out.addr, out.size)
    if isinstance(out, WriteMem):
        return ("WriteMem", out.kind, out.addr, out.size, out.value)
    if isinstance(out, Barrier):
        return ("Barrier", out.kind)
    if isinstance(out, ReadReg):
        return ("ReadReg", out.slice)
    if isinstance(out, WriteReg):
        return ("WriteReg", out.slice, out.value)
    if isinstance(out, Internal):
        return ("Internal",)
    if isinstance(out, Done):
        return ("Done",)
    raise AssertionError(f"unknown outcome {out!r}")


def _reply(out, salt, position, sc_success):
    """The value the harness injects to resume ``out``."""
    if isinstance(out, ReadReg):
        return _salted(out.slice.width, salt, position)
    if isinstance(out, ReadMem):
        return _salted(out.size * 8, salt, position)
    if isinstance(out, WriteMem) and out.kind == "conditional":
        return Bits.from_int(1 if sc_success else 0, 1)
    return None


def _drive(model, word, salt, sc_success=True):
    """Run one instruction to Done, feeding a deterministic value stream.

    Returns the full fingerprinted outcome trace.  Both backends see the
    same injected values (the stream depends only on outcome shape and
    step index), so equal traces mean equal observable behaviour.
    """
    instr = model.decode_or_raise(word)
    state = model.initial_state(instr)
    trace = []
    out = model.run_to_outcome(state)
    for position in range(MAX_STEPS):
        trace.append(_fingerprint(out))
        if isinstance(out, Done):
            return trace
        resumed = model.resume(out.state, _reply(out, salt, position, sc_success))
        out = model.run_to_outcome(resumed)
    raise AssertionError(f"word 0x{word:08x} took more than {MAX_STEPS} outcomes")


def _words_for(spec_name, count=3):
    spec = MODEL_I.table.by_name(spec_name)
    return [t.word for t in generate_tests(MODEL_I, spec, count=count, seed=2026)]


# ----------------------------------------------------------------------
# Outcome-trace equivalence over the whole instruction corpus
# ----------------------------------------------------------------------


@pytest.mark.parametrize("spec_name", SPEC_NAMES)
def test_outcome_traces_equal(spec_name):
    """Every spec, several encodings and value streams: identical traces."""
    for word in _words_for(spec_name):
        for salt in (0, 1):
            trace_i = _drive(MODEL_I, word, salt)
            trace_c = _drive(MODEL_C, word, salt)
            assert trace_i == trace_c, (
                f"{spec_name} word=0x{word:08x} salt={salt}: "
                f"interp {trace_i} != compiled {trace_c}"
            )
            # Store-conditionals have a second externally chosen path:
            # the reservation can fail.  Drive it on both backends too.
            if any(f[0] == "WriteMem" and f[1] == "conditional" for f in trace_i):
                fail_i = _drive(MODEL_I, word, salt, sc_success=False)
                fail_c = _drive(MODEL_C, word, salt, sc_success=False)
                assert fail_i == fail_c
                assert fail_i != trace_i  # the flag is actually observed


# ----------------------------------------------------------------------
# Pending-state protocol: resume, restart, memo identity
# ----------------------------------------------------------------------


def _first_pending(model, word, predicate):
    """Drive until ``predicate(outcome)`` holds; return that outcome."""
    state = model.initial_state(model.decode_or_raise(word))
    out = model.run_to_outcome(state)
    for position in range(MAX_STEPS):
        if predicate(out):
            return out
        assert not isinstance(out, Done)
        resumed = model.resume(out.state, _reply(out, 0, position, True))
        out = model.run_to_outcome(resumed)
    raise AssertionError("predicate never matched")


def test_pending_state_supports_restart():
    """One pending snapshot can be resumed with different values.

    The thread model restarts speculative reads by re-resuming an old
    pending state with a new value; both backends must treat the pending
    state as an immutable snapshot, not a consumed continuation.
    """
    word = _words_for("Lwz", count=1)[0]
    pend_i = _first_pending(MODEL_I, word, lambda o: isinstance(o, ReadMem))
    pend_c = _first_pending(MODEL_C, word, lambda o: isinstance(o, ReadMem))
    assert _fingerprint(pend_i) == _fingerprint(pend_c)
    for value_int in (0, 1, 0xDEADBEEF):
        value = Bits.from_int(value_int, pend_i.size * 8)
        tails = []
        for model, pend in ((MODEL_I, pend_i), (MODEL_C, pend_c)):
            out = model.run_to_outcome(model.resume(pend.state, value))
            tail = []
            for position in range(MAX_STEPS):
                tail.append(_fingerprint(out))
                if isinstance(out, Done):
                    break
                resumed = model.resume(out.state, _reply(out, 0, position, True))
                out = model.run_to_outcome(resumed)
            tails.append(tail)
        assert tails[0] == tails[1], f"value {value_int:#x}: {tails}"


def test_compiled_states_are_memo_identical():
    """resume/run_to_outcome return the *same object* for the same inputs.

    The exploration engine's state keys and outcome memos hit by
    identity; a compiled backend that rebuilt equal-but-distinct states
    would silently destroy the PR1 memoisation wins.
    """
    for spec_name in ("Lwz", "Stw", "Add", "Sync"):
        word = _words_for(spec_name, count=1)[0]
        instr = MODEL_C.decode_or_raise(word)
        s0 = MODEL_C.initial_state(instr)
        assert MODEL_C.initial_state(instr) is s0
        out = MODEL_C.run_to_outcome(s0)
        assert MODEL_C.run_to_outcome(s0) is out
        if not isinstance(out, Done):
            value = _reply(out, 0, 0, True)
            r1 = MODEL_C.resume(out.state, value)
            assert MODEL_C.resume(out.state, value) is r1
            assert hash(r1) == hash(MODEL_C.resume(out.state, value))


# ----------------------------------------------------------------------
# Footprints: compiled states delegate to the reference interpreter
# ----------------------------------------------------------------------


@pytest.mark.parametrize("spec_name", SPEC_NAMES)
def test_static_footprints_equal(spec_name):
    for word in _words_for(spec_name, count=2):
        instr_i = MODEL_I.decode_or_raise(word)
        instr_c = MODEL_C.decode_or_raise(word)
        fp_i = MODEL_I.static_footprint(instr_i)
        fp_c = MODEL_C.static_footprint(instr_c)
        assert fp_i == fp_c, f"{spec_name} word=0x{word:08x}"


def test_partial_footprints_equal():
    """Mid-execution footprints agree: replay-to-interp is faithful.

    A value-pending state cannot be analysed (the interpreter refuses to
    step it), so the partially executed state under test is the one
    *after* resuming the first register read -- some operands resolved,
    the memory access still ahead.
    """
    for spec_name in ("Lwz", "Lwzx", "Stwx", "Lwarx"):
        word = _words_for(spec_name, count=1)[0]
        mids = []
        for model in (MODEL_I, MODEL_C):
            pend = _first_pending(model, word, lambda o: isinstance(o, ReadReg))
            mids.append((model, model.resume(pend.state, _reply(pend, 0, 0, True))))
        (model_i, mid_i), (model_c, mid_c) = mids
        assert model_i.footprint(mid_i) == model_c.footprint(mid_c), spec_name


# ----------------------------------------------------------------------
# Whole-oracle equivalence: litmus verdicts and exploration shape
# ----------------------------------------------------------------------

#: The representative E6 family plus the reservation tests (the two
#: instruction classes with backend-visible resume flags).
CORPUS_SUBSET = [
    "MP",
    "MP+syncs",
    "SB+syncs",
    "R",
    "WRC+sync+addr",
    "ATOM-base",
    "ATOM-intervene",
]


@pytest.mark.parametrize("test_name", CORPUS_SUBSET)
def test_litmus_verdicts_and_counts_identical(test_name):
    from repro.litmus.library import by_name
    from repro.litmus.runner import run_litmus

    test = by_name(test_name).parse()
    result_i = run_litmus(test, MODEL_I)
    result_c = run_litmus(test, MODEL_C)
    assert result_i.status == result_c.status
    assert result_i.outcomes == result_c.outcomes
    stats_i = result_i.exploration.stats
    stats_c = result_c.exploration.stats
    assert (
        stats_i.states_visited,
        stats_i.transitions_taken,
        stats_i.final_states,
        stats_i.unique_states,
    ) == (
        stats_c.states_visited,
        stats_c.transitions_taken,
        stats_c.final_states,
        stats_c.unique_states,
    ), test_name
