"""Unit tests for the thread subsystem: register resolution and mixed size."""

import pytest

from repro.concurrency.events import Write, WriteId
from repro.concurrency.exhaustive import explore
from repro.concurrency.params import ModelParams
from repro.concurrency.system import SystemState
from repro.concurrency.thread import ModelError, ThreadState
from repro.isa.assembler import Assembler
from repro.isa.model import default_model
from repro.sail.compile import CompiledState
from repro.sail.outcomes import RegSlice
from repro.sail.values import Bits

MODEL = default_model()
ASM = Assembler(MODEL)
X, Y = 0x1000, 0x1010


def _b64(value):
    return Bits.from_int(value, 64)


def _system(programs, registers, params=None, cells=((X, 4), (Y, 4)),
            cell_values=None):
    program_memory = {}
    entries = {}
    for tid, program in enumerate(programs):
        base = 0x50000 + tid * 0x10000
        words, _ = ASM.assemble_program(program, base)
        entries[tid] = base
        for i, word in enumerate(words):
            program_memory[base + 4 * i] = word
    memory = []
    for i, (addr, size) in enumerate(cells):
        value = (cell_values or {}).get(addr, 0)
        memory.append((addr, size, Bits.from_int(value, 8 * size)))
    return SystemState(
        MODEL, program_memory, entries, registers, memory,
        params=params or ModelParams(),
    )


class TestRegisterResolution:
    def test_value_from_most_recent_writer(self):
        system = _system([["li r1,1", "li r1,2", "mr r2,r1"]], {0: {}})
        assert system.threads[0].final_register_value(MODEL, "GPR2").to_int() == 2

    def test_fragments_assemble_across_writers(self):
        # mtocrf writes one CR field; mfcr reads all of CR: the value must
        # merge the 4-bit field write with the initial CR around it.
        system = _system(
            [["lis r5,0x0A00", "mtocrf cr1,r5", "mfcr r6"]],
            {0: {"CR": Bits.from_int(0x12345678, 32)}},
        )
        # r5[32..63] = 0x0A000000 -> CR field 1 (bits 36..39) := 0xA;
        # the other seven fields come from the initial CR value.
        value = system.threads[0].final_register_value(MODEL, "GPR6")
        assert value.to_int() == 0x1A345678

    def test_initial_register_fallback(self):
        system = _system([["mr r2,r9"]], {0: {"GPR9": _b64(123)}})
        assert system.threads[0].final_register_value(MODEL, "GPR2").to_int() == 123

    def test_blocked_read_resolves_after_writer(self):
        # The add is blocked on the load's register write until the read
        # satisfies; exploration must deliver exactly 0+5.
        system = _system(
            [["lwz r1,0(r9)", "addi r2,r1,5"]],
            {0: {"GPR9": _b64(X)}},
            cell_values={X: 0},
        )
        result = explore(system)
        values = {
            dict(((t, r), v) for t, r, v in regs).get((0, "GPR2"))
            for regs, _m in result.outcomes
        }
        assert values == {5}


class TestRemainingState:
    def test_pending_state_resumes_through_the_model(self):
        # The addi waits on the load's GPR1 write, and the load on its
        # memory read: both remaining states are pending compiled states
        # resumed with an unknown value through the model's memo.  The
        # model is required; the interpreter's ``resume`` it used to fall
        # back to cannot step a compiled state.
        system = _system(
            [["lwz r1,0(r9)", "addi r2,r1,5"]], {0: {"GPR9": _b64(X)}}
        )
        pending = [
            instance for instance in system.threads[0].instances.values()
            if instance.mos[0] in ("blocked_reg", "pending_read")
        ]
        assert pending
        for instance in pending:
            state = instance.remaining_state(MODEL)
            assert type(state) is CompiledState
            assert instance.remaining_state(MODEL) is state
            with pytest.raises(TypeError):
                instance.remaining_state()


class TestMixedSize:
    def test_byte_store_word_load_across_threads(self):
        system = _system(
            [["li r7,0xAB", "stb r7,1(r1)"],
             ["lwz r5,0(r1)"]],
            {0: {"GPR1": _b64(X)}, 1: {"GPR1": _b64(X)}},
        )
        result = explore(system)
        values = {
            dict(((t, r), v) for t, r, v in regs).get((1, "GPR5"))
            for regs, _m in result.outcomes
        }
        # Either the old word or the word with the byte spliced in.
        assert values == {0x00000000, 0x00AB0000}

    def test_overlapping_writes_coherence_ordered(self):
        # Two threads write overlapping footprints (word vs halfword); the
        # final memory must be one of the two consistent layerings.
        system = _system(
            [["lis r7,0x1111", "addi r7,r7,0x1111", "stw r7,0(r1)"],
             ["li r8,0x2222", "sth r8,0(r1)"]],
            {0: {"GPR1": _b64(X)}, 1: {"GPR1": _b64(X)}},
        )
        result = explore(system, memory_cells=[(X, 4)])
        finals = {
            memory[0][2] for _regs, memory in result.outcomes if memory
        }
        assert finals <= {0x11111111, 0x22221111}
        assert 0x11111111 in finals  # halfword then word
        assert 0x22221111 in finals  # word then halfword

    def test_misaligned_store_splits_into_bytes(self):
        system = _system(
            [["li r7,0x0102", "sth r7,1(r1)"]],
            {0: {"GPR1": _b64(X)}},
        )
        thread = system.threads[0]
        store = next(
            i for i in thread.instances.values()
            if i.instruction.mnemonic == "sth"
        )
        assert len(store.mem_writes) == 2  # two single-byte atomic units
        assert all(w.size == 1 for w in store.mem_writes)


class TestTreePruning:
    def test_prune_committed_instance_is_an_error(self):
        thread = ThreadState(0, {})
        word = ASM.assemble_instruction("li r1,1")
        instance = thread.new_instance(
            MODEL, 0x100, MODEL.decode_or_raise(word), None
        )
        instance.finished = True
        with pytest.raises(ModelError):
            thread.prune_subtree(instance.ioid)

    def test_descendants_walk(self):
        thread = ThreadState(0, {})
        word = ASM.assemble_instruction("li r1,1")
        decoded = MODEL.decode_or_raise(word)
        root = thread.new_instance(MODEL, 0x100, decoded, None)
        child = thread.new_instance(MODEL, 0x104, decoded, root.ioid)
        grandchild = thread.new_instance(MODEL, 0x108, decoded, child.ioid)
        ioids = {i.ioid for i in thread.descendants(root)}
        assert ioids == {child.ioid, grandchild.ioid}
        assert [p.ioid for p in thread.po_previous(grandchild)] == [
            child.ioid, root.ioid
        ]


class TestInstanceCap:
    def test_unresolved_loop_hits_cap_with_clear_error(self):
        # A self-loop that never resolves must raise, not hang.
        params = ModelParams(max_instances_per_thread=8)
        with pytest.raises(ModelError):
            system = _system(
                [["loop:", "lwz r1,0(r9)", "b loop"]],
                {0: {"GPR9": _b64(X)}},
                params=params,
            )
            explore(system)
