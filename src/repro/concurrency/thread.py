"""The thread subsystem: trees of in-flight instruction instances.

Implements the paper's per-thread model (sections 2 and 5):

  * a *tree* of instruction instances, branching at (speculated) conditional
    branches, with un-taken subtrees discarded once the branch resolves;
  * register reads resolved by walking program-order predecessors at bit
    granularity, blocking while an intervening instruction might still write
    a needed bit (section 2.1.2);
  * the CIA/NIA pseudo-registers handled specially (no dependencies);
  * memory reads satisfied either from the storage subsystem or by
    *forwarding* from an uncommitted program-order-earlier store
    (section 2.1.5, PPOCA);
  * restart of speculative loads (and their dependents) on coherence
    violations, and of anything that consumed values from a restarted
    instruction.

The micro-op state of an instance is the paper's

    type micro_op_state =
      | MOS_plain of instruction_state
      | MOS_pending_mem_read of read_request * (memval -> instruction_state)
      | MOS_potential_mem_write of (list write) * instruction_state

with the continuation stored as a pending Sail instruction state, plus the
"blocked register read" refinement and the store-conditional variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..isa.model import DecodedInstruction, IsaModel
from ..sail.analysis import Footprint
from ..sail.compile import CompiledState
from ..sail.outcomes import RegSlice
from ..sail.values import Bits
from .events import Write, WriteId
from .keys import CachedKey, intern_key
from .params import ModelParams

Ioid = Tuple[int, int]  # (tid, per-thread index)


class ModelError(Exception):
    """An internal invariant of the concurrency model was violated."""


# Micro-op state tags.
MOS_PLAIN = "plain"
MOS_BLOCKED_REG = "blocked_reg"  # (tag, RegSlice, pending state)
MOS_PENDING_READ = "pending_read"  # (tag, kind, addr, size, pending state)
MOS_PENDING_SC = "pending_sc"  # (tag, addr, size, value, pending state)
MOS_DONE = "done"


@dataclass(frozen=True)
class RegReadRecord:
    slice: RegSlice
    value: Bits
    sources: Tuple[Ioid, ...]  # instruction instances the value came from


@dataclass(frozen=True)
class RegWriteRecord:
    slice: RegSlice
    value: Bits


@dataclass(frozen=True)
class MemReadRecord:
    """A satisfied memory read and where each byte run came from."""

    addr: int
    size: int
    value: Bits
    kind: str  # "plain" | "reserve"
    storage_sources: Tuple[Tuple[WriteId, int, int], ...]  # (wid, offset, len)
    forwarded_from: Optional[Ioid]  # instance whose write was forwarded


class InstructionInstance:
    """One (possibly speculative, possibly partially executed) instruction.

    Attribute writes invalidate the instance's memoised ``key()`` (see
    ``__setattr__``); ``children`` is therefore always *replaced*, never
    mutated in place, by the code that grows or prunes the tree.
    """

    __slots__ = (
        "ioid",
        "tid",
        "address",
        "instruction",
        "static_fp",
        "mos",
        "reg_reads",
        "reg_writes",
        "mem_reads",
        "mem_writes",
        "writes_committed",
        "sc_resolved",
        "barrier_kind",
        "barrier_committed",
        "nia",
        "finished",
        "restarts",
        "prev",
        "children",
        "addr_sources",
        "_key_cache",
    )

    def __init__(
        self,
        ioid: Ioid,
        address: int,
        instruction: DecodedInstruction,
        static_fp: Footprint,
        initial: CompiledState,
        prev: Optional[Ioid],
    ):
        self.ioid = ioid
        self.tid = ioid[0]
        self.address = address
        self.instruction = instruction
        self.static_fp = static_fp
        self.mos: tuple = (MOS_PLAIN, initial)
        self.reg_reads: Tuple[RegReadRecord, ...] = ()
        self.reg_writes: Tuple[RegWriteRecord, ...] = ()
        self.mem_reads: Tuple[MemReadRecord, ...] = ()
        self.mem_writes: Tuple[Write, ...] = ()
        self.writes_committed = False
        self.sc_resolved: Optional[bool] = None
        self.barrier_kind: Optional[str] = None
        self.barrier_committed = False
        self.nia: Optional[int] = None
        self.finished = False
        self.restarts = 0
        self.prev = prev
        self.children: Dict[int, Ioid] = {}  # fetch address -> child ioid
        #: Instances whose register values fed this instruction's memory
        #: footprint (the paper's address taint, section 2.2): reads
        #: performed while the remaining footprint was still undetermined.
        self.addr_sources: Tuple[Ioid, ...] = ()

    # ------------------------------------------------------------------

    def __setattr__(self, name, value):
        # Every mutation drops the memoised key; ``key()`` itself stores the
        # cache through object.__setattr__ to avoid self-invalidation.
        object.__setattr__(self, name, value)
        object.__setattr__(self, "_key_cache", None)

    def clone(self) -> "InstructionInstance":
        other = InstructionInstance.__new__(InstructionInstance)
        put = object.__setattr__
        put(other, "ioid", self.ioid)
        put(other, "tid", self.tid)
        put(other, "address", self.address)
        put(other, "instruction", self.instruction)
        put(other, "static_fp", self.static_fp)
        put(other, "mos", self.mos)
        put(other, "reg_reads", self.reg_reads)
        put(other, "reg_writes", self.reg_writes)
        put(other, "mem_reads", self.mem_reads)
        put(other, "mem_writes", self.mem_writes)
        put(other, "writes_committed", self.writes_committed)
        put(other, "sc_resolved", self.sc_resolved)
        put(other, "barrier_kind", self.barrier_kind)
        put(other, "barrier_committed", self.barrier_committed)
        put(other, "nia", self.nia)
        put(other, "finished", self.finished)
        put(other, "restarts", self.restarts)
        put(other, "prev", self.prev)
        put(other, "children", self.children)
        put(other, "addr_sources", self.addr_sources)
        # The clone starts bit-identical, so it shares the memoised key
        # object: unchanged instances compare key-equal by identity across
        # the whole chain of COW descendants.
        put(other, "_key_cache", self._key_cache)
        return other

    def key(self) -> CachedKey:
        cached = self._key_cache
        if cached is None:
            value = (
                self.ioid,
                self.address,
                self.instruction.word,
                self._mos_key(),
                self.reg_reads,
                self.reg_writes,
                self.mem_reads,
                self.mem_writes,
                self.writes_committed,
                self.sc_resolved,
                self.barrier_kind,
                self.barrier_committed,
                self.nia,
                self.finished,
                self.prev,
                tuple(sorted(self.children.items())),
                self.addr_sources,
            )
            # Finished instances are immutable from here on and heavily
            # shared between converging interleavings: intern their keys so
            # equal keys compare by identity.
            cached = intern_key(value) if self.finished else CachedKey(value)
            object.__setattr__(self, "_key_cache", cached)
        return cached

    def _mos_key(self):
        return self.mos

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    @property
    def is_done_executing(self) -> bool:
        return self.mos[0] == MOS_DONE

    @property
    def is_branch(self) -> bool:
        """Does this instruction have more than one possible successor?"""
        fp = self.static_fp
        return bool(fp.nias) or fp.nia_indirect

    @property
    def is_load(self) -> bool:
        return self.static_fp.is_load or bool(self.mem_reads)

    @property
    def is_store(self) -> bool:
        return self.static_fp.is_store or bool(self.mem_writes)

    @property
    def is_memory_access(self) -> bool:
        return self.is_load or self.is_store

    @property
    def is_storage_barrier(self) -> bool:
        return self.barrier_kind in ("sync", "lwsync", "eieio")

    def static_barrier_kinds(self) -> frozenset:
        """Barrier kinds this instruction will (or did) signal."""
        if self.barrier_kind is not None:
            return frozenset((self.barrier_kind,))
        return self.static_fp.barriers

    # ------------------------------------------------------------------
    # Dynamic footprints
    # ------------------------------------------------------------------

    def remaining_state(self, model: IsaModel):
        """An instruction state covering the instruction's remaining work.

        A pending state is resumed with an unknown value through the
        model's resume memo, so repeated calls along different
        interleavings share the resulting state object.
        """
        tag = self.mos[0]
        if tag == MOS_PLAIN:
            return self.mos[1]
        if tag == MOS_BLOCKED_REG:
            reg_slice, pending = self.mos[1], self.mos[2]
            return model.resume(pending, Bits.unknown(reg_slice.width))
        if tag == MOS_PENDING_READ:
            _, _, _, size, pending = self.mos
            return model.resume(pending, Bits.unknown(8 * size))
        if tag == MOS_PENDING_SC:
            return model.resume(self.mos[4], Bits.unknown(1))
        return None

    def remaining_footprint(self, model: IsaModel) -> Optional[Footprint]:
        state = self.remaining_state(model)
        if state is None:
            return None
        return model.footprint(state, cia=self.address)

    def may_write_reg(self, model: IsaModel, target: RegSlice) -> bool:
        """Could this instruction still write (part of) ``target``?"""
        remaining = self.remaining_footprint(model)
        return remaining is not None and remaining.may_write_reg(target)

    def memory_footprint_determined(self, model: IsaModel) -> bool:
        """Are all possible future memory accesses at concrete addresses?

        This is the paper's dynamic footprint recalculation (section 2.1.6):
        a store whose address registers have resolved reports a determined
        footprint even while its data register read is still pending.
        """
        if self.mos[0] == MOS_PENDING_READ or self.mos[0] == MOS_PENDING_SC:
            pass  # the pending access itself is at a known address
        remaining = self.remaining_footprint(model)
        if remaining is None:
            return True
        return remaining.memory_determined

    def may_access_memory(self, model: IsaModel, addr: int, size: int) -> bool:
        for record in self.mem_reads:
            if record.addr < addr + size and addr < record.addr + record.size:
                return True
        for write in self.mem_writes:
            if write.overlaps(addr, size):
                return True
        tag = self.mos[0]
        if tag == MOS_PENDING_READ:
            _, _, raddr, rsize, _ = self.mos
            if raddr < addr + size and addr < raddr + rsize:
                return True
        if tag == MOS_PENDING_SC:
            _, waddr, wsize, _, _ = self.mos
            if waddr < addr + size and addr < waddr + wsize:
                return True
        remaining = self.remaining_footprint(model)
        return remaining is not None and remaining.may_touch_memory(addr, size)

    def may_write_memory_overlapping(
        self, model: IsaModel, addr: int, size: int
    ) -> bool:
        for write in self.mem_writes:
            if write.overlaps(addr, size):
                return True
        if self.mos[0] == MOS_PENDING_SC:
            _, waddr, wsize, _, _ = self.mos
            if waddr < addr + size and addr < waddr + wsize:
                return True
        remaining = self.remaining_footprint(model)
        return remaining is not None and remaining.may_write_memory(addr, size)

    # ------------------------------------------------------------------

    def performed_write_footprints(self) -> List[Tuple[int, int]]:
        return [(w.addr, w.size) for w in self.mem_writes]

    def read_footprints(self) -> List[Tuple[int, int]]:
        return [(r.addr, r.size) for r in self.mem_reads]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<i{self.ioid} 0x{self.address:x} {self.instruction.mnemonic} "
            f"{self.mos[0]}{' fin' if self.finished else ''}>"
        )


def _coarsen(reg_slice: RegSlice, granularity: str) -> RegSlice:
    """Widen a CR slice for the E8 dependency-granularity ablation."""
    if reg_slice.reg != "CR" or granularity == "bit":
        return reg_slice
    if granularity == "field":
        lo = 32 + ((reg_slice.lo - 32) // 4) * 4
        hi = 32 + ((reg_slice.hi - 32) // 4) * 4 + 3
        return RegSlice("CR", lo, hi)
    return RegSlice("CR", 32, 63)


class ThreadState:
    """One hardware thread: instruction tree + initial register values.

    ``key()`` is memoised; direct attribute writes invalidate it (see
    ``__setattr__``), and the system state's ``_own_thread`` drops it before
    any mutation of the thread's instances, which this object cannot see.
    """

    __slots__ = (
        "tid",
        "initial_registers",
        "instances",
        "root",
        "next_index",
        "reservation",
        "initial_fetch_address",
        "_key_cache",
        "_trans_cache",
        "_finished_cache",
        "_sorted_ioids",
    )

    #: Derived-value slots dropped together on any mutation: the memoised
    #: key, the enumerated transition options (with their storage-side
    #: context), the all-instructions-finished verdict, and the sorted
    #: instance-id list.
    _CACHE_SLOTS = (
        "_key_cache",
        "_trans_cache",
        "_finished_cache",
        "_sorted_ioids",
    )

    def __init__(self, tid: int, initial_registers: Dict[str, Bits]):
        self.tid = tid
        self.initial_registers = dict(initial_registers)
        self.instances: Dict[Ioid, InstructionInstance] = {}
        self.root: Optional[Ioid] = None
        self.next_index = 0
        #: (addr, size, write id, lwarx ioid) or None
        self.reservation: Optional[Tuple[int, int, WriteId, Ioid]] = None
        self.initial_fetch_address: Optional[int] = None

    # ------------------------------------------------------------------

    def __setattr__(self, name, value):
        object.__setattr__(self, name, value)
        if name not in ThreadState._CACHE_SLOTS:
            object.__setattr__(self, "_key_cache", None)
            object.__setattr__(self, "_trans_cache", None)
            object.__setattr__(self, "_finished_cache", None)
            object.__setattr__(self, "_sorted_ioids", None)

    def clone(self) -> "ThreadState":
        other = ThreadState.__new__(ThreadState)
        put = object.__setattr__
        put(other, "tid", self.tid)
        put(other, "initial_registers", self.initial_registers)  # immutable
        put(other, "instances", {
            ioid: inst.clone() for ioid, inst in self.instances.items()
        })
        put(other, "root", self.root)
        put(other, "next_index", self.next_index)
        put(other, "reservation", self.reservation)
        put(other, "initial_fetch_address", self.initial_fetch_address)
        put(other, "_key_cache", None)
        put(other, "_trans_cache", None)
        put(other, "_finished_cache", None)
        put(other, "_sorted_ioids", self._sorted_ioids)
        return other

    def invalidate_caches(self) -> None:
        """Drop derived values: the caller is about to mutate an instance."""
        put = object.__setattr__
        put(self, "_key_cache", None)
        put(self, "_trans_cache", None)
        put(self, "_finished_cache", None)

    def sorted_ioids(self) -> List[Ioid]:
        """Sorted instance ids (cached; do not mutate the returned list).

        Invalidated whenever the instance *set* changes (``new_instance``,
        ``prune_subtree``); instance mutations do not affect it, so
        ``invalidate_caches`` leaves it alone.
        """
        cached = self._sorted_ioids
        if cached is None:
            cached = sorted(self.instances)
            object.__setattr__(self, "_sorted_ioids", cached)
        return cached

    def key(self) -> CachedKey:
        cached = self._key_cache
        if cached is None:
            instances = self.instances
            # Interned: equal thread states recur along converging
            # interleavings, and identity-equal thread keys let the seen-set
            # equality walk stop one level down instead of comparing every
            # instance key pairwise.
            cached = intern_key((
                self.tid,
                tuple(
                    [instances[ioid].key() for ioid in self.sorted_ioids()]
                ),
                self.reservation,
            ))
            object.__setattr__(self, "_key_cache", cached)
        return cached

    # ------------------------------------------------------------------
    # Tree navigation
    # ------------------------------------------------------------------

    def po_previous(self, instance: InstructionInstance) -> Iterator[InstructionInstance]:
        """Program-order predecessors, nearest first."""
        current = instance.prev
        while current is not None:
            pred = self.instances[current]
            yield pred
            current = pred.prev

    def descendants(self, instance: InstructionInstance) -> Iterator[InstructionInstance]:
        """All instances program-order-after ``instance`` (whole subtree)."""
        pending = list(instance.children.values())
        while pending:
            ioid = pending.pop()
            child = self.instances.get(ioid)
            if child is None:
                continue
            yield child
            pending.extend(child.children.values())

    def new_instance(
        self,
        model: IsaModel,
        address: int,
        instruction: DecodedInstruction,
        prev: Optional[Ioid],
    ) -> InstructionInstance:
        ioid = (self.tid, self.next_index)
        self.next_index += 1
        instance = InstructionInstance(
            ioid,
            address,
            instruction,
            model.static_footprint(instruction, cia=address),
            model.initial_state(instruction),
            prev,
        )
        self.instances[ioid] = instance
        if prev is None:
            self.root = ioid
        else:
            parent = self.instances[prev]
            # Replace rather than mutate: children dicts are shared between
            # COW clones and their assignment invalidates the parent's key.
            parent.children = {**parent.children, address: ioid}
        return instance

    def prune_subtree(self, ioid: Ioid) -> None:
        """Discard a speculative subtree (un-taken branch path)."""
        self.invalidate_caches()
        object.__setattr__(self, "_sorted_ioids", None)
        instance = self.instances.pop(ioid, None)
        if instance is None:
            return
        if instance.writes_committed or instance.finished:
            raise ModelError(f"pruning a committed instance {ioid}")
        if self.reservation is not None and self.reservation[3] == ioid:
            self.reservation = None
        for child in list(instance.children.values()):
            self.prune_subtree(child)

    # ------------------------------------------------------------------
    # Register-read resolution (section 2.1.2)
    # ------------------------------------------------------------------

    def resolve_register_read(
        self,
        model: IsaModel,
        params: ModelParams,
        instance: InstructionInstance,
        reg_slice: RegSlice,
    ):
        """Resolve a register read by walking po-predecessors.

        Returns ("value", Bits, sources) or ("blocked", blocker_ioid).
        Dependency *tracking* uses the configured CR granularity; the value
        bits themselves are always assembled precisely.
        """
        coarse = _coarsen(reg_slice, params.cr_granularity)
        needed: List[Tuple[int, int]] = [(reg_slice.lo, reg_slice.hi)]
        coarse_needed: List[Tuple[int, int]] = [(coarse.lo, coarse.hi)]
        fragments: List[Tuple[int, int, Bits]] = []
        sources: Set[Ioid] = set()

        for pred in self.po_previous(instance):
            if not needed and not coarse_needed:
                break
            wrote_here = False
            for record in reversed(pred.reg_writes):
                wslice = _coarsen(record.slice, params.cr_granularity)
                if wslice.reg != reg_slice.reg:
                    continue
                if needed and record.slice.reg == reg_slice.reg:
                    new_needed = []
                    for lo, hi in needed:
                        overlap_lo = max(lo, record.slice.lo)
                        overlap_hi = min(hi, record.slice.hi)
                        if overlap_lo > overlap_hi:
                            new_needed.append((lo, hi))
                            continue
                        fragment = record.value.slice(
                            overlap_lo - record.slice.lo,
                            overlap_hi - record.slice.lo,
                        )
                        fragments.append((overlap_lo, overlap_hi, fragment))
                        sources.add(pred.ioid)
                        wrote_here = True
                        if lo < overlap_lo:
                            new_needed.append((lo, overlap_lo - 1))
                        if overlap_hi < hi:
                            new_needed.append((overlap_hi + 1, hi))
                    needed = new_needed
                # Coarse (dependency-only) consumption.
                new_coarse = []
                consumed_coarse = False
                for lo, hi in coarse_needed:
                    if wslice.lo <= hi and lo <= wslice.hi:
                        consumed_coarse = True
                        sources.add(pred.ioid)
                        if lo < wslice.lo:
                            new_coarse.append((lo, wslice.lo - 1))
                        if wslice.hi < hi:
                            new_coarse.append((wslice.hi + 1, hi))
                    else:
                        new_coarse.append((lo, hi))
                if consumed_coarse:
                    coarse_needed = new_coarse
            if (needed or coarse_needed) and not pred.is_done_executing:
                remaining = pred.remaining_footprint(model)
                if remaining is not None:
                    for out in remaining.regs_out:
                        cout = _coarsen(out, params.cr_granularity)
                        if cout.reg != reg_slice.reg:
                            continue
                        blocked = any(
                            cout.lo <= hi and lo <= cout.hi
                            for lo, hi in coarse_needed
                        ) or any(
                            out.lo <= hi and lo <= out.hi for lo, hi in needed
                        )
                        if blocked:
                            return ("blocked", pred.ioid)

        # Remaining bits come from the thread's initial register state.
        initial = self.initial_registers.get(reg_slice.reg)
        if initial is None:
            info = model.registry.shape_of_instance(reg_slice.reg)
            initial = Bits.zeros(info.width)
        info = model.registry.shape_of_instance(reg_slice.reg)
        value = Bits.unknown(reg_slice.width)
        for lo, hi in needed:
            fragment = initial.slice(lo - info.start, hi - info.start)
            fragments.append((lo, hi, fragment))
        for lo, hi, fragment in fragments:
            value = value.update_slice(
                lo - reg_slice.lo, hi - reg_slice.lo, fragment
            )
        if value.has_unknown:
            raise ModelError(f"register read {reg_slice} left unknown bits")
        return ("value", value, tuple(sorted(sources)))

    # ------------------------------------------------------------------
    # Final register state
    # ------------------------------------------------------------------

    def _committed_path(self) -> List["InstructionInstance"]:
        """The single committed root-to-leaf path of a final thread state."""
        path: List[InstructionInstance] = []
        current = self.root
        while current is not None:
            instance = self.instances[current]
            path.append(instance)
            children = list(instance.children.values())
            if not children:
                break
            if len(children) > 1:
                raise ModelError("unresolved speculation in final state")
            current = children[0]
        return path

    def final_register_value(self, model: IsaModel, reg: str) -> Bits:
        """Architected value of ``reg`` after all instructions finished."""
        return self.final_register_values(model, (reg,))[reg]

    def final_register_values(
        self, model: IsaModel, regs: Iterable[str]
    ) -> Dict[str, Bits]:
        """Architected values of ``regs``, walking the committed path once."""
        infos = {reg: model.registry.shape_of_instance(reg) for reg in regs}
        values = {
            reg: self.initial_registers.get(reg, Bits.zeros(info.width))
            for reg, info in infos.items()
        }
        for instance in self._committed_path():
            for record in instance.reg_writes:
                reg = record.slice.reg
                info = infos.get(reg)
                if info is None:
                    continue
                values[reg] = values[reg].update_slice(
                    record.slice.lo - info.start,
                    record.slice.hi - info.start,
                    record.value,
                )
        return values

    def all_finished(self) -> bool:
        return all(inst.finished for inst in self.instances.values())
