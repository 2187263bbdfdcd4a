"""The whole-system state and its transitions.

This is the paper's

    type system_state = <|
      program_memory: address -> fetch_decode_outcome;
      initial_writes: list write;
      interp_context: Interp_interface.context;
      thread_states: map thread_id thread_state;
      storage_subsystem: storage_subsystem_state; ... |>

with

    val enumerate_transitions_of_system : system_state -> list trans
    val system_state_after_transition : system_state -> trans -> system_state

Deterministic, thread-local transitions (internal Sail steps, resolvable
register reads, unique-successor fetch, restart-free instruction finish) are
taken *eagerly*; only observably racy choices -- memory-read satisfaction,
store/barrier commitment, store-conditional resolution, propagation, sync
acknowledgement -- are enumerated as explicit transitions.  This is the
standard ppcmem-family optimisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..isa.model import IsaModel
from ..sail.outcomes import (
    Barrier as BarrierOutcome,
    Done as DoneOutcome,
    ReadMem,
    ReadReg,
    WriteMem,
    WriteReg,
)
from ..sail.values import Bits, FALSE, TRUE
from .events import BarrierEvent, BarrierId, Write, WriteId, initial_write
from .keys import CachedKey
from .params import DEFAULT_PARAMS, ModelParams
from .storage import StorageSubsystem
from .thread import (
    Ioid,
    MemReadRecord,
    MOS_BLOCKED_REG,
    MOS_DONE,
    MOS_PENDING_READ,
    MOS_PENDING_SC,
    MOS_PLAIN,
    ModelError,
    RegReadRecord,
    RegWriteRecord,
    ThreadState,
)


@dataclass(frozen=True)
class Transition:
    """One enabled transition of the whole system."""

    kind: str
    tid: Optional[int] = None
    ioid: Optional[Ioid] = None
    detail: tuple = ()
    #: Human-readable description for traces.  Excluded from equality and
    #: hashing: it is a pure function of the comparing fields, and keys over
    #: transitions (sleep sets, trace serialisation) should not hash the
    #: string.
    label: str = field(default="", compare=False)

    # The search's successor records and sleep sets hash a transition
    # several times, so the hash -- the value the generated ``__hash__``
    # would return -- is computed once per object (the dataclass machinery
    # leaves an explicitly defined ``__hash__`` alone).
    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash((self.kind, self.tid, self.ioid, self.detail))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuilt through ``__init__`` rather than from a pickled
        # ``__dict__``: the cached hash covers ``kind`` (a str), whose
        # hash differs between processes with different hash seeds.
        return (
            Transition, (self.kind, self.tid, self.ioid, self.detail, self.label)
        )

    def __str__(self) -> str:
        return self.label or self.kind


class SystemState:
    """Mutable system state; cloned by the explorer before each transition.

    ``clone()`` is copy-on-write: the new state shares every thread and the
    storage subsystem with its parent and copies a slice only when a
    transition actually mutates it (``_own_thread`` / ``_own_storage``).
    Transitions touch one thread plus at most the storage subsystem, so a
    successor state typically copies one thread's instances instead of every
    instance of every thread.  All mutation paths must acquire their targets
    through the ``_own_*`` helpers; reading shared state is always safe.
    """

    def __init__(
        self,
        model: IsaModel,
        program_memory: Dict[int, int],
        thread_entries: Dict[int, int],
        initial_registers: Dict[int, Dict[str, Bits]],
        initial_memory: Iterable[Tuple[int, int, Bits]],
        params: ModelParams = DEFAULT_PARAMS,
        symbols: Optional[Dict[int, str]] = None,
    ):
        """Build the initial state.

        ``program_memory`` maps word-aligned addresses to 32-bit opcodes;
        ``thread_entries`` maps thread ids to entry points;
        ``initial_registers`` gives each thread's initial register values;
        ``initial_memory`` lists (addr, size, value) initial-state writes.
        """
        self.model = model
        self.params = params
        self.program_memory = dict(program_memory)
        self.symbols = dict(symbols or {})
        self.threads: Dict[int, ThreadState] = {}
        self.storage = StorageSubsystem(sorted(thread_entries))
        writes = [
            initial_write(index, addr, size, value)
            for index, (addr, size, value) in enumerate(initial_memory)
        ]
        self.storage.accept_initial_writes(writes)
        for tid, entry in sorted(thread_entries.items()):
            thread = ThreadState(tid, initial_registers.get(tid, {}))
            thread.initial_fetch_address = entry
            self.threads[tid] = thread
        # A freshly built state owns everything it references.
        self._owned_tids = set(self.threads)
        self._owns_storage = True
        self._key_cache: Optional[CachedKey] = None
        self._threads_key: Optional[Tuple] = None
        self._sorted_tids = sorted(self.threads)
        self.eager_closure()

    # ------------------------------------------------------------------
    # Cloning / keys
    # ------------------------------------------------------------------

    def clone(self) -> "SystemState":
        """Copy-on-write clone: shares threads and storage with ``self``.

        Both sides lose write ownership of the shared structures; either
        will copy a thread (or the storage subsystem) the first time it
        mutates it.  Use ``clone_eager`` for a fully independent deep copy.
        """
        other = SystemState.__new__(SystemState)
        other.model = self.model
        other.params = self.params
        other.program_memory = self.program_memory  # immutable use
        other.symbols = self.symbols
        other.threads = dict(self.threads)
        other.storage = self.storage
        other._owned_tids = set()
        other._owns_storage = False
        other._key_cache = None
        # The clone's threads are the same objects, so the composite
        # thread-key tuple carries over until one of them is mutated.
        other._threads_key = self._threads_key
        other._sorted_tids = self._sorted_tids
        self._owned_tids = set()
        self._owns_storage = False
        return other

    def clone_eager(self) -> "SystemState":
        """Deep clone copying every thread, instance and the storage state.

        This is the pre-COW cloning path, kept as the reference
        implementation: the determinism regression tests check that states
        produced through COW cloning are ``key()``-identical to states
        produced through this eager path.
        """
        other = SystemState.__new__(SystemState)
        other.model = self.model
        other.params = self.params
        other.program_memory = self.program_memory  # immutable use
        other.symbols = self.symbols
        other.threads = {tid: t.clone() for tid, t in self.threads.items()}
        other.storage = self.storage.clone()
        other._owned_tids = set(other.threads)
        other._owns_storage = True
        other._key_cache = None
        other._threads_key = None
        other._sorted_tids = self._sorted_tids
        return other

    def _own_thread(self, tid: int) -> ThreadState:
        """Return a privately owned (writable) copy of thread ``tid``.

        Also drops the thread's memoised key: the caller is about to mutate
        the thread or its instances, which the thread object cannot observe.
        """
        self._key_cache = None
        self._threads_key = None
        thread = self.threads[tid]
        if tid not in self._owned_tids:
            thread = thread.clone()
            self.threads[tid] = thread
            self._owned_tids.add(tid)
        thread.invalidate_caches()
        return thread

    def _own_storage(self) -> StorageSubsystem:
        """Return a privately owned (writable) storage subsystem."""
        self._key_cache = None
        if not self._owns_storage:
            self.storage = self.storage.clone()
            self._owns_storage = True
        return self.storage

    def threads_key(self) -> Tuple[CachedKey, ...]:
        """The thread keys in tid order: the thread half of ``key()``."""
        threads_key = self._threads_key
        if threads_key is None:
            threads = self.threads
            threads_key = tuple(
                [threads[tid].key() for tid in self._sorted_tids]
            )
            self._threads_key = threads_key
        return threads_key

    def key(self) -> CachedKey:
        cached = self._key_cache
        if cached is None:
            threads_key = self._threads_key
            if threads_key is None:
                threads_key = self.threads_key()
            # Not interned: system keys are unique per state, so interning
            # them would only churn the bounded intern table and evict the
            # genuinely shared thread/instance keys on large searches.
            cached = CachedKey((threads_key, self.storage.key()))
            self._key_cache = cached
        return cached

    # ------------------------------------------------------------------
    # Fetch
    # ------------------------------------------------------------------

    def _fetch_candidates(self, thread: ThreadState, instance) -> List[int]:
        """Possible next fetch addresses of an instance."""
        nia = instance.nia
        if nia is not None:
            return [nia] if nia in self.program_memory else []
        fp = instance.static_fp
        if not fp.nias:
            # Straight-line instruction: fall-through is the only candidate.
            # (Indirect targets wait until the instance resolves its NIA.)
            if fp.nia_fallthrough:
                addr = instance.address + 4
                return [addr] if addr in self.program_memory else []
            return []
        candidates: Set[int] = set(fp.nias)
        if fp.nia_fallthrough:
            candidates.add(instance.address + 4)
        return sorted(
            addr for addr in candidates if addr in self.program_memory
        )

    def _fetch_one(self, thread: ThreadState, instance, address: int) -> bool:
        if address in instance.children:
            return False
        if len(thread.instances) >= self.params.max_instances_per_thread:
            raise ModelError(
                f"thread {thread.tid} exceeded the instance cap "
                f"({self.params.max_instances_per_thread}); "
                "an unresolved loop or runaway speculation"
            )
        word = self.program_memory[address]
        instruction = self.model.decode(word)
        if instruction is None:
            raise ModelError(f"cannot decode 0x{word:08x} at 0x{address:x}")
        thread.new_instance(self.model, address, instruction, instance.ioid)
        return True

    def _fetch_root(self, thread: ThreadState) -> bool:
        if thread.root is not None:
            return False
        address = thread.initial_fetch_address
        if address is None or address not in self.program_memory:
            return False
        word = self.program_memory[address]
        instruction = self.model.decode(word)
        if instruction is None:
            raise ModelError(f"cannot decode 0x{word:08x} at 0x{address:x}")
        thread.new_instance(self.model, address, instruction, None)
        return True

    # ------------------------------------------------------------------
    # Eager closure
    # ------------------------------------------------------------------

    def eager_closure(self, dirty: Optional[Dict[int, int]] = None) -> None:
        """Take all deterministic thread-local steps to a fixpoint.

        Eager steps are thread-local: whether an instance can progress
        depends only on its own thread's state and on the storage
        subsystem's set of acknowledged syncs.  A state produced by
        ``apply`` therefore only needs to re-close the threads the
        transition touched (``dirty``, a tid -> start-index map), plus any
        thread whose sync is acknowledged during the closure -- every other
        thread was already at its fixpoint in the parent state and nothing
        it depends on changed.  ``dirty=None`` (the initial closure)
        processes every thread from index 0.
        """
        #: tid -> smallest instance index still to process (0 = the whole
        #: thread).  Instances are processed in creation (= program-order-
        #: compatible) order and an instance's eager enablement depends only
        #: on itself, its po-ancestors (lower indexes, processed earlier in
        #: the same pass) and the acknowledged-sync set -- so after one full
        #: pass only instances *fetched during the pass* can still step, and
        #: after an acknowledgement only the sync's own thread can.
        work: Dict[int, int] = (
            {tid: 0 for tid in self.threads} if dirty is None
            else dict(dirty)
        )
        iterations = 0
        while True:
            iterations += 1
            if iterations > 10000:
                raise ModelError("eager closure did not converge")
            next_work: Dict[int, int] = {}
            for tid in sorted(work):
                thread = self._own_thread(tid)
                start = work[tid]
                boundary = thread.next_index
                progress = False
                if start == 0 and self._fetch_root(thread):
                    progress = True
                for ioid in thread.sorted_ioids():
                    if ioid[1] < start:
                        continue
                    instance = thread.instances.get(ioid)
                    if instance is None:
                        continue
                    if self._eager_step_instance(thread, instance):
                        progress = True
                if progress and thread.next_index > boundary:
                    next_work[tid] = boundary
            # Sync acknowledgements are purely enabling (no transition is
            # negatively sensitive to acked-ness), so take them eagerly.
            # An acknowledgement can unblock finishes in the sync's thread.
            for bid in sorted(self.storage.unacknowledged_syncs):
                if self.storage.can_acknowledge_sync(bid):
                    self._own_storage().acknowledge_sync(bid, checked=True)
                    # The acknowledgement can unblock the sync instruction's
                    # own finish and, transitively, only its po-successors
                    # (all at higher creation indexes).
                    start = bid.ioid[1]
                    next_work[bid.tid] = min(
                        next_work.get(bid.tid, start), start
                    )
            if not next_work:
                return
            work = next_work

    def _eager_step_instance(self, thread: ThreadState, instance) -> bool:
        # Fast path: a finished instance with its (unique, resolved)
        # successor already fetched -- or falling outside the program --
        # can neither step nor fetch; re-closure passes skip it outright.
        if instance.finished:
            nia = instance.nia
            if nia is not None and (
                nia in instance.children or nia not in self.program_memory
            ):
                return False
        progress = False
        # Fetch successors speculatively (any time, at any tree leaf).
        if not self._pruned(thread, instance):
            for address in self._fetch_candidates(thread, instance):
                if self._fetch_one(thread, instance, address):
                    progress = True
        # Drive the Sail interpreter through deterministic outcomes.
        while True:
            tag = instance.mos[0]
            if tag == MOS_PLAIN:
                if self._advance_plain(thread, instance):
                    progress = True
                    continue
                break
            if tag == MOS_BLOCKED_REG:
                if self._try_resolve_blocked_reg(thread, instance):
                    progress = True
                    continue
                break
            break
        # Eager finish (safe: preconditions guarantee restart-freedom).
        if (
            not instance.finished
            and instance.mos[0] == MOS_DONE
            and self._can_finish(thread, instance)
        ):
            self._do_finish(thread, instance)
            progress = True
        if progress and not self._pruned(thread, instance):
            for address in self._fetch_candidates(thread, instance):
                if self._fetch_one(thread, instance, address):
                    pass
        return progress

    def _pruned(self, thread: ThreadState, instance) -> bool:
        return instance.ioid not in thread.instances

    def _advance_plain(self, thread: ThreadState, instance) -> bool:
        """Take one deterministic Sail step; returns True on progress."""
        state = instance.mos[1]
        outcome = self.model.run_to_outcome(state)
        if isinstance(outcome, DoneOutcome):
            instance.mos = (MOS_DONE,)
            if instance.nia is None:
                instance.nia = instance.address + 4
            self._prune_untaken(thread, instance)
            return True
        if isinstance(outcome, ReadReg):
            reg_slice = outcome.slice
            if reg_slice.reg == "CIA":
                value = Bits.from_int(instance.address, 64)
                instance.mos = (MOS_PLAIN, self.model.resume(outcome.state, value))
                return True
            if reg_slice.reg == "NIA":
                raise ModelError("pseudocode reads NIA")
            result = thread.resolve_register_read(
                self.model, self.params, instance, reg_slice
            )
            if result[0] == "blocked":
                instance.mos = (MOS_BLOCKED_REG, reg_slice, outcome.state)
                return False
            _, value, sources = result
            self._note_address_taint(
                instance, outcome.state, reg_slice.width, sources
            )
            instance.reg_reads = instance.reg_reads + (
                RegReadRecord(reg_slice, value, sources),
            )
            instance.mos = (MOS_PLAIN, self.model.resume(outcome.state, value))
            return True
        if isinstance(outcome, WriteReg):
            if outcome.slice.reg == "NIA":
                if not outcome.value.is_known:
                    raise ModelError("branch target contains undef bits")
                instance.nia = outcome.value.to_int()
                self._prune_untaken(thread, instance)
            else:
                instance.reg_writes = instance.reg_writes + (
                    RegWriteRecord(outcome.slice, outcome.value),
                )
            instance.mos = (MOS_PLAIN, self.model.resume(outcome.state, None))
            return True
        if isinstance(outcome, ReadMem):
            if not outcome.addr.is_known:
                raise ModelError("memory read address contains undef bits")
            instance.mos = (
                MOS_PENDING_READ,
                outcome.kind,
                outcome.addr.to_int(),
                outcome.size,
                outcome.state,
            )
            return True
        if isinstance(outcome, WriteMem):
            if not outcome.addr.is_known:
                raise ModelError("memory write address contains undef bits")
            addr = outcome.addr.to_int()
            if outcome.kind == "conditional":
                instance.mos = (
                    MOS_PENDING_SC,
                    addr,
                    outcome.size,
                    outcome.value,
                    outcome.state,
                )
                return True
            units = self._split_write(instance, addr, outcome.size, outcome.value)
            instance.mem_writes = instance.mem_writes + units
            instance.mos = (MOS_PLAIN, self.model.resume(outcome.state, None))
            return True
        if isinstance(outcome, BarrierOutcome):
            instance.barrier_kind = outcome.kind
            instance.mos = (MOS_PLAIN, self.model.resume(outcome.state, None))
            return True
        raise ModelError(f"unexpected outcome {outcome!r}")

    def _split_write(
        self, instance, addr: int, size: int, value: Bits
    ) -> Tuple[Write, ...]:
        """Decompose a write into architecturally atomic units (section 5)."""
        index_base = len(instance.mem_writes)
        if addr % size == 0:
            return (
                Write(
                    WriteId(instance.tid, instance.ioid, index_base),
                    addr,
                    size,
                    value,
                ),
            )
        # Misaligned: single bytes are the atomic units.
        units = []
        for i in range(size):
            units.append(
                Write(
                    WriteId(instance.tid, instance.ioid, index_base + i),
                    addr + i,
                    1,
                    value.slice(8 * i, 8 * i + 7),
                )
            )
        return tuple(units)

    def _note_address_taint(
        self, instance, pending_state, width: int, sources
    ) -> None:
        """Record sources of reads that may feed a memory address.

        A register read resolved while the instruction's remaining memory
        footprint is still undetermined may flow into an address; reads
        resolved after the footprint is determined cannot (the pseudocode is
        interpreted sequentially, section 2.1.6).  This realises the paper's
        dynamic taint tracking (section 2.2): downstream commit conditions
        treat a footprint as stable only once every address source is
        finished.
        """
        if not sources:
            return
        fp = self.model.footprint(
            self.model.resume(pending_state, Bits.unknown(width)),
            cia=instance.address,
        )
        if fp.is_memory_access and not fp.memory_determined:
            merged = set(instance.addr_sources)
            merged.update(sources)
            instance.addr_sources = tuple(sorted(merged))

    def _try_resolve_blocked_reg(self, thread: ThreadState, instance) -> bool:
        _, reg_slice, pending = instance.mos
        result = thread.resolve_register_read(
            self.model, self.params, instance, reg_slice
        )
        if result[0] == "blocked":
            return False
        _, value, sources = result
        self._note_address_taint(instance, pending, reg_slice.width, sources)
        instance.reg_reads = instance.reg_reads + (
            RegReadRecord(reg_slice, value, sources),
        )
        instance.mos = (MOS_PLAIN, self.model.resume(pending, value))
        return True

    def _prune_untaken(self, thread: ThreadState, instance) -> None:
        """Discard speculative children not matching a resolved NIA."""
        if instance.nia is None:
            return
        kept: Dict[int, Ioid] = {}
        pruned = False
        for address, child in instance.children.items():
            if address == instance.nia:
                kept[address] = child
            else:
                thread.prune_subtree(child)
                pruned = True
        if pruned:
            # Replace rather than mutate: the dict may be shared with COW
            # clones and the assignment invalidates the memoised key.
            instance.children = kept

    # ------------------------------------------------------------------
    # Commit / finish conditions
    # ------------------------------------------------------------------

    def _register_sources_finished(self, thread, instance) -> bool:
        for record in instance.reg_reads:
            for source in record.sources:
                pred = thread.instances.get(source)
                if pred is None or not pred.finished:
                    return False
        return True

    def _sync_acked(self, instance) -> bool:
        bid = BarrierId(instance.tid, instance.ioid)
        return bid in self.storage.acknowledged_syncs

    def _can_finish(self, thread, instance) -> bool:
        """Generic instruction finish (the paper's commit) conditions.

        One fused walk over the program-order predecessors checks, per
        predecessor: speculation (branches must have resolved), footprint
        stability of earlier memory accesses (determined addresses fed only
        by finished sources), overlapping earlier accesses finished before a
        load finishes, and the barrier conditions (sync committed+acked,
        lwsync committed, isync finished).  The conjunction equals the
        previous per-condition walks, but the predecessor chain (and its
        dict lookups) is traversed once instead of up to four times.
        """
        if instance.mos[0] != MOS_DONE:
            return False
        if instance.mem_writes and not instance.writes_committed:
            return False  # stores finish through the commit-store transition
        if instance.is_storage_barrier and not instance.barrier_committed:
            return False
        if not self._register_sources_finished(thread, instance):
            return False
        model = self.model
        is_mem = instance.is_memory_access
        has_reads = bool(instance.mem_reads)
        footprints = instance.read_footprints() if has_reads else ()
        instances = thread.instances
        for pred in thread.po_previous(instance):
            if pred.is_branch and not pred.finished:
                return False
            if is_mem and pred.is_memory_access:
                if not pred.memory_footprint_determined(model):
                    return False
                for source in pred.addr_sources:
                    source_instance = instances.get(source)
                    if source_instance is None or not source_instance.finished:
                        return False
            if has_reads:
                if not pred.finished:
                    for addr, size in footprints:
                        if pred.may_access_memory(model, addr, size):
                            return False
                kinds = pred.static_barrier_kinds()
                if kinds:
                    if "sync" in kinds and not (
                        pred.barrier_committed and self._sync_acked(pred)
                    ):
                        return False
                    if "lwsync" in kinds and not pred.barrier_committed:
                        return False
                    if "isync" in kinds and not pred.finished:
                        return False
        return True

    def _do_finish(self, thread, instance) -> None:
        instance.finished = True
        self._prune_untaken(thread, instance)

    def _can_commit_store(self, thread, instance) -> bool:
        # Fused predecessor walk; see ``_can_finish`` for the rationale.
        if instance.mos[0] != MOS_DONE or not instance.mem_writes:
            return False
        if instance.writes_committed:
            return False
        if not self._register_sources_finished(thread, instance):
            return False
        model = self.model
        footprints = instance.performed_write_footprints()
        instances = thread.instances
        for pred in thread.po_previous(instance):
            if pred.is_branch and not pred.finished:
                return False
            if pred.is_memory_access:
                if not pred.memory_footprint_determined(model):
                    return False
                for source in pred.addr_sources:
                    source_instance = instances.get(source)
                    if source_instance is None or not source_instance.finished:
                        return False
            if not pred.finished:
                for addr, size in footprints:
                    if pred.may_access_memory(model, addr, size):
                        return False
            kinds = pred.static_barrier_kinds()
            if kinds:
                if "sync" in kinds and not (
                    pred.barrier_committed and self._sync_acked(pred)
                ):
                    return False
                if (
                    "lwsync" in kinds or "eieio" in kinds
                ) and not pred.barrier_committed:
                    return False
                if "isync" in kinds and not pred.finished:
                    return False
        return True

    def _can_commit_barrier(self, thread, instance) -> bool:
        if instance.barrier_kind not in ("sync", "lwsync", "eieio"):
            return False
        if instance.barrier_committed or instance.mos[0] != MOS_DONE:
            return False
        for pred in thread.po_previous(instance):
            if pred.is_branch and not pred.finished:
                return False
            if pred.is_store:
                # Stores ahead of the barrier must be fully performed and
                # committed so they land in the barrier's Group A.
                if not pred.is_done_executing:
                    return False
                if pred.mem_writes and not pred.writes_committed:
                    return False
            if instance.barrier_kind in ("sync", "lwsync"):
                if pred.is_load and not pred.finished:
                    return False
            kinds = pred.static_barrier_kinds()
            if "isync" in kinds:
                if not pred.finished:
                    return False
            elif kinds and not pred.barrier_committed:
                return False
        return True

    # ------------------------------------------------------------------
    # Read satisfaction
    # ------------------------------------------------------------------

    def _read_blocked_by_barrier(self, thread, instance) -> bool:
        for pred in thread.po_previous(instance):
            kinds = pred.static_barrier_kinds()
            if "sync" in kinds and not (
                pred.barrier_committed and self._sync_acked(pred)
            ):
                return True
            if "lwsync" in kinds and not pred.barrier_committed:
                return True
            if "isync" in kinds and not pred.finished:
                return True
        return False

    def _read_satisfaction_options(self, thread, instance) -> List[Transition]:
        _, kind, addr, size, _ = instance.mos
        if self._read_blocked_by_barrier(thread, instance):
            return []
        needed: Set[int] = set(range(addr, addr + size))
        for pred in thread.po_previous(instance):
            if not needed:
                break
            for write in pred.mem_writes:
                overlap = needed & set(
                    range(write.addr, write.addr + write.size)
                )
                if not overlap:
                    continue
                if pred.writes_committed:
                    needed -= overlap  # storage supplies these bytes
                elif write.covers(addr, size) and needed == set(
                    range(addr, addr + size)
                ):
                    return [
                        Transition(
                            kind="satisfy_read_forward",
                            tid=thread.tid,
                            ioid=instance.ioid,
                            detail=(pred.ioid, write.wid),
                            label=(
                                f"{instance.ioid} satisfy read "
                                f"{self._loc(addr)} by forwarding from "
                                f"{pred.ioid}"
                            ),
                        )
                    ]
                else:
                    return []  # partially covering uncommitted store: wait
            if needed and not pred.finished:
                if pred.may_write_memory_overlapping(
                    self.model, addr, size
                ) and not pred.writes_committed:
                    return []  # might still store here: wait
        return [
            Transition(
                kind="satisfy_read_storage",
                tid=thread.tid,
                ioid=instance.ioid,
                label=(
                    f"{instance.ioid} satisfy read {self._loc(addr)} "
                    f"from storage"
                ),
            )
        ]

    def _loc(self, addr: int) -> str:
        symbol = self.symbols.get(addr)
        return symbol if symbol else f"0x{addr:x}"

    # ------------------------------------------------------------------
    # Restarts
    # ------------------------------------------------------------------

    def _restart(self, thread, instance) -> None:
        """Reset an instance to its initial state and cascade to dependents."""
        worklist = [instance.ioid]
        restarted: Set[Ioid] = set()
        while worklist:
            ioid = worklist.pop()
            if ioid in restarted:
                continue
            target = thread.instances.get(ioid)
            if target is None:
                continue
            restarted.add(ioid)
            if target.finished or target.writes_committed:
                raise ModelError(f"restarting committed instance {ioid}")
            had_writes = bool(target.mem_writes) or target.static_fp.is_store
            target.mos = (MOS_PLAIN, self.model.initial_state(target.instruction))
            target.reg_reads = ()
            target.reg_writes = ()
            target.mem_reads = ()
            target.mem_writes = ()
            target.barrier_kind = None
            target.nia = None
            target.sc_resolved = None
            target.restarts += 1
            if thread.reservation is not None and thread.reservation[3] == ioid:
                thread.reservation = None
            # Dependents: anything that read a register from this instance,
            # anything that forwarded from its writes, and -- if it may write
            # memory -- any program-order-later satisfied read (its footprint
            # may change).
            for other in thread.instances.values():
                if other.ioid in restarted:
                    continue
                depends = any(
                    ioid in record.sources for record in other.reg_reads
                ) or any(
                    record.forwarded_from == ioid for record in other.mem_reads
                )
                if depends:
                    worklist.append(other.ioid)
            if had_writes:
                # The store's footprint may change on re-execution, so
                # po-later satisfied reads are conservatively restarted.
                # Finished ones are provably unaffected: their commit
                # required every po-previous footprint to be determined with
                # *finished* address sources, so this store's address cannot
                # move onto them.
                for descendant in thread.descendants(target):
                    if (
                        descendant.mem_reads
                        and not descendant.finished
                        and descendant.ioid not in restarted
                    ):
                        worklist.append(descendant.ioid)

    def _coherence_restart_check(self, thread, instance, record: MemReadRecord):
        """Restart po-later reads that saw coherence-older writes (CoRR)."""
        new_sources = {
            record.addr + offset + i: wid
            for wid, offset, length in record.storage_sources
            for i in range(length)
        }
        for descendant in list(thread.descendants(instance)):
            for other in descendant.mem_reads:
                if other.forwarded_from is not None:
                    continue
                conflict = False
                for wid, offset, length in other.storage_sources:
                    for i in range(length):
                        byte_addr = other.addr + offset + i
                        new_wid = new_sources.get(byte_addr)
                        if new_wid is None or new_wid == wid:
                            continue
                        if self.storage.coherence_before(wid, new_wid):
                            conflict = True
                if conflict:
                    self._restart(thread, descendant)
                    break

    # ------------------------------------------------------------------
    # Transition enumeration
    # ------------------------------------------------------------------

    def enumerate_transitions(self) -> List[Transition]:
        """All enabled transitions, in a deterministic order.

        Assembled from two memoised halves: each thread's options (cached on
        the thread object against the storage-side context it depends on)
        and the storage-side options (cached on the storage object, whose
        state they are a pure function of).  COW sharing makes both caches
        effective: a transition that only touches one thread reuses every
        other thread's options and -- if it left storage alone -- the whole
        storage half.  A transition that changed storage re-lists only the
        storage-side options its changes can affect.
        """
        transitions: List[Transition] = []
        threads = self.threads
        for tid in self._sorted_tids:
            transitions.extend(self._thread_transitions(threads[tid]))
        storage = self.storage
        cached = storage._transitions_cache
        if cached is None or storage._changes is not None:
            cached = self._storage_transitions()
            storage._transitions_cache = cached
            storage._changes = None
        transitions.extend(cached[0])
        return transitions

    def _thread_transitions(self, thread: ThreadState) -> List[Transition]:
        """One thread's enabled transitions (memoised on the thread).

        The options depend on the thread's own state plus two storage-side
        inputs: the sync-acknowledgement state (barrier conditions) and the
        writes propagated to this thread (store-conditional resolution).
        Both are captured as the cache context and validated on reuse.
        """
        storage = self.storage
        cached = thread._trans_cache
        if cached is not None and cached[0] is storage:
            # Same storage object => storage untouched since the cache was
            # written (mutation always clones first), so reuse outright.
            return cached[3]
        syncs_ctx = storage.syncs_key()
        writes_ctx = storage.writes_propagated_to(thread.tid)
        if cached is not None:
            _, syncs, writes, options = cached
            if writes is writes_ctx and (
                syncs is syncs_ctx or syncs == syncs_ctx
            ):
                return options
        options: List[Transition] = []
        for ioid in thread.sorted_ioids():
            instance = thread.instances[ioid]
            tag = instance.mos[0]
            if tag == MOS_PENDING_READ:
                options.extend(
                    self._read_satisfaction_options(thread, instance)
                )
            elif tag == MOS_PENDING_SC:
                options.extend(self._sc_options(thread, instance))
            elif (
                tag == MOS_DONE
                and instance.mem_writes
                and not instance.writes_committed
                and self._can_commit_store(thread, instance)
            ):
                options.append(
                    Transition(
                        kind="commit_store",
                        tid=thread.tid,
                        ioid=ioid,
                        label=f"{ioid} commit store to storage",
                    )
                )
            if (
                instance.is_storage_barrier
                and not instance.barrier_committed
                and self._can_commit_barrier(thread, instance)
            ):
                options.append(
                    Transition(
                        kind="commit_barrier",
                        tid=thread.tid,
                        ioid=ioid,
                        label=f"{ioid} commit {instance.barrier_kind} barrier",
                    )
                )
        thread._trans_cache = (storage, syncs_ctx, writes_ctx, options)
        return options

    def _storage_transitions(self) -> Tuple[List[Transition], int, int, int]:
        """The storage subsystem's enabled transitions (pure in storage).

        Returns the list plus where its barrier-propagation, sync-ack and
        coherence-point sections start.  The order is fixed: write
        propagations by (write, target thread), barrier propagations by
        (barrier, target thread), sync acknowledgements by barrier, then
        coherence-point commitments by write.

        The list is derived from the one cached at the last enumeration
        (``storage._transitions_cache``) and the change record the
        mutators kept since (``storage._changes``, see ``StorageChanges``).
        A candidate is re-checked only when its predicate reads a changed
        input, and otherwise keeps its cached answer (and Transition).  The
        predicates read coherence only through edges that touch the write
        they check, so "may have gained an edge" is tracked per write:

        * ``propagate_write(w, t)``: ``t``'s list grew, ``w`` may have
          gained an edge, or ``w`` is new.  (A new write overlapping ``w``
          sits only in its own thread's list, which grew.)
        * ``propagate_barrier(b, t)``: an enabled one stays enabled until
          ``b`` is delivered to ``t`` (every input it reads only grows:
          propagation lists and coherence); a disabled one is re-checked
          when ``t``'s list grew, ``b`` is new, or a write before ``b`` in
          its origin thread's list may have gained an edge.
        * ``ack_sync``: always re-checked.
        * ``reach_coherence_point(w)``: ``w`` may have gained an edge,
          reached its coherence point, was appended to a list (so also
          when new), or a write before ``w`` in one of ``w``'s lists
          reached its coherence point.  (An overlapping write ``c``
          reaching its point without a new edge to ``w`` was already
          coherence-before ``w`` through a chain of list orders, whose
          last write still blocks ``w``.)

        With no cached list, or with a store-conditional atomicity pair
        recorded (``_breaks_atomic_pair`` reads every write), every
        candidate is re-checked.  Thread ids are sorted
        (``storage.threads``), which the per-row merges rely on.
        """
        storage = self.storage
        cached = storage._transitions_cache
        full = cached is None or bool(storage.atomic_pairs)
        if full:
            old: List[Transition] = []
            old_pb = old_ack = old_cp = 0
            lists: Iterable[int] = storage.threads
            changed = storage.threads
            coherence: Set[WriteId] = set()
            recheck_pw: Set[WriteId] = set()
            new_barriers: Set[BarrierId] = set()
            recheck_cp: Set[WriteId] = set()
        else:
            old, old_pb, old_ack, old_cp = cached
            changes = storage._changes
            lists = changes.lists
            changed = [tid for tid in storage.threads if tid in lists]
            coherence = changes.coherence
            recheck_pw = coherence | changes.writes
            new_barriers = changes.barriers
            recheck_cp = coherence | changes.appended
            if changes.cps:
                recheck_cp |= changes.cps
                recheck_cp |= storage.writes_listed_after(changes.cps)
        transitions: List[Transition] = []
        append = transitions.append
        events_pos = storage._events_pos
        writes_seen = storage.writes_seen
        threads = storage.threads

        # -- write propagation: rows of (write, target thread) ------------
        if changed or recheck_pw:
            ptr = 0
            for wid in storage.sorted_wids():
                start = ptr
                while ptr < old_pb and old[ptr].detail[0] is wid:
                    ptr += 1
                origin = wid.tid
                if origin not in events_pos:
                    continue  # initial write
                if full or (recheck_pw and wid in recheck_pw):
                    tids = threads
                elif changed:
                    tids = changed
                else:
                    transitions += old[start:ptr]
                    continue
                event = ("w", wid)
                j = start
                for tid in tids:
                    # Cached entries of threads not re-checked carry over.
                    while j < ptr and old[j].tid < tid:
                        append(old[j])
                        j += 1
                    previous = None
                    if j < ptr and old[j].tid == tid:
                        previous = old[j]
                        j += 1
                    # Inlined cheap rejections (already propagated / own
                    # thread) before the full precondition check.
                    if tid == origin or event in events_pos[tid]:
                        continue
                    if storage.can_propagate_write(wid, tid):
                        if previous is None:
                            previous = Transition(
                                kind="propagate_write",
                                tid=tid,
                                detail=(wid,),
                                label=(
                                    f"propagate {writes_seen[wid]}"
                                    f" to thread {tid}"
                                ),
                            )
                        append(previous)
                while j < ptr:
                    append(old[j])
                    j += 1
        else:
            transitions += old[:old_pb]

        # -- barrier propagation: rows of (barrier, target thread) --------
        pb_start = len(transitions)
        if storage.barriers_seen:
            barriers_seen = storage.barriers_seen
            ptr = old_pb
            for bid in storage.sorted_bids():
                start = ptr
                while ptr < old_ack and old[ptr].detail[0] is bid:
                    ptr += 1
                if full or bid in new_barriers:
                    row_affected = True
                else:
                    row_affected = bool(coherence) and (
                        storage.origin_prefix_meets(bid, coherence)
                    )
                    if not (row_affected or changed):
                        transitions += old[start:ptr]
                        continue
                origin = bid.tid
                event = ("b", bid)
                j = start
                for tid in threads:
                    if j < ptr and old[j].tid == tid:
                        previous = old[j]
                        j += 1
                        # Enabled stays enabled until delivered.
                        if tid in lists and event in events_pos[tid]:
                            continue
                        append(previous)
                    elif (
                        (row_affected or tid in lists)
                        and tid != origin
                        and event not in events_pos[tid]
                        and storage.can_propagate_barrier(bid, tid)
                    ):
                        append(
                            Transition(
                                kind="propagate_barrier",
                                tid=tid,
                                detail=(bid,),
                                label=(
                                    f"propagate {barriers_seen[bid]}"
                                    f" to thread {tid}"
                                ),
                            )
                        )

        # -- sync acknowledgement: always re-checked -----------------------
        ack_start = len(transitions)
        if storage.unacknowledged_syncs:
            for bid in sorted(storage.unacknowledged_syncs):
                if storage.can_acknowledge_sync(bid):
                    append(
                        Transition(
                            kind="ack_sync",
                            detail=(bid,),
                            label=f"acknowledge sync {bid}",
                        )
                    )

        # -- coherence points ----------------------------------------------
        cp_start = len(transitions)
        if full or recheck_cp:
            coherence_points = storage.coherence_points
            ptr = old_cp
            n_old = len(old)
            for wid in storage.sorted_wids():
                previous = None
                if ptr < n_old and old[ptr].detail[0] is wid:
                    previous = old[ptr]
                    ptr += 1
                if wid in coherence_points:
                    continue
                if full or wid in recheck_cp:
                    if not storage.can_reach_coherence_point(wid):
                        continue
                    if previous is None:
                        previous = Transition(
                            kind="reach_coherence_point",
                            detail=(wid,),
                            label=(
                                f"{writes_seen[wid]} reaches its"
                                " coherence point"
                            ),
                        )
                if previous is not None:
                    append(previous)
        else:
            transitions += old[old_cp:]
        return transitions, pb_start, ack_start, cp_start

    def _sc_options(self, thread, instance) -> List[Transition]:
        """Store-conditional resolution: success and/or failure."""
        _, addr, size, value, _ = instance.mos
        if not self._can_commit_store_conditional(thread, instance):
            return []
        options = [
            Transition(
                kind="resolve_sc",
                tid=thread.tid,
                ioid=instance.ioid,
                detail=(False,),
                label=f"{instance.ioid} store-conditional fails",
            )
        ]
        reservation = thread.reservation
        if reservation is not None:
            res_addr, res_size, res_wid, _res_ioid = reservation
            if res_addr == addr and res_size == size:
                latest = None
                for write in self.storage.writes_propagated_to(thread.tid):
                    if write.overlaps(addr, size):
                        latest = write
                if latest is not None and latest.wid == res_wid:
                    options.append(
                        Transition(
                            kind="resolve_sc",
                            tid=thread.tid,
                            ioid=instance.ioid,
                            detail=(True,),
                            label=f"{instance.ioid} store-conditional succeeds",
                        )
                    )
        return options

    def _can_commit_store_conditional(self, thread, instance) -> bool:
        # Fused predecessor walk; see ``_can_finish`` for the rationale.
        if not self._register_sources_finished(thread, instance):
            return False
        model = self.model
        _, addr, size, _, _ = instance.mos
        instances = thread.instances
        for pred in thread.po_previous(instance):
            if pred.is_branch and not pred.finished:
                return False
            if pred.is_memory_access:
                if not pred.memory_footprint_determined(model):
                    return False
                for source in pred.addr_sources:
                    source_instance = instances.get(source)
                    if source_instance is None or not source_instance.finished:
                        return False
            if not pred.finished and pred.may_access_memory(
                model, addr, size
            ):
                return False
            kinds = pred.static_barrier_kinds()
            if kinds:
                if "sync" in kinds and not (
                    pred.barrier_committed and self._sync_acked(pred)
                ):
                    return False
                if (
                    "lwsync" in kinds or "eieio" in kinds
                ) and not pred.barrier_committed:
                    return False
                if "isync" in kinds and not pred.finished:
                    return False
        return True

    # ------------------------------------------------------------------
    # Transition application
    # ------------------------------------------------------------------

    def apply(self, transition: Transition) -> "SystemState":
        """Apply a transition, returning the successor state."""
        state = self.clone()
        state._apply_in_place(transition)
        dirty = state._dirty_threads(transition)
        # With no dirtied thread and no pending sync acknowledgements the
        # closure is a provable no-op; skip its scaffolding.
        if dirty or state.storage.unacknowledged_syncs:
            state.eager_closure(dirty)
        return state

    def _dirty_threads(self, transition: Transition) -> Dict[int, int]:
        """tid -> closure start index for threads the transition disturbed.

        Propagation and coherence-point transitions change only storage-side
        state that no eager (thread-local) step reads; the sync
        acknowledgements they may enable are re-checked by the closure
        itself, which then dirties the acknowledged sync's thread.

        A thread transition mutates only its own instance (plus storage and
        the thread's reservation, neither of which eager steps read), and an
        instance's eager enablement depends on itself and its po-ancestor
        chain only.  Creation indexes are po-compatible -- every child is
        created after its parent -- so a lower-index instance is never
        po-after the mutated one and its enablement is undisturbed: the
        closure can start scanning at the transition's own instance.
        """
        kind = transition.kind
        if kind in (
            "satisfy_read_storage",
            "satisfy_read_forward",
            "commit_store",
            "resolve_sc",
            "commit_barrier",
        ):
            return {transition.tid: transition.ioid[1]}
        if kind == "ack_sync":
            bid = transition.detail[0]
            return {bid.tid: bid.ioid[1]}
        return {}

    def _apply_in_place(self, transition: Transition) -> None:
        kind = transition.kind
        if kind == "satisfy_read_storage":
            self._do_satisfy_from_storage(transition)
        elif kind == "satisfy_read_forward":
            self._do_satisfy_by_forwarding(transition)
        elif kind == "commit_store":
            self._do_commit_store(transition)
        elif kind == "resolve_sc":
            self._do_resolve_sc(transition)
        elif kind == "commit_barrier":
            self._do_commit_barrier(transition)
        elif kind == "propagate_write":
            self._do_propagate_write(transition)
        elif kind == "propagate_barrier":
            # checked=True: the transition was enumerated from a state with
            # identical storage, so its precondition has already been tested.
            self._own_storage().propagate_barrier(
                transition.detail[0], transition.tid, checked=True
            )
        elif kind == "ack_sync":
            self._own_storage().acknowledge_sync(
                transition.detail[0], checked=True
            )
        elif kind == "reach_coherence_point":
            self._own_storage().reach_coherence_point(
                transition.detail[0], checked=True
            )
        else:
            raise ModelError(f"unknown transition {kind}")

    def _do_satisfy_from_storage(self, transition: Transition) -> None:
        thread = self._own_thread(transition.tid)
        instance = thread.instances[transition.ioid]
        _, kind, addr, size, pending = instance.mos
        value, provenance = self.storage.read_response(thread.tid, addr, size)
        record = MemReadRecord(addr, size, value, kind, provenance, None)
        instance.mem_reads = instance.mem_reads + (record,)
        instance.mos = (MOS_PLAIN, self.model.resume(pending, value))
        if kind == "reserve":
            # Reserve on the coherence-latest covering write.
            last_wid = provenance[-1][0] if provenance else None
            thread.reservation = (addr, size, last_wid, instance.ioid)
        self._coherence_restart_check(thread, instance, record)

    def _do_satisfy_by_forwarding(self, transition: Transition) -> None:
        thread = self._own_thread(transition.tid)
        instance = thread.instances[transition.ioid]
        source_ioid, wid = transition.detail
        source = thread.instances[source_ioid]
        write = next(w for w in source.mem_writes if w.wid == wid)
        _, kind, addr, size, pending = instance.mos
        value = write.extract(addr, size)
        record = MemReadRecord(addr, size, value, kind, (), source_ioid)
        instance.mem_reads = instance.mem_reads + (record,)
        instance.mos = (MOS_PLAIN, self.model.resume(pending, value))
        if kind == "reserve":
            thread.reservation = (addr, size, wid, instance.ioid)

    def _do_commit_store(self, transition: Transition) -> None:
        thread = self._own_thread(transition.tid)
        instance = thread.instances[transition.ioid]
        storage = self._own_storage()
        for write in instance.mem_writes:
            storage.accept_write(write)
            self._invalidate_reservation(thread, write)
        instance.writes_committed = True
        if self._can_finish(thread, instance):
            self._do_finish(thread, instance)

    def _do_resolve_sc(self, transition: Transition) -> None:
        thread = self._own_thread(transition.tid)
        instance = thread.instances[transition.ioid]
        success = transition.detail[0]
        _, addr, size, value, pending = instance.mos
        reservation = thread.reservation
        thread.reservation = None
        instance.sc_resolved = success
        if success:
            write = Write(
                WriteId(instance.tid, instance.ioid, 0),
                addr,
                size,
                value,
                is_conditional=True,
            )
            instance.mem_writes = (write,)
            storage = self._own_storage()
            storage.accept_write(write)
            self._invalidate_reservation(thread, write)
            instance.writes_committed = True
            if reservation is not None and reservation[2] is not None:
                storage.record_atomic_pair(reservation[2], write.wid)
        instance.mos = (MOS_PLAIN, self.model.resume(pending, TRUE if success else FALSE))

    def _invalidate_reservation(self, thread: ThreadState, write: Write) -> None:
        """A store clears its own thread's reservation on acceptance (other
        threads' reservations clear when the write *propagates* to them,
        in ``_do_propagate_write``), unless the write is the reservation's
        own conditional store (handled by the caller)."""
        if thread.reservation is None:
            return
        res_addr, res_size, _, _ = thread.reservation
        if write.overlaps(res_addr, res_size):
            thread.reservation = None

    def _do_commit_barrier(self, transition: Transition) -> None:
        thread = self._own_thread(transition.tid)
        instance = thread.instances[transition.ioid]
        event = BarrierEvent(
            BarrierId(instance.tid, instance.ioid), instance.barrier_kind
        )
        self._own_storage().accept_barrier(event)
        instance.barrier_committed = True
        if self._can_finish(thread, instance):
            self._do_finish(thread, instance)

    def _do_propagate_write(self, transition: Transition) -> None:
        wid = transition.detail[0]
        self._own_storage().propagate_write(wid, transition.tid, checked=True)
        write = self.storage.writes_seen[wid]
        # A write becoming visible to a reserving thread clears its
        # reservation (another processor stored to the granule).  Check on
        # the shared thread first so COW only copies it when it changes.
        target_thread = self.threads[transition.tid]
        if target_thread.reservation is not None:
            res_addr, res_size, _, _ = target_thread.reservation
            if write.overlaps(res_addr, res_size):
                self._own_thread(transition.tid).reservation = None

    # ------------------------------------------------------------------
    # Finality
    # ------------------------------------------------------------------

    def threads_finished(self) -> bool:
        """All instructions of all threads fetched and finished."""
        for thread in self.threads.values():
            finished = thread._finished_cache
            if finished is None:
                finished = self._thread_finished(thread)
                thread._finished_cache = finished
            if not finished:
                return False
        return True

    def _thread_finished(self, thread: ThreadState) -> bool:
        """All of one thread's instructions fetched and finished.

        A pure function of the thread's state (program memory is fixed),
        memoised on the thread object in ``threads_finished``.
        """
        if thread.root is None:
            entry = thread.initial_fetch_address
            return entry is None or entry not in self.program_memory
        for instance in thread.instances.values():
            if not instance.finished:
                return False
            for address in self._fetch_candidates(thread, instance):
                if address not in instance.children:
                    return False
        return True

    def is_final(self) -> bool:
        """Threads complete *and* every write past its coherence point.

        Reached-but-CP-stuck states (a barrier-induced coherence-point cycle)
        are dead paths: those coherence choices cannot all be realised by any
        hardware execution, so they yield no outcome.
        """
        return (
            self.threads_finished()
            and self.storage.all_writes_past_coherence_point()
        )

    def final_registers(self) -> Dict[int, Dict[str, Bits]]:
        result: Dict[int, Dict[str, Bits]] = {}
        for tid, thread in self.threads.items():
            regs: Dict[str, Bits] = {}
            names = set(thread.initial_registers)
            for instance in thread.instances.values():
                for record in instance.reg_writes:
                    names.add(record.slice.reg)
            for name in names:
                regs[name] = thread.final_register_value(self.model, name)
            result[tid] = regs
        return result

    def final_memory(self, cells: Iterable[Tuple[int, int]]):
        return self.storage.final_memory_values(cells)

    # ------------------------------------------------------------------
    # Rendering (Fig. 3-style)
    # ------------------------------------------------------------------

    def render(self) -> str:
        lines = [self.storage.render(self.symbols.get)]
        for tid in sorted(self.threads):
            thread = self.threads[tid]
            lines.append(f"Thread {tid} state:")
            for ioid in sorted(thread.instances):
                instance = thread.instances[ioid]
                fp = instance.static_fp
                regs_in = ", ".join(sorted(str(s) for s in fp.regs_in))
                regs_out = ", ".join(sorted(str(s) for s in fp.regs_out))
                status = "finished" if instance.finished else instance.mos[0]
                lines.append(
                    f"  instruction {ioid[1]} ioid: {ioid} "
                    f"address: 0x{instance.address:016x} "
                    f"{instance.instruction}"
                )
                lines.append(
                    f"    regs_in: {{{regs_in}}} regs_out: {{{regs_out}}} "
                    f"status: {status}"
                )
                if instance.mem_writes:
                    writes = ", ".join(str(w) for w in instance.mem_writes)
                    committed = (
                        "committed" if instance.writes_committed else "pending"
                    )
                    lines.append(f"    memory writes ({committed}): {writes}")
                if instance.mem_reads:
                    reads = ", ".join(
                        f"R 0x{r.addr:x}/{r.size}={r.value!r}"
                        for r in instance.mem_reads
                    )
                    lines.append(f"    memory reads satisfied: {reads}")
        return "\n".join(lines)
