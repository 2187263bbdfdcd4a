"""In-memory span tracer installed around the program's public functions.

The program under test carries no tracing of its own: ``Tracer.install``
replaces each function listed in ``LAYERS`` with a timing wrapper (a
class attribute or module global, so every call site that looks the
name up at call time goes through it), and ``uninstall`` puts the
originals back.  Untraced runs install nothing.

Every wrapped call is timed and charged to its name as *self time*: its
duration minus the time covered by wrapped calls nested inside it.  For
names marked as span boundaries (operation entry, litmus, service and
search-driver calls, a handful per operation) the tracer also keeps the
span itself -- name, start, end, parent span, operation id -- in
memory until the run writes it out.  The hot inner layers (system,
isa, sail, symmetry, dpor) run millions of times per run, so they are
aggregated per name at the same boundaries instead of being kept as
individual spans.
"""

from __future__ import annotations

import importlib
import threading
import time
from contextlib import contextmanager

#: (metric name, module, owner attribute or None for a module global,
#: function attribute, keep individual spans).
LAYERS = (
    ("isa.run_to_outcome", "repro.isa.model", "IsaModel", "run_to_outcome", False),
    ("isa.resume", "repro.isa.model", "IsaModel", "resume", False),
    ("isa.footprint", "repro.isa.model", "IsaModel", "footprint", False),
    ("sail.step", "repro.sail.compile", "CompiledBackend", "run_to_outcome", False),
    ("sail.step", "repro.sail.compile", "CompiledBackend", "resume", False),
    ("isa.machine_execute", "repro.isa.sequential", "SequentialMachine",
     "execute", False),
    ("golden.execute", "repro.golden.emulator", None, "execute", False),
    ("testgen.setup_machine", "repro.testgen.compare", None,
     "_setup_model_machine", False),
    ("system.apply", "repro.concurrency.system", "SystemState", "apply", False),
    ("system.eager_closure", "repro.concurrency.system", "SystemState",
     "eager_closure", False),
    ("system.enumerate_transitions", "repro.concurrency.system", "SystemState",
     "enumerate_transitions", False),
    ("system.key", "repro.concurrency.system", "SystemState", "key", False),
    ("system.is_final", "repro.concurrency.system", "SystemState", "is_final",
     False),
    ("system.final_memory", "repro.concurrency.system", "SystemState",
     "final_memory", False),
    ("search.driver", "repro.concurrency.search.sequential", None, "run_search",
     True),
    ("reduction.independent", "repro.concurrency.search.reduction", "Reducer",
     "independent", False),
    ("dpor.absdep", "repro.concurrency.search.dpor", None, "_absdep", False),
    ("dpor.blob_dep", "repro.concurrency.search.dpor", None, "_blob_dep", False),
    ("symmetry.canonical", "repro.concurrency.symmetry", "CanonicalKeys",
     "canonical", False),
    ("symmetry.encode_transition", "repro.concurrency.symmetry",
     "CanonicalKeys", "encode_transition", False),
    ("litmus.parse", "repro.litmus.parser", None, "parse_litmus", True),
    ("litmus.emit", "repro.litmus.emit", None, "emit_litmus", True),
    ("litmus.build_system", "repro.litmus.runner", None, "build_system", True),
    ("litmus.run_litmus", "repro.litmus.runner", None, "run_litmus", True),
    ("service.resolve", "repro.service.engine", "EnvelopeEngine", "resolve",
     True),
    ("service.cache_key", "repro.service.engine", None, "cache_key", True),
    ("service.cache_get", "repro.service.cache", "VerdictCache", "get", True),
    ("service.cache_put", "repro.service.cache", "VerdictCache", "put", True),
    ("service.run_request", "repro.service.engine", "EnvelopeEngine",
     "run_request", True),
)

#: Every traced function name, in report order.
LAYER_NAMES = tuple(dict.fromkeys(name for name, *_rest in LAYERS))


class _Frame:
    __slots__ = ("name", "start", "child", "span_id")

    def __init__(self, name, start, span_id):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id


class Tracer:
    """Per-name call counts and self times, plus boundary spans."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []  # one {name: [calls, self_s]} per thread
        self._saved = []
        self._next_span = 0
        self._next_op = 0
        self.spans = []  # (span id, name, start, end, parent id, op id)

    # -- per-thread state ----------------------------------------------

    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.table = {}
            local.op = None
            with self._lock:
                self._tables.append(local.table)
        return local

    def _span_id(self):
        with self._lock:
            self._next_span += 1
            return self._next_span

    def _enter(self, name, keep):
        local = self._state()
        if not local.stack and local.op is None:
            # A call outside any operation (the daemon's request threads)
            # starts an operation of its own.
            with self._lock:
                self._next_op += 1
                local.op = f"request-{self._next_op}"
            local.implicit_op = True
        frame = _Frame(name, time.perf_counter(), self._span_id() if keep else 0)
        local.stack.append(frame)
        return local, frame

    def _exit(self, local, frame):
        end = time.perf_counter()
        stack = local.stack
        stack.pop()
        duration = end - frame.start
        entry = local.table.get(frame.name)
        if entry is None:
            entry = local.table[frame.name] = [0, 0.0]
        entry[0] += 1
        entry[1] += duration - frame.child
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child += duration
        if frame.span_id:
            self.spans.append((
                frame.span_id, frame.name, frame.start, end,
                parent.span_id if parent is not None else 0, local.op,
            ))
        if not stack and getattr(local, "implicit_op", False):
            local.op = None
            local.implicit_op = False

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name, fn, keep):
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            local, frame = enter(name, keep)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(local, frame)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every function in ``LAYERS`` (idempotent)."""
        if self._saved:
            return
        for name, module_name, owner_name, attr, keep in LAYERS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = owner.__dict__[attr] if owner_name else getattr(module, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, keep))

    def uninstall(self):
        """Restore every wrapped function."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    @contextmanager
    def operation(self, op_id):
        """Time one benchmark operation (a test verdict) as a root span."""
        local = self._state()
        local.op = op_id
        local.implicit_op = False
        frame = _Frame("op", time.perf_counter(), self._span_id())
        local.stack.append(frame)
        try:
            yield
        finally:
            self._exit(local, frame)
            local.op = None

    # -- results ---------------------------------------------------------

    def totals(self):
        """``{name: [calls, self_s]}`` merged over every thread."""
        merged = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, self_s) in list(table.items()):
                entry = merged.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += self_s
        return merged

    def reset(self):
        """Forget everything recorded so far (wrappers stay installed)."""
        with self._lock:
            for table in self._tables:
                table.clear()
            self.spans = []
