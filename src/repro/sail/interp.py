"""Small-step interpreter for Sail instruction descriptions.

The interpreter realises the paper's section 2.2 interface:

    val interp : instruction_state -> outcome
    val initial_state : context -> instruction -> instruction_state

``InterpState`` is a CEK-style machine state: a control item, an environment
of local variables and instruction fields, and a continuation stack.  States
are immutable (every step builds a new state), hashable, and cheap to keep
around, which is what lets the concurrency model

  * save the continuation of a pending register/memory read while other
    instructions make progress,
  * snapshot and *restart* instructions (section 5), and
  * re-run partially executed instructions exhaustively to recompute their
    potential memory footprints (section 2.1.6).

Pseudocode is interpreted sequentially, as written -- the paper's choice 3 in
section 2.1.6 -- so address register reads that textually precede data reads
resolve first, which is what allows ``LB+datas+WW``.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from . import ast
from .outcomes import (
    Barrier,
    Done,
    Internal,
    Outcome,
    ReadMem,
    ReadReg,
    RegSlice,
    WriteMem,
    WriteReg,
)
from .values import (
    Bits,
    bool_to_bit,
    truth,
)

Value = Union[Bits, int]


class SailRuntimeError(Exception):
    """A dynamic error in pseudocode execution (a model bug, not a program one)."""


class _UnknownInt:
    """An integer whose value is not yet resolved (analysis mode only).

    Produced by ``to_num`` over ``unknown`` bits during exhaustive footprint
    analysis (e.g. the rotate amount of ``rlwnm`` before its register read
    resolves); absorbs integer arithmetic so downstream builtins can report
    lifted results instead of crashing.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "unknown-int"

    def _absorb(self, _other):
        return self

    __add__ = __radd__ = __sub__ = __rsub__ = _absorb
    __mul__ = __rmul__ = __floordiv__ = __rfloordiv__ = _absorb
    __mod__ = __rmod__ = __neg__ = _absorb

    def __hash__(self):
        return 0x5EED

    def __eq__(self, other):
        return isinstance(other, _UnknownInt)


UNKNOWN_INT = _UnknownInt()


class LiftedBranch(Exception):
    """A branch condition evaluated to undef/unknown during exhaustive analysis.

    Carries the two successor states; the analysis driver explores both.
    """

    def __init__(self, states):
        super().__init__("branch on lifted condition")
        self.states = states


class InterpState:
    """An immutable interpreter state (control, environment, continuation)."""

    __slots__ = ("control", "env", "kont", "_hash", "_key_tuple")

    def __init__(self, control, env: Dict[str, Value], kont):
        object.__setattr__(self, "control", control)
        object.__setattr__(self, "env", env)
        object.__setattr__(self, "kont", kont)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_key_tuple", None)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("InterpState is immutable")

    def _key(self):
        cached = self._key_tuple
        if cached is None:
            cached = (self.control, tuple(sorted(self.env.items())), self.kont)
            object.__setattr__(self, "_key_tuple", cached)
        return cached

    def __hash__(self):
        cached = self._hash
        if cached is None:
            cached = hash(self._key())
            object.__setattr__(self, "_hash", cached)
        return cached

    def __eq__(self, other):
        if not isinstance(other, InterpState):
            return NotImplemented
        return self._key() == other._key()

    def with_control(self, control) -> "InterpState":
        return InterpState(control, self.env, self.kont)


# Control item tags.
_STMT = 0  # (_STMT, stmt)
_EVAL = 1  # (_EVAL, expr)
_RET = 2  # (_RET, value)
_PENDING = 3  # (_PENDING,) -- waiting for the model to resume with a value


def initial_state(body: ast.Stmt, fields: Dict[str, Value]) -> InterpState:
    """The instruction state at the start of execution.

    ``fields`` binds the instruction's opcode fields (as concrete ``Bits``)
    into the environment, playing the role of the paper's
    ``initial_state : context -> instruction -> instruction_state``.
    """
    return InterpState((_STMT, body), dict(fields), None)


def resume(state: InterpState, value: Optional[Value]) -> InterpState:
    """Supply the value a pending outcome was waiting for."""
    if state.control[0] != _PENDING:
        raise SailRuntimeError("resume on a state that is not pending")
    return InterpState((_RET, value), state.env, state.kont)


def _pending(env, kont) -> InterpState:
    return InterpState((_PENDING,), env, kont)


# ----------------------------------------------------------------------
# Value helpers
# ----------------------------------------------------------------------


def as_int(value: Value) -> int:
    """Coerce to a Python integer (unsigned reading of bitvectors)."""
    if isinstance(value, int):
        return value
    if isinstance(value, Bits):
        return value.to_int()
    raise SailRuntimeError(f"cannot use {value!r} as an integer")


def as_bits(value: Value, width: Optional[int] = None) -> Bits:
    """Coerce to ``Bits``; integers need an explicit target width."""
    if isinstance(value, Bits):
        if width is not None and value.width != width:
            raise SailRuntimeError(
                f"width mismatch: got bit[{value.width}], expected bit[{width}]"
            )
        return value
    if isinstance(value, int):
        if width is None:
            raise SailRuntimeError(
                f"integer {value} used where a sized bitvector is required"
            )
        return Bits.from_int(value, width)
    raise SailRuntimeError(f"cannot use {value!r} as a bitvector")


def _condition(value: Value, fork: bool, env, kont, then_state, else_state):
    """Evaluate a branch condition; fork on lifted bits during analysis."""
    if isinstance(value, int):
        return then_state if value else else_state
    if isinstance(value, Bits):
        if value.width != 1:
            raise SailRuntimeError(f"condition has width {value.width}")
        if not value.is_known and fork:
            raise LiftedBranch([then_state, else_state])
        return then_state if truth(value) else else_state
    raise SailRuntimeError(f"bad condition value {value!r}")


# ----------------------------------------------------------------------
# Operators
# ----------------------------------------------------------------------

_ARITH_OPS = {"+", "-", "*"}
_COMPARE_OPS = {"==", "!=", "<", ">", "<=", ">=", "<u", ">u", "<=u", ">=u"}
_BITWISE_OPS = {"&", "|", "^"}

_SIGNED_COMPARE = {
    "<": Bits.lt_s,
    ">": Bits.gt_s,
    "<=": Bits.le_s,
    ">=": Bits.ge_s,
}
_UNSIGNED_COMPARE = {
    "<u": Bits.lt_u,
    ">u": Bits.gt_u,
    "<=u": Bits.le_u,
    ">=u": Bits.ge_u,
}
_INT_COMPARE = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "<u": lambda a, b: a < b,
    ">u": lambda a, b: a > b,
    "<=u": lambda a, b: a <= b,
    ">=u": lambda a, b: a >= b,
}


def _binop(op: str, left: Value, right: Value) -> Value:
    if isinstance(left, _UnknownInt) or isinstance(right, _UnknownInt):
        # Analysis-mode unresolved integers absorb arithmetic and make
        # comparisons unknown (so conditions fork).
        if op in _COMPARE_OPS:
            return Bits.unknown(1)
        return UNKNOWN_INT
    both_bits = isinstance(left, Bits) and isinstance(right, Bits)
    if op == ":":
        if not both_bits:
            raise SailRuntimeError("concatenation needs two bitvectors")
        return left.concat(right)
    if op in _ARITH_OPS:
        if both_bits:
            if op == "+":
                return left.add(right)
            if op == "-":
                return left.sub(right)
            return left.mul(right)
        # Mixed or integer arithmetic happens in the integer domain
        # (loop indices, register numbers, bit positions).
        a, b = as_int(left), as_int(right)
        return a + b if op == "+" else a - b if op == "-" else a * b
    if op in ("/", "%"):
        a, b = as_int(left), as_int(right)
        if b == 0:
            raise SailRuntimeError("integer division by zero in pseudocode")
        return a // b if op == "/" else a % b
    if op in _COMPARE_OPS:
        if isinstance(left, int) and isinstance(right, int):
            return bool_to_bit(_INT_COMPARE[op](left, right))
        if isinstance(left, int):
            left = Bits.from_int(left, right.width)
        elif isinstance(right, int):
            right = Bits.from_int(right, left.width)
        if op == "==":
            return left.eq(right)
        if op == "!=":
            return left.ne(right)
        if op in _SIGNED_COMPARE:
            return _SIGNED_COMPARE[op](left, right)
        return _UNSIGNED_COMPARE[op](left, right)
    if op in _BITWISE_OPS:
        if isinstance(left, int) or isinstance(right, int):
            raise SailRuntimeError(f"bitwise {op} needs two sized bitvectors")
        if op == "&":
            return left.land(right)
        if op == "|":
            return left.lor(right)
        return left.lxor(right)
    if op in ("<<", ">>"):
        amount = as_int(right)
        if isinstance(left, int):
            return left << amount if op == "<<" else left >> amount
        return left.shiftl(amount) if op == "<<" else left.shiftr(amount)
    raise SailRuntimeError(f"unknown operator {op}")


def _unop(op: str, value: Value) -> Value:
    if op == "~":
        if isinstance(value, Bits):
            return value.lnot()
        raise SailRuntimeError("~ needs a bitvector")
    if op == "-":
        if isinstance(value, Bits):
            return value.neg()
        return -value
    raise SailRuntimeError(f"unknown unary operator {op}")


# ----------------------------------------------------------------------
# Builtins
# ----------------------------------------------------------------------


def _builtin_exts(args):
    if len(args) == 1:
        return as_bits(args[0]).exts(64)
    return as_bits(args[1]).exts(as_int(args[0]))


def _builtin_extz(args):
    if len(args) == 1:
        return as_bits(args[0]).extz(64)
    return as_bits(args[1]).extz(as_int(args[0]))


def _builtin_mask(args):
    """POWER rotate-mask generator MASK(mstart, mstop) over 64 bits.

    When mstart <= mstop the mask has ones in mstart..mstop; otherwise it
    wraps (ones in mstart..63 and 0..mstop), as in the rldic* instructions.
    """
    mstart, mstop = as_int(args[0]), as_int(args[1])
    if not (0 <= mstart < 64 and 0 <= mstop < 64):
        raise SailRuntimeError(f"MASK bounds out of range: {mstart}, {mstop}")
    result = Bits.zeros(64)
    if mstart <= mstop:
        return result.update_slice(mstart, mstop, Bits.all_ones(mstop - mstart + 1))
    result = result.update_slice(mstart, 63, Bits.all_ones(64 - mstart))
    return result.update_slice(0, mstop, Bits.all_ones(mstop + 1))


def _builtin_multiply(args, signed: bool):
    width = as_int(args[0])
    a, b = as_bits(args[1]), as_bits(args[2])
    if not (a.is_known and b.is_known):
        if a.has_unknown or b.has_unknown:
            return Bits.unknown(width)
        return Bits.undef(width)
    x = a.to_signed() if signed else a.to_int()
    y = b.to_signed() if signed else b.to_int()
    return Bits.from_int(x * y, width)


_BUILTINS = {
    "EXTS": _builtin_exts,
    "EXTZ": _builtin_extz,
    "MASK": lambda args: (
        Bits.unknown(64)
        if any(isinstance(a, _UnknownInt) for a in args)
        else _builtin_mask(args)
    ),
    "ROTL": lambda args: (
        Bits.unknown(as_bits(args[0]).width)
        if isinstance(args[1], _UnknownInt)
        else as_bits(args[0]).rotl(as_int(args[1]))
    ),
    "to_num": lambda args: as_int(args[0]),
    "UNDEFINED": lambda args: Bits.undef(as_int(args[0])),
    "UNKNOWN": lambda args: Bits.unknown(as_int(args[0])),
    "length": lambda args: as_bits(args[0]).width,
    "REPLICATE": lambda args: as_bits(args[0]).replicate(as_int(args[1])),
    "MULTIPLY_S": lambda args: _builtin_multiply(args, True),
    "MULTIPLY_U": lambda args: _builtin_multiply(args, False),
    "DIVS": lambda args: as_bits(args[0]).divs(as_bits(args[1])),
    "DIVU": lambda args: as_bits(args[0]).divu(as_bits(args[1])),
    "MODU": lambda args: as_bits(args[0]).modu(as_bits(args[1])),
    "COUNT_LEADING_ZEROS": lambda args: as_bits(args[0]).count_leading_zeros(),
}


# ----------------------------------------------------------------------
# The step function
# ----------------------------------------------------------------------

# Frame tags.
_F_SEQ = "seq"  # (tag, block, next_index)
_F_IFS = "ifs"  # (tag, node)
_F_IFE = "ife"  # (tag, node)
_F_LOOP = "loop"  # (tag, node, stop)
_F_COLLECT = "collect"  # (tag, apply_tag, node, exprs, index, values)
_F_ASSIGNVAR = "assignvar"  # (tag, name)
_F_DECL = "decl"  # (tag, node)


class Interp:
    """The interpreter, parameterised by the register registry (context)."""

    def __init__(self, registry):
        self._registry = registry

    # -- public API ----------------------------------------------------

    def step(self, state: InterpState, fork_on_lifted: bool = False) -> Outcome:
        """Execute one step; returns an ``Outcome`` (``Internal`` for pure steps)."""
        tag = state.control[0]
        if tag == _STMT:
            return self._step_stmt(state, state.control[1])
        if tag == _EVAL:
            return self._step_eval(state, state.control[1])
        if tag == _RET:
            return self._apply(state, state.control[1], fork_on_lifted)
        raise SailRuntimeError("cannot step a pending state; resume it first")

    def run_to_outcome(
        self, state: InterpState, fork_on_lifted: bool = False, fuel: int = 100000
    ) -> Outcome:
        """Take internal steps until the next externally visible outcome."""
        for _ in range(fuel):
            outcome = self.step(state, fork_on_lifted)
            if isinstance(outcome, Internal):
                state = outcome.state
                continue
            return outcome
        raise SailRuntimeError("instruction did not reach an outcome (fuel spent)")

    # -- statements ------------------------------------------------------

    def _step_stmt(self, state: InterpState, stmt: ast.Stmt) -> Outcome:
        env, kont = state.env, state.kont
        if isinstance(stmt, ast.Block):
            if not stmt.body:
                return Internal(InterpState((_RET, None), env, kont))
            frame = (_F_SEQ, stmt, 1)
            return Internal(
                InterpState((_STMT, stmt.body[0]), env, (frame, kont))
            )
        if isinstance(stmt, ast.Decl):
            frame = (_F_DECL, stmt)
            return Internal(InterpState((_EVAL, stmt.init), env, (frame, kont)))
        if isinstance(stmt, ast.Assign):
            return self._step_assign(state, stmt)
        if isinstance(stmt, ast.If):
            frame = (_F_IFS, stmt)
            return Internal(InterpState((_EVAL, stmt.cond), env, (frame, kont)))
        if isinstance(stmt, ast.Foreach):
            return self._collect(
                env, kont, "foreach_init", stmt, (stmt.start, stmt.stop)
            )
        if isinstance(stmt, ast.BarrierStmt):
            return Barrier(stmt.kind, _pending(env, kont))
        if isinstance(stmt, ast.Nop):
            return Internal(InterpState((_RET, None), env, kont))
        raise SailRuntimeError(f"unknown statement {stmt!r}")

    def _step_assign(self, state: InterpState, stmt: ast.Assign) -> Outcome:
        env, kont = state.env, state.kont
        lhs = stmt.lhs
        if isinstance(lhs, ast.VarLHS):
            frame = (_F_ASSIGNVAR, lhs.name)
            return Internal(InterpState((_EVAL, stmt.value), env, (frame, kont)))
        if isinstance(lhs, ast.VarSliceLHS):
            return self._collect(
                env, kont, "writevarslice", stmt, (lhs.lo, lhs.hi, stmt.value)
            )
        if isinstance(lhs, ast.RegLHS):
            spec = lhs.reg
            exprs = tuple(
                e for e in (spec.index, spec.lo, spec.hi) if e is not None
            ) + (stmt.value,)
            return self._collect(env, kont, "writereg", stmt, exprs)
        if isinstance(lhs, ast.MemLHS):
            return self._collect(
                env, kont, "writemem", stmt, (lhs.addr, lhs.size, stmt.value)
            )
        raise SailRuntimeError(f"unknown l-value {lhs!r}")

    # -- expressions -----------------------------------------------------

    def _step_eval(self, state: InterpState, expr: ast.Expr) -> Outcome:
        env, kont = state.env, state.kont
        if isinstance(expr, ast.Lit):
            return Internal(InterpState((_RET, expr.value), env, kont))
        if isinstance(expr, ast.IntLit):
            return Internal(InterpState((_RET, expr.value), env, kont))
        if isinstance(expr, ast.Var):
            try:
                value = env[expr.name]
            except KeyError:
                raise SailRuntimeError(f"unbound variable {expr.name}")
            return Internal(InterpState((_RET, value), env, kont))
        if isinstance(expr, ast.RegRead):
            spec = expr.reg
            exprs = tuple(
                e for e in (spec.index, spec.lo, spec.hi) if e is not None
            )
            return self._collect(env, kont, "regread", expr, exprs)
        if isinstance(expr, ast.MemRead):
            return self._collect(env, kont, "memread", expr, (expr.addr, expr.size))
        if isinstance(expr, ast.StoreConditional):
            return self._collect(
                env, kont, "storecond", expr, (expr.addr, expr.size, expr.value)
            )
        if isinstance(expr, ast.Unop):
            return self._collect(env, kont, "unop", expr, (expr.operand,))
        if isinstance(expr, ast.Binop):
            return self._collect(env, kont, "binop", expr, (expr.left, expr.right))
        if isinstance(expr, ast.SliceExpr):
            return self._collect(
                env, kont, "slice", expr, (expr.operand, expr.lo, expr.hi)
            )
        if isinstance(expr, ast.IndexExpr):
            return self._collect(env, kont, "index", expr, (expr.operand, expr.index))
        if isinstance(expr, ast.Call):
            return self._collect(env, kont, "call", expr, expr.args)
        if isinstance(expr, ast.IfExpr):
            frame = (_F_IFE, expr)
            return Internal(InterpState((_EVAL, expr.cond), env, (frame, kont)))
        raise SailRuntimeError(f"unknown expression {expr!r}")

    def _collect(self, env, kont, apply_tag, node, exprs) -> Outcome:
        """Evaluate ``exprs`` left to right, then apply ``apply_tag``."""
        exprs = tuple(exprs)
        if not exprs:
            return self._apply_collected(
                apply_tag, node, (), env, kont
            )
        frame = (_F_COLLECT, apply_tag, node, exprs, 0, ())
        return Internal(InterpState((_EVAL, exprs[0]), env, (frame, kont)))

    # -- continuation application ---------------------------------------

    def _apply(self, state: InterpState, value, fork: bool) -> Outcome:
        env, kont = state.env, state.kont
        if kont is None:
            return Done()
        frame, parent = kont
        tag = frame[0]
        if tag == _F_SEQ:
            block, index = frame[1], frame[2]
            if index >= len(block.body):
                return Internal(InterpState((_RET, None), env, parent))
            new_frame = (_F_SEQ, block, index + 1)
            return Internal(
                InterpState((_STMT, block.body[index]), env, (new_frame, parent))
            )
        if tag == _F_IFS:
            node = frame[1]
            then_state = InterpState((_STMT, node.then), env, parent)
            if node.orelse is None:
                else_state = InterpState((_RET, None), env, parent)
            else:
                else_state = InterpState((_STMT, node.orelse), env, parent)
            return Internal(
                _condition(value, fork, env, parent, then_state, else_state)
            )
        if tag == _F_IFE:
            node = frame[1]
            then_state = InterpState((_EVAL, node.then), env, parent)
            else_state = InterpState((_EVAL, node.orelse), env, parent)
            return Internal(
                _condition(value, fork, env, parent, then_state, else_state)
            )
        if tag == _F_LOOP:
            node, stop = frame[1], frame[2]
            current = as_int(env[node.var])
            nxt = current - 1 if node.downto else current + 1
            finished = nxt < stop if node.downto else nxt > stop
            if finished:
                return Internal(InterpState((_RET, None), env, parent))
            new_env = dict(env)
            new_env[node.var] = nxt
            return Internal(
                InterpState((_STMT, node.body), new_env, (frame, parent))
            )
        if tag == _F_ASSIGNVAR:
            name = frame[1]
            new_env = dict(env)
            old = env.get(name)
            if isinstance(old, Bits) and isinstance(value, int):
                value = Bits.from_int(value, old.width)
            new_env[name] = value
            return Internal(InterpState((_RET, None), new_env, parent))
        if tag == _F_DECL:
            node = frame[1]
            new_env = dict(env)
            new_env[node.name] = self._coerce_decl(node.typ, value)
            return Internal(InterpState((_RET, None), new_env, parent))
        if tag == _F_COLLECT:
            _, apply_tag, node, exprs, index, values = frame
            values = values + (value,)
            if index + 1 < len(exprs):
                new_frame = (_F_COLLECT, apply_tag, node, exprs, index + 1, values)
                return Internal(
                    InterpState((_EVAL, exprs[index + 1]), env, (new_frame, parent))
                )
            return self._apply_collected(
                apply_tag, node, values, env, parent, fork
            )
        raise SailRuntimeError(f"unknown frame {tag!r}")

    def _coerce_decl(self, typ: ast.Type, value: Value) -> Value:
        if typ.kind == "bits":
            if isinstance(value, int):
                return Bits.from_int(value, typ.width)
            return as_bits(value, typ.width)
        if typ.kind == "int":
            if isinstance(value, _UnknownInt):
                return value
            return as_int(value)
        if typ.kind == "bool":
            if isinstance(value, Bits):
                return value
            return bool_to_bit(bool(value))
        raise SailRuntimeError(f"unknown type {typ}")

    # -- collected applications ------------------------------------------

    def _apply_collected(
        self, apply_tag, node, values, env, kont, fork: bool = False
    ) -> Outcome:
        if apply_tag == "binop":
            result = _binop(node.op, values[0], values[1])
            return Internal(InterpState((_RET, result), env, kont))
        if apply_tag == "unop":
            return Internal(
                InterpState((_RET, _unop(node.op, values[0])), env, kont)
            )
        if apply_tag == "slice":
            operand = as_bits(values[0])
            lo, hi = as_int(values[1]), as_int(values[2])
            return Internal(
                InterpState((_RET, operand.slice(lo, hi)), env, kont)
            )
        if apply_tag == "index":
            operand = as_bits(values[0])
            return Internal(
                InterpState((_RET, operand.bit(as_int(values[1]))), env, kont)
            )
        if apply_tag == "call":
            if (
                fork
                and node.func == "to_num"
                and isinstance(values[0], Bits)
                and not values[0].is_known
            ):
                return Internal(InterpState((_RET, UNKNOWN_INT), env, kont))
            try:
                func = _BUILTINS[node.func]
            except KeyError:
                raise SailRuntimeError(f"unknown builtin {node.func}")
            return Internal(InterpState((_RET, func(values)), env, kont))
        if apply_tag == "regread":
            reg_slice = self._resolve_regspec(node.reg, values)
            return ReadReg(reg_slice, _pending(env, kont))
        if apply_tag == "writereg":
            reg_slice = self._resolve_regspec(node.lhs.reg, values[:-1])
            value = as_bits(values[-1], reg_slice.width) if isinstance(
                values[-1], Bits
            ) else Bits.from_int(values[-1], reg_slice.width)
            return WriteReg(reg_slice, value, _pending(env, kont))
        if apply_tag == "memread":
            addr = as_bits(values[0], 64) if isinstance(values[0], Bits) else (
                Bits.from_int(values[0], 64)
            )
            size = as_int(values[1])
            return ReadMem(node.kind, addr, size, _pending(env, kont))
        if apply_tag == "writemem":
            addr = as_bits(values[0], 64) if isinstance(values[0], Bits) else (
                Bits.from_int(values[0], 64)
            )
            size = as_int(values[1])
            value = as_bits(values[2], 8 * size) if isinstance(
                values[2], Bits
            ) else Bits.from_int(values[2], 8 * size)
            return WriteMem("plain", addr, size, value, _pending(env, kont))
        if apply_tag == "storecond":
            addr = as_bits(values[0], 64) if isinstance(values[0], Bits) else (
                Bits.from_int(values[0], 64)
            )
            size = as_int(values[1])
            value = as_bits(values[2], 8 * size) if isinstance(
                values[2], Bits
            ) else Bits.from_int(values[2], 8 * size)
            return WriteMem("conditional", addr, size, value, _pending(env, kont))
        if apply_tag == "writevarslice":
            stmt = node
            lo, hi = as_int(values[0]), as_int(values[1])
            name = stmt.lhs.name
            old = env.get(name)
            if not isinstance(old, Bits):
                raise SailRuntimeError(f"slice assignment to non-vector {name}")
            update = values[2]
            if isinstance(update, int):
                update = Bits.from_int(update, hi - lo + 1)
            new_env = dict(env)
            new_env[name] = old.update_slice(lo, hi, update)
            return Internal(InterpState((_RET, None), new_env, kont))
        if apply_tag == "foreach_init":
            stmt = node
            start, stop = as_int(values[0]), as_int(values[1])
            empty = start < stop if stmt.downto else start > stop
            if empty:
                return Internal(InterpState((_RET, None), env, kont))
            new_env = dict(env)
            new_env[stmt.var] = start
            frame = (_F_LOOP, stmt, stop)
            return Internal(
                InterpState((_STMT, stmt.body), new_env, (frame, kont))
            )
        raise SailRuntimeError(f"unknown application {apply_tag!r}")

    def _resolve_regspec(self, spec: ast.RegSpec, values) -> RegSlice:
        """Build a concrete ``RegSlice`` from evaluated index/range values."""
        values = list(values)
        index = None
        if spec.index is not None:
            index = as_int(values.pop(0))
        lo = hi = None
        if spec.lo is not None:
            lo = as_int(values.pop(0))
            hi = as_int(values.pop(0)) if spec.hi is not None else lo
        try:
            return self._registry.slice_of(spec.name, index, lo, hi)
        except KeyError as exc:
            raise SailRuntimeError(str(exc))
