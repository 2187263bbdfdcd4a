"""Lifted bitvector values for the Sail interpreter.

The paper (section 2.1.7) adopts interpretation (c) for undefined values:
each bit of a register or memory value is ``0``, ``1``, or ``undef``.  On top
of that, the exhaustive footprint analysis (section 2.2) feeds a
distinguished ``unknown`` value into the continuations of pending reads, so a
bit can take one of four values:

    ``0`` / ``1``   -- concrete
    ``undef``       -- architecturally undefined (observable as any value)
    ``unknown``     -- analysis-only: "not yet resolved by the model"

``Bits`` is immutable and hashable so that interpreter states containing
values can be snapshotted, compared, and memoised during exhaustive
exploration.

Indexing convention: POWER numbers bits from 0 at the most-significant end,
increasing towards the least-significant bit.  ``Bits`` uses that convention
for all indexed operations (``bit(i)``, ``slice(a, b)``); internally the
payload is stored as plain integers with LSB-0 positions.
"""

from __future__ import annotations

from dataclasses import dataclass


class SailValueError(Exception):
    """An operation was applied to values it cannot handle."""


class UndefUsedError(SailValueError):
    """An ``undef`` bit reached a position where the model forbids it.

    The paper allows undef bits in register and memory values but not in
    addresses or instruction fields (section 2.1.7).
    """


class UnknownUsedError(SailValueError):
    """An ``unknown`` bit escaped the exhaustive analysis into concrete code."""


@dataclass(frozen=True)
class Bits:
    """An immutable lifted bitvector.

    Attributes:
        width: number of bits (may be 0 for the empty vector).
        ones: integer whose set bits (LSB-0 positions) are concrete ``1``.
        undefs: integer marking ``undef`` bits.
        unknowns: integer marking ``unknown`` bits.

    A bit not set in any mask is concrete ``0``.  The three masks are
    disjoint and lie within ``(1 << width) - 1``.
    """

    width: int
    ones: int = 0
    undefs: int = 0
    unknowns: int = 0

    def __post_init__(self) -> None:
        limit = (1 << self.width) - 1 if self.width else 0
        if (self.ones | self.undefs | self.unknowns) & ~limit:
            raise SailValueError("bit mask outside vector width")
        if (self.ones & self.undefs) or (self.ones & self.unknowns) or (
            self.undefs & self.unknowns
        ):
            raise SailValueError("overlapping bit classification masks")

    # Hand-written hash/eq (the dataclass machinery leaves explicitly
    # defined ones alone): values are hashed millions of times by the
    # exploration memo tables, so the hash -- identical in value to the
    # generated field-tuple hash -- is computed once per object.
    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.width, self.ones, self.undefs, self.unknowns))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __eq__(self, other):
        if other.__class__ is Bits:
            return (
                self.width == other.width
                and self.ones == other.ones
                and self.undefs == other.undefs
                and self.unknowns == other.unknowns
            )
        return NotImplemented

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def from_int(value: int, width: int) -> "Bits":
        """Build a fully concrete vector from an integer (two's complement)."""
        return Bits(width, value & ((1 << width) - 1) if width else 0)

    @staticmethod
    def zeros(width: int) -> "Bits":
        return Bits(width)

    @staticmethod
    def all_ones(width: int) -> "Bits":
        return Bits(width, (1 << width) - 1 if width else 0)

    @staticmethod
    def undef(width: int) -> "Bits":
        return Bits(width, 0, (1 << width) - 1 if width else 0, 0)

    @staticmethod
    def unknown(width: int) -> "Bits":
        return Bits(width, 0, 0, (1 << width) - 1 if width else 0)

    @staticmethod
    def from_string(text: str) -> "Bits":
        """Parse a bit string such as ``0101`` or ``01uU`` (u=undef, x/U=unknown)."""
        ones = undefs = unknowns = 0
        width = len(text)
        for i, ch in enumerate(text):
            pos = width - 1 - i
            if ch == "1":
                ones |= 1 << pos
            elif ch == "0":
                pass
            elif ch in "uU" and ch == "u":
                undefs |= 1 << pos
            elif ch in "xXU":
                unknowns |= 1 << pos
            else:
                raise SailValueError(f"bad bit character {ch!r}")
        return Bits(width, ones, undefs, unknowns)

    @staticmethod
    def from_bytes(data: bytes) -> "Bits":
        """Big-endian bytes to a concrete vector (8 bits per byte)."""
        return Bits.from_int(int.from_bytes(data, "big"), 8 * len(data))

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    @property
    def is_known(self) -> bool:
        """True when every bit is a concrete 0 or 1."""
        return not (self.undefs or self.unknowns)

    @property
    def has_undef(self) -> bool:
        return bool(self.undefs)

    @property
    def has_unknown(self) -> bool:
        return bool(self.unknowns)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    def to_int(self) -> int:
        """Unsigned integer value; requires every bit concrete."""
        if not self.is_known:
            if self.unknowns:
                raise UnknownUsedError("unknown bits in integer conversion")
            raise UndefUsedError("undef bits in integer conversion")
        return self.ones

    def to_signed(self) -> int:
        value = self.to_int()
        if self.width and value >> (self.width - 1):
            value -= 1 << self.width
        return value

    def to_bytes(self) -> bytes:
        """Big-endian bytes; requires concrete bits and a multiple-of-8 width."""
        if self.width % 8:
            raise SailValueError("width not a multiple of 8")
        return self.to_int().to_bytes(self.width // 8, "big")

    def to_bitstring(self) -> str:
        chars = []
        for i in range(self.width):
            pos = self.width - 1 - i
            if self.ones >> pos & 1:
                chars.append("1")
            elif self.undefs >> pos & 1:
                chars.append("u")
            elif self.unknowns >> pos & 1:
                chars.append("x")
            else:
                chars.append("0")
        return "".join(chars)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_known and self.width % 4 == 0 and self.width:
            return f"0x{self.to_int():0{self.width // 4}x}"
        return f"0b{self.to_bitstring()}"

    # ------------------------------------------------------------------
    # Structural operations (POWER MSB-0 indexing)
    # ------------------------------------------------------------------

    def _pos(self, index: int) -> int:
        if not 0 <= index < self.width:
            raise SailValueError(
                f"bit index {index} out of range for bit[{self.width}]"
            )
        return self.width - 1 - index

    def bit(self, index: int) -> "Bits":
        """Single bit at POWER index ``index`` as a ``bit[1]``."""
        pos = self._pos(index)
        return Bits(
            1,
            self.ones >> pos & 1,
            self.undefs >> pos & 1,
            self.unknowns >> pos & 1,
        )

    def slice(self, lo_index: int, hi_index: int) -> "Bits":
        """Bits ``lo_index .. hi_index`` inclusive (POWER order, lo is MSB side)."""
        if lo_index > hi_index:
            raise SailValueError(f"bad slice [{lo_index}..{hi_index}]")
        self._pos(lo_index)
        self._pos(hi_index)
        new_width = hi_index - lo_index + 1
        shift = self.width - 1 - hi_index
        mask = (1 << new_width) - 1
        return Bits(
            new_width,
            self.ones >> shift & mask,
            self.undefs >> shift & mask,
            self.unknowns >> shift & mask,
        )

    def update_slice(self, lo_index: int, hi_index: int, value: "Bits") -> "Bits":
        """Copy with bits ``lo_index .. hi_index`` replaced by ``value``."""
        new_width = hi_index - lo_index + 1
        if value.width != new_width:
            raise SailValueError(
                f"update width {value.width} != slice width {new_width}"
            )
        self._pos(lo_index)
        self._pos(hi_index)
        shift = self.width - 1 - hi_index
        mask = ((1 << new_width) - 1) << shift
        return Bits(
            self.width,
            (self.ones & ~mask) | (value.ones << shift),
            (self.undefs & ~mask) | (value.undefs << shift),
            (self.unknowns & ~mask) | (value.unknowns << shift),
        )

    def concat(self, other: "Bits") -> "Bits":
        """``self : other`` with self at the most-significant end."""
        w = other.width
        return Bits(
            self.width + w,
            self.ones << w | other.ones,
            self.undefs << w | other.undefs,
            self.unknowns << w | other.unknowns,
        )

    def replicate(self, count: int) -> "Bits":
        """``count`` copies of ``self`` side by side (empty when
        ``count <= 0``)."""
        width = self.width
        if count <= 0 or width == 0:
            return Bits(0)
        total = width * count
        # Each mask times 0b0..01 0..01 (a 1 every ``width`` bits) lays
        # ``count`` copies next to each other without carries.
        spread = ((1 << total) - 1) // ((1 << width) - 1)
        return Bits(
            total,
            self.ones * spread,
            self.undefs * spread,
            self.unknowns * spread,
        )

    def extz(self, new_width: int) -> "Bits":
        """Zero-extend (or truncate from the MSB side) to ``new_width``."""
        if new_width < self.width:
            return self.slice(self.width - new_width, self.width - 1)
        return Bits(new_width, self.ones, self.undefs, self.unknowns)

    def exts(self, new_width: int) -> "Bits":
        """Sign-extend (or truncate from the MSB side) to ``new_width``."""
        if new_width <= self.width:
            return self.extz(new_width)
        if self.width == 0:
            return Bits(new_width)
        sign = self.bit(0)
        return sign.replicate(new_width - self.width).concat(self)

    # ------------------------------------------------------------------
    # Lifting helpers
    # ------------------------------------------------------------------

    def _lift_result(self, width: int) -> "Bits":
        """Whole-vector lifted result used by non-bitwise operations.

        ``unknown`` dominates ``undef``: if any input bit is unknown the
        result is all-unknown, otherwise all-undef.
        """
        if self.unknowns:
            return Bits.unknown(width)
        return Bits.undef(width)

    @staticmethod
    def _join_lift(a: "Bits", b: "Bits", width: int) -> "Bits":
        if a.unknowns or b.unknowns:
            return Bits.unknown(width)
        return Bits.undef(width)

    # ------------------------------------------------------------------
    # Bitwise operations (per-bit precise over the 4-valued domain)
    # ------------------------------------------------------------------

    def lnot(self) -> "Bits":
        mask = (1 << self.width) - 1 if self.width else 0
        known = mask & ~(self.undefs | self.unknowns)
        return Bits(
            self.width, (~self.ones) & known, self.undefs, self.unknowns
        )

    def land(self, other: "Bits") -> "Bits":
        self._check_same_width(other)
        # A bit is definitely 0 if either input is definitely 0.
        zeros = (~self.ones & ~self.undefs & ~self.unknowns) | (
            ~other.ones & ~other.undefs & ~other.unknowns
        )
        ones = self.ones & other.ones
        mask = (1 << self.width) - 1 if self.width else 0
        rest = mask & ~(zeros | ones)
        unknowns = rest & (self.unknowns | other.unknowns)
        undefs = rest & ~unknowns
        return Bits(self.width, ones, undefs, unknowns)

    def lor(self, other: "Bits") -> "Bits":
        return self.lnot().land(other.lnot()).lnot()

    def lxor(self, other: "Bits") -> "Bits":
        self._check_same_width(other)
        known_self = ~(self.undefs | self.unknowns)
        known_other = ~(other.undefs | other.unknowns)
        known = known_self & known_other
        mask = (1 << self.width) - 1 if self.width else 0
        ones = (self.ones ^ other.ones) & known & mask
        rest = mask & ~known
        unknowns = rest & (self.unknowns | other.unknowns)
        undefs = rest & ~unknowns
        return Bits(self.width, ones, undefs, unknowns)

    def _check_same_width(self, other: "Bits") -> None:
        if self.width != other.width:
            raise SailValueError(
                f"width mismatch: bit[{self.width}] vs bit[{other.width}]"
            )

    # ------------------------------------------------------------------
    # Arithmetic (coarse lifting: any undef/unknown poisons the result)
    # ------------------------------------------------------------------

    def _binary_arith(self, other: "Bits", op) -> "Bits":
        self._check_same_width(other)
        if self.is_known and other.is_known:
            return Bits.from_int(op(self.ones, other.ones), self.width)
        return Bits._join_lift(self, other, self.width)

    def add(self, other: "Bits") -> "Bits":
        return self._binary_arith(other, lambda a, b: a + b)

    def sub(self, other: "Bits") -> "Bits":
        return self._binary_arith(other, lambda a, b: a - b)

    def mul(self, other: "Bits") -> "Bits":
        return self._binary_arith(other, lambda a, b: a * b)

    def neg(self) -> "Bits":
        if self.is_known:
            return Bits.from_int(-self.ones, self.width)
        return self._lift_result(self.width)

    def divu(self, other: "Bits") -> "Bits":
        """Unsigned division; division by zero yields undef (POWER leaves it undefined)."""
        self._check_same_width(other)
        if self.is_known and other.is_known:
            if other.ones == 0:
                return Bits.undef(self.width)
            return Bits.from_int(self.ones // other.ones, self.width)
        return Bits._join_lift(self, other, self.width)

    def divs(self, other: "Bits") -> "Bits":
        """Signed division truncating toward zero; /0 and overflow yield undef."""
        self._check_same_width(other)
        if self.is_known and other.is_known:
            a, b = self.to_signed(), other.to_signed()
            if b == 0:
                return Bits.undef(self.width)
            if self.width and a == -(1 << (self.width - 1)) and b == -1:
                return Bits.undef(self.width)
            q = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                q = -q
            return Bits.from_int(q, self.width)
        return Bits._join_lift(self, other, self.width)

    def modu(self, other: "Bits") -> "Bits":
        self._check_same_width(other)
        if self.is_known and other.is_known:
            if other.ones == 0:
                return Bits.undef(self.width)
            return Bits.from_int(self.ones % other.ones, self.width)
        return Bits._join_lift(self, other, self.width)

    # ------------------------------------------------------------------
    # Shifts and rotates (by a concrete amount)
    # ------------------------------------------------------------------

    def shiftl(self, amount: int) -> "Bits":
        if amount < 0:
            raise SailValueError("negative shift")
        mask = (1 << self.width) - 1 if self.width else 0
        return Bits(
            self.width,
            (self.ones << amount) & mask,
            (self.undefs << amount) & mask,
            (self.unknowns << amount) & mask,
        )

    def shiftr(self, amount: int) -> "Bits":
        if amount < 0:
            raise SailValueError("negative shift")
        return Bits(
            self.width,
            self.ones >> amount,
            self.undefs >> amount,
            self.unknowns >> amount,
        )

    def rotl(self, amount: int) -> "Bits":
        if self.width == 0:
            return self
        amount %= self.width
        if amount == 0:
            return self
        left = self.slice(amount, self.width - 1)
        right = self.slice(0, amount - 1)
        return left.concat(right)

    # ------------------------------------------------------------------
    # Comparisons (results are lifted bit[1] booleans)
    # ------------------------------------------------------------------

    def eq(self, other: "Bits") -> "Bits":
        self._check_same_width(other)
        if self.is_known and other.is_known:
            return TRUE if self.ones == other.ones else FALSE
        # Definitely unequal if any mutually-known bit differs.
        known = ~(self.undefs | self.unknowns) & ~(other.undefs | other.unknowns)
        if (self.ones ^ other.ones) & known:
            return FALSE
        return Bits._join_lift(self, other, 1)

    def ne(self, other: "Bits") -> "Bits":
        return self.eq(other).lnot()

    def _compare(self, other: "Bits", signed: bool, op) -> "Bits":
        self._check_same_width(other)
        if self.is_known and other.is_known:
            a = self.to_signed() if signed else self.ones
            b = other.to_signed() if signed else other.ones
            return TRUE if op(a, b) else FALSE
        return Bits._join_lift(self, other, 1)

    def lt_s(self, other: "Bits") -> "Bits":
        return self._compare(other, True, lambda a, b: a < b)

    def gt_s(self, other: "Bits") -> "Bits":
        return self._compare(other, True, lambda a, b: a > b)

    def le_s(self, other: "Bits") -> "Bits":
        return self._compare(other, True, lambda a, b: a <= b)

    def ge_s(self, other: "Bits") -> "Bits":
        return self._compare(other, True, lambda a, b: a >= b)

    def lt_u(self, other: "Bits") -> "Bits":
        return self._compare(other, False, lambda a, b: a < b)

    def gt_u(self, other: "Bits") -> "Bits":
        return self._compare(other, False, lambda a, b: a > b)

    def le_u(self, other: "Bits") -> "Bits":
        return self._compare(other, False, lambda a, b: a <= b)

    def ge_u(self, other: "Bits") -> "Bits":
        return self._compare(other, False, lambda a, b: a >= b)

    # ------------------------------------------------------------------
    # Counting
    # ------------------------------------------------------------------

    def count_leading_zeros(self) -> "Bits":
        """Number of leading (MSB-side) zero bits, as a vector of same width."""
        if not self.is_known:
            return self._lift_result(self.width)
        count = 0
        for i in range(self.width):
            if self.bit(i).ones:
                break
            count += 1
        return Bits.from_int(count, self.width)

    def popcount(self) -> int:
        if not self.is_known:
            raise SailValueError("popcount of lifted value")
        return bin(self.ones).count("1")

    # ------------------------------------------------------------------
    # Comparison up to undef (used by the section-7 differential harness)
    # ------------------------------------------------------------------

    def matches_up_to_undef(self, concrete: "Bits") -> bool:
        """True when ``concrete`` is a possible refinement of ``self``.

        Every concrete (0/1) bit of ``self`` must agree with ``concrete``;
        ``undef``/``unknown`` bits of ``self`` match anything.
        """
        if self.width != concrete.width:
            return False
        wild = self.undefs | self.unknowns | concrete.undefs | concrete.unknowns
        return (self.ones ^ concrete.ones) & ~wild == 0


TRUE = Bits(1, 1)
FALSE = Bits(1, 0)


def bool_to_bit(flag: bool) -> Bits:
    return TRUE if flag else FALSE


def truth(value: Bits) -> bool:
    """Concrete truth of a lifted bit[1]; raises if undef/unknown."""
    if value.width != 1:
        raise SailValueError(f"condition is bit[{value.width}], expected bit[1]")
    if value.unknowns:
        raise UnknownUsedError("branch on unknown bit")
    if value.undefs:
        raise UndefUsedError("branch on undef bit")
    return bool(value.ones)
