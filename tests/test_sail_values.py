"""Unit and property tests for the lifted bitvector domain."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.sail.values import (
    Bits,
    FALSE,
    SailValueError,
    TRUE,
    UndefUsedError,
    UnknownUsedError,
    bool_to_bit,
    truth,
)

words = st.integers(min_value=0, max_value=(1 << 64) - 1)
widths = st.integers(min_value=1, max_value=80)


@st.composite
def concrete_bits(draw, max_width=64):
    width = draw(st.integers(min_value=1, max_value=max_width))
    value = draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    return Bits.from_int(value, width)


@st.composite
def lifted_bits(draw, max_width=32):
    width = draw(st.integers(min_value=1, max_value=max_width))
    text = draw(
        st.text(alphabet="01ux", min_size=width, max_size=width)
    )
    return Bits.from_string(text)


class TestConstruction:
    def test_from_int_masks_to_width(self):
        assert Bits.from_int(0x1FF, 8).to_int() == 0xFF

    def test_from_int_negative_two_complement(self):
        assert Bits.from_int(-1, 8).to_int() == 0xFF

    def test_zero_width_vector(self):
        empty = Bits(0)
        assert empty.width == 0
        assert empty.concat(Bits.from_int(5, 4)).to_int() == 5

    def test_overlapping_masks_rejected(self):
        with pytest.raises(SailValueError):
            Bits(4, ones=0b0001, undefs=0b0001)

    def test_mask_outside_width_rejected(self):
        with pytest.raises(SailValueError):
            Bits(4, ones=0b10000)

    def test_from_string_roundtrip(self):
        assert Bits.from_string("01u0x").to_bitstring() == "01u0x"

    def test_from_bytes_big_endian(self):
        assert Bits.from_bytes(b"\x12\x34").to_int() == 0x1234


class TestClassification:
    def test_known(self):
        assert Bits.from_int(5, 4).is_known
        assert not Bits.undef(4).is_known
        assert not Bits.unknown(4).is_known

    def test_to_int_raises_on_undef(self):
        with pytest.raises(UndefUsedError):
            Bits.undef(4).to_int()

    def test_to_int_raises_on_unknown(self):
        with pytest.raises(UnknownUsedError):
            Bits.unknown(4).to_int()


class TestIndexing:
    def test_power_msb0_bit(self):
        value = Bits.from_int(0b1000, 4)
        assert value.bit(0) == TRUE
        assert value.bit(3) == FALSE

    def test_slice_is_msb_relative(self):
        value = Bits.from_int(0xABCD, 16)
        assert value.slice(0, 3).to_int() == 0xA
        assert value.slice(12, 15).to_int() == 0xD

    def test_slice_bounds_checked(self):
        with pytest.raises(SailValueError):
            Bits.from_int(0, 8).slice(4, 8)

    def test_update_slice(self):
        value = Bits.from_int(0x00, 8).update_slice(0, 3, Bits.from_int(0xF, 4))
        assert value.to_int() == 0xF0

    @given(concrete_bits(max_width=32), st.data())
    def test_slice_update_roundtrip(self, value, data):
        lo = data.draw(st.integers(0, value.width - 1))
        hi = data.draw(st.integers(lo, value.width - 1))
        fragment = value.slice(lo, hi)
        assert value.update_slice(lo, hi, fragment) == value

    @given(concrete_bits(max_width=24), concrete_bits(max_width=24))
    def test_concat_widths_and_value(self, a, b):
        joined = a.concat(b)
        assert joined.width == a.width + b.width
        assert joined.to_int() == (a.to_int() << b.width) | b.to_int()


class TestExtension:
    @given(concrete_bits(max_width=32))
    def test_extz_preserves_value(self, value):
        assert value.extz(value.width + 8).to_int() == value.to_int()

    @given(concrete_bits(max_width=32))
    def test_exts_preserves_signed_value(self, value):
        assert value.exts(value.width + 8).to_signed() == value.to_signed()

    def test_ext_truncates_from_msb(self):
        assert Bits.from_int(0x1F, 5).extz(4).to_int() == 0xF
        assert Bits.from_int(0x1F, 5).exts(4).to_int() == 0xF

    def test_replicate_equals_repeated_concatenation(self):
        rng = random.Random(23)
        for width in range(10):
            for _ in range(8):
                value = Bits.from_string(
                    "".join(rng.choice("01ux") for _ in range(width))
                )
                for count in range(-1, 21):
                    expected = Bits(0)
                    for _ in range(count):
                        expected = expected.concat(value)
                    assert value.replicate(count) == expected, (value, count)

    @given(lifted_bits(max_width=8), st.integers(min_value=0, max_value=70))
    def test_exts_copies_the_sign_bit(self, value, extra):
        extended = value.exts(value.width + extra)
        assert extended.slice(extra, extended.width - 1) == value
        for index in range(extra):
            assert extended.bit(index) == value.bit(0)


class TestArithmetic:
    @given(words, words)
    def test_add_mod_2_64(self, a, b):
        result = Bits.from_int(a, 64).add(Bits.from_int(b, 64))
        assert result.to_int() == (a + b) % (1 << 64)

    @given(words, words)
    def test_sub_mod_2_64(self, a, b):
        result = Bits.from_int(a, 64).sub(Bits.from_int(b, 64))
        assert result.to_int() == (a - b) % (1 << 64)

    def test_lifted_operand_poisons_result(self):
        result = Bits.undef(8).add(Bits.from_int(1, 8))
        assert result.undefs == 0xFF

    def test_unknown_dominates_undef(self):
        result = Bits.undef(8).add(Bits.unknown(8))
        assert result.unknowns == 0xFF

    def test_signed_division_truncates_toward_zero(self):
        a = Bits.from_int(-7, 32)
        b = Bits.from_int(2, 32)
        assert a.divs(b).to_signed() == -3

    def test_division_by_zero_is_undef(self):
        result = Bits.from_int(5, 32).divu(Bits.zeros(32))
        assert result.undefs == (1 << 32) - 1

    def test_signed_overflow_division_is_undef(self):
        result = Bits.from_int(1 << 31, 32).divs(Bits.from_int(-1, 32))
        assert result.has_undef

    def test_width_mismatch_rejected(self):
        with pytest.raises(SailValueError):
            Bits.from_int(0, 8).add(Bits.from_int(0, 16))


class TestBitwise:
    @given(concrete_bits(max_width=64), st.data())
    def test_demorgan(self, a, data):
        b = Bits.from_int(
            data.draw(st.integers(0, (1 << a.width) - 1)), a.width
        )
        assert a.land(b).lnot() == a.lnot().lor(b.lnot())

    def test_and_with_known_zero_is_zero_even_for_undef(self):
        # The precise lifting that makes "0 & x" exact (xor-same-register).
        result = Bits.zeros(8).land(Bits.undef(8))
        assert result == Bits.zeros(8)

    def test_or_with_known_one_is_one_even_for_undef(self):
        result = Bits.all_ones(8).lor(Bits.undef(8))
        assert result == Bits.all_ones(8)

    def test_undef_and_undef_stays_undef(self):
        result = Bits.undef(4).land(Bits.undef(4))
        assert result.undefs == 0xF

    def test_xor_known_bits_exact_under_partial_undef(self):
        a = Bits.from_string("0u10")
        b = Bits.from_string("0110")
        assert a.lxor(b).to_bitstring() == "0u00"

    @given(lifted_bits())
    def test_double_negation(self, value):
        assert value.lnot().lnot() == value


class TestComparisons:
    @given(words, words)
    def test_unsigned_compare(self, a, b):
        va, vb = Bits.from_int(a, 64), Bits.from_int(b, 64)
        assert truth(va.lt_u(vb)) == (a < b)
        assert truth(va.ge_u(vb)) == (a >= b)

    @given(st.integers(-(1 << 31), (1 << 31) - 1),
           st.integers(-(1 << 31), (1 << 31) - 1))
    def test_signed_compare(self, a, b):
        va, vb = Bits.from_int(a, 32), Bits.from_int(b, 32)
        assert truth(va.lt_s(vb)) == (a < b)
        assert truth(va.gt_s(vb)) == (a > b)

    def test_eq_definitely_unequal_despite_undef(self):
        a = Bits.from_string("1u")
        b = Bits.from_string("0u")
        assert a.eq(b) == FALSE

    def test_eq_on_compatible_lifted_is_lifted(self):
        a = Bits.from_string("1u")
        b = Bits.from_string("10")
        assert a.eq(b).has_undef

    def test_truth_rejects_lifted(self):
        with pytest.raises(UndefUsedError):
            truth(Bits.undef(1))
        with pytest.raises(UnknownUsedError):
            truth(Bits.unknown(1))


class TestShiftsRotates:
    @given(concrete_bits(max_width=64), st.integers(0, 70))
    def test_shift_left_matches_int(self, value, amount):
        mask = (1 << value.width) - 1
        assert value.shiftl(amount).to_int() == (value.to_int() << amount) & mask

    @given(concrete_bits(max_width=64), st.data())
    def test_rotl_full_cycle_is_identity(self, value, data):
        assert value.rotl(value.width) == value

    @given(concrete_bits(max_width=64), st.integers(0, 200))
    def test_rotl_preserves_popcount(self, value, amount):
        assert value.rotl(amount).popcount() == value.popcount()

    def test_count_leading_zeros(self):
        assert Bits.from_int(1, 32).count_leading_zeros().to_int() == 31
        assert Bits.zeros(32).count_leading_zeros().to_int() == 32
        assert Bits.from_int(1 << 31, 32).count_leading_zeros().to_int() == 0


class TestMatchingUpToUndef:
    def test_undef_matches_anything(self):
        assert Bits.undef(8).matches_up_to_undef(Bits.from_int(0xAB, 8))

    def test_concrete_must_agree(self):
        model = Bits.from_string("1u0u")
        assert model.matches_up_to_undef(Bits.from_string("1101"))
        assert not model.matches_up_to_undef(Bits.from_string("0101"))

    @given(concrete_bits())
    def test_reflexive(self, value):
        assert value.matches_up_to_undef(value)

    def test_bool_to_bit(self):
        assert bool_to_bit(True) == TRUE
        assert bool_to_bit(False) == FALSE
