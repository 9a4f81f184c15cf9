from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from balltrace.exact import (
    ComplexFraction,
    complex_from_strings,
    complex_to_strings,
    format_rational,
    parse_rational,
    to_complex,
    to_float,
)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
complexes = st.builds(ComplexFraction, rationals, rationals)


class TestCanonicalForm:
    def test_gcd_reduction(self):
        assert Fraction(2, 4) == Fraction(1, 2)
        assert Fraction(2, 4).denominator == 2

    def test_sign_normalization(self):
        q = Fraction(-3, -6)
        assert (q.numerator, q.denominator) == (1, 2)

    def test_zero(self):
        q = Fraction(0, 7)
        assert (q.numerator, q.denominator) == (0, 1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 0)

    @given(rationals)
    def test_denominator_always_positive(self, q):
        assert q.denominator > 0
        assert Fraction(q.numerator, q.denominator) == q  # idempotent


class TestComplexArithmetic:
    def test_product(self):
        assert ComplexFraction(Fraction(1, 2)) * ComplexFraction(Fraction(1, 3)) == ComplexFraction(Fraction(1, 6))

    def test_conjugate(self):
        z = ComplexFraction(Fraction(1, 5), Fraction(2, 5))
        assert z.conjugate() == ComplexFraction(Fraction(1, 5), Fraction(-2, 5))

    def test_self_division_is_one(self):
        z = ComplexFraction(1, 1)
        assert z / z == ComplexFraction(1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ComplexFraction(1) / ComplexFraction(0)

    def test_mixed_scalar_ops(self):
        z = ComplexFraction(1, 2)
        assert z + 1 == ComplexFraction(2, 2)
        assert 2 * z == ComplexFraction(2, 4)
        assert z - Fraction(1, 2) == ComplexFraction(Fraction(1, 2), 2)

    def test_immutable(self):
        z = ComplexFraction(1, 2)
        with pytest.raises(AttributeError):
            z.re = Fraction(3)

    def test_floats_rejected_as_coefficients(self):
        with pytest.raises(TypeError):
            ComplexFraction(0.5)

    def test_from_complex_is_exact(self):
        z = ComplexFraction.from_complex(0.5 + 0.25j)
        assert z == ComplexFraction(Fraction(1, 2), Fraction(1, 4))

    @given(complexes, complexes, complexes)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @given(complexes, complexes)
    def test_inverse_round_trips(self, a, b):
        assert a + (-a) == ComplexFraction(0)
        if b:
            assert (a / b) * b == a

    @given(complexes)
    def test_conjugation_involutive(self, a):
        assert a.conjugate().conjugate() == a
        assert a.abs_sq() == (a * a.conjugate()).re

    @given(complexes, rationals, st.integers(-5, 5))
    def test_real_factor_matches_promoted_product(self, a, q, k):
        for r in (q, k):
            promoted = a * ComplexFraction(r)
            assert a * r == promoted
            assert r * a == promoted


class TestRarelyUsedOperators:
    def test_reflected_subtraction_and_division(self):
        z = ComplexFraction(1, 2)
        assert 3 - z == ComplexFraction(2, -2)
        assert Fraction(1, 2) - z == ComplexFraction(Fraction(-1, 2), -2)
        assert 5 / z == ComplexFraction(1, -2)
        assert Fraction(5, 2) / ComplexFraction(0, 1) == ComplexFraction(0, Fraction(-5, 2))
        assert z.__rsub__(1.5) is NotImplemented and z.__rtruediv__(1.5) is NotImplemented

    def test_unary_plus_is_identity(self):
        z = ComplexFraction(Fraction(1, 3), -1)
        assert +z is z

    @given(complexes, complexes)
    def test_equal_values_hash_equal(self, a, b):
        copy = ComplexFraction(Fraction(2 * a.re.numerator, 2 * a.re.denominator), a.im)
        assert copy is not a and copy == a and hash(copy) == hash(a)
        assert len({a, b, ComplexFraction(b.re, b.im)}) == (1 if a == b else 2)

    def test_repr(self):
        assert repr(ComplexFraction(Fraction(1, 6), -2)) == "ComplexFraction(Fraction(1, 6), Fraction(-2, 1))"


class TestFloatConversion:
    @pytest.mark.parametrize(
        "q,expected",
        [(Fraction(1, 6), 0.16666666666666666), (Fraction(1, 5), 0.2), (Fraction(0), 0.0)],
    )
    def test_values(self, q, expected):
        assert to_float(q) == expected

    def test_overflow(self):
        with pytest.raises(OverflowError):
            to_float(Fraction(10) ** 400)

    def test_complex_conversion(self):
        assert to_complex(ComplexFraction(Fraction(1, 2), Fraction(-1, 4))) == 0.5 - 0.25j

    @given(rationals, rationals)
    def test_sum_matches_float_sum(self, a, b):
        # bounded inputs: exact float sums agree to ~1 ulp
        assert to_float(a + b) == pytest.approx(to_float(a) + to_float(b), abs=1e-15, rel=1e-15)


class TestSerialization:
    @pytest.mark.parametrize("text", ["1/6", "-3/1", "0/1", "22/7"])
    def test_round_trip(self, text):
        assert format_rational(parse_rational(text)) == text

    def test_plain_integer_accepted(self):
        assert parse_rational("-3") == Fraction(-3)
        assert format_rational(Fraction(-3)) == "-3/1"

    def test_complex_round_trip(self):
        z = ComplexFraction(Fraction(1, 6), Fraction(-2, 7))
        assert complex_from_strings(complex_to_strings(z)) == z

    def test_bad_literal(self):
        from balltrace.errors import SchemaError

        with pytest.raises(SchemaError):
            parse_rational("one half")

    @pytest.mark.parametrize("text", ["1e9999999", "0.5", "1/0", "1/-2", "1_000"])
    def test_only_integers_and_quotients_accepted(self, text):
        # decimals and exponent notation are refused before any arithmetic
        from balltrace.errors import SchemaError

        with pytest.raises(SchemaError):
            parse_rational(text)

    def test_surrounding_whitespace_and_sign(self):
        assert parse_rational(" +6/4\n") == Fraction(3, 2)

    @pytest.mark.parametrize("value", [1.5, 1, None])
    def test_non_string_literal_rejected(self, value):
        from balltrace.errors import SchemaError

        with pytest.raises(SchemaError):
            parse_rational(value)

    @given(st.integers(-10**30, 10**30), st.integers(1, 10**30))
    def test_values_are_the_fractions_written(self, p, q):
        assert parse_rational(f"{p}/{q}") == Fraction(p, q)
        assert parse_rational(str(p)) == Fraction(p)

    @pytest.mark.parametrize(
        "value, message",
        [
            ("one half", "invalid rational literal 'one half': expected \"p/q\" or an integer"),
            ("1/0", "invalid rational literal '1/0': Fraction(1, 0)"),
            (" -0/000", "invalid rational literal ' -0/000': Fraction(0, 0)"),
            ("+7/0", "invalid rational literal '+7/0': Fraction(7, 0)"),
            (1.5, 'rational literal must be a string like "p/q", got 1.5'),
        ],
    )
    def test_schema_error_messages(self, value, message):
        from balltrace.errors import SchemaError

        with pytest.raises(SchemaError) as info:
            parse_rational(value)
        assert str(info.value) == message

    @pytest.mark.parametrize("text", ["1" * 5000 + "/3", "3/" + "1" * 5000])
    def test_literal_past_the_digit_limit_is_a_schema_error(self, text):
        from balltrace.errors import SchemaError

        with pytest.raises(ValueError) as limit:
            int("1" * 5000)
        with pytest.raises(SchemaError) as info:
            parse_rational(text)
        assert str(info.value) == f"invalid rational literal {text!r}: {limit.value}"

    @pytest.mark.parametrize("sign", [1, -1])
    def test_past_the_int_to_str_digit_limit(self, sign):
        # 10^5000 has 5001 digits, past the interpreter's default limit of 4300
        assert format_rational(Fraction(sign * 10**5000, 3)) == (
            ("-" if sign < 0 else "") + "1" + "0" * 5000 + "/3"
        )
        assert format_rational(Fraction(7, 10**5000)) == "7/1" + "0" * 5000
