"""Exact scalar arithmetic: rationals and complex rationals.

Rational values are stdlib ``fractions.Fraction`` instances: arbitrary
precision, always canonical (positive denominator, gcd-reduced), hashable.
``ComplexFraction`` is the exact complex counterpart used for polynomial
coefficients, moments, and certificates.  Conversion to floating point is
explicit and guarded: a non-finite result raises instead of escaping.

Serialization convention: a rational renders as ``"num/den"`` with the
denominator always present (``"1/6"``, ``"-3/1"``); a complex rational as
``{"re": "1/6", "im": "0/1"}``.
"""

from __future__ import annotations

import decimal
import math
import re
from fractions import Fraction
from typing import Union

from .errors import SchemaError

Rational = Fraction

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "ComplexFraction"]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int or Fraction to Fraction; reject floats (inexact)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational value, got {type(value).__name__}")


def rational_from_float(x: float) -> Fraction:
    """Exact binary decomposition of a float (no rounding)."""
    if not math.isfinite(x):
        raise ValueError(f"cannot represent non-finite float {x!r} as a rational")
    return Fraction(x)


class ComplexFraction:
    """Immutable exact complex number with Fraction real and imaginary parts."""

    __slots__ = ("re", "im")

    re: Fraction
    im: Fraction

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", as_rational(re))
        object.__setattr__(self, "im", as_rational(im))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexFraction is immutable")

    @classmethod
    def from_complex(cls, z: complex) -> "ComplexFraction":
        """Exact conversion of a float complex (binary decomposition of parts)."""
        return cls(rational_from_float(z.real), rational_from_float(z.imag))

    @staticmethod
    def _coerce(value) -> "ComplexFraction | None":
        if isinstance(value, ComplexFraction):
            return value
        if isinstance(value, (int, Fraction)):
            return ComplexFraction(value)
        return None

    def __add__(self, other) -> "ComplexFraction":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexFraction(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other) -> "ComplexFraction":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexFraction(self.re - o.re, self.im - o.im)

    def __rsub__(self, other) -> "ComplexFraction":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexFraction(o.re - self.re, o.im - self.im)

    def __mul__(self, other) -> "ComplexFraction":
        if isinstance(other, (int, Fraction)):
            # a real factor scales both parts: exactly the promoted product
            return ComplexFraction(self.re * other, self.im * other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexFraction(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ComplexFraction":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero ComplexFraction")
        return ComplexFraction(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other) -> "ComplexFraction":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self) -> "ComplexFraction":
        return ComplexFraction(-self.re, -self.im)

    def __pos__(self) -> "ComplexFraction":
        return self

    def conjugate(self) -> "ComplexFraction":
        return ComplexFraction(self.re, -self.im)

    def abs_sq(self) -> Fraction:
        """|z|^2, exact."""
        return self.re * self.re + self.im * self.im

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __complex__(self) -> complex:
        return complex(to_float(self.re), to_float(self.im))

    def __repr__(self) -> str:
        return f"ComplexFraction({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return f"({format_rational(self.re)}, {format_rational(self.im)})"


ZERO = ComplexFraction(0)


def to_float(q: RationalLike) -> float:
    """Nearest-float rounding of a rational; past the float range its int division raises OverflowError."""
    return float(as_rational(q))


def to_complex(z: ScalarLike) -> complex:
    """Nearest-float complex rendering with finiteness check on both parts."""
    if isinstance(z, ComplexFraction):
        return complex(z)
    return complex(to_float(z), 0.0)


def format_rational(q: RationalLike) -> str:
    """Render as "num/den" with the denominator always explicit, at any length."""
    q = as_rational(q)
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:  # past the interpreter's int-to-str digit limit; decimal has none
        return f"{decimal.Decimal(q.numerator)}/{decimal.Decimal(q.denominator)}"


_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" (or a bare integer string) into a Fraction."""
    return Fraction(*_split_rational(text))


def _split_rational(text: str) -> tuple[int, int]:
    """(numerator, denominator) of "num/den" (or a bare integer string) as written, unreduced.

    The grammar is an optionally signed decimal integer, an optional
    "/denominator" of decimal digits, and surrounding whitespace; anything
    else (decimals, exponent notation, a zero denominator) raises SchemaError
    before any arithmetic.
    """
    if not isinstance(text, str):
        raise SchemaError(f"rational literal must be a string like \"p/q\", got {text!r}")
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise SchemaError(f"invalid rational literal {text!r}: expected \"p/q\" or an integer")
    try:
        num, den = int(match[1]), int(match[2] or 1)
        if not den:  # the text Fraction(num, 0) raises
            raise ZeroDivisionError(f"Fraction({num}, 0)")
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"invalid rational literal {text!r}: {exc}") from exc
    return num, den


def format_float(x: float) -> str:
    """Render as a float with 17 significant digits: the byte-stable form of every float output."""
    return f"{float(x):.17g}"


def complex_to_strings(z: ComplexFraction) -> dict:
    return {"re": format_rational(z.re), "im": format_rational(z.im)}


def complex_to_float_strings(z: ScalarLike) -> dict:
    """Nearest-float rendering of z as {"re": ..., "im": ...} through format_float."""
    c = to_complex(z)
    return {"re": format_float(c.real), "im": format_float(c.imag)}


def complex_from_strings(doc: dict) -> ComplexFraction:
    if not isinstance(doc, dict) or "re" not in doc or "im" not in doc:
        raise SchemaError(f"expected {{'re': 'p/q', 'im': 'p/q'}}, got {doc!r}")
    return ComplexFraction(parse_rational(doc["re"]), parse_rational(doc["im"]))
