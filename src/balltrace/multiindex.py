"""Multi-index algebra and the exact monomial L2 masses.

A multi-index is a tuple of n nonnegative integer exponents.  The key
constant attached to an index w is the exact value of the integral of
|zeta^w|^2 over the unit sphere of C^n with normalized surface measure:

    monomial_norm_sq(w) = (n-1)! w! / (n-1 + |w|)!

where |w| is the total degree and w! the product of component factorials.
These rationals drive every exact moment computation in the package; their
denominators grow factorially, hence everything stays in Fraction.

Enumeration order is graded lexicographic throughout: ascending total
degree, and within a degree, lexicographically descending components
(so for n=2: (0,0), (1,0), (0,1), (2,0), (1,1), (0,2), ...).  All sweep
reports and series truncations use this order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import index

from .errors import DimensionMismatchError, DominationError


class MultiIndex(tuple):
    """An exponent vector: n nonnegative integers with componentwise algebra.

    Subclasses tuple, so indexing, hashing, equality and iteration are free;
    arithmetic operators are redefined to be componentwise and to check that
    both operands share the same dimension.
    """

    __slots__ = ()

    def __new__(cls, components):
        comps = tuple(map(index, components))
        if not comps:
            raise ValueError("multi-index needs at least one component")
        if any(c < 0 for c in comps):
            raise ValueError(f"multi-index components must be >= 0, got {comps}")
        return super().__new__(cls, comps)

    @classmethod
    def zero(cls, dim: int) -> "MultiIndex":
        return cls((0,) * dim)

    @classmethod
    def unit(cls, dim: int, k: int) -> "MultiIndex":
        if not 0 <= k < dim:
            raise ValueError(f"unit index {k} out of range for dimension {dim}")
        return cls(tuple(1 if j == k else 0 for j in range(dim)))

    @property
    def dim(self) -> int:
        return len(self)

    @property
    def degree(self) -> int:
        """Total degree |a| = a_1 + ... + a_n."""
        return sum(self)

    def index_factorial(self) -> int:
        """a! = a_1! * ... * a_n!, exact."""
        out = 1
        for c in self:
            out *= math.factorial(c)
        return out

    def _check_dim(self, other: "MultiIndex") -> None:
        if len(self) != len(other):
            raise DimensionMismatchError(
                f"multi-index dimensions differ: {len(self)} vs {len(other)}"
            )

    def __add__(self, other) -> "MultiIndex":
        if not isinstance(other, MultiIndex):
            return NotImplemented
        self._check_dim(other)
        return MultiIndex(a + b for a, b in zip(self, other))

    def __sub__(self, other) -> "MultiIndex":
        """Checked componentwise difference; requires self to dominate other."""
        if not isinstance(other, MultiIndex):
            return NotImplemented
        self._check_dim(other)
        if not self.dominates(other):
            raise DominationError(f"{tuple(self)} does not dominate {tuple(other)}")
        return MultiIndex(a - b for a, b in zip(self, other))

    def dominates(self, other: "MultiIndex") -> bool:
        """True iff other_j <= self_j for every component j."""
        self._check_dim(other)
        return all(b <= a for a, b in zip(self, other))

    def sort_key(self):
        """Graded-lex key: ascending degree, then descending components."""
        return (self.degree, tuple(-c for c in self))

    def __repr__(self) -> str:
        return f"MultiIndex{tuple(self)}"


def graded_indices(dim: int, max_degree: int) -> list[MultiIndex]:
    """All indices with |a| <= max_degree in graded-lex order; binomial(max_degree+dim, dim) of them.

    Iterative, so any dimension works.  Within a degree each index follows
    from the one before by moving a unit out of the rightmost nonzero part
    before the last into the part after it, which also takes the last part's
    units: the successor in lexicographically descending order.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    last = dim - 1
    out = []
    for degree in range(max_degree + 1):
        parts = [degree] + [0] * last
        out.append(tuple.__new__(MultiIndex, parts))  # nonnegative ints by construction
        k = 0 if degree and last else -1  # the rightmost nonzero part before the last
        while k >= 0:
            tail = parts[last] + 1
            parts[last] = 0
            parts[k] -= 1
            parts[k + 1] = tail
            out.append(tuple.__new__(MultiIndex, parts))
            if k + 1 < last:
                k += 1
            else:
                while k >= 0 and not parts[k]:
                    k -= 1
    return out


def _multinomial(idx: tuple[int, ...]) -> int:
    """(n-1+|idx|)! / ((n-1)! idx!) as the product of binomials prod_k C(n-1 + idx_1 + ... + idx_k, idx_k)."""
    top, out = len(idx) - 1, 1
    for c in idx:
        if c:  # C(top, 0) = 1
            top += c
            out *= math.comb(top, c)
    return out


def monomial_norm_sq(idx: tuple[int, ...]) -> Fraction:
    """Exact squared L2 norm of zeta^idx on the unit sphere: (n-1)! idx! / (n-1+|idx|)!.

    Equals 1 for the zero index (the measure is normalized) and for every
    index when n = 1 (|zeta|=1 on the circle makes all these monomials
    unimodular).  Computed as 1 / _multinomial(idx), with no factorial
    quotient to reduce.  Takes a MultiIndex or a plain tuple of nonnegative
    ints, so hot loops need not build a MultiIndex per term.
    """
    return Fraction(1, _multinomial(idx))
