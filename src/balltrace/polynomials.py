"""Sphere polynomials, exact monomial integrals, moments, and L2 geometry.

A sphere polynomial is a finite sum  f = sum a_{mu,nu} zeta^mu conj(zeta)^nu
with exact ComplexFraction coefficients; it is the boundary-data
representation every exact routine works on.  Holomorphic polynomials (the
extension witnesses) are the sphere polynomials with every nu = 0.  The integral oracle is the
orthogonality of sphere monomials:

    integral of zeta^w conj(zeta)^v dsigma  =  0                if w != v,
                                               monomial_norm_sq(w) if w = v.

Everything else (moments, inner products, Szego projections, the membership
conditions) follows from this identity by linearity, in exact rational
arithmetic.  A term zeta^mu conj(zeta)^nu pairs nontrivially with
zeta^alpha conj(zeta)^beta only when beta - alpha = mu - nu, so every
polynomial groups its terms by difference line d = mu - nu, and moments and
inner products visit only the terms on the one line that can contribute.

Two distinct term dictionaries can represent the same function on the
sphere (the relation |zeta_1|^2+...+|zeta_n|^2 = 1); equality as boundary
functions is decided by the exact L2 metric, never by normal forms.

Monte-Carlo estimators provide the independent stochastic oracle for the
same integrals: black-box integrands enter only through those paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .errors import DimensionMismatchError, EvaluationError, SchemaError
from .exact import ComplexFraction, ZERO, complex_from_strings, complex_to_strings
from .multiindex import MultiIndex, monomial_norm_sq
from .sphere import SphereSampler, SpherePoint, mean_and_stderr, monomial_eval

TermKey = tuple[MultiIndex, MultiIndex]
Line = tuple[int, ...]


def monomial_integral(w: MultiIndex, v: MultiIndex) -> Fraction:
    """Exact integral of zeta^w conj(zeta)^v over the sphere."""
    if w.dim != v.dim:
        raise DimensionMismatchError(f"index dimensions differ: {w.dim} vs {v.dim}")
    if w != v:
        return Fraction(0)
    return monomial_norm_sq(w)


class SpherePolynomial:
    """Finite sum of monomials zeta^mu conj(zeta)^nu with exact coefficients.

    Immutable; zero coefficients are never stored.  Supports exact ring
    operations (+, -, *, scalar multiples) and conjugation.
    """

    __slots__ = ("dim", "_terms", "_lines")

    def __init__(self, dim: int, terms: Mapping[TermKey, ComplexFraction] | None = None):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        clean: dict[TermKey, ComplexFraction] = {}
        for (mu, nu), coeff in (terms or {}).items():
            if not isinstance(mu, MultiIndex) or not isinstance(nu, MultiIndex):
                mu, nu = MultiIndex(mu), MultiIndex(nu)
            if mu.dim != dim or nu.dim != dim:
                raise DimensionMismatchError(
                    f"term ({tuple(mu)}, {tuple(nu)}) does not match dimension {dim}"
                )
            if not isinstance(coeff, ComplexFraction):
                coeff = ComplexFraction(coeff)
            if coeff:
                key = (mu, nu)
                prev = clean.get(key)
                total = coeff if prev is None else prev + coeff
                if total:
                    clean[key] = total
                elif prev is not None:
                    del clean[key]
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_lines", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def terms(self) -> dict[TermKey, ComplexFraction]:
        return dict(self._terms)

    def lines(self) -> Mapping[Line, tuple[tuple[MultiIndex, MultiIndex, ComplexFraction], ...]]:
        """Terms grouped by difference line: {mu - nu: ((mu, nu, coeff), ...)}.

        A line d is a plain int tuple and may have negative components.  The
        grouping is built on first use and kept for the polynomial's life
        (the terms never change); the returned mapping is read-only.
        """
        if self._lines is None:
            groups: dict[Line, list] = {}
            for (mu, nu), coeff in self._terms.items():
                groups.setdefault(tuple(m - v for m, v in zip(mu, nu)), []).append((mu, nu, coeff))
            object.__setattr__(
                self, "_lines", MappingProxyType({d: tuple(g) for d, g in groups.items()})
            )
        return self._lines

    @classmethod
    def zero(cls, dim: int) -> "SpherePolynomial":
        return cls(dim)

    @classmethod
    def one(cls, dim: int) -> "SpherePolynomial":
        # not cls.monomial: the witness subclass keys its monomials by mu alone
        return SpherePolynomial.monomial(dim, MultiIndex.zero(dim), MultiIndex.zero(dim))

    @classmethod
    def monomial(cls, dim: int, mu, nu, coeff=1) -> "SpherePolynomial":
        mu, nu = MultiIndex(mu), MultiIndex(nu)
        return cls(dim, {(mu, nu): coeff})

    def sorted_terms(self) -> list[tuple[MultiIndex, MultiIndex, ComplexFraction]]:
        """Terms in graded-lex order of (mu, nu); the canonical report order."""
        return [
            (mu, nu, self._terms[(mu, nu)])
            for mu, nu in sorted(self._terms, key=lambda k: (k[0].sort_key(), k[1].sort_key()))
        ]

    def is_zero(self) -> bool:
        return not self._terms

    def max_degree(self) -> int:
        """Largest of |mu|, |nu| over stored terms (0 for the zero polynomial)."""
        if not self._terms:
            return 0
        return max(max(mu.degree, nu.degree) for mu, nu in self._terms)

    def _check_same(self, other: "SpherePolynomial") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dimensions differ: {self.dim} vs {other.dim}")

    def __add__(self, other) -> "SpherePolynomial":
        if not isinstance(other, SpherePolynomial):
            return NotImplemented
        self._check_same(other)
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            cur = out.get(key, ZERO) + coeff
            if cur:
                out[key] = cur
            else:
                out.pop(key, None)
        return SpherePolynomial(self.dim, out)

    def __sub__(self, other) -> "SpherePolynomial":
        if not isinstance(other, SpherePolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "SpherePolynomial":
        return SpherePolynomial(self.dim, {k: -c for k, c in self._terms.items()})

    def scale(self, factor) -> "SpherePolynomial":
        """Multiply by an exact scalar."""
        return SpherePolynomial(self.dim, {k: c * factor for k, c in self._terms.items()})

    def __mul__(self, other) -> "SpherePolynomial":
        if not isinstance(other, SpherePolynomial):
            return NotImplemented
        self._check_same(other)
        out: dict[TermKey, ComplexFraction] = {}
        for (mu1, nu1), c1 in self._terms.items():
            for (mu2, nu2), c2 in other._terms.items():
                key = (mu1 + mu2, nu1 + nu2)
                cur = out.get(key, ZERO) + c1 * c2
                if cur:
                    out[key] = cur
                else:
                    out.pop(key, None)
        return SpherePolynomial(self.dim, out)

    def conjugate(self) -> "SpherePolynomial":
        """Complex conjugate: swaps the holomorphic and antiholomorphic indices."""
        return SpherePolynomial(
            self.dim,
            {(nu, mu): c.conjugate() for (mu, nu), c in self._terms.items()},
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpherePolynomial):
            return NotImplemented
        return self.dim == other.dim and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.dim, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        parts = [
            f"{coeff!s}*z^{tuple(mu)}*zbar^{tuple(nu)}"
            for mu, nu, coeff in self.sorted_terms()
        ]
        return f"SpherePolynomial(n={self.dim}: " + (" + ".join(parts) or "0") + ")"

    def eval(self, zeta) -> complex | np.ndarray:
        """Float evaluation at a SpherePoint / 1-D point / (N, n) batch."""
        z = zeta.coords if isinstance(zeta, SpherePoint) else np.asarray(zeta, dtype=np.complex128)
        batched = z.ndim == 2
        if z.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"point dimension {z.shape[-1]} does not match polynomial dimension {self.dim}"
            )
        shape = (z.shape[0],) if batched else ()
        acc = np.zeros(shape, dtype=np.complex128)
        if not self._terms:
            return acc if batched else complex(acc)
        zp = _PowerTable(z)
        zc = _PowerTable(np.conj(z))
        for (mu, nu), coeff in self._terms.items():
            acc = acc + complex(coeff) * zp.monomial(mu) * zc.monomial(nu)
        return acc if batched else complex(acc)

    def to_json_dict(self) -> dict:
        return {
            "n": self.dim,
            "terms": [
                {"mu": list(mu), "nu": list(nu), **complex_to_strings(coeff)}
                for mu, nu, coeff in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SpherePolynomial":
        """Read a (mu, nu)-keyed document; always builds a SpherePolynomial."""
        if not isinstance(doc, dict) or "n" not in doc or "terms" not in doc:
            raise SchemaError("polynomial document must have keys 'n' and 'terms'")
        dim = doc["n"]
        if type(dim) is not int or dim < 1:  # JSON true would pass isinstance(dim, int)
            raise SchemaError(f"'n' must be a positive integer, got {dim!r}")
        if not isinstance(doc["terms"], list):
            raise SchemaError("'terms' must be a list")
        terms: dict[TermKey, ComplexFraction] = {}
        for i, entry in enumerate(doc["terms"]):
            if not isinstance(entry, dict) or not {"mu", "nu", "re", "im"} <= set(entry):
                raise SchemaError(f"term #{i} must have keys mu, nu, re, im, got {entry!r}")
            # JSON true/false and 1.0 would pass int() silently; exponents are integers only
            if not all(
                isinstance(entry[key], list) and all(type(c) is int for c in entry[key])
                for key in ("mu", "nu")
            ):
                raise SchemaError(
                    f"term #{i}: exponents must be lists of integers, "
                    f"got mu={entry['mu']!r}, nu={entry['nu']!r}"
                )
            try:
                mu = MultiIndex(entry["mu"])
                nu = MultiIndex(entry["nu"])
            except (ValueError, TypeError) as exc:
                raise SchemaError(f"term #{i}: bad exponent vector: {exc}") from exc
            if mu.dim != dim or nu.dim != dim:
                raise SchemaError(
                    f"term #{i}: exponent dimension {mu.dim}/{nu.dim} does not match n={dim}"
                )
            coeff = complex_from_strings(entry)
            key = (mu, nu)
            terms[key] = terms.get(key, ZERO) + coeff
        return SpherePolynomial(dim, terms)


class HolomorphicPolynomial(SpherePolynomial):
    """Finite power series sum b_mu z^mu; the extension-witness representation.

    A holomorphic polynomial is the sphere polynomial whose terms all have
    nu = 0: it is stored as one, so every routine that takes a
    SpherePolynomial takes it unchanged and computes the same values.  Only
    the witness view is its own: the constructor, terms, sorted_terms and
    monomial are keyed by mu alone, and repr and JSON omit nu.
    """

    __slots__ = ()

    def __init__(self, dim: int, terms: Mapping[MultiIndex, ComplexFraction] | None = None):
        zero = (0,) * dim
        super().__init__(dim, {(mu, zero): coeff for mu, coeff in (terms or {}).items()})

    @property
    def terms(self) -> dict[MultiIndex, ComplexFraction]:
        return {mu: coeff for (mu, _), coeff in self._terms.items()}

    @classmethod
    def monomial(cls, dim: int, mu, coeff=1) -> "HolomorphicPolynomial":
        return cls(dim, {MultiIndex(mu): coeff})

    def sorted_terms(self) -> list[tuple[MultiIndex, ComplexFraction]]:
        return [(mu, coeff) for mu, _, coeff in super().sorted_terms()]

    def __repr__(self) -> str:
        parts = [f"{c!s}*z^{tuple(mu)}" for mu, c in self.sorted_terms()]
        return f"HolomorphicPolynomial(n={self.dim}: " + (" + ".join(parts) or "0") + ")"

    def restrict_to_sphere(self) -> SpherePolynomial:
        """The same expression read as boundary data (all nu = 0)."""
        return SpherePolynomial(self.dim, self._terms)

    def to_json_dict(self) -> dict:
        return {
            "n": self.dim,
            "terms": [
                {"mu": list(mu), **complex_to_strings(c)} for mu, c in self.sorted_terms()
            ],
        }


class _PowerTable:
    """Per-coordinate power cache for repeated monomial evaluation."""

    def __init__(self, z: np.ndarray):
        self.z = z
        self._pows: list[list] = [[np.ones(z.shape[:-1], dtype=np.complex128)] for _ in range(z.shape[-1])]

    def power(self, k: int, t: int):
        tab = self._pows[k]
        while len(tab) <= t:
            tab.append(tab[-1] * self.z[..., k])
        return tab[t]

    def monomial(self, idx: MultiIndex):
        out = self.power(0, idx[0])
        for k in range(1, len(idx)):
            if idx[k]:
                out = out * self.power(k, idx[k])
        return out


def moment(f: SpherePolynomial, alpha: MultiIndex, beta: MultiIndex) -> ComplexFraction:
    """Exact moment: integral of zeta^alpha conj(zeta)^beta f(zeta) dsigma.

    A term (mu, nu) contributes a_{mu,nu} * monomial_norm_sq(alpha+mu) exactly
    when alpha+mu = beta+nu, that is when it lies on the line d = beta - alpha;
    everything else integrates to zero, so only that line is visited.
    """
    if len(alpha) != f.dim or len(beta) != f.dim:
        raise DimensionMismatchError(
            f"index dimension {len(alpha)}/{len(beta)} does not match polynomial dimension {f.dim}"
        )
    total = ZERO
    for mu, _, coeff in f.lines().get(tuple(b - a for a, b in zip(alpha, beta)), ()):
        total = total + coeff * monomial_norm_sq(tuple(a + m for a, m in zip(alpha, mu)))
    return total


def inner_product(f: SpherePolynomial, g: SpherePolynomial) -> ComplexFraction:
    """Exact L2(sigma) inner product <f, g> = integral of f * conj(g); conjugate-linear in g."""
    f._check_same(g)
    total = ZERO
    g_lines = g.lines()
    for d, group in f.lines().items():
        other = g_lines.get(d, ())
        for mu, _, a in group:
            for _, nu2, b in other:
                # <z^mu zbar^nu, z^mu2 zbar^nu2> = norm_sq(mu+nu2) iff mu+nu2 = nu+mu2,
                # i.e. iff both terms lie on the same line mu - nu = mu2 - nu2
                left = tuple(m + v for m, v in zip(mu, nu2))
                total = total + a * b.conjugate() * monomial_norm_sq(left)
    return total


def l2_norm_sq(f: SpherePolynomial) -> Fraction:
    """Exact squared L2 norm; zero exactly when f vanishes a.e. on the sphere."""
    value = inner_product(f, f)
    assert value.im == 0 and value.re >= 0
    return value.re


def l2_distance_sq(f: SpherePolynomial, g: SpherePolynomial) -> Fraction:
    """Exact squared L2 distance; the equality test for boundary functions."""
    return l2_norm_sq(f - g)


@dataclass(frozen=True)
class MCEstimate:
    """A Monte-Carlo value with its standard error and provenance."""

    value: complex
    stderr: float
    samples: int
    seed: int

    def within(self, target: complex, sigmas: float = 4.0) -> bool:
        """|value - target| <= sigmas * stderr (the standard acceptance check)."""
        return abs(self.value - complex(target)) <= sigmas * self.stderr


def _eval_black_box(g: Callable, batch: np.ndarray) -> np.ndarray:
    """Evaluate a black-box sphere function on an (N, n) batch.

    The callable is tried on the whole batch first (the fast, preferred
    contract); if it returns a scalar or fails, it is applied row by row.
    Non-finite outputs raise EvaluationError carrying the offending point.
    """
    try:
        vals = np.asarray(g(batch), dtype=np.complex128)
        if vals.shape != (batch.shape[0],):
            raise TypeError
    except (TypeError, ValueError, IndexError):
        vals = np.fromiter(
            (complex(g(row)) for row in batch), dtype=np.complex128, count=batch.shape[0]
        )
    if not np.all(np.isfinite(vals.real) & np.isfinite(vals.imag)):
        i = int(np.argmin(np.isfinite(vals.real) & np.isfinite(vals.imag)))
        raise EvaluationError(
            f"black-box function returned non-finite value {vals[i]}", point=batch[i]
        )
    return vals


def mc_moment(
    g: Callable,
    alpha: MultiIndex,
    beta: MultiIndex,
    sampler: SphereSampler,
    n_samples: int,
) -> MCEstimate:
    """Monte-Carlo estimate of the moment integral for a black-box integrand.

    Draws n_samples uniform points and averages zeta^alpha conj(zeta)^beta
    g(zeta).  The estimator is unbiased; the stochastic oracle against which
    every exact moment is cross-checked.
    """
    if alpha.dim != sampler.dim or beta.dim != sampler.dim:
        raise DimensionMismatchError("index dimension does not match sampler dimension")
    return _weighted_mean(lambda batch: monomial_eval(batch, alpha, beta), g, sampler, n_samples)


def _weighted_mean(
    weight: Callable, g: Callable, sampler: SphereSampler, n_samples: int
) -> MCEstimate:
    """Mean of weight(zeta) * g(zeta) over the sampler's next n_samples points.

    The one Monte-Carlo estimator body: moments weigh by a monomial, kernel
    transforms by a kernel.  Weights are computed before the integrand.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    batch = sampler.sample_batch(n_samples)
    weights = weight(batch)
    vals = _eval_black_box(g, batch)
    value, stderr = mean_and_stderr(weights * vals)
    return MCEstimate(value=value, stderr=stderr, samples=n_samples, seed=sampler.seed)
