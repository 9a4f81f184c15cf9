"""Sphere polynomials, exact monomial integrals, moments, and L2 geometry.

A sphere polynomial is a finite sum  f = sum a_{mu,nu} zeta^mu conj(zeta)^nu
with exact coefficients, stored once as Gaussian integers over one denominator
D; it is the boundary-data representation every exact routine works on.
Holomorphic polynomials (the extension witnesses) are the sphere polynomials
with every nu = 0.  The integral oracle is the orthogonality of sphere monomials:

    integral of zeta^w conj(zeta)^v dsigma  =  0                if w != v,
                                               monomial_norm_sq(w) if w = v.

Everything else (moments, inner products, Szego projections, the membership
conditions) follows from this identity by linearity, in exact rational
arithmetic.  A term zeta^mu conj(zeta)^nu pairs nontrivially with
zeta^alpha conj(zeta)^beta only when beta - alpha = mu - nu, so every
polynomial groups its terms by difference line d = mu - nu, and a moment
visits only the terms on the one line that can contribute.  One integer
line kernel is the exact pairing: the stored integers on each line over D,
summed as N_w / multinomial(w) in integers (_line_sum); moment and
inner_product (so L2 norms) build Fractions only for their values, and the
Cauchy projection C[f] (cauchy_transform_poly) and the parser build none.

The exact Laplacian sum_j d/dz_j d/dconj(z_j) splits f on the sphere into
bigraded harmonic components H(p,q) (SpherePolynomial.harmonics), the
pieces on which the Poisson series of transforms is one scalar series each.

Two distinct term dictionaries can represent the same function on the
sphere (the relation |zeta_1|^2+...+|zeta_n|^2 = 1); equality as boundary
functions is decided by the exact L2 metric, never by normal forms.

Monte-Carlo estimators provide the independent stochastic oracle for the
same integrals: black-box integrands enter only through those paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import DimensionMismatchError, EvaluationError, PreconditionError, SchemaError
from .exact import ComplexFraction, _split_rational, complex_to_strings
from .multiindex import MultiIndex, _multinomial, monomial_norm_sq
from .sphere import SphereSampler, _PowerTable, _rows, fold_mean_and_stderr, monomial_eval

TermKey = tuple[MultiIndex, MultiIndex]
Line = tuple[int, ...]
Parts = Iterable[tuple[TermKey, tuple[int, int]]]  # ((mu, nu), (D re, D im)) pairs


def monomial_integral(w: MultiIndex, v: MultiIndex) -> Fraction:
    """Exact integral of zeta^w conj(zeta)^v over the sphere."""
    if w.dim != v.dim:
        raise DimensionMismatchError(f"index dimensions differ: {w.dim} vs {v.dim}")
    if w != v:
        return Fraction(0)
    return monomial_norm_sq(w)


class SpherePolynomial:
    """Finite sum of monomials zeta^mu conj(zeta)^nu with exact coefficients.

    Immutable; stored once as Gaussian integers over one denominator (_store),
    read as ComplexFraction coefficients through terms.  Supports exact ring
    operations (+, -, *, scalar multiples) and conjugation.
    """

    __slots__ = ("dim", "_den", "_parts", "_lines", "_harmonics", "_masses")

    def __init__(self, dim: int, terms: Mapping[TermKey, ComplexFraction] | None = None):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        literals = []
        for (mu, nu), coeff in (terms or {}).items():
            if not isinstance(mu, MultiIndex) or not isinstance(nu, MultiIndex):
                mu, nu = MultiIndex(mu), MultiIndex(nu)
            if mu.dim != dim or nu.dim != dim:
                raise DimensionMismatchError(
                    f"term ({tuple(mu)}, {tuple(nu)}) does not match dimension {dim}"
                )
            c = coeff if isinstance(coeff, ComplexFraction) else ComplexFraction(coeff)
            literals.append(((mu, nu), (c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator)))
        _store_literals(dim, literals, self)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def terms(self) -> dict[TermKey, ComplexFraction]:
        return {key: self._coeff(*part) for key, part in self._parts.items()}

    def _coeff(self, re: int, im: int) -> ComplexFraction:
        return ComplexFraction(Fraction(re, self._den), Fraction(im, self._den))

    def lines(self) -> Mapping[Line, tuple[tuple[MultiIndex, MultiIndex, int, int], ...]]:
        """Terms grouped by difference line: {mu - nu: ((mu, nu, D re, D im), ...)}.

        A line d is a plain int tuple and may have negative components; the
        parts are over the stored denominator D.  Built on first use and kept
        for the polynomial's life (the terms never change); read-only.
        """
        if self._lines is None:
            groups: dict[Line, list] = {}
            for (mu, nu), (re, im) in self._parts.items():
                groups.setdefault(tuple(map(sub, mu, nu)), []).append((mu, nu, re, im))
            object.__setattr__(
                self, "_lines", MappingProxyType({d: tuple(g) for d, g in groups.items()})
            )
        return self._lines

    def harmonics(self) -> Mapping[tuple[int, int], "SpherePolynomial"]:
        """Bigraded harmonic components on the sphere: {(p, q): h}, sorted by (p, q).

        Each h is homogeneous of bidegree (p, q) with laplacian(h) = 0, so it
        lies in H(p, q), and the components sum to f on the sphere.  A
        homogeneous part F of bidegree (a, b) is sum_k |z|^(2k) h_k with h_k
        in H(a-k, b-k), and |z| = 1 on the sphere; with L = laplacian,
            h_k     = c_k harm(L^k F),   c_k = (n+m-1)! / (k! (n+m+k-1)!),
            harm(G) = sum_j a_j |z|^(2j) L^j G,
            a_0 = 1,  a_j = -a_(j-1) / (j (n+m-j-1)),
        where m = a + b - 2k is the total degree of L^k F.  Built on first use
        and kept for the polynomial's life, like lines(); the mapping is
        read-only.
        """
        if self._harmonics is None:
            n = self.dim
            shell = SpherePolynomial(
                n, {(MultiIndex.unit(n, k), MultiIndex.unit(n, k)): 1 for k in range(n)}
            )
            parts: dict[tuple[int, int], list] = {}
            for (mu, nu), part in self._parts.items():
                parts.setdefault((mu.degree, nu.degree), []).append(((mu, nu), part))
            out: dict[tuple[int, int], SpherePolynomial] = {}
            for (a, b), terms in parts.items():
                lap = [_store(n, self._den, terms)]
                for _ in range(min(a, b)):
                    lap.append(laplacian(lap[-1]))
                for k in range(min(a, b) + 1):
                    m = a + b - 2 * k
                    weights = [Fraction(1)]
                    for j in range(1, min(a, b) - k + 1):
                        weights.append(-weights[-1] / (j * (n + m - j - 1)))
                    h = SpherePolynomial.zero(n)
                    for j in reversed(range(len(weights))):  # Horner in |z|^2
                        h = shell * h + lap[k + j].scale(weights[j])
                    c_k = Fraction(
                        math.factorial(n + m - 1), math.factorial(k) * math.factorial(n + m + k - 1)
                    )
                    key = (a - k, b - k)
                    out[key] = h.scale(c_k) + out.get(key, SpherePolynomial.zero(n))
            object.__setattr__(
                self,
                "_harmonics",
                MappingProxyType({pq: out[pq] for pq in sorted(out) if not out[pq].is_zero()}),
            )
        return self._harmonics

    def _harmonic_masses(self) -> dict[tuple[int, int], float]:
        """{(p, q): sum of |coefficients| of that harmonics() component, a float}; kept like it."""
        if self._masses is None:  # |c|^2 rounds once, as float(c.abs_sq()) does
            object.__setattr__(self, "_masses", {
                pq: sum(math.sqrt((re * re + im * im) / (h._den * h._den)) for re, im in h._parts.values())
                for pq, h in self.harmonics().items()})
        return self._masses

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
            (mu, nu, self._coeff(*self._parts[(mu, nu)]))
            for mu, nu in sorted(self._parts, key=lambda k: (k[0].sort_key(), k[1].sort_key()))
        ]

    def is_zero(self) -> bool:
        return not self._parts

    def max_degree(self) -> int:
        """Largest of |mu|, |nu| over stored terms (0 for the zero polynomial)."""
        return max((max(mu.degree, nu.degree) for mu, nu in self._parts), default=0)

    def _check_same(self, other: "SpherePolynomial") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dimensions differ: {self.dim} vs {other.dim}")

    def __add__(self, other) -> "SpherePolynomial":
        return self._plus(other, 1)

    def __sub__(self, other) -> "SpherePolynomial":
        return self._plus(other, -1)

    def _plus(self, other, sign: int) -> "SpherePolynomial":
        if not isinstance(other, SpherePolynomial):
            return NotImplemented
        self._check_same(other)
        den = math.lcm(self._den, other._den)
        return _store(self.dim, den, (
            (key, (re * m, im * m)) for p, m in ((self, den // self._den), (other, sign * (den // other._den)))
            for key, (re, im) in p._parts.items()))

    def __neg__(self) -> "SpherePolynomial":
        return _store(self.dim, self._den, ((k, (-re, -im)) for k, (re, im) in self._parts.items()))

    def scale(self, factor) -> "SpherePolynomial":
        """Multiply by an exact scalar: an int, a Fraction or a ComplexFraction."""
        c = factor if isinstance(factor, ComplexFraction) else ComplexFraction(factor)
        q = math.lcm(c.re.denominator, c.im.denominator)
        x, y = c.re.numerator * (q // c.re.denominator), c.im.numerator * (q // c.im.denominator)
        return _store(self.dim, self._den * q, (
            (k, (re * x - im * y, re * y + im * x)) for k, (re, im) in self._parts.items()))

    def __mul__(self, other) -> "SpherePolynomial":
        if not isinstance(other, SpherePolynomial):
            return NotImplemented
        self._check_same(other)
        return _store(self.dim, self._den * other._den, (
            ((mu1 + mu2, nu1 + nu2), (a * c - b * d, a * d + b * c))
            for (mu1, nu1), (a, b) in self._parts.items() for (mu2, nu2), (c, d) in other._parts.items()))

    def conjugate(self) -> "SpherePolynomial":
        """Complex conjugate: swaps the holomorphic and antiholomorphic indices."""
        parts = self._parts.items()
        return _store(self.dim, self._den, (((nu, mu), (re, -im)) for (mu, nu), (re, im) in parts))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpherePolynomial):
            return NotImplemented
        return self.dim == other.dim and self._den == other._den and self._parts == other._parts

    def __hash__(self) -> int:
        return hash((self.dim, self._den, frozenset(self._parts.items())))

    def __repr__(self) -> str:
        parts = [
            f"{coeff!s}*z^{tuple(mu)}*zbar^{tuple(nu)}"
            for mu, nu, coeff in self.sorted_terms()
        ]
        return f"SpherePolynomial(n={self.dim}: " + (" + ".join(parts) or "0") + ")"

    def eval(self, zeta) -> complex | np.ndarray:
        """Float evaluation at a SpherePoint / 1-D point / (N, n) batch."""
        z, batched = _rows(zeta, self.dim)
        acc = self._eval_on(_PowerTable(z))
        return acc if batched else complex(acc[0])

    def _eval_on(self, table: _PowerTable):
        """Sum of the terms on the points of one power table, read for z and conj(z)."""
        acc, den = np.zeros(table.z.shape[:-1], dtype=np.complex128), self._den
        for (mu, nu), (re, im) in self._parts.items():
            # re / den rounds as complex(ComplexFraction) does; the ufunc call keeps the coefficient
            # first at every batch length (the operand-order comment in sphere.monomial_eval says why)
            acc = acc + np.multiply(complex(re / den, im / den), table.monomial(mu)) * table.conj_monomial(nu)
        return acc

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
        """Read a (mu, nu)-keyed document, its literals as written; always a SpherePolynomial."""
        if not isinstance(doc, dict) or "n" not in doc or "terms" not in doc:
            raise SchemaError("polynomial document must have keys 'n' and 'terms'")
        dim = doc["n"]
        if type(dim) is not int or dim < 1:  # JSON true would pass isinstance(dim, int)
            raise SchemaError(f"'n' must be a positive integer, got {dim!r}")
        if not isinstance(doc["terms"], list):
            raise SchemaError("'terms' must be a list")
        terms = []
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
            terms.append(((mu, nu), _split_rational(entry["re"]) + _split_rational(entry["im"])))
        return _store_literals(dim, terms)


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
        return {mu: self._coeff(*part) for (mu, _), part in self._parts.items()}

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
        return _store(self.dim, self._den, self._parts.items())

    def to_json_dict(self) -> dict:
        return {
            "n": self.dim,
            "terms": [
                {"mu": list(mu), **complex_to_strings(c)} for mu, c in self.sorted_terms()
            ],
        }


def _store(dim: int, den: int, parts: Parts, into: SpherePolynomial | None = None,
           reduced: bool = False) -> SpherePolynomial:
    """Store sum (re + i im) / den zeta^mu conj(zeta)^nu over parts in into, or a new polynomial.

    Repeated keys add up in first-seen order, zero sums go, and unless reduced, the gcd of den
    and every part is divided out, so den becomes D, the lcm of the reduced denominators.
    """
    p = object.__new__(SpherePolynomial) if into is None else into
    sums: dict[TermKey, tuple[int, int]] = {}
    for key, (re, im) in parts:
        x, y = sums.get(key, (0, 0))
        sums[key] = (x + re, y + im)
    g = 1 if reduced else math.gcd(den, *(x for part in sums.values() for x in part))
    sums = {key: (re // g, im // g) for key, (re, im) in sums.items() if re or im}
    for slot, value in zip(SpherePolynomial.__slots__, (dim, den // g, sums, None, None, None)):
        object.__setattr__(p, slot, value)
    return p


def _store_literals(dim: int, literals, into: SpherePolynomial | None = None) -> SpherePolynomial:
    """_store of literals ((mu, nu), (a, b, c, e)), each worth a/b + i c/e with b, e > 0.

    Each key's literals add up over their denominators' lcm, reduced as they go; D is the lcm of the
    reduced ones.  No gcd pass: for a prime l | D, the part reduced over l's full power is prime to l.
    """
    sums: dict[TermKey, tuple[int, int, int, int]] = {}
    for key, (a, b, c, e) in literals:
        x, q, y, r = sums.get(key, (0, 1, 0, 1))  # the key's sum so far, x/q + i y/r
        m, k = math.lcm(q, b), math.lcm(r, e)
        x, y = x * (m // q) + a * (m // b), y * (k // r) + c * (k // e)
        g, h = math.gcd(x, m), math.gcd(y, k)
        sums[key] = x // g, m // g, y // h, k // h
    den = math.lcm(*(d for _, q, _, r in sums.values() for d in (q, r)))
    return _store(dim, den, (
        (key, (x * (den // q), y * (den // e))) for key, (x, q, y, e) in sums.items()), into, True)


def laplacian(f: SpherePolynomial) -> SpherePolynomial:
    """Exact sum_j d/dz_j d/dconj(z_j) of f read as a polynomial in z and conj(z).

    It acts on the expression, not on the boundary function: |z|^2 and 1 are
    different polynomials here.  A term (mu, nu) maps to
    sum_j mu_j nu_j z^(mu - e_j) conj(z)^(nu - e_j).
    """
    return _store(f.dim, f._den, (
        ((mu - e, nu - e), (re * w, im * w))
        for (mu, nu), (re, im) in f._parts.items() for j in range(f.dim) if mu[j] and nu[j]
        for e, w in [(MultiIndex.unit(f.dim, j), mu[j] * nu[j])]))


def _line_sum(terms: Iterable[tuple[tuple[int, ...], int, int]]) -> tuple[int, int, int]:
    """(x, y, L) with sum over (w, re, im) of (re + i im) / multinomial(w) = (x + i y) / L.

    L is the lcm of the multinomials met, not a factorial bound: in n = 1
    every multinomial is 1, so zeta_1^(10^6) stays small.
    """
    parts = [(_multinomial(w), re, im) for w, re, im in terms]
    lcm = math.lcm(*(m for m, _, _ in parts))
    return sum(re * (lcm // m) for m, re, _ in parts), sum(im * (lcm // m) for m, _, im in parts), lcm


def _mass_sum(terms: Iterable[tuple[tuple[int, ...], int, int]], den: int) -> ComplexFraction:
    """Sum over (w, re, im) of (re + i im) / (den multinomial(w)), exact."""
    x, y, lcm = _line_sum(terms)
    return ComplexFraction(Fraction(x, den * lcm), Fraction(y, den * lcm))


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
    line = f.lines().get(tuple(map(sub, beta, alpha)), ())
    return _mass_sum(((tuple(map(add, alpha, mu)), re, im) for mu, _, re, im in line), f._den)


def inner_product(f: SpherePolynomial, g: SpherePolynomial) -> ComplexFraction:
    """Exact L2(sigma) inner product <f, g> = integral of f * conj(g); conjugate-linear in g.

    Terms b zeta^mu conj(zeta)^nu of g and a zeta^mu' conj(zeta)^nu' of f on one line add
    a conj(b) norm_sq(nu + mu'); the rest pair to 0.
    """
    f._check_same(g)
    f_lines = f.lines()
    return _mass_sum((
        (tuple(map(add, nu, mu)), a_re * b_re + a_im * b_im, a_im * b_re - a_re * b_im)
        for d, group in g.lines().items() for _, nu, b_re, b_im in group
        for mu, _, a_re, a_im in f_lines.get(d, ())
    ), f._den * g._den)


def cauchy_transform_poly(f: SpherePolynomial) -> HolomorphicPolynomial:
    """Exact Cauchy transform of polynomial data: the L2 projection onto holomorphic polynomials.

    c zeta^mu conj(zeta)^nu maps to c norm_sq(mu) / norm_sq(d) z^d if d = mu - nu >= 0, else to 0,
    so C[f] = sum over f's lines d >= 0 of moment(f, 0, d) / norm_sq(d) z^d.  Line d is
    (x_d + i y_d) multinomial(d) / (D L_d) by _line_sum; one _store over D lcm(L_d) builds C[f].
    """
    sums = [(d, _multinomial(d), *_line_sum((mu, re, im) for mu, _, re, im in group))
            for d, group in f.lines().items() if min(d) >= 0]
    lcm, zero = math.lcm(*(q for *_, q in sums)), MultiIndex.zero(f.dim)
    return _store(f.dim, f._den * lcm, (
        ((MultiIndex(d), zero), (x * m * (lcm // q), y * m * (lcm // q))) for d, m, x, y, q in sums
    ), object.__new__(HolomorphicPolynomial))


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
    """Evaluate an integrand g on an (N, n) batch: g maps the batch to N values.

    Any other result shape raises PreconditionError.  Shape cannot tell a
    per-point callable from a batch one when N == n, so such a callable is
    misread there rather than refused.  Non-finite outputs raise
    EvaluationError carrying the offending point.
    """
    vals = np.asarray(g(batch), dtype=np.complex128)
    if vals.shape != (batch.shape[0],):
        raise PreconditionError(
            f"an integrand maps an (N, n) batch to N values; on a batch of "
            f"{batch.shape[0]} points it returned shape {vals.shape}"
        )
    if not np.all(finite := np.isfinite(vals)):
        i = int(np.argmin(finite))
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
    g(zeta).  g maps an (N, n) batch of points to N values; any other result
    shape raises PreconditionError.  The estimator is unbiased; the
    stochastic oracle against which every exact moment is cross-checked.
    """
    if alpha.dim != sampler.dim or beta.dim != sampler.dim:
        raise DimensionMismatchError("index dimension does not match sampler dimension")
    return _weighted_mean(lambda batch: monomial_eval(batch, alpha, beta), g, sampler, n_samples)


def _weighted_mean(
    weight: Callable, g: Callable, sampler: SphereSampler, n_samples: int
) -> MCEstimate:
    """Mean of weight(zeta) * g(zeta) over the sampler's next n_samples points.

    The one Monte-Carlo estimator body: moments weigh by a monomial, kernel
    transforms by a kernel.  Weights are computed before the integrand.  The
    points stream in the sampler's blocks (sample_blocks), folded one at a
    time (fold_mean_and_stderr), so memory is one block whatever n_samples
    is, and the estimate equals mean_and_stderr on the whole batch.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    blocks = (weight(batch) * _eval_black_box(g, batch) for batch in sampler.sample_blocks(n_samples))
    mean, stderr = fold_mean_and_stderr(blocks)
    return MCEstimate(value=mean, stderr=stderr, samples=n_samples, seed=sampler.seed)
