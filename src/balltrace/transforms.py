"""Cauchy and Poisson integrals: exact on polynomials, Monte-Carlo on black boxes.

Exact Cauchy transform (= Szego projection restricted to polynomial data).
Expanding the Cauchy kernel in its monomial series and integrating term by
term against a monomial zeta^mu conj(zeta)^nu, the orthogonality relations
kill every series index except w = mu - nu, which survives only when mu
dominates nu and there contributes

    C[zeta^mu conj(zeta)^nu](z) = (norm_sq(mu) / norm_sq(mu - nu)) z^(mu-nu),

and 0 otherwise; the transform extends by linearity.  Holomorphic monomials
reproduce themselves (the coefficient ratio is 1), so the transform is an
idempotent projection onto holomorphic polynomials.  It is exact integer
work on the stored form, so it lives beside moment, as
polynomials.cauchy_transform_poly; this module keeps the name.

Poisson integral of polynomial data.  P[f](z) is evaluated through the
moment expansion

    P[f](z) = C(z,z)^(-1) * sum over index pairs (v, w) of
              norm_sq(w)^(-1) norm_sq(v)^(-1) z^w conj(z)^v * moment(f, v, w),

with both the double sum and the normalizing factor truncated to the same
order N (|v|, |w| <= N): the normalizer C(z,z) is itself the diagonal
series sum_v norm_sq(v)^(-1) |z^v|^2, which collapses multinomially to
G_N(|z|^2) with G_N(s) = sum_{j<=N} binom(j+n-1, n-1) s^j, so a constant f
telescopes to exactly 1 at every order.

The double sum is the integral of f against the kernel |C_N(z, zeta)|^2,
C_N the degree-N truncation of the Cauchy kernel; the truncation is
U(n)-invariant, so by Schur the sum acts on each bigraded harmonic space
H(p,q) (harmonic polynomials homogeneous of degree p in z and q in
conj(z)) as a scalar radial factor.  f splits exactly into components
h in H(p,q) (SpherePolynomial.harmonics), and h contributes

    S_(p,q),N(s) h(z),   S_(p,q),N(s) = sum_{i <= N - max(p,q)} t_i s^i,  s = |z|^2,
    t_0 = (p+n-1)! (q+n-1)! / ((p+q+n-1)! (n-1)!),
    t_(i+1) / t_i = (p+n+i)(q+n+i) / ((p+q+n+i)(i+1)),

the truncation of 2F1(p+n, q+n; p+q+n; s) / 2F1(p, q; p+q+n; 1).  Euler's
transform turns the untruncated quotient by G = (1-s)^(-n) into the closed
form P[h](z) = 2F1(p, q; p+q+n; s) / 2F1(p, q; p+q+n; 1) h(z) (Rudin,
Function Theory in the Unit Ball of C^n, the chapter on H(p,q)); for p = 0
or q = 0 the series is G_(N - p - q) and the factor is 1.  Evaluation is a
scalar series per component at each distinct |z|^2, so its cost does not
grow with the radius beyond the order.  On a slice z = r zeta of sphere
points h(z) = r^(p+q) h(zeta) and |z|^2 = r^2, so radial_scan evaluates the
components once per sample batch and each radius is one weighted sum of
them.  Truncation tails are certified per component by a scalar geometric
majorant (the ratio above is nonincreasing in i) plus a normalizer-truncation
term; order selection iterates until the summed bound fits the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, DimensionMismatchError, DomainError
from .exact import format_float
from . import polynomials
from .kernels import _radial_coeff, _radial_tail, cauchy_kernel, poisson_kernel
from .multiindex import MultiIndex, graded_indices, monomial_norm_sq
from .polynomials import MCEstimate, SpherePolynomial, _PowerTable, _weighted_mean
from .sphere import SphereSampler

RADIAL_TAIL_TOL = 1e-8      # truncation budget used by radial_scan
MAX_SERIES_ORDER = 4096     # hard cap for automatic order selection

cauchy_transform_poly = polynomials.cauchy_transform_poly  # exact; its home is polynomials


def cauchy_transform_mc(
    g: Callable, z, sampler: SphereSampler, n_samples: int
) -> MCEstimate:
    """Monte-Carlo Cauchy integral of a black-box boundary function at z in B.

    g maps an (N, n) batch of points to N values; any other result shape
    raises PreconditionError.
    """
    return _kernel_transform_mc(cauchy_kernel, g, z, sampler, n_samples)


def poisson_transform_mc(
    g: Callable, z, sampler: SphereSampler, n_samples: int
) -> MCEstimate:
    """Monte-Carlo invariant Poisson integral of a black-box function at z in B.

    The estimate weighs each sample by the Poisson kernel, which grows like
    (1 - |z|)^(-n) at zeta = z/|z|.  Near the sphere the weighted values are
    heavy-tailed and the standard error understates the error: for
    zeta_1 conj(zeta_2) in n = 3 at |z| = 0.99, estimates at 2e5 samples
    miss the exact series value by up to 8 standard errors.  g maps an
    (N, n) batch of points to N values; any other result shape raises
    PreconditionError.
    """
    return _kernel_transform_mc(poisson_kernel, g, z, sampler, n_samples)


def _kernel_transform_mc(kernel, g, z, sampler, n_samples) -> MCEstimate:
    zv = np.asarray(z, dtype=np.complex128)
    if zv.ndim != 1:
        raise ValueError("transform point must be a single point")
    if zv.shape[0] != sampler.dim:
        raise DimensionMismatchError(
            f"point dimension {zv.shape[0]} does not match sampler dimension {sampler.dim}"
        )
    if float(np.linalg.norm(zv)) >= 1.0:
        raise DomainError("transform point must lie inside the open ball")
    return _weighted_mean(lambda batch: kernel(zv, batch), g, sampler, n_samples)


# ---------------------------------------------------------------------------
# Poisson series on polynomial data

_TABLE_CELLS = 1 << 20      # entries of one block of the power table in _radial_sums


def _radial_sums(x: np.ndarray, series: Sequence[tuple[int, int, int]], dim: int) -> np.ndarray:
    """sum_{i<=cut} t_i x^i for each (p, q, cut) of series at every value of x.

    Returns a (len(x), len(series)) array; a negative cut sums to 0.  The
    coefficients form one matrix (a column per series, zero past its cut);
    the powers x^0..x^top come from one table per block of values
    (cumulative products, blocks under _TABLE_CELLS entries), and one matrix
    product sums them.
    """
    top = max([cut + 1 for _, _, cut in series] + [0])
    i = np.arange(top)
    coeffs = np.zeros((top, len(series)))
    for col, (p, q, cut) in enumerate(series):
        if cut >= 0:
            coeffs[:cut + 1, col] = _radial_coeff(p, q, dim, i[:cut + 1])
    out = np.empty((x.shape[0], len(series)))
    step = max(1, _TABLE_CELLS // max(top, 1))
    for lo in range(0, x.shape[0], step):
        blk = x[lo:lo + step]
        table = np.empty((blk.shape[0], top))
        table[:, :1] = 1.0
        table[:, 1:] = blk[:, None]
        np.cumprod(table, axis=1, out=table)
        out[lo:lo + step] = table @ coeffs
    return out


def _binom_partial_sums(s: np.ndarray, orders: Iterable[int], dim: int):
    """G_K(s) = sum_{j<=K} binom(j+dim-1, dim-1) s^j for each requested K.

    The p = q = 0 radial series; negative orders yield 0.
    """
    wanted = sorted(set(orders))
    sums = _radial_sums(s, [(0, 0, k) for k in wanted], dim)
    return {k: sums[:, col] for col, k in enumerate(wanted)}


def _mixed_term_plan(mu: MultiIndex, nu: MultiIndex, order: int):
    """Enumeration plan for one mixed term: (eta list, float coefficients).

    The term-by-term form of the series, kept as the reference route the
    tests compare poisson_series_eval against.  The double series restricted
    to the term zeta^mu conj(zeta)^nu is parametrized by a single index
    eta >= 0 with exact coefficient
        norm_sq(eta + (mu-nu)+)^(-1) norm_sq(eta + (nu-mu)+)^(-1)
            * norm_sq(eta + max(mu, nu)),
    multiplied by the monomial x^eta, x_k = |z_k|^2, and by the fixed factor
    z^((mu-nu)+) conj(z)^((nu-mu)+).
    """
    n = mu.dim
    delta_plus = MultiIndex(max(m - v, 0) for m, v in zip(mu, nu))
    delta_minus = MultiIndex(max(v - m, 0) for m, v in zip(mu, nu))
    upper = MultiIndex(max(m, v) for m, v in zip(mu, nu))
    budget = order - delta_minus.degree - max(0, mu.degree - nu.degree)
    etas = graded_indices(n, budget) if budget >= 0 else []
    coeffs = []
    for eta in etas:
        q = (
            monomial_norm_sq(eta + upper)
            / (monomial_norm_sq(eta + delta_plus) * monomial_norm_sq(eta + delta_minus))
        )
        try:
            coeffs.append(float(q))
        except OverflowError as exc:
            raise ConvergenceError(
                f"series coefficient overflows a float at order {eta.degree}; "
                "the requested truncation order is too large for this term"
            ) from exc
    return delta_plus, delta_minus, etas, coeffs


def poisson_series_eval(f: SpherePolynomial, z, order: int) -> complex | np.ndarray:
    """Truncated moment expansion of the Poisson integral P[f] at z (|z| < 1).

    The double series over index pairs (v, w) with |v|, |w| <= order divided
    by the order-truncated normalizer G_order(|z|^2), summed through f's
    H(p,q) components (see the module docstring): each component h adds
    S_(p,q)(|z|^2) h(z), where S_(p,q) is its radial series cut at
    order - max(p, q).  Accepts a single point or an (N, n) batch.  The exact
    decomposition is made once per polynomial (f.harmonics()); a call then
    costs one power table of z, one evaluation of every component, and
    O(order) scalar work per distinct value of |z|^2.  See
    choose_poisson_order for certified order selection.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    pt = np.asarray(z, dtype=np.complex128)
    batched = pt.ndim == 2
    Z = pt if batched else pt[None, :]
    if Z.shape[-1] != f.dim:
        raise DimensionMismatchError(
            f"point dimension {Z.shape[-1]} does not match polynomial dimension {f.dim}"
        )
    s = np.sum(np.abs(Z) ** 2, axis=1)
    if np.max(s, initial=0.0) >= 1.0:
        raise DomainError("Poisson series requires |z| < 1 for every point")

    levels, where = np.unique(s, return_inverse=True)
    radial, normalizer = _series_sums(f, levels, order)
    zp, zc = _PowerTable(Z), _PowerTable(np.conj(Z))
    total = np.zeros(Z.shape[0], dtype=np.complex128)
    for col, h in enumerate(f.harmonics().values()):
        total = total + radial[where, col] * h._eval_on(zp, zc)
    result = total / normalizer[where]
    return result if batched else complex(result[0])


def _series_sums(f: SpherePolynomial, s: np.ndarray, order: int):
    """(S_(p,q) cut at order - max(p, q) for each component of f, G_order) at every s."""
    radial = _radial_sums(s, [(p, q, order - max(p, q)) for p, q in f.harmonics()], f.dim)
    return radial, _binom_partial_sums(s, (order,), f.dim)[order]


def poisson_series_tail(f: SpherePolynomial, radius: float, order: int) -> float:
    """Certified bound on |P[f](z) - truncated series| for all |z| <= radius.

    With s = |z|^2 and N = order, P[f] = A/G and the series is A_N/G_N,
    where A = sum_h S_(p,q)(s) h(z) over f's H(p,q) components, A_N cuts
    every S_(p,q) at N - max(p,q), and G = (1-s)^(-n).  Then
    P[f] - A_N/G_N = (A - A_N)/G - (A_N/G_N)(G - G_N)/G, and:
      * |h(z)| <= size_h = (sum of |coefficients| of h) radius^(p+q);
      * each component's part of A - A_N is bounded by its own scalar
        geometric majorant (_radial_tail), and 1/G = (1-s)^n;
      * t_i <= binom(i+n-1, n-1): by Euler S_(p,q) = G times
        2F1(p,q;p+q+n;s) / 2F1(p,q;p+q+n;1), whose coefficients are
        nonnegative and sum to 1, so t_i is an average of binomials of
        index <= i.  Hence every cut S_(p,q) <= G_N, |A_N/G_N| <= sum size_h,
        and the normalizer term is at most that times the tail of G.
    Each damped tail (1-s)^n sum_{i>k} t_i s^i is nondecreasing in s (a
    mixture of negative-binomial tail probabilities), so the bound at the
    radius covers every smaller |z|.
    """
    if not 0.0 <= radius < 1.0:
        raise DomainError(f"tail bound requires 0 <= radius < 1, got {radius}")
    n = f.dim
    s = radius * radius
    numer_tail = 0.0
    value_bound = 0.0
    for (p, q), mass in f._harmonic_masses().items():
        size = mass * radius ** (p + q)
        numer_tail += size * _radial_tail(p, q, n, s, order - max(p, q))
        value_bound += size
    return (1.0 - s) ** n * (numer_tail + value_bound * _radial_tail(0, 0, n, s, order))


def choose_poisson_order(
    f: SpherePolynomial,
    radius: float,
    tol: float = RADIAL_TAIL_TOL,
    max_order: int = MAX_SERIES_ORDER,
) -> int:
    """Smallest practical truncation order with poisson_series_tail <= tol.

    Doubles the candidate order until the certified tail fits, then refines
    by bisection; raises ConvergenceError when tol is unreachable below
    max_order.
    """
    if f.is_zero():
        return 0
    order = 1
    while poisson_series_tail(f, radius, order) > tol:
        order *= 2
        if order > max_order:
            raise ConvergenceError(
                f"tail bound does not reach {tol} below order {max_order} at radius {radius}"
            )
    lo, hi = order // 2, order
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if poisson_series_tail(f, radius, mid) <= tol:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Radial behaviour


@dataclass(frozen=True)
class RadialScanRow:
    """One radius of a boundary-convergence scan (all estimates Monte-Carlo)."""

    r: float
    p: float
    lp_error: float
    lp_error_stderr: float
    lp_norm_r: float
    samples: int
    seed: int

    def csv(self) -> str:
        """The row as one line under RADIAL_CSV_HEADER: floats to 17 significant digits."""
        return ",".join(format_float(v) if isinstance(v, float) else str(v) for v in astuple(self))


RADIAL_CSV_HEADER = ",".join(field.name for field in fields(RadialScanRow))


def _lp_estimate(values: np.ndarray, p: float) -> tuple[float, float]:
    """(mean |values|^p)^(1/p) with a delta-method standard error."""
    pows = np.abs(values) ** p
    m = float(np.mean(pows))
    if m == 0.0:
        return 0.0, 0.0
    se_mean = float(np.std(pows, ddof=1)) / math.sqrt(len(pows))
    norm = m ** (1.0 / p)
    return norm, se_mean * norm / (p * m)


def radial_scan(
    f: SpherePolynomial,
    p: float,
    radii: Sequence[float],
    sampler: SphereSampler,
    n_samples: int,
) -> list[RadialScanRow]:
    """Lp distance and norm of the radial slices P[f](r * zeta) against f.

    All radii share one sample set (common random numbers), which is what
    makes the decrease of lp_error along increasing radii visible at modest
    sample counts.  The Poisson values come from the truncated series with
    order selected so the certified tail is below RADIAL_TAIL_TOL: f's H(p,q)
    components are evaluated once on the batch, and the slice at r weighs
    each by r^(p+q) S_(p,q)(r^2) / G(r^2).
    """
    if not (math.isfinite(p) and p >= 1):
        raise DomainError(f"exponent must be finite with p >= 1, got {p}")
    if any(not 0.0 <= r < 1.0 for r in radii):
        raise DomainError(f"radii must lie in [0, 1), got {list(radii)}")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if sampler.dim != f.dim:
        raise DimensionMismatchError("sampler dimension does not match polynomial")
    batch = sampler.sample_batch(n_samples)
    zp, zc = _PowerTable(batch), _PowerTable(np.conj(batch))
    boundary = f._eval_on(zp, zc)
    values = [(sum(bidegree), h._eval_on(zp, zc)) for bidegree, h in f.harmonics().items()]
    rows = []
    for r in radii:
        order = choose_poisson_order(f, r)
        radial, normalizer = _series_sums(f, np.array([r * r]), order)
        # elementwise, not a BLAS product: the same bits with any BLAS or thread count
        slice_vals = np.zeros(n_samples, dtype=np.complex128)
        for (degree, h_vals), weight in zip(values, radial[0] / normalizer[0]):
            slice_vals = slice_vals + r ** degree * weight * h_vals
        err, err_se = _lp_estimate(slice_vals - boundary, p)
        norm_r, _ = _lp_estimate(slice_vals, p)
        rows.append(
            RadialScanRow(
                r=float(r),
                p=float(p),
                lp_error=err,
                lp_error_stderr=err_se,
                lp_norm_r=norm_r,
                samples=n_samples,
                seed=sampler.seed,
            )
        )
    return rows
