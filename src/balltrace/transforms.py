"""Cauchy and Poisson integrals: exact on polynomials, Monte-Carlo on black boxes.

The exact Cauchy transform C[f] (the Szego projection) is derived and computed
in polynomials.cauchy_transform_poly; this module keeps the name.

Poisson integral of polynomial data.  f splits exactly into components h in
H(p,q), the harmonic polynomials homogeneous of degree p in z and q in
conj(z) (SpherePolynomial.harmonics), and the invariant Poisson integral
acts on each as one radial factor (Rudin, Function Theory in the Unit Ball
of C^n, the chapter on H(p,q); Folland, Proc. AMS 47, 1975):

    P[h](z) = phi_pq(|z|^2) h(z),
    phi_pq(s) = 2F1(p, q; p+q+n; s) / 2F1(p, q; p+q+n; 1) = sum_i t_i s^i,
    t_0 = binom(p+n-1, p) / binom(p+q+n-1, p),
    t_(i+1) / t_i = (p+i)(q+i) / ((p+q+n+i)(i+1)).

t_0 is Gauss's value of 1 / 2F1(p, q; p+q+n; 1), so the t_i are
nonnegative and sum to 1: no term exceeds 1 in any dimension.  When p = 0
or q = 0 the ratio vanishes at i = 0 and phi_pq = 1, so holomorphic and
antiholomorphic components pass unchanged and need no series.  A mixed
component's profile is cut after t_N, N the order of poisson_series_eval;
the cut acts on each H(p,q) alone, so it commutes with the unitary maps of
C^n.  On a slice z = r zeta of sphere points h(z) = r^(p+q) h(zeta) and
|z|^2 = r^2, so radial_scan evaluates the components once per sample batch
and weighs each by r^(p+q) times its cut profile at r^2.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, DimensionMismatchError, DomainError, NumericalError
from .exact import format_float
from . import polynomials
from .kernels import _binom_coeff, cauchy_kernel, poisson_kernel
from .multiindex import MultiIndex, graded_indices, monomial_norm_sq
from .polynomials import MCEstimate, SpherePolynomial, _weighted_mean
from .sphere import SphereSampler, _PowerTable, _norm_sq, _rows, norm

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
    if norm(zv) >= 1.0:
        raise DomainError("transform point must lie inside the open ball")
    return _weighted_mean(lambda batch: kernel(zv, batch), g, sampler, n_samples)


# ---------------------------------------------------------------------------
# Poisson series on polynomial data

_TABLE_CELLS = 1 << 20      # entries of one block of the term table in _profile


def _profile_factors(p: int, q: int, dim: int, cut: int) -> np.ndarray:
    """t_0 and the ratios t_(i+1)/t_i for i < cut: their cumulative products are t_0..t_cut."""
    i = np.arange(cut)
    factors = np.empty(cut + 1)
    factors[0] = math.comb(p + dim - 1, p) / math.comb(p + q + dim - 1, p)
    factors[1:] = (p + i) * (q + i) / ((p + q + dim + i) * (i + 1))
    return factors


def _profile(p: int, q: int, dim: int, s: np.ndarray, cut: int) -> np.ndarray:
    """phi_pq cut after t_cut, sum_{i<=cut} t_i s^i, at every value of s (module docstring).

    Each row of the term table is the cumulative product of t_0 and the
    ratios times s, so no term leaves [0, 1]; rows come in blocks under
    _TABLE_CELLS entries, and np.sum adds each row in a fixed order.
    """
    factors = _profile_factors(p, q, dim, cut)
    out = np.empty(s.shape[0])
    step = max(1, _TABLE_CELLS // (cut + 1))
    for lo in range(0, s.shape[0], step):
        blk = s[lo:lo + step]
        table = np.empty((blk.shape[0], cut + 1))
        table[:, 0] = factors[0]
        table[:, 1:] = blk[:, None] * factors[1:]
        out[lo:lo + step] = np.sum(np.cumprod(table, axis=1), axis=1)
    return out


def _binom_partial_sums(s: np.ndarray, orders: Iterable[int], dim: int):
    """G_K(s) = sum_{j<=K} binom(j+dim-1, dim-1) s^j for each requested K; negative K gives 0.

    The normalizer of the truncated moment expansion (tests/reference_poisson.py).
    Nothing here calls it; perfbench's traced radial run wraps it by name.
    """
    orders = set(orders)
    j = np.arange(max(orders, default=-1) + 1)
    sums = np.cumsum(_binom_coeff(dim, j) * s[:, None] ** j, axis=1)
    return {k: sums[:, k] if k >= 0 else np.zeros(s.shape[0]) for k in orders}


def _mixed_term_plan(mu: MultiIndex, nu: MultiIndex, order: int):
    """Enumeration plan for one mixed term: (eta list, float coefficients).

    The term-by-term form of the truncated moment expansion, kept as the
    reference route the tests compare poisson_series_eval against.  The
    double series restricted to the term zeta^mu conj(zeta)^nu is
    parametrized by a single index eta >= 0 with exact coefficient
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
    """P[f] at z (|z| < 1) with every mixed component's profile cut after t_order.

    Accepts a single point or an (N, n) batch.  Each component h in H(p,q)
    of f.harmonics() adds phi_pq(|z|^2) h(z) (module docstring): h(z) itself
    when p q = 0, else its cut profile, summed once per distinct value of
    |z|^2.  The exact decomposition is made once per polynomial; a call then
    costs one power table of z, one evaluation of every component and
    O(order) work per mixed component and distinct |z|^2.  See
    choose_poisson_order for certified order selection.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    Z, batched = _rows(z, f.dim)
    s = _norm_sq(Z)
    if np.max(s, initial=0.0) >= 1.0:
        raise DomainError("Poisson series requires |z| < 1 for every point")

    levels, where = np.unique(s, return_inverse=True)
    zp, zc = _PowerTable(Z), _PowerTable(np.conj(Z))
    total = np.zeros(Z.shape[0], dtype=np.complex128)
    for (p, q), h in f.harmonics().items():
        values = h._eval_on(zp, zc)
        total = total + (_profile(p, q, f.dim, levels, order)[where] * values if p * q else values)
    return total if batched else complex(total[0])


def poisson_series_tail(f: SpherePolynomial, radius: float, order: int) -> float:
    """Certified bound on |P[f](z) - poisson_series_eval(f, z, order)| for all |z| <= radius.

    Only mixed components are cut.  With s = radius^2 and k = order, a
    component h in H(p,q) has |h(z)| <= mass_h radius^(p+q), mass_h the sum
    of |coefficients| of h, and its profile's tail sum_{i>k} t_i s^i is at
    most s^(k+1), since the t_i sum to 1.  Once pq <= (n+1)k + p + q + n,
    (p+i)(q+i) <= (p+q+n+i)(i+1) for every i >= k: no term after t_k exceeds
    it, and the tail is at most t_k s^(k+1) / (1-s).  The tail grows with s,
    so the bound at the radius covers every smaller |z|; it is
    nonincreasing in the order.
    """
    if not 0.0 <= radius < 1.0:
        raise DomainError(f"tail bound requires 0 <= radius < 1, got {radius}")
    n, s = f.dim, radius * radius
    total = 0.0
    for (p, q), mass in f._harmonic_masses().items():
        if p * q:
            tail = s ** (order + 1)
            if p * q <= (n + 1) * order + p + q + n:
                tail *= min(1.0, float(np.prod(_profile_factors(p, q, n, order))) / (1.0 - s))
            total += mass * radius ** (p + q) * tail
    return total


def choose_poisson_order(
    f: SpherePolynomial,
    radius: float,
    tol: float = RADIAL_TAIL_TOL,
    max_order: int = MAX_SERIES_ORDER,
) -> int:
    """Smallest practical truncation order with poisson_series_tail <= tol.

    0 when the order-0 tail fits, as it does for data with no mixed
    component; otherwise doubles the candidate order until the certified
    tail fits, then refines by bisection.  Raises ConvergenceError when tol
    is unreachable below max_order.
    """
    hi = 0
    while poisson_series_tail(f, radius, hi) > tol:
        hi = max(1, 2 * hi)
        if hi > max_order:
            raise ConvergenceError(
                f"tail bound does not reach {tol} below order {max_order} at radius {radius}"
            )
    lo = hi // 2
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
    """(mean |values|^p)^(1/p) with a delta-method standard error.

    Raises NumericalError when |values|^p leaves the float range: the mean or
    its standard error is not finite, or the mean underflows to 0 on nonzero values.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the check below
        pows = np.abs(values) ** p
        m = float(np.mean(pows))
        se_mean = float(np.std(pows, ddof=1)) / math.sqrt(len(pows))
    if not (math.isfinite(m) and math.isfinite(se_mean)) or (m == 0.0 and np.any(values)):
        raise NumericalError(
            f"mean |value|^p at p = {p} leaves the float range: {m} with standard error {se_mean}"
        )
    if m == 0.0:
        return 0.0, 0.0
    lp_norm = m ** (1.0 / p)
    return lp_norm, se_mean * lp_norm / (p * m)


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
    sample counts.  f's H(p,q) components are evaluated once on the batch,
    and the slice at r weighs each by r^(p+q) phi_pq(r^2): 1 when p q = 0,
    else its profile cut at the order whose certified tail is below
    RADIAL_TAIL_TOL.
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
    values = [(bidegree, h._eval_on(zp, zc)) for bidegree, h in f.harmonics().items()]
    rows = []
    for r in radii:
        order, level = choose_poisson_order(f, r), np.array([r * r])
        # elementwise, not a BLAS product: the same bits with any BLAS or thread count
        slice_vals = np.zeros(n_samples, dtype=np.complex128)
        for (p_h, q_h), h_vals in values:
            weight = _profile(p_h, q_h, f.dim, level, order)[0] if p_h * q_h else 1.0
            slice_vals = slice_vals + r ** (p_h + q_h) * weight * h_vals
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
