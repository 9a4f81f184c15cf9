"""Cauchy and Poisson integrals: exact on polynomials, Monte-Carlo on black boxes.

Exact Cauchy transform (= Szego projection restricted to polynomial data).
Expanding the Cauchy kernel in its monomial series and integrating term by
term against a monomial zeta^mu conj(zeta)^nu, the orthogonality relations
kill every series index except w = mu - nu, which survives only when mu
dominates nu and there contributes

    C[zeta^mu conj(zeta)^nu](z) = (norm_sq(mu) / norm_sq(mu - nu)) z^(mu-nu),

and 0 otherwise; the transform extends by linearity.  Holomorphic monomials
reproduce themselves (the coefficient ratio is 1), so the transform is an
idempotent projection onto holomorphic polynomials.

Poisson integral of polynomial data.  P[f](z) is evaluated through the
moment expansion

    P[f](z) = C(z,z)^(-1) * sum over index pairs (v, w) of
              norm_sq(w)^(-1) norm_sq(v)^(-1) z^w conj(z)^v * moment(f, v, w),

with both the double sum and the normalizing factor truncated to the same
order (|v|, |w| <= order): the normalizer C(z,z) is itself the diagonal
series sum_v norm_sq(v)^(-1) |z^v|^2, which collapses multinomially to
G_N(|z|^2) with G_N(s) = sum_{j<=N} binom(j+n-1, n-1) s^j, so a constant f
telescopes to exactly 1 at every order.  For an f-term (mu, nu) the moments
vanish off the line w = v + mu - nu, so each term reduces to a single
multi-index sum; when mu = 0 or nu = 0 the sum collapses further to a
scalar series in |z|^2, which is what makes radii close to 1 feasible.
Truncation tails are certified per term (scalar geometric majorants for
collapsed terms, the conservative product bound from majorizing both kernel
series for mixed terms) plus a normalizer-truncation correction; order
selection iterates until the summed bound fits the requested tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, DimensionMismatchError, DomainError
from .exact import ComplexFraction
from .kernels import cauchy_kernel, poisson_kernel, series_tail_bound
from .multiindex import MultiIndex, graded_indices, monomial_norm_sq
from .polynomials import HolomorphicPolynomial, MCEstimate, SpherePolynomial, _weighted_mean
from .sphere import SphereSampler, monomial_eval

RADIAL_TAIL_TOL = 1e-8      # truncation budget used by radial_scan
MAX_SERIES_ORDER = 4096     # hard cap for automatic order selection
_EVAL_BLOCK = 8192          # samples per block in the mixed-term series path


def cauchy_transform_poly(f: SpherePolynomial) -> HolomorphicPolynomial:
    """Exact Cauchy transform of polynomial boundary data.

    This is the orthogonal projection onto holomorphic polynomials w.r.t.
    the exact L2 inner product; see the module docstring for the term rule.
    """
    out: dict[MultiIndex, ComplexFraction] = {}
    # the stored (mu, nu) terms in insertion order, also when f is itself a witness
    for (mu, nu), coeff in f._terms.items():
        if not mu.dominates(nu):
            continue
        w = mu - nu
        gain = coeff * (monomial_norm_sq(mu) / monomial_norm_sq(w))
        cur = out.get(w)
        total = gain if cur is None else cur + gain
        if total:
            out[w] = total
        elif cur is not None:
            del out[w]
    return HolomorphicPolynomial(f.dim, out)


def cauchy_transform_mc(
    g: Callable, z, sampler: SphereSampler, n_samples: int
) -> MCEstimate:
    """Monte-Carlo Cauchy integral of a black-box boundary function at z in B."""
    return _kernel_transform_mc(cauchy_kernel, g, z, sampler, n_samples)


def poisson_transform_mc(
    g: Callable, z, sampler: SphereSampler, n_samples: int
) -> MCEstimate:
    """Monte-Carlo invariant Poisson integral of a black-box function at z in B."""
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


def _split_terms(f: SpherePolynomial):
    """Separate collapsible terms (mu = 0 or nu = 0) from mixed ones.

    Both lists hold (mu, nu, coeff) in f's stored term order, which fixes the
    order of the float sums.
    """
    collapsed, mixed = [], []
    for (mu, nu), coeff in f._terms.items():
        (mixed if mu.degree and nu.degree else collapsed).append((mu, nu, coeff))
    return collapsed, mixed


def _binom_partial_sums(s: np.ndarray, orders: Iterable[int], dim: int):
    """G_K(s) = sum_{j<=K} binom(j+dim-1, dim-1) s^j for each requested K.

    One pass up to max(orders); negative orders yield 0.
    """
    wanted = sorted(set(orders))
    out = {}
    top = wanted[-1] if wanted else -1
    acc = np.zeros_like(s)
    power = np.ones_like(s)
    it = iter(wanted)
    nxt = next(it, None)
    while nxt is not None and nxt < 0:
        out[nxt] = np.zeros_like(s)
        nxt = next(it, None)
    for j in range(top + 1):
        acc = acc + math.comb(j + dim - 1, dim - 1) * power
        power = power * s
        while nxt == j:
            out[nxt] = acc.copy()
            nxt = next(it, None)
    return out


def _mixed_term_plan(mu: MultiIndex, nu: MultiIndex, order: int):
    """Enumeration plan for one mixed term: (eta list, float coefficients).

    The double series restricted to this term is parametrized by a single
    index eta >= 0 with exact coefficient
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

    Sums the double series over index pairs (v, w) with |v|, |w| <= order,
    using exact moments converted to float at the end, and divides by the
    order-truncated normalizer G_order(|z|^2) (see the module docstring).
    Accepts a single point or an (N, n) batch.  Mixed terms (mu != 0 != nu)
    cost one multi-index enumeration each, so large orders with mixed data
    are expensive; see choose_poisson_order for certified order selection.
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

    collapsed, mixed = _split_terms(f)
    total = np.zeros(Z.shape[0], dtype=np.complex128)

    wanted = [order] + [order - mu.degree - nu.degree for mu, nu, _ in collapsed]
    sums = _binom_partial_sums(s, wanted, f.dim)
    normalizer = sums[order]

    for mu, nu, coeff in collapsed:
        mono = monomial_eval(Z, mu, nu)
        total = total + complex(coeff) * mono * sums[order - mu.degree - nu.degree]

    for mu, nu, coeff in mixed:
        delta_plus, delta_minus, etas, qs = _mixed_term_plan(mu, nu, order)
        if not etas:
            continue
        for lo in range(0, Z.shape[0], _EVAL_BLOCK):
            blk = slice(lo, min(lo + _EVAL_BLOCK, Z.shape[0]))
            zb = Z[blk]
            x = np.abs(zb) ** 2
            max_exp = max(e.degree for e in etas)
            pows = [_real_powers(x[:, k], max_exp) for k in range(f.dim)]
            acc = np.zeros(zb.shape[0])
            for eta, q in zip(etas, qs):
                term = np.full(zb.shape[0], q)
                for k in range(f.dim):
                    if eta[k]:
                        term = term * pows[k][eta[k]]
                acc += term
            mono = monomial_eval(zb, delta_plus, delta_minus)
            total[blk] = total[blk] + complex(coeff) * mono * acc

    result = total / normalizer
    return result if batched else complex(result[0])


def _real_powers(x: np.ndarray, max_exp: int) -> list[np.ndarray]:
    out = [np.ones_like(x)]
    for _ in range(max_exp):
        out.append(out[-1] * x)
    return out


def poisson_series_tail(f: SpherePolynomial, radius: float, order: int) -> float:
    """Certified bound on |P[f](z) - truncated series| for all |z| <= radius.

    Splits the error into the numerator truncation (per f-term: scalar
    geometric tail for collapsed terms, the conservative two-series product
    bound for mixed terms, both damped by (1-|z|^2)^n) plus the effect of
    truncating the normalizer (bounded through an a-priori bound on the
    truncated value itself).
    """
    if not 0.0 <= radius < 1.0:
        raise DomainError(f"tail bound requires 0 <= radius < 1, got {radius}")
    n = f.dim
    s = radius * radius
    damp = (1.0 - s) ** n
    collapsed, mixed = _split_terms(f)

    numer_tail = 0.0
    value_bound = 0.0  # bound on |truncated value|, used for the normalizer part
    norm_partial = sum(math.comb(j + n - 1, n - 1) * s**j for j in range(order + 1))
    for mu, nu, coeff in collapsed:
        mass = math.sqrt(float(coeff.abs_sq()))
        degree = mu.degree + nu.degree
        k = order - degree
        scalar_tail = series_tail_bound(s, k, n) if k >= 0 else (1.0 - s) ** (-n)
        numer_tail += mass * radius ** degree * scalar_tail
        value_bound += mass  # |z^mu conj(z)^nu| G_k <= G_order = the normalizer
    if mixed:
        full = (1.0 - radius) ** (-n)
        partial = sum(math.comb(j + n - 1, n - 1) * radius**j for j in range(order + 1))
        gap = series_tail_bound(radius, order, n)
        for mu, nu, coeff in mixed:
            mass = math.sqrt(float(coeff.abs_sq()))
            numer_tail += mass * gap * (full + partial)
            value_bound += mass * partial**2 / norm_partial

    normalizer_tail = value_bound * damp * series_tail_bound(s, order, n)
    return damp * numer_tail + normalizer_tail


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
    tail_tol: float = RADIAL_TAIL_TOL,
) -> list[RadialScanRow]:
    """Lp distance and norm of the radial slices P[f](r * zeta) against f.

    All radii share one sample set (common random numbers), which is what
    makes the decrease of lp_error along increasing radii visible at modest
    sample counts.  The Poisson values come from the truncated series with
    order selected so the certified tail is below tail_tol.
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
    boundary = f.eval(batch)
    rows = []
    for r in radii:
        order = choose_poisson_order(f, r, tail_tol)
        slice_vals = poisson_series_eval(f, r * batch, order)
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
