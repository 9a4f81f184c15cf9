"""Cauchy and invariant Poisson kernels of the unit ball, with series forms.

Closed forms (n = ambient complex dimension):

    C(z, w)    = (1 - <z, w>)^(-n)                 for <z, w> != 1
    P(z, zeta) = (1 - |z|^2)^n / |1 - <z, zeta>|^(2n)   for z in the ball

C expands into the absolutely convergent multi-index series
sum_w norm_sq(w)^(-1) z^w conj(w)^w whenever |z||w| < 1.  Grouping that
series by total degree and applying the multinomial theorem collapses each
degree-j slice to binom(j+n-1, n-1) <z, w>^j, so a truncation to order N
costs O(N) scalar powers; the raw index-enumerated form is kept in the test
suite to validate the identity.

The truncation tail (the omitted mass of the degree-grouped series, all
terms in absolute value) is bounded by a geometric majorant: with
t_j = binom(j+n-1, n-1) r^j and r = |z||w| the term ratio past order N is
at most q = r (N+n+1)/(N+2), so the tail is at most t_{N+1} / (1-q) when
q < 1; the full-series mass 1/(1-r)^n is always a fallback bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DivergenceError, DomainError, SingularityError
from .sphere import _coords, herm_inner

SINGULARITY_GUARD = 1e-14


@dataclass(frozen=True)
class KernelTruncation:
    """Truncation order and a certified upper bound for the omitted series mass."""

    order: int
    tail_bound: float


def _pair_inner(z: np.ndarray, w: np.ndarray):
    """<z, w_i> for a single z against a point or an (N, n) batch of w."""
    if z.ndim != 1:
        raise ValueError("first argument must be a single point")
    if z.shape[0] != w.shape[-1]:
        raise DimensionMismatchError(f"point dimensions differ: {z.shape[0]} vs {w.shape[-1]}")
    return np.conj(w) @ z if w.ndim == 2 else herm_inner(z, w)


def cauchy_kernel(z, w):
    """C(z, w) = (1 - <z, w>)^(-n); w may be a point or an (N, n) batch.

    Raises SingularityError when any pair comes within SINGULARITY_GUARD of
    the singular set <z, w> = 1 (float blowup must be an error, not an Inf).
    """
    zv, wv = _coords(z), _coords(w)
    n = zv.shape[0]
    denom = 1.0 - _pair_inner(zv, wv)
    if np.min(np.abs(denom)) <= SINGULARITY_GUARD:
        raise SingularityError("cauchy kernel evaluated too close to <z, w> = 1")
    return denom ** (-n)


def poisson_kernel(z, zeta):
    """P(z, zeta) = (1 - |z|^2)^n / |1 - <z, zeta>|^(2n); strictly positive.

    z must lie inside the open ball; zeta may be a point or an (N, n) batch
    of sphere points.
    """
    zv = _coords(z)
    n = zv.shape[0]
    norm_sq = float(np.sum(np.abs(zv) ** 2))
    if norm_sq >= 1.0:
        raise DomainError(f"poisson kernel requires |z| < 1, got |z|^2 = {norm_sq}")
    sv = _coords(zeta)
    denom = np.abs(1.0 - _pair_inner(zv, sv)) ** (2 * n)
    return (1.0 - norm_sq) ** n / denom


def _radial_coeff(p: int, q: int, dim: int, i):
    """t_i of the H(p,q) radial series (transforms docstring); i is an int or an integer array.

    t_i = binom(i+dim-1, dim-1) * prod_{j<min(p,q)} (i+dim+j) / (i+dim+max(p,q)+j),
    the closed form of t_0 = (p+n-1)!(q+n-1)! / ((p+q+n-1)!(n-1)!) times the
    ratios (p+n+i)(q+n+i) / ((p+q+n+i)(i+1)); p = q = 0 gives the binomials of G.
    """
    lo, hi = min(p, q), max(p, q)
    t = 1.0
    for k in range(1, dim):
        t = t * (i + k) / k
    for j in range(lo):
        t = t * (i + dim + j) / (i + dim + hi + j)
    return t


def _radial_tail(p: int, q: int, dim: int, s: float, k: int) -> float:
    """Bound for sum_{i>k} t_i s^i of the H(p,q) radial series, 0 <= s < 1.

    The ratio t_(i+1)/t_i = (a+i)(b+i)/((c+i)(1+i)), a = p+n, b = q+n,
    c = p+q+n, is nonincreasing in i: its log-derivative is
    1/u + 1/v - 1/U - 1/V with u, v = a+i, b+i inside [U, V] = [1+i, c+i]
    and u + v >= U + V, and for u <= v that gives (u-U)/(uU) >= (V-v)/(vV).
    So past k the terms shrink at least geometrically with rho = s *
    ratio(k+1), and the tail is at most t_(k+1) s^(k+1) / (1-rho).  The whole
    series is at most G(s) = (1-s)^(-n) (t_i <= binom(i+n-1, n-1), see
    transforms.poisson_series_tail), the fallback when k < 0 or rho >= 1.
    """
    full = (1.0 - s) ** (-dim)
    if k < 0:
        return full
    if s == 0.0:
        return 0.0
    i = k + 1
    ratio = s * (p + dim + i) * (q + dim + i) / ((p + q + dim + i) * (i + 1))
    if ratio >= 1.0:
        return full
    return min(_radial_coeff(p, q, dim, i) * s**i / (1.0 - ratio), full)


def series_tail_bound(r: float, order: int, dim: int) -> float:
    """Upper bound for sum_{j > order} binom(j+dim-1, dim-1) r^j, 0 <= r < 1.

    The p = q = 0 case of _radial_tail: the geometric-majorant bound
    min(t_{order+1}/(1-q), full mass) with q = r (order+dim+1)/(order+2);
    monotone nonincreasing in the order.
    """
    if not 0.0 <= r < 1.0:
        raise DomainError(f"tail bound requires 0 <= r < 1, got {r}")
    return _radial_tail(0, 0, dim, r, order)


def cauchy_series(z, w, order: int) -> tuple[complex, KernelTruncation]:
    """Degree-grouped truncation of the Cauchy kernel series.

    Returns (sum_{j <= order} binom(j+n-1, n-1) <z, w>^j, truncation record);
    requires |z||w| < 1 so the full series converges absolutely.
    """
    zv, wv = _coords(z), _coords(w)
    if wv.ndim != 1:
        raise ValueError("cauchy_series takes single points")
    if order < 0:
        raise ValueError("order must be >= 0")
    n = zv.shape[0]
    r = float(np.linalg.norm(zv) * np.linalg.norm(wv))
    if r >= 1.0:
        raise DivergenceError(f"kernel series requires |z||w| < 1, got {r}")
    s = _pair_inner(zv, wv)
    total = 0.0 + 0.0j
    power = 1.0 + 0.0j
    for j in range(order + 1):
        total += math.comb(j + n - 1, n - 1) * power
        power *= s
    return total, KernelTruncation(order=order, tail_bound=series_tail_bound(r, order, n))
