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

from .errors import DivergenceError, DomainError, SingularityError
from .sphere import _coords, _norm_sq, _pair_inner, herm_inner, norm

SINGULARITY_GUARD = 1e-14


@dataclass(frozen=True)
class KernelTruncation:
    """Truncation order and a certified upper bound for the omitted series mass."""

    order: int
    tail_bound: float


def cauchy_kernel(z, w):
    """C(z, w) = (1 - <z, w>)^(-n); w may be a point or an (N, n) batch.

    Raises SingularityError when any pair comes within SINGULARITY_GUARD of
    the singular set <z, w> = 1 (float blowup must be an error, not an Inf).
    """
    zv = _coords(z)
    inner, batched = _pair_inner(zv, w)
    denom = 1.0 - inner
    if np.min(_norm_sq(denom[:, None])) <= SINGULARITY_GUARD ** 2:
        raise SingularityError("cauchy kernel evaluated too close to <z, w> = 1")
    out = denom ** (-zv.shape[0])
    return out if batched else complex(out[0])


def poisson_kernel(z, zeta):
    """P(z, zeta) = (1 - |z|^2)^n / |1 - <z, zeta>|^(2n); strictly positive.

    z must lie inside the open ball; zeta may be a point or an (N, n) batch
    of sphere points.
    """
    zv = _coords(z)
    inner, batched = _pair_inner(zv, zeta)
    n = zv.shape[0]
    norm_sq = float(_norm_sq(zv[None, :])[0])
    if norm_sq >= 1.0:
        raise DomainError(f"poisson kernel requires |z| < 1, got |z|^2 = {norm_sq}")
    # |1 - <z, zeta>|^(2n) as real products: numpy's power loop rounds differently at AVX-512
    dist_sq = _norm_sq((1.0 - inner)[:, None])
    out = (1.0 - norm_sq) ** n / math.prod([dist_sq] * n)
    return out if batched else float(out[0])


def _binom_coeff(dim: int, i):
    """binom(i+dim-1, dim-1) as a float product; i is an int or an integer array."""
    t = 1.0
    for k in range(1, dim):
        t = t * (i + k) / k
    return t


def series_tail_bound(r: float, order: int, dim: int) -> float:
    """Upper bound for sum_{j > order} binom(j+dim-1, dim-1) r^j, 0 <= r < 1.

    The geometric majorant of the module docstring, min(t_(order+1)/(1-q),
    full mass); monotone nonincreasing in the order.
    """
    if not 0.0 <= r < 1.0:
        raise DomainError(f"tail bound requires 0 <= r < 1, got {r}")
    try:
        full = (1.0 - r) ** (-dim)
    except OverflowError:
        full = math.inf
    if order < 0:
        return full
    if r == 0.0:
        return 0.0
    i = order + 1
    # (dim+i)^2 / ((dim+i)(i+1)) left unreduced: it fixes the bound's last bits
    ratio = r * (dim + i) * (dim + i) / ((dim + i) * (i + 1))
    if ratio >= 1.0:
        return full
    return min(_binom_coeff(dim, i) * r**i / (1.0 - ratio), full)


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
    r = norm(zv) * norm(wv)
    if r >= 1.0:
        raise DivergenceError(f"kernel series requires |z||w| < 1, got {r}")
    s = herm_inner(zv, wv)
    total = 0.0 + 0.0j
    power = 1.0 + 0.0j
    for j in range(order + 1):
        total += math.comb(j + n - 1, n - 1) * power
        power *= s
    return total, KernelTruncation(order=order, tail_bound=series_tail_bound(r, order, n))
