"""Reference routes for the Poisson series and the radial scan, kept for equivalence tests.

reference_profile is a mixed component's cut profile (transforms' module
docstring) in exact rational arithmetic: t_0 from Gauss's value, the ratio
recurrence, and the powers of a rational s.  reference_profile_eval sums
f's components with it, so poisson_series_eval must agree with it at every
cut to float rounding.

reference_poisson_series is the route poisson_series_eval took before it
cut each component's own profile: the truncated moment expansion, every
f-term (mu, nu) on its own.  A term with mu = 0 or nu = 0 collapses to the
binomial series G_(order - |mu| - |nu|)(|z|^2); a mixed term enumerates
every eta of transforms._mixed_term_plan and sums q_eta x^eta,
x_k = |z_k|^2.  The normalizer is G_order(|z|^2).  reference_series_tail is
that route's certified tail bound.  Both routes converge to P[f], so at any
cuts they agree within the sum of their certified tails.

reference_radial_rows is the route radial_scan took before it evaluated f's
components once per sample batch: poisson_series_eval on r * batch at every
radius, each call building its own power tables and series sums.
"""

import math
from fractions import Fraction

import numpy as np

from balltrace.sphere import monomial_eval
from balltrace.transforms import (
    RadialScanRow,
    _lp_estimate,
    _mixed_term_plan,
    choose_poisson_order,
    poisson_series_eval,
)


def reference_profile(p, q, dim, s, cut):
    """sum_{i<=cut} t_i s^i for the rational s, exactly: phi_pq cut after t_cut."""
    t = Fraction(math.comb(p + dim - 1, p), math.comb(p + q + dim - 1, p))
    total, power = Fraction(0), Fraction(1)
    for i in range(cut + 1):
        total += t * power
        t *= Fraction((p + i) * (q + i), (p + q + dim + i) * (i + 1))
        power *= s
    return total


def reference_profile_eval(f, z, cut):
    """sum over f's components h in H(p,q) of the exact cut profile at |z|^2 times h(z)."""
    Z = np.atleast_2d(np.asarray(z, dtype=np.complex128))
    out = np.zeros(Z.shape[0], dtype=np.complex128)
    for k, row in enumerate(Z):
        s = sum(Fraction(x.real) ** 2 + Fraction(x.imag) ** 2 for x in row)  # |z|^2 of the floats, exactly
        for (p, q), h in f.harmonics().items():
            out[k] += float(reference_profile(p, q, f.dim, s, cut)) * complex(h.eval(row))
    return out if np.ndim(z) == 2 else complex(out[0])


def _partial_binomial_sum(s, order, dim):
    total = np.zeros_like(s)
    for j in range(order + 1):
        total = total + math.comb(j + dim - 1, dim - 1) * s**j
    return total


def reference_poisson_series(f, z, order):
    Z = np.atleast_2d(np.asarray(z, dtype=np.complex128))
    x = np.abs(Z) ** 2
    s = np.sum(x, axis=1)
    total = np.zeros(Z.shape[0], dtype=np.complex128)
    for (mu, nu), coeff in f.terms.items():
        if mu.degree and nu.degree:
            delta_plus, delta_minus, etas, qs = _mixed_term_plan(mu, nu, order)
            acc = np.zeros(Z.shape[0])
            for eta, q in zip(etas, qs):
                acc = acc + q * np.prod(x ** np.array(eta, dtype=float), axis=1)
            total = total + complex(coeff) * monomial_eval(Z, delta_plus, delta_minus) * acc
        else:
            series = _partial_binomial_sum(s, order - mu.degree - nu.degree, f.dim)
            total = total + complex(coeff) * monomial_eval(Z, mu, nu) * series
    result = total / _partial_binomial_sum(s, order, f.dim)
    return result if np.ndim(z) == 2 else complex(result[0])


def _moment_series_tail(p, q, dim, s, k):
    """Bound for sum_{i>k} u_i s^i, u_i the H(p,q) coefficients of the truncated moment expansion.

    u_0 = (p+n-1)!(q+n-1)!/((p+q+n-1)!(n-1)!) and u_(i+1)/u_i =
    (p+n+i)(q+n+i)/((p+q+n+i)(i+1)), a ratio nonincreasing in i, so past k
    the terms shrink at least geometrically with rho = s ratio(k+1); the
    whole series is at most (1-s)^(-n), the fallback.
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
    u = math.comb(i + dim - 1, dim - 1)
    for j in range(min(p, q)):
        u = u * (i + dim + j) / (i + dim + max(p, q) + j)
    return min(u * s**i / (1.0 - ratio), full)


def reference_series_tail(f, radius, order):
    """Certified bound on |P[f](z) - reference_poisson_series(f, z, order)| for |z| <= radius."""
    n, s = f.dim, radius * radius
    numer_tail = value_bound = 0.0
    for (p, q), mass in f._harmonic_masses().items():
        size = mass * radius ** (p + q)
        numer_tail += size * _moment_series_tail(p, q, n, s, order - max(p, q))
        value_bound += size
    return (1.0 - s) ** n * (numer_tail + value_bound * _moment_series_tail(0, 0, n, s, order))


def reference_radial_rows(f, p, radii, sampler, n_samples):
    batch = sampler.sample_batch(n_samples)
    boundary = f.eval(batch)
    rows = []
    for r in radii:
        slice_vals = poisson_series_eval(f, r * batch, choose_poisson_order(f, r))
        err, err_se = _lp_estimate(slice_vals - boundary, p)
        norm_r, _ = _lp_estimate(slice_vals, p)
        rows.append(RadialScanRow(float(r), float(p), err, err_se, norm_r, n_samples, sampler.seed))
    return rows
