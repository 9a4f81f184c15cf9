"""The term-by-term Poisson series and the per-radius radial scan, kept for equivalence tests.

This is the route poisson_series_eval took before it summed through H(p,q)
components: every f-term (mu, nu) on its own.  A term with mu = 0 or nu = 0
collapses to the binomial series G_(order - |mu| - |nu|)(|z|^2); a mixed
term enumerates every eta of transforms._mixed_term_plan and sums
q_eta x^eta, x_k = |z_k|^2.  The normalizer is G_order(|z|^2).  It is slow
(the eta enumeration grows like order^n) and direct; the tests require the
library to agree with it to float rounding.

reference_radial_rows is the route radial_scan took before it evaluated f's
components once per sample batch: poisson_series_eval on r * batch at every
radius, each call building its own power tables and series sums.
"""

import math

import numpy as np

from balltrace.sphere import monomial_eval
from balltrace.transforms import (
    RadialScanRow,
    _lp_estimate,
    _mixed_term_plan,
    choose_poisson_order,
    poisson_series_eval,
)


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
