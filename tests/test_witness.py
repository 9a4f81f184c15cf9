"""A holomorphic polynomial is the sphere polynomial with every nu = 0.

Every routine that takes a SpherePolynomial must give exactly the same
result on a witness g as on g.restrict_to_sphere(): the same exact values,
the same float bits, and the same term order.
"""

import numpy as np
import pytest

from balltrace.generators import random_holomorphic_poly, random_sphere_poly
from balltrace.membership import is_boundary_trace
from balltrace.multiindex import graded_indices
from balltrace.polynomials import (
    HolomorphicPolynomial,
    SpherePolynomial,
    inner_product,
    l2_norm_sq,
    moment,
)
from balltrace.sphere import SphereSampler
from balltrace.transforms import cauchy_transform_poly, poisson_series_eval


def _canon(value):
    """A comparable rendering: float results by their bytes, polynomials by ordered terms."""
    if isinstance(value, (complex, float, np.ndarray)):
        return np.asarray(value, dtype=np.complex128).tobytes()
    if isinstance(value, SpherePolynomial):
        return value.dim, list(value.terms.items())
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def _points(dim):
    return 0.8 * SphereSampler(dim, 5).sample_batch(40)


CALLS = {
    "moment": lambda p, h: [
        moment(p, a, b) for a in graded_indices(p.dim, 2) for b in graded_indices(p.dim, 3)
    ],
    "l2_norm_sq": lambda p, h: l2_norm_sq(p),
    "inner_product": lambda p, h: [inner_product(p, h), inner_product(h, p), inner_product(p, p)],
    "cauchy_transform_poly": lambda p, h: cauchy_transform_poly(p),
    "poisson_series_eval": lambda p, h: [
        poisson_series_eval(p, z, order) for order in (0, 3, 8) for z in (_points(p.dim), _points(p.dim)[0])
    ],
    "is_boundary_trace": lambda p, h: is_boundary_trace(p),
    "eval": lambda p, h: [p.eval(_points(p.dim)), p.eval(_points(p.dim)[1])],
    "ring": lambda p, h: [p + h, h + p, p - h, h - p, p * h, h * p, p + p, p * p, -p],
    "lines": lambda p, h: dict(p.lines()),
    "max_degree": lambda p, h: p.max_degree(),
    "one_zero": lambda p, h: [type(p).one(p.dim), type(p).zero(p.dim)],
}


@pytest.mark.parametrize("call", sorted(CALLS))
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_witness_acts_as_its_restriction(dim, call):
    rng = np.random.Generator(np.random.Philox(key=np.array([dim, 404], dtype=np.uint64)))
    g = random_holomorphic_poly(rng, dim, 3, n_terms=5)
    h = random_sphere_poly(rng, dim, 2, n_terms=3)
    f = g.restrict_to_sphere()
    assert isinstance(g, HolomorphicPolynomial) and type(f) is SpherePolynomial
    assert _canon(CALLS[call](g, h)) == _canon(CALLS[call](f, h))


def test_witness_equals_its_restriction():
    g = HolomorphicPolynomial(2, {(1, 0): 2, (0, 1): 3})
    assert g == g.restrict_to_sphere() and hash(g) == hash(g.restrict_to_sphere())
    with pytest.raises(AttributeError, match="HolomorphicPolynomial is immutable"):
        g.dim = 3
