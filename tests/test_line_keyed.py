"""The line-keyed exact core against its direct reference forms.

moment, inner_product and sweep visit only the difference lines
d = mu - nu of a polynomial, and sweep and is_boundary_trace test the
conditions in integers; tests/reference_exact.py keeps the forms that visit
every term and every pair in Fractions, and the choice of the worst
violation by its exact Fraction gap.  Exact arithmetic makes the comparison
an identity, not a tolerance.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from balltrace.exact import ComplexFraction
from balltrace.membership import is_boundary_trace, sweep, szego_residual
from balltrace.multiindex import graded_indices
from balltrace.polynomials import SpherePolynomial, inner_product, l2_norm_sq, moment

from reference_exact import (
    reference_inner_product,
    reference_moment,
    reference_sweep,
    reference_worst,
)

# unrelated denominators per term (the integer scan's D is a real lcm), exact
# zero parts, real and purely imaginary coefficients
rationals = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-2, max_value=2, max_denominator=12)
)
coeffs = st.one_of(
    st.builds(ComplexFraction, rationals, rationals),
    st.builds(ComplexFraction, rationals),
    st.builds(lambda im: ComplexFraction(0, im), rationals),
)


@st.composite
def polys(draw, dim=None, max_degree=None):
    dim = draw(st.integers(1, 4)) if dim is None else dim
    max_degree = draw(st.integers(0, 3)) if max_degree is None else max_degree
    pool = graded_indices(dim, max_degree)
    terms = draw(
        st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool), coeffs), max_size=6)
    )
    return SpherePolynomial(dim, {(mu, nu): c for mu, nu, c in terms})


@st.composite
def poly_pairs(draw):
    dim = draw(st.integers(1, 4))
    max_degree = draw(st.integers(0, 3))
    return draw(polys(dim, max_degree)), draw(polys(dim, max_degree))


@given(polys(), st.data())
@settings(max_examples=60, deadline=None)
def test_moment_matches_reference(f, data):
    pool = graded_indices(f.dim, f.max_degree() + 2)
    for _ in range(10):
        alpha = data.draw(st.sampled_from(pool))
        beta = data.draw(st.sampled_from(pool))
        assert moment(f, alpha, beta) == reference_moment(f, alpha, beta)


@given(poly_pairs())
@settings(max_examples=60, deadline=None)
def test_inner_product_matches_reference(pair):
    f, g = pair
    assert inner_product(f, g) == reference_inner_product(f, g)
    assert l2_norm_sq(f) == reference_inner_product(f, f).re


@given(polys(), st.data())
@settings(max_examples=80, deadline=None)
def test_sweep_matches_reference(f, data):
    order = data.draw(st.integers(0, f.max_degree() + 2))
    assert sweep(f, order) == reference_sweep(f, order)


@given(polys(), st.one_of(st.none(), st.integers(0, 5)))
@settings(max_examples=80, deadline=None)
def test_worst_violation_matches_reference(f, sweep_order):
    cert = is_boundary_trace(f, sweep_order=sweep_order)
    if cert.member:
        assert cert.violation is None
    else:
        assert cert.violation == reference_worst(reference_sweep(f, cert.violation_order))


@given(polys())
@settings(max_examples=60, deadline=None)
def test_nonmember_violated_at_max_degree_plus_one(f):
    residual_sq, _ = szego_residual(f)
    if residual_sq > 0:
        assert sweep(f, f.max_degree() + 1)


def test_lines_group_terms_by_difference():
    f = SpherePolynomial(
        2,
        {
            ((1, 0), (0, 0)): ComplexFraction(1),
            ((2, 1), (1, 1)): ComplexFraction(Fraction(1, 2)),
            ((0, 0), (0, 1)): ComplexFraction(0, 1),
        },
    )
    lines = f.lines()
    assert set(lines) == {(1, 0), (0, -1)}
    assert len(lines[(1, 0)]) == 2 and len(lines[(0, -1)]) == 1
    assert f.lines() is lines  # built once
