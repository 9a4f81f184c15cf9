"""The line-keyed exact core against its direct reference forms.

moment, inner_product, l2_norm_sq, cauchy_transform_poly and sweep visit
only the difference lines d = mu - nu of a polynomial, and all of them sum
in integers (the integer line kernel of polynomials); tests/reference_exact.py
keeps the forms that visit every term and every pair in Fractions, the scan
that tries every alpha against every line, the choice of the worst
violation by its exact Fraction gap, the ranking of a whole list of
violations weighted by a factorial, the decision's escalation loop, and the
line sums that decoded each index's multinomial from its radix code.
Exact arithmetic makes the comparison an identity, not a tolerance.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balltrace.exact import ComplexFraction
from balltrace.membership import (
    _check_budget,
    _line_sums,
    _scan,
    _worst_violation,
    is_boundary_trace,
    sweep,
    szego_residual,
)
from balltrace.multiindex import MultiIndex, _multinomial, graded_indices
from balltrace.polynomials import (
    HolomorphicPolynomial,
    SpherePolynomial,
    inner_product,
    l2_norm_sq,
    moment,
)
from balltrace.transforms import cauchy_transform_poly

from reference_exact import (
    reference_cauchy,
    reference_escalation,
    reference_inner_product,
    reference_line_sums,
    reference_moment,
    reference_scan,
    reference_sweep,
    reference_worst,
    reference_worst_pair,
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


# denominators far past the small ones above, so D and the kernel's lcm of
# multinomials are big integers
wide_rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**20)
wide_coeffs = st.builds(ComplexFraction, wide_rationals, wide_rationals)


@st.composite
def wide_polys(draw):
    dim = draw(st.integers(1, 4))
    pool = graded_indices(dim, draw(st.integers(0, 4)))
    terms = draw(
        st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool), wide_coeffs), max_size=8)
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


def existing_pairs(r, order):
    """Pairs (alpha, beta) with |alpha|, |beta| <= order and beta - alpha on a line of r, counted directly."""
    lines, indices = set(r.lines()), graded_indices(r.dim, order)
    return sum(tuple(b - a for a, b in zip(alpha, beta)) in lines for alpha in indices for beta in indices)


@given(st.one_of(polys(), wide_polys()), st.data())
@settings(max_examples=120, deadline=None)
def test_scan_walks_the_pairs_that_exist(f, data):
    r = f - cauchy_transform_poly(f)
    order = data.draw(st.integers(0, f.max_degree() + 2))
    assert _scan(r, order) == reference_scan(r, order)  # alpha, beta, s_re, s_im
    assert list(_line_sums(r, order)) == reference_line_sums(r, order)
    n = r.dim
    assert sum(math.comb(size + n, n) for *_, size in _check_budget(r, order)) == existing_pairs(r, order)


@st.composite
def sparse_residuals(draw):
    """(r, order): the residual of up to 4 terms zeta^mu conj(zeta)^nu, nu != 0 and mu != nu, in
    n = 50 or 300, on 4 of the variables, with mu = nu + extra where mu dominates nu (a B line),
    at an order up to 3 in n = 50 and at order 2 in n = 300.  With no line d = 0, every box
    holds at most C(order - 1 + n, n) pairs."""
    n = draw(st.sampled_from((50, 300)))
    variables = st.sampled_from((0, 1, n // 2, n - 1))
    term = st.tuples(st.lists(variables, max_size=2), st.lists(variables, min_size=1, max_size=2),
                     st.booleans(), coeffs)

    def index(parts):
        out = [0] * n
        for k in parts:
            out[k] += 1
        return MultiIndex(out)

    terms = {}
    for extra, nu, dominates, c in draw(st.lists(term, min_size=1, max_size=4)):
        mu = index(extra + nu if dominates else extra)
        if mu != index(nu):
            terms[mu, index(nu)] = c
    f = SpherePolynomial(n, terms)
    return f - cauchy_transform_poly(f), draw(st.integers(1, 3)) if n == 50 else 2


def test_line_sums_weigh_an_unmet_beta():
    # f = |zeta_1|^4 / 2 - |zeta_1 zeta_2|^2 - zeta_1^3 conj(zeta_2)^3: on the line d = 0 of r a
    # violated pair's beta is an index that no term of the line meets, so c takes its own multinomial
    f = SpherePolynomial(2, {
        (MultiIndex((2, 0)), MultiIndex((2, 0))): ComplexFraction(Fraction(1, 2)),
        (MultiIndex((1, 1)), MultiIndex((1, 1))): ComplexFraction(-1),
        (MultiIndex((3, 0)), MultiIndex((0, 3))): ComplexFraction(-1),
    })
    r = f - cauchy_transform_poly(f)
    assert list(_line_sums(r, 5)) == reference_line_sums(r, 5)


@given(sparse_residuals())
@settings(max_examples=60, deadline=None)
def test_line_sums_match_the_radix_decoder_in_high_dimension(case):
    r, order = case
    assert list(_line_sums(r, order)) == reference_line_sums(r, order)


@given(st.one_of(polys(), wide_polys()), st.data())
@settings(max_examples=120, deadline=None)
def test_running_worst_matches_ranked_list(f, data):
    r = f - cauchy_transform_poly(f)
    order = data.draw(st.integers(0, f.max_degree() + 2))
    assert _worst_violation(r, order) == reference_worst_pair(r, order)
    cert = is_boundary_trace(f, sweep_order=order)
    if not cert.member:
        assert (cert.violation.alpha, cert.violation.beta) == reference_worst_pair(r, cert.violation_order)


def reference_size(v):
    """|s|^2 c of a scanned violation: c = multinomial(beta)^2 when beta dominates alpha (B), else 1."""
    alpha, beta, s_re, s_im = v
    return (s_re * s_re + s_im * s_im) * (_multinomial(beta) ** 2 if beta.dominates(alpha) else 1)


@pytest.mark.parametrize(
    "n, terms, order, worst",
    [
        # conj(zeta_1) + conj(zeta_1)^2: |s| = 1 at every pair; the second line visited has the first alpha
        (1, {((0,), (1,)): 1, ((0,), (2,)): 1}, 3, ((1,), (0,))),
        # conj(zeta_1) + 3 zeta_2 conj(zeta_1): s = 6 at the first pair of both lines, alpha (1, 0)
        (2, {((0, 0), (1, 0)): 1, ((0, 1), (1, 0)): 3}, 2, ((1, 0), (0, 0))),
        # zeta_1 |zeta_2|^2 + 8/15 conj(zeta_1): gap 4/15 for A at ((1, 0), 0) and B at ((0, 2), (1, 2))
        (2, {((1, 1), (0, 1)): 1, ((0, 0), (1, 0)): Fraction(8, 15)}, 3, ((1, 0), (0, 0))),
        # with 16/15 conj(zeta_2)^3 instead, the tied A pair ((0, 3), 0) comes after the B pair
        (2, {((1, 1), (0, 1)): 1, ((0, 0), (0, 3)): Fraction(16, 15)}, 3, ((0, 2), (1, 2))),
    ],
)
def test_ties_go_to_the_first_pair(n, terms, order, worst):
    f = SpherePolynomial(n, terms)
    r = f - cauchy_transform_poly(f)
    violations = _scan(r, order)
    top = max(map(reference_size, violations))
    tied_lines = {tuple(b - a for a, b in zip(v[0], v[1])) for v in violations if reference_size(v) == top}
    assert len(tied_lines) == 2
    assert _worst_violation(r, order) == reference_worst_pair(r, order) == worst
    cert = is_boundary_trace(f, sweep_order=order)
    assert (cert.violation.alpha, cert.violation.beta) == worst and cert.violation_order == order


@given(polys(), st.one_of(st.none(), st.integers(0, 5)))
@settings(max_examples=80, deadline=None)
def test_worst_violation_matches_reference(f, sweep_order):
    cert = is_boundary_trace(f, sweep_order=sweep_order)
    if cert.member:
        assert cert.violation is None
    else:
        assert cert.violation == reference_worst(reference_sweep(f, cert.violation_order))


@given(st.one_of(polys(), wide_polys()))
@settings(max_examples=120, deadline=None)
def test_lowest_violated_order_is_that_of_the_components(f):
    # r is the sum of f's H(p,q) components with q >= 1: the lowest order with a
    # violated pair is N* = min max(p, q) over them
    r = f - cauchy_transform_poly(f)
    residual_components = [max(p, q) for p, q in f.harmonics() if q >= 1]
    assert (l2_norm_sq(r) == 0) == (not residual_components)
    if residual_components:
        lowest = next(order for order in range(f.max_degree() + 2) if _scan(r, order))
        assert lowest == min(residual_components)


@given(st.one_of(polys(), wide_polys()))
@settings(max_examples=80, deadline=None)
def test_decision_matches_the_escalation_loop(f):
    for order in range(f.max_degree() + 3):
        assert is_boundary_trace(f, sweep_order=order).to_json_dict() == reference_escalation(f, order)


@pytest.mark.parametrize(
    "m, order",
    # conj(zeta_1)^m in n = 1 has N* = m: the loop's last scan from order 0 is at 126,
    # so m = 127, 128 and 140 reach the fallback to m + 1
    [(125, 0), (126, 0), (127, 0), (127, 1), (128, 0), (128, 1), (140, 0), (140, 13), (140, 141)],
)
def test_escalation_cap_matches_the_loop(m, order):
    f = SpherePolynomial.monomial(1, (0,), (m,))
    assert is_boundary_trace(f, sweep_order=order).to_json_dict() == reference_escalation(f, order)


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


@given(st.one_of(polys(), wide_polys()))
@settings(max_examples=80, deadline=None)
def test_cauchy_matches_term_rule(f):
    assert cauchy_transform_poly(f) == reference_cauchy(f)


@given(st.one_of(polys(), wide_polys()))
@settings(max_examples=80, deadline=None)
def test_norm_matches_reference(f):
    assert l2_norm_sq(f) == reference_inner_product(f, f).re


def test_coprime_large_denominators():
    p, q = 2**61 - 1, 2**89 - 1  # Mersenne primes
    f = SpherePolynomial(
        3,
        {
            ((2, 1, 0), (1, 0, 0)): ComplexFraction(Fraction(1, p), Fraction(-3, q)),
            ((1, 0, 0), (0, 0, 0)): ComplexFraction(Fraction(5, q)),
            ((0, 1, 2), (0, 0, 1)): ComplexFraction(0, Fraction(7, p * q)),
            ((0, 0, 0), (0, 2, 1)): ComplexFraction(Fraction(-2, 3), Fraction(1, p)),
        },
    )
    assert f._den == 3 * p * q
    # on f's lines, with other large denominators
    g = SpherePolynomial(3, {
        key: ComplexFraction(Fraction(k + 1, 2**31 - 1), Fraction(-k, 2**107 - 1))
        for k, key in enumerate(f.terms)
    })
    assert l2_norm_sq(f) == reference_inner_product(f, f).re > 0
    assert inner_product(f, g) == reference_inner_product(f, g)
    assert inner_product(g, f) == reference_inner_product(g, f)
    assert cauchy_transform_poly(f) == reference_cauchy(f)
    for alpha in graded_indices(3, 2):
        for beta in graded_indices(3, 3):
            assert moment(f, alpha, beta) == reference_moment(f, alpha, beta)
    cert = is_boundary_trace(f)
    assert not cert.member
    assert cert.violation == reference_worst(reference_sweep(f, cert.violation_order))


def test_zero_polynomial():
    zero = SpherePolynomial.zero(3)
    alpha, beta = MultiIndex((1, 0, 0)), MultiIndex((0, 0, 1))
    assert zero._den == 1
    assert moment(zero, alpha, beta) == 0
    assert inner_product(zero, zero) == 0
    assert l2_norm_sq(zero) == 0
    assert cauchy_transform_poly(zero) == HolomorphicPolynomial.zero(3)
    cert = is_boundary_trace(zero)
    assert cert.member and cert.residual_sq == 0
    assert cert.witness_extension == HolomorphicPolynomial.zero(3)
    assert sweep(zero, 3) == []


def test_disguised_member_has_zero_residual_and_its_witness():
    # g + q * (|zeta|^2 - 1) equals g on the sphere
    g = HolomorphicPolynomial(
        3, {(1, 0, 0): Fraction(2, 7), (0, 2, 1): ComplexFraction(0, Fraction(-5, 11)), (0, 0, 0): 3}
    )
    q = SpherePolynomial(
        3,
        {
            ((1, 1, 0), (0, 0, 2)): ComplexFraction(Fraction(1, 13), Fraction(4, 9)),
            ((0, 0, 0), (2, 0, 0)): ComplexFraction(Fraction(-3, 5)),
            ((2, 0, 1), (1, 0, 1)): ComplexFraction(0, Fraction(1, 17)),
        },
    )
    shell = SpherePolynomial(
        3, {(MultiIndex.unit(3, k), MultiIndex.unit(3, k)): 1 for k in range(3)}
    )
    f = g.restrict_to_sphere() + q * (shell - SpherePolynomial.one(3))
    assert len(f.terms) > len(g.terms)
    residual_sq, witness = szego_residual(f)
    assert residual_sq == 0 and witness == g
    cert = is_boundary_trace(f)
    assert cert.member and cert.residual_sq == 0 and cert.witness_extension == g
    assert sweep(f, f.max_degree() + 1) == []
