import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balltrace.errors import DimensionMismatchError, EvaluationError, PreconditionError, SchemaError
from balltrace.exact import ComplexFraction
from balltrace.generators import random_sphere_poly
from balltrace.membership import is_boundary_trace
from balltrace.multiindex import MultiIndex, graded_indices
from balltrace import sphere
from balltrace.polynomials import (
    HolomorphicPolynomial,
    SpherePolynomial,
    inner_product,
    l2_norm_sq,
    laplacian,
    mc_moment,
    moment,
    monomial_integral,
)
from balltrace.sphere import CHUNK_DRAWS, SphereSampler, mean_and_stderr, monomial_eval

from reference_exact import (
    reference_add,
    reference_conjugate,
    reference_eval,
    reference_laplacian,
    reference_masses,
    reference_mul,
    reference_neg,
    reference_scale,
    reference_sub,
)

MI = MultiIndex


def mono(dim, mu, nu, coeff=1):
    return SpherePolynomial.monomial(dim, mu, nu, coeff)


rationals = st.fractions(min_value=-2, max_value=2, max_denominator=4)
coeffs = st.builds(ComplexFraction, rationals, rationals)


def sphere_polys(dim=2, max_degree=2, max_terms=3):
    pool = graded_indices(dim, max_degree)
    term = st.tuples(st.sampled_from(pool), st.sampled_from(pool), coeffs)
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda ts: SpherePolynomial(dim, {(m, n): c for m, n, c in ts})
    )


class TestMonomialIntegral:
    def test_unit_square_exponents(self):
        assert monomial_integral(MI((1, 1)), MI((1, 1))) == Fraction(1, 6)

    def test_distinct_indices_vanish(self):
        assert monomial_integral(MI((1, 0)), MI((0, 1))) == 0

    def test_zero_index_total_mass(self):
        assert monomial_integral(MI((0, 0)), MI((0, 0))) == 1
        assert monomial_integral(MI((0,)), MI((0,))) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            monomial_integral(MI((1, 0)), MI((1,)))


class TestMoment:
    def test_counterexample_moments(self):
        f = mono(2, (1, 1), (1, 1))
        assert moment(f, MI((1, 1)), MI((1, 1))) == ComplexFraction(Fraction(1, 30))
        assert moment(f, MI((0, 0)), MI((0, 0))) == ComplexFraction(Fraction(1, 6))
        assert moment(f, MI((1, 0)), MI((0, 0))) == ComplexFraction(0)

    @given(sphere_polys(), sphere_polys())
    @settings(max_examples=30)
    def test_linearity(self, f, g):
        a, b = MI((1, 0)), MI((0, 1))
        assert moment(f + g, a, b) == moment(f, a, b) + moment(g, a, b)

    @given(sphere_polys())
    @settings(max_examples=30)
    def test_conjugation_identity(self, f):
        a, b = MI((1, 1)), MI((0, 2))
        assert moment(f.conjugate(), a, b) == moment(f, b, a).conjugate()


class TestInnerProduct:
    def test_against_constant(self):
        # <|z1|^2, 1> = norm_sq((1,0)) = 1/2
        assert inner_product(mono(2, (1, 0), (1, 0)), SpherePolynomial.one(2)) == ComplexFraction(Fraction(1, 2))

    def test_mixed_moduli(self):
        # <|z1|^2, |z2|^2> = norm_sq((1,1)) = 1/6
        f, g = mono(2, (1, 0), (1, 0)), mono(2, (0, 1), (0, 1))
        assert inner_product(f, g) == ComplexFraction(Fraction(1, 6))

    def test_distinct_holomorphic_monomials_orthogonal(self):
        f, g = mono(2, (2, 0), (0, 0)), mono(2, (1, 1), (0, 0))
        assert inner_product(f, g) == ComplexFraction(0)

    @given(sphere_polys(), sphere_polys())
    @settings(max_examples=30)
    def test_hermitian(self, f, g):
        assert inner_product(f, g) == inner_product(g, f).conjugate()


class TestL2Norm:
    def test_constant(self):
        assert l2_norm_sq(SpherePolynomial.one(2)) == 1

    def test_antiholomorphic_coordinate(self):
        assert l2_norm_sq(mono(2, (0, 0), (1, 0))) == Fraction(1, 2)

    def test_sphere_relation_vanishes(self):
        # |z1|^2 + |z2|^2 - 1 is 0 a.e. on the sphere:
        # Gram expansion 1/3 + 1/3 + 2*(1/6) - 2*(1/2) - 2*(1/2) + 1 = 0
        f = mono(2, (1, 0), (1, 0)) + mono(2, (0, 1), (0, 1)) - SpherePolynomial.one(2)
        assert l2_norm_sq(f) == 0
        assert not f.is_zero()  # formal terms kept; equality is metric

    @given(sphere_polys())
    @settings(max_examples=30)
    def test_nonnegative(self, f):
        assert l2_norm_sq(f) >= 0


class TestEval:
    def test_coordinate(self):
        assert mono(2, (1, 0), (0, 0)).eval(np.array([1.0, 0.0])) == 1

    def test_sphere_relation_numerically(self, sampler2):
        f = mono(2, (1, 0), (1, 0)) + mono(2, (0, 1), (0, 1))
        vals = f.eval(sampler2.sample_batch(100))
        assert np.max(np.abs(vals - 1)) <= 1e-10

    def test_zero_polynomial(self):
        assert SpherePolynomial.zero(2).eval(np.array([0.3, 0.4j])) == 0

    def test_batch_matches_pointwise(self, sampler2):
        f = mono(2, (2, 1), (0, 1), ComplexFraction(1, 2)) + mono(2, (0, 0), (1, 0))
        batch = sampler2.sample_batch(4)
        vals = f.eval(batch)
        for i in range(4):
            assert vals[i] == pytest.approx(f.eval(batch[i]))


class TestAlgebra:
    def test_product_adds_exponents(self):
        f = mono(2, (1, 0), (1, 0)) * mono(2, (0, 1), (0, 1))
        assert f.terms == {(MI((1, 1)), MI((1, 1))): ComplexFraction(1)}

    def test_conjugate_swaps_indices(self):
        f = mono(2, (1, 0), (0, 1), ComplexFraction(0, 1))
        assert f.conjugate().terms == {(MI((0, 1)), MI((1, 0))): ComplexFraction(0, -1)}

    def test_cancellation_drops_terms(self):
        f = mono(2, (1, 0), (0, 0))
        assert (f - f).is_zero()

    def test_term_merging_in_constructor(self):
        f = SpherePolynomial(2, {(MI((1, 0)), MI((0, 0))): ComplexFraction(1)})
        g = f + mono(2, (1, 0), (0, 0), ComplexFraction(-1))
        assert g.is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mono(2, (1, 0), (0, 0)) + mono(3, (1, 0, 0), (0, 0, 0))

    def test_non_integer_exponents_raise(self):
        # read as int(1.9) = 1, these two keys would merge into 2 zeta_1
        with pytest.raises(TypeError):
            SpherePolynomial(2, {((1.9, 0), (0, 0)): 1, ((1, 0), (0, 0)): 1})
        # read as int(0.5) = 0, conj(zeta_1)^0.5 would be the constant 1, a member
        with pytest.raises(TypeError):
            is_boundary_trace(mono(2, (0, 0), (0.5, 0)))


@st.composite
def poly_pairs(draw):
    dim = draw(st.integers(1, 4))
    return draw(sphere_polys(dim, max_terms=4)), draw(sphere_polys(dim, max_terms=4))


def stored_den(f):
    return f._den


def terms_lcm(f):
    """The lcm of the reduced denominators of f's coefficients (1 for no terms)."""
    return math.lcm(*(q.denominator for c in f.terms.values() for q in (c.re, c.im)))


class TestStoredForm:
    """A polynomial is stored once, as Gaussian integers over the lcm D of its denominators."""

    @given(poly_pairs(), st.one_of(st.integers(-3, 3), rationals, coeffs))
    @settings(max_examples=100, deadline=None)
    def test_ring_operations_match_term_by_term_references(self, pair, factor):
        f, g = pair
        cases = [
            (f + g, reference_add(f, g)),
            (f - g, reference_sub(f, g)),
            (-f, reference_neg(f)),
            (f * g, reference_mul(f, g)),
            (f.scale(factor), reference_scale(f, factor)),
            (f.conjugate(), reference_conjugate(f)),
            (laplacian(f * g), reference_laplacian(f * g)),
        ]
        for got, want in cases:
            # the same terms in the same order: the float side sums in this order
            assert list(got.terms.items()) == list(want.items())
            assert stored_den(got) == terms_lcm(got)
            built = SpherePolynomial(f.dim, want)
            assert got == built and hash(got) == hash(built)

    @given(poly_pairs())
    @settings(max_examples=100, deadline=None)
    def test_equal_exactly_when_terms_are_equal(self, pair):
        f, g = pair
        zero = SpherePolynomial.zero(f.dim)
        for a, b in [(f, g), (f + g - g, f), (f * g, g * f), (f - f, zero), (f.conjugate().conjugate(), f)]:
            assert (a == b) == (a.terms == b.terms)
            if a == b:
                assert hash(a) == hash(b)
        assert stored_den(f) == terms_lcm(f)

    def test_cancelled_denominators_reduce(self):
        half = mono(2, (1, 0), (0, 0), Fraction(1, 2))
        assert stored_den(half) == 2
        assert stored_den(half + half) == 1 and half + half == mono(2, (1, 0), (0, 0))
        f = mono(2, (1, 0), (0, 1), ComplexFraction(Fraction(1, 6), Fraction(-3, 4)))
        assert stored_den(f) == 12
        assert stored_den(f - f) == 1 and (f - f).is_zero() and f - f == SpherePolynomial.zero(2)
        assert stored_den(f.scale(12)) == 1 and stored_den(f.scale(0)) == 1
        assert stored_den(SpherePolynomial.zero(2)) == 1

    def test_inexact_scalar_is_refused(self):
        with pytest.raises(TypeError):
            mono(2, (1, 0), (0, 0)).scale(0.5)


class TestFloatView:
    """The float side rounds each stored coefficient once, as complex(ComplexFraction) does."""

    P, Q = 2**61 - 1, 2**89 - 1  # Mersenne primes, coprime to each other and to 3 and 5

    def poly(self):
        # D = 3 5^40 P Q has 245 bits and no exact float, so rounding the
        # parts and D apart before dividing changes several of these values
        p, q = self.P, self.Q
        return SpherePolynomial(3, {
            ((2, 1, 0), (1, 0, 0)): ComplexFraction(Fraction(3**70, p), Fraction(-(5**50), q)),
            ((1, 0, 0), (0, 0, 0)): ComplexFraction(Fraction(7**50, q)),
            ((0, 1, 2), (0, 0, 1)): ComplexFraction(Fraction(1, 3), Fraction(11**60, p * q)),
            ((1, 1, 0), (0, 1, 1)): ComplexFraction(Fraction(-(13**40), p * q), Fraction(1, p)),
            ((0, 0, 0), (0, 2, 1)): ComplexFraction(Fraction(-2, 3), Fraction(17**40, p)),
            ((0, 0, 1), (1, 1, 0)): ComplexFraction(Fraction(2**100 + 1, 5**40), Fraction(1, 3)),
        })

    def test_eval_matches_complex_of_each_coefficient(self):
        f = self.poly()
        Z = 0.9 * SphereSampler(3, seed=61).sample_batch(64)
        assert f.eval(Z).tobytes() == reference_eval(f, Z).tobytes()
        assert f.eval(Z[5]) == reference_eval(f, Z[5:6])[0]

    def test_harmonic_masses_match_float_of_each_abs_sq(self):
        f = self.poly()
        got, want = f._harmonic_masses(), reference_masses(f)
        assert list(got) == list(want) and len(got) > 2
        assert [x.hex() for x in got.values()] == [x.hex() for x in want.values()]


class TestMCMoment:
    def test_constant_integrand_exact(self, sampler2):
        est = mc_moment(lambda Z: np.ones(len(Z)), MI((0, 0)), MI((0, 0)), sampler2, 100)
        assert est.value == 1 and est.stderr == 0

    def test_moduli_product_matches_exact(self):
        # integral |z1 z2|^2 = norm_sq((1,1)) = 1/6
        s = SphereSampler(2, 99)
        g = lambda Z: (np.abs(Z[:, 0]) * np.abs(Z[:, 1])) ** 2
        est = mc_moment(g, MI((0, 0)), MI((0, 0)), s, 200_000)
        assert est.within(1 / 6)

    def test_coordinate_mean_vanishes(self):
        s = SphereSampler(2, 98)
        est = mc_moment(lambda Z: Z[:, 0], MI((0, 0)), MI((0, 0)), s, 200_000)
        assert est.within(0)

    def test_matches_exact_moment_for_random_poly(self):
        f = (
            mono(2, (1, 1), (0, 1), ComplexFraction(2, -1))
            + mono(2, (0, 0), (2, 0), ComplexFraction(Fraction(1, 3)))
            + SpherePolynomial.one(2)
        )
        alpha, beta = MI((1, 0)), MI((0, 1))
        s = SphereSampler(2, 97)
        est = mc_moment(lambda Z: f.eval(Z), alpha, beta, s, 200_000)
        exact = complex(moment(f, alpha, beta))
        assert est.within(exact)

    def test_nonfinite_integrand_reports_point(self, sampler2):
        def bad(Z):
            out = np.ones(len(Z), dtype=complex)
            out[3] = np.nan
            return out

        with pytest.raises(EvaluationError) as err:
            mc_moment(bad, MI((0, 0)), MI((0, 0)), sampler2, 10)
        assert err.value.point is not None

    @pytest.mark.parametrize(
        "n_samples",
        [2, sphere._BLOCK_ROWS - 1, sphere._BLOCK_ROWS, sphere._BLOCK_ROWS + 1, CHUNK_DRAWS + 3],
    )
    def test_streamed_blocks_match_the_whole_batch(self, n_samples):
        alpha, beta = MI((1, 0)), MI((1, 1))
        g = lambda Z: 2 + Z[:, 0] * np.conj(Z[:, 1])
        s = SphereSampler(2, 31)
        s.sample_batch(5)  # start off a block boundary
        est = mc_moment(g, alpha, beta, s, n_samples)
        assert s.counter == 5 + n_samples
        whole = SphereSampler(2, 31)
        batch = whole.sample_batch(5 + n_samples)[5:]
        value, stderr = mean_and_stderr(monomial_eval(batch, alpha, beta) * g(batch))
        assert abs(est.value - value) <= 1e-12 * abs(value)
        assert abs(est.stderr - stderr) <= 1e-12 * stderr

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bits_do_not_depend_on_batch_length(self, n):
        # 40 000 rows pass 2^14 complex rows (256 KiB), where numpy starts reusing temporaries
        f = random_sphere_poly(np.random.default_rng(n), n, 3)
        batch = SphereSampler(n, 40 + n).sample_batch(40_000)
        whole = f.eval(batch)
        rows = sphere._BLOCK_ROWS
        blocks = [f.eval(batch[i:i + rows]) for i in range(0, len(batch), rows)]
        assert np.concatenate(blocks).tobytes() == whole.tobytes()
        assert np.array([f.eval(z) for z in batch]).tobytes() == whole.tobytes()
        alpha, beta = (MI.unit(n, 1), MI.unit(n, 0)) if n > 1 else (MI((2,)), MI((1,)))
        est = mc_moment(f.eval, alpha, beta, SphereSampler(n, 40 + n), 40_000)
        assert (est.value, est.stderr) == mean_and_stderr(monomial_eval(batch, alpha, beta) * whole)

    def test_nonfinite_in_a_later_block_reports_its_point(self):
        bad_row = sphere._BLOCK_ROWS + 17
        seen = []

        def g(Z):
            out = np.ones(len(Z), dtype=complex)
            start = sum(seen)
            seen.append(len(Z))
            if start <= bad_row < start + len(Z):
                out[bad_row - start] = np.inf
            return out

        with pytest.raises(EvaluationError) as err:
            mc_moment(g, MI((0, 0)), MI((0, 0)), SphereSampler(2, 3), 3 * sphere._BLOCK_ROWS)
        point = SphereSampler(2, 3).sample_batch(bad_row + 1)[bad_row]
        assert np.array_equal(err.value.point, point)

    def test_memory_does_not_grow_with_samples(self):
        s = SphereSampler(2, 4)
        tracemalloc.start()
        try:
            mc_moment(lambda Z: Z[:, 0], MI((0, 1)), MI((0, 0)), s, 1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_needs_two_samples(self, sampler2):
        with pytest.raises(ValueError):
            mc_moment(lambda Z: np.ones(len(Z)), MI((0, 0)), MI((0, 0)), sampler2, 1)

    @pytest.mark.parametrize(
        "g, shape",
        # z[0] of a batch is its first row, so a per-point |zeta_1|^2 returns n values
        [(lambda z: z[0] * np.conj(z[0]), r"\(2,\)"), (lambda z: 1.0, r"\(\)")],
        ids=["per_point", "scalar"],
    )
    def test_non_batch_integrand_is_refused(self, g, shape):
        with pytest.raises(PreconditionError, match=r"batch of 2048 points .* shape " + shape):
            mc_moment(g, MI((0, 0)), MI((0, 0)), SphereSampler(2, 0), sphere._BLOCK_ROWS + 2)


class TestSerialization:
    def test_round_trip(self):
        f = mono(2, (1, 1), (1, 1)) + mono(2, (1, 0), (0, 0), ComplexFraction(Fraction(-2, 3), 1))
        assert SpherePolynomial.from_json_dict(f.to_json_dict()) == f

    def test_schema_example(self):
        doc = {"n": 2, "terms": [{"mu": [1, 0], "nu": [0, 0], "re": "1/1", "im": "0/1"}]}
        assert SpherePolynomial.from_json_dict(doc) == mono(2, (1, 0), (0, 0))

    def test_empty_terms_is_zero(self):
        assert SpherePolynomial.from_json_dict({"n": 2, "terms": []}).is_zero()

    def test_wrong_exponent_length_rejected(self):
        doc = {"n": 2, "terms": [{"mu": [1], "nu": [0, 0], "re": "1/1", "im": "0/1"}]}
        with pytest.raises(SchemaError):
            SpherePolynomial.from_json_dict(doc)

    @pytest.mark.parametrize("mu", [[True, 0], [1.0, 0], "10", None])
    def test_non_integer_exponents_rejected(self, mu):
        doc = {"n": 2, "terms": [{"mu": mu, "nu": [0, 0], "re": "1/1", "im": "0/1"}]}
        with pytest.raises(SchemaError):
            SpherePolynomial.from_json_dict(doc)

    def test_duplicate_terms_merge(self):
        term = {"mu": [1, 0], "nu": [0, 0], "re": "1/2", "im": "0/1"}
        doc = {"n": 2, "terms": [term, term]}
        assert SpherePolynomial.from_json_dict(doc) == mono(2, (1, 0), (0, 0))


class TestHolomorphicPolynomial:
    def test_eval(self):
        g = HolomorphicPolynomial.monomial(2, (1, 0))
        assert g.eval(np.array([0.5, 0.0])) == 0.5
        assert HolomorphicPolynomial.monomial(2, (0, 0)).eval(np.array([0.9j, 0.1])) == 1
        assert HolomorphicPolynomial.zero(2).eval(np.array([0.9j, 0.1])) == 0

    def test_restrict_to_sphere(self):
        g = HolomorphicPolynomial.monomial(2, (2, 1), ComplexFraction(3))
        assert g.restrict_to_sphere() == mono(2, (2, 1), (0, 0), ComplexFraction(3))

    def test_sorted_terms_graded(self):
        g = HolomorphicPolynomial(2, {MI((0, 1)): ComplexFraction(1), MI((0, 0)): ComplexFraction(1)})
        assert [mu for mu, _ in g.sorted_terms()] == [MI((0, 0)), MI((0, 1))]
