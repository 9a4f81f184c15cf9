import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balltrace.errors import ConvergenceError, DomainError
from balltrace.exact import ComplexFraction
from balltrace.multiindex import MultiIndex, graded_indices, monomial_norm_sq
from balltrace.polynomials import HolomorphicPolynomial, SpherePolynomial, moment
from balltrace.kernels import cauchy_kernel, poisson_kernel
from balltrace.polynomials import mc_moment
from balltrace.sphere import SphereSampler, mean_and_stderr, monomial_eval
from balltrace.transforms import (
    cauchy_transform_mc,
    cauchy_transform_poly,
    choose_poisson_order,
    poisson_series_eval,
    poisson_series_tail,
    poisson_transform_mc,
    radial_scan,
)

from reference_poisson import reference_radial_rows
from test_line_keyed import coeffs

MI = MultiIndex


def mono(dim, mu, nu, coeff=1):
    return SpherePolynomial.monomial(dim, mu, nu, coeff)


def sphere_relation(dim):
    out = SpherePolynomial.zero(dim)
    for k in range(dim):
        e = MI.unit(dim, k)
        out = out + SpherePolynomial.monomial(dim, e, e)
    return out


def brute_poisson_series(f, z, order):
    """Raw double-sum oracle: all index pairs (v, w) with |v|, |w| <= order,
    normalized by the equally-truncated diagonal series (enumerated raw as
    well, so this also cross-checks the multinomial collapse)."""
    n = f.dim
    idx = graded_indices(n, order)
    total = 0j
    normalizer = 0.0
    for v in idx:
        zv_sq = np.prod([abs(z[k]) ** (2 * v[k]) for k in range(n)])
        normalizer += zv_sq / float(monomial_norm_sq(v))
        for w in idx:
            m = moment(f, v, w)
            if not m:
                continue
            coeff = 1.0 / float(monomial_norm_sq(w) * monomial_norm_sq(v))
            zw = np.prod([z[k] ** w[k] for k in range(n)])
            zv = np.prod([np.conj(z[k]) ** v[k] for k in range(n)])
            total += coeff * complex(m) * zw * zv
    return total / normalizer


class TestCauchyTransformPoly:
    def test_holomorphic_monomials_reproduce(self):
        f = mono(2, (2, 1), (0, 0), ComplexFraction(3, -2))
        assert cauchy_transform_poly(f) == HolomorphicPolynomial.monomial(2, (2, 1), ComplexFraction(3, -2))

    def test_antiholomorphic_annihilates(self):
        assert cauchy_transform_poly(mono(2, (0, 0), (1, 0))).is_zero()

    def test_modulus_squared_projects_to_constant(self):
        g = cauchy_transform_poly(mono(2, (1, 0), (1, 0)))
        assert g == HolomorphicPolynomial.monomial(2, (0, 0), ComplexFraction(Fraction(1, 2)))

    def test_idempotent(self):
        f = mono(2, (1, 1), (1, 0)) + mono(2, (2, 0), (0, 0), ComplexFraction(0, 1))
        g = cauchy_transform_poly(f)
        assert cauchy_transform_poly(g.restrict_to_sphere()) == g

    def test_sphere_relation_factor_invisible(self):
        # multiplying by sum_k |zeta_k|^2 changes nothing on the sphere, and
        # the transform outputs are exactly equal as term dictionaries
        f = mono(2, (1, 1), (0, 1), ComplexFraction(1, 1)) + mono(2, (0, 0), (2, 0))
        assert cauchy_transform_poly(f * sphere_relation(2)) == cauchy_transform_poly(f)

    def test_linearity(self):
        f = mono(2, (1, 0), (0, 1))
        g = mono(2, (1, 1), (1, 1))
        lhs = cauchy_transform_poly(f + g.scale(ComplexFraction(0, 2)))
        rhs_terms = cauchy_transform_poly(f).terms
        for mu, c in cauchy_transform_poly(g).terms.items():
            rhs_terms[mu] = rhs_terms.get(mu, ComplexFraction(0)) + c * ComplexFraction(0, 2)
        assert lhs == HolomorphicPolynomial(2, rhs_terms)


class TestEvalHolo:
    def test_examples(self):
        g = HolomorphicPolynomial.monomial(2, (1, 0))
        assert g.eval(np.array([0.5, 0.0])) == 0.5
        assert HolomorphicPolynomial.monomial(2, (0, 0)).eval(np.array([0.1, 0.2])) == 1
        assert HolomorphicPolynomial.zero(2).eval(np.array([0.1, 0.2])) == 0


class TestMCTransforms:
    def test_cauchy_of_constant(self):
        est = cauchy_transform_mc(
            lambda Z: np.ones(len(Z)), np.array([0.3, 0.1j]), SphereSampler(2, 5), 50_000
        )
        assert est.within(1)

    def test_cauchy_kills_antiholomorphic(self):
        f = mono(2, (0, 0), (1, 0))
        est = cauchy_transform_mc(
            lambda Z: f.eval(Z), np.array([0.3, 0.1j]), SphereSampler(2, 6), 50_000
        )
        assert est.within(0)

    def test_cauchy_reproduces_coordinate(self):
        f = mono(2, (1, 0), (0, 0))
        est = cauchy_transform_mc(
            lambda Z: f.eval(Z), np.array([0.5, 0.0]), SphereSampler(2, 7), 50_000
        )
        assert est.within(0.5)

    def test_poisson_of_constant(self):
        est = poisson_transform_mc(
            lambda Z: np.ones(len(Z)), np.array([0.2, 0.4]), SphereSampler(2, 8), 50_000
        )
        assert est.within(1)

    def test_poisson_extends_antiholomorphic_coordinate(self):
        # P[conj(zeta_1)](z) = conj(z_1)
        f = mono(2, (0, 0), (1, 0))
        est = poisson_transform_mc(
            lambda Z: f.eval(Z), np.array([0.5, 0.0]), SphereSampler(2, 9), 100_000
        )
        assert est.within(0.5)

    def test_poisson_at_center_is_plain_mean(self):
        s1, s2 = SphereSampler(2, 10), SphereSampler(2, 10)
        f = mono(2, (1, 0), (0, 1))
        est = poisson_transform_mc(lambda Z: f.eval(Z), np.zeros(2), s1, 1000)
        assert est.value == pytest.approx(complex(np.mean(f.eval(s2.sample_batch(1000)))))

    @pytest.mark.parametrize("estimator", ["moment", "poisson", "cauchy"])
    def test_streamed_estimate_has_the_whole_batch_bits(self, estimator):
        # past 16384 rows numpy may reuse a temporary operand as the output;
        # the library's batch evaluators must give the same bits either way
        n, samples, seed = 3, 40_000, 12
        f = (
            mono(n, (1, 1, 0), (0, 0, 2), ComplexFraction(Fraction(2, 3), Fraction(-1, 5)))
            + mono(n, (0, 2, 1), (1, 0, 0), ComplexFraction(Fraction(-3, 7), Fraction(1, 2)))
            + mono(n, (1, 0, 0), (0, 1, 1))
        )
        z = np.array([0.3 + 0.1j, -0.2j, 0.25])
        alpha, beta = MI((1, 0, 1)), MI((0, 2, 0))
        batch = SphereSampler(n, seed).sample_batch(samples)
        if estimator == "moment":
            est = mc_moment(f.eval, alpha, beta, SphereSampler(n, seed), samples)
            weights = monomial_eval(batch, alpha, beta)
        else:
            kernel, transform = {
                "poisson": (poisson_kernel, poisson_transform_mc),
                "cauchy": (cauchy_kernel, cauchy_transform_mc),
            }[estimator]
            est = transform(f.eval, z, SphereSampler(n, seed), samples)
            weights = kernel(z, batch)
        vals = f.eval(batch)
        assert (est.value, est.stderr) == mean_and_stderr(weights * vals)

    def test_point_outside_ball_rejected(self):
        with pytest.raises(DomainError):
            poisson_transform_mc(lambda Z: np.ones(len(Z)), np.array([1.0, 0.0]), SphereSampler(2, 1), 100)


class TestPoissonSeries:
    def test_constant_any_order(self):
        f = SpherePolynomial.one(2)
        for order in (0, 1, 5):
            assert poisson_series_eval(f, np.array([0.3, 0.4j]), order) == pytest.approx(1, abs=1e-12)

    def test_holomorphic_coordinate(self):
        f = mono(2, (1, 0), (0, 0))
        assert poisson_series_eval(f, np.array([0.5, 0.0]), 8) == pytest.approx(0.5, abs=1e-3)

    def test_antiholomorphic_coordinate_at_order_12(self):
        f = mono(2, (0, 0), (1, 0))
        val = poisson_series_eval(f, np.array([0.5, 0.0]), 12)
        assert abs(val - 0.5) <= poisson_series_tail(f, 0.5, 12)

    def test_reproduces_holomorphic_polynomial(self, rng):
        # P of the restriction of a holomorphic polynomial equals that
        # polynomial at interior points
        from balltrace.generators import random_holomorphic_poly

        g = random_holomorphic_poly(rng, 2, 3)
        f = g.restrict_to_sphere()
        for _ in range(5):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            z *= rng.uniform(0, 0.6) / np.linalg.norm(z)
            order = choose_poisson_order(f, float(np.linalg.norm(z)), 1e-10)
            assert poisson_series_eval(f, z, order) == pytest.approx(g.eval(z), abs=1e-8)

    @pytest.mark.parametrize("order", [0, 1, 2, 4, 7])
    def test_matches_enumerated_double_sum(self, rng, order):
        f = (
            mono(2, (2, 0), (1, 1), ComplexFraction(1, Fraction(1, 2)))
            + mono(2, (1, 0), (0, 1), 2)
            + mono(2, (0, 1), (0, 0), ComplexFraction(0, 1))
            + SpherePolynomial.one(2)
        )
        z = np.array([0.35 + 0.2j, -0.3 + 0.41j])
        assert poisson_series_eval(f, z, order) == pytest.approx(
            brute_poisson_series(f, z, order), abs=1e-11
        )

    def test_batch_matches_single(self, sampler2):
        f = mono(2, (1, 0), (0, 1)) + mono(2, (0, 0), (1, 0))
        Z = 0.6 * sampler2.sample_batch(5)
        vals = poisson_series_eval(f, Z, 10)
        for i in range(5):
            assert vals[i] == pytest.approx(poisson_series_eval(f, Z[i], 10))

    def test_tail_bound_dominates_true_error(self, rng):
        f = mono(2, (1, 1), (2, 0)) + mono(2, (0, 0), (1, 1), ComplexFraction(2))
        z = np.array([0.25 - 0.1j, 0.3 + 0.2j])
        reference = poisson_series_eval(f, z, 50)
        r = float(np.linalg.norm(z))
        for order in (2, 5, 10, 20):
            err = abs(poisson_series_eval(f, z, order) - reference)
            assert err <= poisson_series_tail(f, r, order)

    def test_outside_ball_rejected(self):
        with pytest.raises(DomainError):
            poisson_series_eval(SpherePolynomial.one(2), np.array([1.0, 0.0]), 3)

    def test_series_past_the_float_range_raises(self):
        # conj(zeta_1) in n = 1000: binom(i + 999, 999) overflows a float near i = 400
        z = np.zeros(1000)
        z[0] = 0.5
        with pytest.raises(ConvergenceError):
            poisson_series_eval(mono(1000, (0,) * 1000, (1,) + (0,) * 999), z, 1024)


class TestOrderSelection:
    def test_chosen_order_meets_tolerance(self):
        f = mono(2, (0, 0), (1, 0)) + mono(2, (1, 0), (1, 0))
        for radius in (0.0, 0.5, 0.9):
            order = choose_poisson_order(f, radius, 1e-8)
            assert poisson_series_tail(f, radius, order) <= 1e-8

    def test_collapsible_terms_feasible_at_extreme_radius(self):
        order = choose_poisson_order(mono(2, (0, 0), (1, 0)), 0.99, 1e-8)
        assert poisson_series_tail(mono(2, (0, 0), (1, 0)), 0.99, order) <= 1e-8

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(ConvergenceError):
            choose_poisson_order(mono(2, (0, 0), (1, 0)), 0.999999, 1e-300, max_order=64)

    def test_zero_polynomial(self):
        assert choose_poisson_order(SpherePolynomial.zero(2), 0.9, 1e-8) == 0

    @pytest.mark.parametrize("radius", [0.5, 0.9])
    def test_tail_past_the_float_range_is_not_small(self, radius):
        # in n = 1000 the tail bound is nan at every order (inf times an underflowed 0)
        f = mono(1000, (0,) * 1000, (1,) + (0,) * 999)
        assert math.isnan(poisson_series_tail(f, radius, 1024))
        with pytest.raises(ConvergenceError):
            choose_poisson_order(f, radius)


@st.composite
def radial_data(draw):
    """Holomorphic, antiholomorphic or mixed data of degree <= 3 in n = 1..4."""
    dim = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["holo", "anti", "mixed"]))
    pool = graded_indices(dim, 3)
    zero = MI((0,) * dim)
    pick = st.sampled_from(pool)
    pairs = {
        "holo": st.tuples(pick, st.just(zero)),
        "anti": st.tuples(st.just(zero), pick),
        "mixed": st.tuples(pick, pick),
    }[kind]
    terms = draw(st.lists(st.tuples(pairs, coeffs), min_size=1, max_size=6))
    return SpherePolynomial(dim, dict(terms))


class TestRadialScan:
    @given(
        radial_data(), st.integers(2, 300), st.integers(0, 2**31 - 1), st.sampled_from([1.0, 2.0, 3.5])
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_radius_reference(self, f, n_samples, seed, p):
        # radii 0, 0.5 (twice) and 0.99 on one shared batch
        radii = [0.0, 0.5, 0.99, 0.5]
        rows = radial_scan(f, p, radii, SphereSampler(f.dim, seed), n_samples)
        want = reference_radial_rows(f, p, radii, SphereSampler(f.dim, seed), n_samples)
        for row, ref in zip(rows, want, strict=True):
            assert (row.r, row.p, row.samples, row.seed) == (ref.r, ref.p, n_samples, seed)
            assert abs(row.lp_error - ref.lp_error) <= 1e-12 * ref.lp_error + 1e-15
            assert abs(row.lp_norm_r - ref.lp_norm_r) <= 1e-12 * ref.lp_norm_r + 1e-15
            # a spread of nearly equal |slice - f|^p cancels; its rounding scales with lp_error
            scale = ref.lp_error_stderr + ref.lp_error
            assert abs(row.lp_error_stderr - ref.lp_error_stderr) <= 1e-12 * scale + 1e-15

    def test_constant_data_has_zero_error(self):
        f = mono(3, (0, 0, 0), (0, 0, 0), ComplexFraction(Fraction(7, 3), Fraction(-1, 5)))
        for row in radial_scan(f, 2.0, [0.0, 0.5, 0.99], SphereSampler(3, 11), 1_000):
            assert row.lp_error == 0.0
            assert row.lp_error_stderr == 0.0

    def test_antiholomorphic_coordinate_error_law(self):
        # P[conj(zeta_1)]_r = r conj(zeta_1), so the L2 error is (1-r)/sqrt(2)
        f = mono(2, (0, 0), (1, 0))
        rows = radial_scan(f, 2.0, [0.5, 0.9], SphereSampler(2, 21), 20_000)
        for row in rows:
            expected = (1 - row.r) / math.sqrt(2)
            assert abs(row.lp_error - expected) <= 4 * row.lp_error_stderr

    def test_contraction_and_decay(self):
        f = mono(2, (1, 0), (0, 0))  # holomorphic: slice norm r/sqrt(2)
        rows = radial_scan(f, 2.0, [0.5, 0.9, 0.99], SphereSampler(2, 22), 20_000)
        errors = [row.lp_error for row in rows]
        assert errors == sorted(errors, reverse=True)  # decay along r -> 1
        norm_f = math.sqrt(0.5)
        for row in rows:
            assert row.lp_norm_r <= norm_f + 4 * row.lp_error_stderr + 1e-9
        norms = [row.lp_norm_r for row in rows]
        assert norms == sorted(norms)  # nondecreasing toward the boundary norm

    def test_mixed_polynomial_decay(self):
        f = mono(2, (1, 0), (0, 1)) + mono(2, (0, 0), (1, 1), ComplexFraction(Fraction(1, 2)))
        rows = radial_scan(f, 2.0, [0.3, 0.6, 0.9], SphereSampler(2, 23), 2_000)
        errors = [row.lp_error for row in rows]
        assert errors == sorted(errors, reverse=True)

    def test_shared_samples_across_radii(self):
        f = mono(2, (0, 0), (1, 0))
        rows = radial_scan(f, 2.0, [0.4, 0.4], SphereSampler(2, 24), 5_000)
        assert rows[0].lp_error == rows[1].lp_error  # common random numbers

    def test_row_metadata(self):
        f = mono(2, (0, 0), (1, 0))
        (row,) = radial_scan(f, 1.0, [0.5], SphereSampler(2, 25), 100)
        assert (row.p, row.samples, row.seed) == (1.0, 100, 25)

    def test_domain_errors(self):
        f = SpherePolynomial.one(2)
        with pytest.raises(DomainError):
            radial_scan(f, 0.5, [0.5], SphereSampler(2, 0), 100)
        with pytest.raises(DomainError):
            radial_scan(f, 2.0, [1.0], SphereSampler(2, 0), 100)
        for p in (math.nan, math.inf):
            with pytest.raises(DomainError):
                radial_scan(f, p, [0.5], SphereSampler(2, 0), 100)
