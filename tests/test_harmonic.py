"""Bigraded harmonic components and the Poisson series summed through them.

SpherePolynomial.harmonics() splits f exactly into H(p,q) components; the
Poisson integral multiplies each by its radial profile, and the series cuts
each mixed profile.  The exact tests are identities; the series is compared
with the exact cut profiles, with the truncated moment expansion
(tests/reference_poisson.py) and the raw double sum within both certified
tails, with the closed 2F1 form, and with Monte-Carlo.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balltrace.exact import ComplexFraction
from balltrace.polynomials import SpherePolynomial, l2_distance_sq, l2_norm_sq, laplacian
from balltrace.sphere import SphereSampler
from balltrace.transforms import (
    MAX_SERIES_ORDER,
    cauchy_transform_poly,
    choose_poisson_order,
    poisson_series_eval,
    poisson_series_tail,
    poisson_transform_mc,
)

from reference_poisson import reference_poisson_series, reference_profile_eval, reference_series_tail
from test_line_keyed import polys
from test_transforms import brute_poisson_series, mono


def mixed_coordinate(dim):
    """zeta_1 conj(zeta_2), a harmonic polynomial of bidegree (1, 1)."""
    return mono(dim, (1,) + (0,) * (dim - 1), (0, 1) + (0,) * (dim - 2))


def ball_points(rng, dim, count, max_radius):
    Z = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return Z * (rng.uniform(0, max_radius, size=count) / np.linalg.norm(Z, axis=1))[:, None]


class TestDecomposition:
    @given(polys())
    @settings(max_examples=80, deadline=None)
    def test_components_are_harmonic_of_their_bidegree(self, f):
        for (p, q), h in f.harmonics().items():
            assert not h.is_zero()
            assert laplacian(h).is_zero()
            assert all(mu.degree == p and nu.degree == q for mu, nu in h.terms)

    @given(polys())
    @settings(max_examples=80, deadline=None)
    def test_components_sum_to_f_on_sphere(self, f):
        total = SpherePolynomial.zero(f.dim)
        for h in f.harmonics().values():
            total = total + h
        assert l2_distance_sq(total, f) == 0

    @given(polys())
    @settings(max_examples=80, deadline=None)
    def test_split_is_a_second_route_to_the_szego_projection(self, f):
        # C[f] is the sum of the holomorphic components h_{p,0}, and the
        # residual's norm is the mass of the components with q >= 1
        parts = f.harmonics()
        holomorphic = SpherePolynomial.zero(f.dim)
        for (p, q), h in parts.items():
            if q == 0:
                holomorphic = holomorphic + h
        projection = cauchy_transform_poly(f)
        assert l2_distance_sq(holomorphic, projection) == 0
        rest = sum(l2_norm_sq(h) for (p, q), h in parts.items() if q >= 1)
        assert rest == l2_norm_sq(f - projection)

    def test_harmonic_data_is_its_own_component(self):
        f = mixed_coordinate(3).scale(ComplexFraction(2, -1))
        assert dict(f.harmonics()) == {(1, 1): f}

    def test_holomorphic_parts_split_by_degree(self):
        f = mono(2, (2, 1), (0, 0)) + mono(2, (0, 1), (0, 0), 3) + SpherePolynomial.one(2)
        assert dict(f.harmonics()) == {
            (0, 0): SpherePolynomial.one(2),
            (1, 0): mono(2, (0, 1), (0, 0), 3),
            (3, 0): mono(2, (2, 1), (0, 0)),
        }

    def test_modulus_squared(self):
        # |zeta_1|^2 = 1/2 + (|zeta_1|^2 - |zeta_2|^2)/2 on the sphere of C^2
        half = ComplexFraction(Fraction(1, 2))
        f = mono(2, (1, 0), (1, 0))
        assert dict(f.harmonics()) == {
            (0, 0): SpherePolynomial.one(2).scale(half),
            (1, 1): mono(2, (1, 0), (1, 0), half) - mono(2, (0, 1), (0, 1), half),
        }

    def test_one_variable_keeps_only_pure_powers(self):
        # on the circle zeta^3 conj(zeta)^2 = zeta
        assert dict(mono(1, (3,), (2,)).harmonics()) == {(1, 0): mono(1, (1,), (0,))}

    def test_built_once(self):
        f = mono(2, (1, 1), (1, 0))
        assert f.harmonics() is f.harmonics()


class TestSeriesThroughComponents:
    @given(polys(), st.integers(0, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_term_by_term_route(self, f, order, seed):
        # the exact cut profiles at an equal cut; the term-by-term moment expansion
        # within the sum of both certified tails
        Z = ball_points(np.random.default_rng(seed), f.dim, 4, 0.8)
        got = poisson_series_eval(f, Z, order)
        want = reference_profile_eval(f, Z, order)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        r = float(np.max(np.linalg.norm(Z, axis=1)))
        tails = poisson_series_tail(f, r, order) + reference_series_tail(f, r, order)
        assert np.max(np.abs(got - reference_poisson_series(f, Z, order))) <= tails + 1e-12 * scale

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_matches_enumerated_double_sum_in_three_variables(self, order):
        f = (
            mono(3, (1, 1, 0), (0, 0, 1), ComplexFraction(1, Fraction(1, 3)))
            + mono(3, (1, 0, 0), (1, 0, 0), 2)
            + mono(3, (0, 0, 1), (0, 2, 0), ComplexFraction(0, -1))
            + mono(3, (0, 1, 0), (0, 0, 0))
        )
        z = np.array([0.3 + 0.2j, -0.25 + 0.1j, 0.1 - 0.4j])
        got = poisson_series_eval(f, z, order)
        assert got == pytest.approx(reference_profile_eval(f, z, order), abs=1e-12)
        r = float(np.linalg.norm(z))
        tails = poisson_series_tail(f, r, order) + reference_series_tail(f, r, order)
        assert abs(got - brute_poisson_series(f, z, order)) <= tails

    def test_tail_bound_dominates_true_error_on_mixed_data(self):
        f = mono(3, (1, 1, 0), (0, 0, 1)) + mono(3, (1, 0, 0), (1, 0, 0), ComplexFraction(0, 2))
        z = np.array([0.5 - 0.2j, 0.3 + 0.4j, -0.35j])
        r = float(np.linalg.norm(z))
        reference = poisson_series_eval(f, z, 400)
        for order in (3, 10, 30, 80):
            err = abs(poisson_series_eval(f, z, order) - reference)
            assert err <= poisson_series_tail(f, r, order)


def _hyp2f1_11(c, s):
    """2F1(1, 1; c; s) for 0 <= s < 1, by its series."""
    total, term, j = 0.0, 1.0, 0
    while term > 1e-18:
        total += term
        term *= (1 + j) / (c + j) * s
        j += 1
    return total


class TestBoundaryReach:
    """Mixed data near the sphere: orders stay bounded, values match independent routes."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_order_at_099_is_below_the_cap(self, dim):
        f = mixed_coordinate(dim)
        order = choose_poisson_order(f, 0.99)
        assert order <= MAX_SERIES_ORDER
        assert poisson_series_tail(f, 0.99, order) <= 1e-8

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_closed_form_at_099(self, dim):
        # P[h](z) = 2F1(1,1;n+2;|z|^2) / 2F1(1,1;n+2;1) * h(z) for h in H(1,1),
        # and Gauss gives 2F1(1,1;c;1) = (c-1)/(c-2)
        f = mixed_coordinate(dim)
        z = np.array([0.6, 0.7j] + [0.1] * (dim - 2), dtype=np.complex128)
        z *= 0.99 / np.linalg.norm(z)
        s = 0.99**2
        closed = _hyp2f1_11(dim + 2, s) * dim / (dim + 1) * z[0] * np.conj(z[1])
        order = choose_poisson_order(f, 0.99)
        assert abs(poisson_series_eval(f, z, order) - closed) <= 1e-8

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_monte_carlo_inside_the_099_ball(self, dim):
        # the Monte-Carlo Poisson kernel is heavy-tailed at |z| = 0.99 (its
        # sample standard error is unreliable there), so the point sits at 0.9
        f = mixed_coordinate(dim)
        z = np.array([0.6, 0.7j] + [0.1] * (dim - 2), dtype=np.complex128)
        z *= 0.9 / np.linalg.norm(z)
        value = poisson_series_eval(f, z, choose_poisson_order(f, 0.99))
        est = poisson_transform_mc(lambda Z: f.eval(Z), z, SphereSampler(dim, 1), 200_000)
        assert est.within(value)
