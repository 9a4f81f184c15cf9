import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balltrace import membership
from balltrace.errors import PreconditionError
from balltrace.exact import ComplexFraction
from balltrace.generators import (
    random_holomorphic_poly,
    random_nonmember_poly,
    random_sphere_poly,
)
from balltrace.membership import (
    WORK_BUDGET,
    ConditionReport,
    check_condition,
    check_condition_a,
    check_condition_b,
    is_boundary_trace,
    szego_residual,
    sweep,
)
from balltrace.multiindex import MultiIndex, graded_indices
from balltrace.polynomials import HolomorphicPolynomial, SpherePolynomial, l2_norm_sq, moment

MI = MultiIndex


def mono(dim, mu, nu, coeff=1):
    return SpherePolynomial.monomial(dim, mu, nu, coeff)


def counterexample():
    # |zeta_1 zeta_2|^2: fails condition B at alpha = beta = (1,1) with 1/5 vs 1/6
    return mono(2, (1, 1), (1, 1))


def sphere_relation(dim):
    out = SpherePolynomial.zero(dim)
    for k in range(dim):
        e = MI.unit(dim, k)
        out = out + SpherePolynomial.monomial(dim, e, e)
    return out


class TestConditionA:
    def test_antiholomorphic_coordinate_violates(self):
        rep = check_condition_a(mono(2, (0, 0), (1, 0)), MI((1, 0)), MI((0, 0)))
        assert rep.kind == "A"
        assert rep.lhs == ComplexFraction(Fraction(1, 2))
        assert rep.rhs == ComplexFraction(0)
        assert not rep.satisfied

    def test_holomorphic_coordinate_passes_exhaustively(self):
        f = mono(2, (1, 0), (0, 0))
        for alpha in graded_indices(2, 4):
            for beta in graded_indices(2, 4):
                if any(a > b for a, b in zip(alpha, beta)):
                    assert check_condition_a(f, alpha, beta).satisfied

    def test_zero_polynomial_passes(self):
        assert check_condition_a(SpherePolynomial.zero(2), MI((1, 0)), MI((0, 0))).satisfied

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            check_condition_a(SpherePolynomial.zero(2), MI((0, 0)), MI((1, 0)))


class TestConditionB:
    def test_counterexample_pair(self):
        rep = check_condition_b(counterexample(), MI((1, 1)), MI((1, 1)))
        assert rep.lhs == ComplexFraction(Fraction(1, 5))
        assert rep.rhs == ComplexFraction(Fraction(1, 6))
        assert not rep.satisfied

    def test_always_satisfied_in_one_dimension(self, rng):
        # both normalizing masses are 1 and the matching term sets coincide
        for _ in range(20):
            f = random_sphere_poly(rng, 1, 5)
            for a in range(6):
                for b in range(a, 6):
                    assert check_condition_b(f, MI((a,)), MI((b,))).satisfied

    def test_holomorphic_coordinate(self):
        rep = check_condition_b(mono(2, (1, 0), (0, 0)), MI((0, 0)), MI((1, 0)))
        assert rep.lhs == rep.rhs == ComplexFraction(1)
        assert rep.satisfied

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            check_condition_b(SpherePolynomial.zero(2), MI((1, 0)), MI((0, 1)))


class TestDispatch:
    @given(
        st.lists(st.integers(0, 3), min_size=2, max_size=2),
        st.lists(st.integers(0, 3), min_size=2, max_size=2),
    )
    @settings(max_examples=50)
    def test_every_pair_has_exactly_one_family(self, a, b):
        alpha, beta = MI(a), MI(b)
        rep = check_condition(counterexample(), alpha, beta)
        if any(x > y for x, y in zip(alpha, beta)):
            assert rep.kind == "A"
        else:
            assert rep.kind == "B" and beta.dominates(alpha)


class TestSweep:
    def test_holomorphic_polynomial_clean(self):
        f = (
            HolomorphicPolynomial.monomial(2, (2, 1), ComplexFraction(2, 1))
            .restrict_to_sphere()
        )
        assert sweep(f, f.max_degree() + 2) == []

    def test_counterexample_contains_the_11_pair(self):
        reports = sweep(counterexample(), 2)
        assert any(
            r.kind == "B" and r.alpha == MI((1, 1)) and r.beta == MI((1, 1)) for r in reports
        )

    def test_antiholomorphic_coordinate_order_one(self):
        reports = sweep(mono(2, (0, 0), (1, 0)), 1)
        assert any(
            r.kind == "A" and r.alpha == MI((1, 0)) and r.beta == MI((0, 0)) for r in reports
        )

    def test_reports_in_graded_lex_pair_order(self):
        reports = sweep(counterexample(), 3)
        keys = [(r.alpha.sort_key(), r.beta.sort_key()) for r in reports]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("order", [3, 120, 10**6])
    def test_member_with_stored_residual_returns_before_any_scan(self, monkeypatch, order):
        orders = []
        line_sums = membership._line_sums

        def spy(r, order):
            orders.append(order)
            return line_sums(r, order)

        monkeypatch.setattr(membership, "_line_sums", spy)
        # r = f - 1 keeps four stored terms but ||r||^2 = 0; at order 120 its
        # scan would be over WORK_BUDGET (302621 pairs on its one line)
        f = sphere_relation(3)
        assert not (f - SpherePolynomial.one(3)).is_zero()
        assert sweep(f, order) == [] and orders == []


@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_disguised_members_are_members_at_every_order(n, g_degree, q_degree, seed):
    # g + q (|zeta_1|^2 + ... + |zeta_n|^2 - 1) is g on the sphere
    rng = np.random.default_rng(seed)
    g = random_holomorphic_poly(rng, n, g_degree)
    q = random_sphere_poly(rng, n, q_degree)
    disguise = q * (sphere_relation(n) - SpherePolynomial.one(n))
    f = g.restrict_to_sphere() + disguise
    assert disguise.is_zero() == q.is_zero()
    for order in range(f.max_degree() + 3):
        assert sweep(f, order) == []
    cert = is_boundary_trace(f)
    assert cert.member and cert.residual_sq == 0 and cert.witness_extension == g


class TestSzegoResidual:
    def test_modulus_squared(self):
        residual_sq, g = szego_residual(mono(2, (1, 0), (1, 0)))
        assert residual_sq == Fraction(1, 12)
        assert g == HolomorphicPolynomial.monomial(2, (0, 0), ComplexFraction(Fraction(1, 2)))

    def test_sphere_relation_is_member(self):
        residual_sq, g = szego_residual(sphere_relation(2))
        assert residual_sq == 0
        assert g == HolomorphicPolynomial.monomial(2, (0, 0), ComplexFraction(1))

    def test_antiholomorphic_coordinate(self):
        residual_sq, g = szego_residual(mono(2, (0, 0), (1, 0)))
        assert residual_sq == Fraction(1, 2)
        assert g.is_zero()


class TestMembership:
    def test_holomorphic_monomial(self):
        cert = is_boundary_trace(mono(2, (2, 1), (0, 0)))
        assert cert.member
        assert cert.witness_extension == HolomorphicPolynomial.monomial(2, (2, 1))
        assert cert.violation is None

    def test_counterexample_certificate(self):
        cert = is_boundary_trace(counterexample())
        assert not cert.member
        assert cert.witness_extension is None
        v = cert.violation
        assert (v.alpha, v.beta) == (MI((1, 1)), MI((1, 1)))
        assert v.lhs == ComplexFraction(Fraction(1, 5))
        assert v.rhs == ComplexFraction(Fraction(1, 6))
        assert cert.violation_order is not None

    def test_certificate_reports_worst_violation(self):
        # among all violations at the found order, the certificate carries
        # the one with the largest exact |lhs - rhs|^2
        cert = is_boundary_trace(counterexample())
        v = cert.violation
        gap = (v.lhs - v.rhs).abs_sq()
        for other in sweep(counterexample(), cert.violation_order):
            assert (other.lhs - other.rhs).abs_sq() <= gap

    def test_equal_gaps_break_ties_graded_lex(self):
        # conj(zeta_1) + conj(zeta_2): the A pairs ((1,0),(0,0)) and ((0,1),(0,0))
        # share the largest gap, 1/4; (1,0) comes first in graded-lex order
        f = mono(2, (0, 0), (1, 0)) + mono(2, (0, 0), (0, 1))
        cert = is_boundary_trace(f)
        gaps = [(v.lhs - v.rhs).abs_sq() for v in sweep(f, cert.violation_order)]
        assert gaps.count(max(gaps)) == 2 and max(gaps) == Fraction(1, 4)
        assert (cert.violation.alpha, cert.violation.beta) == (MI((1, 0)), MI((0, 0)))

    def test_sphere_relation_sum(self):
        cert = is_boundary_trace(sphere_relation(2))
        assert cert.member
        assert cert.witness_extension == HolomorphicPolynomial.monomial(2, (0, 0))

    def test_escalation_reaches_max_degree_plus_one(self):
        # 64 steps of 2 from order 0 stop at 126, below the degree 140 where
        # the only violated pairs sit; the search must still end in a certificate
        cert = is_boundary_trace(mono(1, (0,), (140,)), sweep_order=0)
        assert not cert.member
        assert cert.violation_order == 141
        assert cert.violation.kind == "A" and not cert.violation.satisfied

    def test_escalation_keeps_low_orders(self):
        # the 1/5 vs 1/6 pair has degree 2: found after one step from order 0
        assert is_boundary_trace(counterexample(), sweep_order=0).violation_order == 2

    @pytest.mark.parametrize(
        "f",
        [
            counterexample(),
            mono(1, (0,), (140,)),  # 65 scans from order 0 for the escalation loop
            random_nonmember_poly(np.random.default_rng(5), 3, 3),
        ],
    )
    def test_one_scan_at_every_order(self, monkeypatch, f):
        orders = []
        line_sums = membership._line_sums

        def spy(r, order):
            orders.append(order)
            return line_sums(r, order)

        monkeypatch.setattr(membership, "_line_sums", spy)
        bound = f.max_degree() + 1
        assert is_boundary_trace(f).violation_order == bound and orders == [bound]
        for order in range(bound + 3):
            orders.clear()
            cert = is_boundary_trace(f, sweep_order=order)
            assert orders == [max(order, bound)] and cert.violation_order <= max(order, bound)

    @pytest.mark.parametrize("run", [sweep, is_boundary_trace])
    @pytest.mark.parametrize("order", [-1, -3, -5])
    def test_negative_order_is_refused_before_projecting(self, monkeypatch, run, order):
        monkeypatch.setattr(membership, "cauchy_transform_poly", None)  # never projected
        with pytest.raises(PreconditionError, match=f"^order must be >= 0, got {order}$"):
            run(counterexample(), order)

    def test_member_iff_zero_residual(self, rng):
        for _ in range(10):
            f = random_sphere_poly(rng, 2, 3)
            cert = is_boundary_trace(f)
            assert cert.member == (cert.residual_sq == 0)
            if cert.member:
                assert l2_norm_sq(f - cert.witness_extension.restrict_to_sphere()) == 0


class TestSoundness:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_both_directions(self, rng, dim):
        # violation found => residual > 0; residual = 0 => sweep clean
        for _ in range(10):
            f = random_sphere_poly(rng, dim, 4)
            residual_sq, _ = szego_residual(f)
            violations = sweep(f, 8 if dim < 3 else 6)
            if violations:
                assert residual_sq > 0
            if residual_sq == 0:
                assert violations == []

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_nonmembers_get_certificates(self, rng, dim):
        for _ in range(5):
            f = random_nonmember_poly(rng, dim, 3)
            cert = is_boundary_trace(f)
            assert not cert.member and not cert.violation.satisfied

    def test_members_closed_under_linear_combinations(self, rng):
        for _ in range(5):
            f = random_holomorphic_poly(rng, 2, 3).restrict_to_sphere()
            g = random_holomorphic_poly(rng, 2, 3).restrict_to_sphere()
            combo = f.scale(ComplexFraction(2, 1)) + g.scale(ComplexFraction(Fraction(-1, 3), 2))
            assert is_boundary_trace(combo).member


class TestOneDimensionalReduction:
    def test_membership_iff_negative_frequencies_vanish(self, rng):
        for _ in range(25):
            f = random_sphere_poly(rng, 1, 6)
            # frequency -k coefficient = moment against zeta^k (all masses are 1)
            neg = [moment(f, MI((k,)), MI((0,))) for k in range(1, 13)]
            cert = is_boundary_trace(f)
            assert cert.member == all(not c for c in neg)
            if not cert.member:
                assert cert.violation.kind == "A"

    def test_projection_keeps_nonnegative_frequencies(self, rng):
        f = random_sphere_poly(rng, 1, 5)
        _, g = szego_residual(f)
        # projection coefficient at frequency k equals the aggregated f
        # coefficient there (circle monomials of equal frequency coincide)
        for k in range(0, 11):
            agg = moment(f, MI((0,)), MI((k,)))
            got = g.terms.get(MI((k,)), ComplexFraction(0))
            assert got == agg

    def test_violation_set_matches_negative_frequencies(self, rng):
        # frequency gaps alpha - beta of A-violations == indices of nonzero
        # negative Fourier coefficients (within the sweep order)
        order = 8
        for _ in range(15):
            f = random_sphere_poly(rng, 1, 4)
            reports = sweep(f, order)
            assert all(r.kind == "A" for r in reports)
            found_gaps = {r.alpha[0] - r.beta[0] for r in reports}
            bad_freqs = {
                k for k in range(1, order + 1) if moment(f, MI((k,)), MI((0,)))
            }
            assert found_gaps == bad_freqs


class TestWorkBudget:
    def test_benchmark_sizes_fit(self):
        # the largest certify input (n = 4, order 6, at most 20 lines) and a
        # 61-term n = 4 degree-6 non-member at order 7; C(order + n, n) pairs
        # per line bound each line's box from above
        assert math.comb(6 + 4, 4) * 20 < WORK_BUDGET
        assert math.comb(7 + 4, 4) * 61 < WORK_BUDGET

    def test_over_budget_raises_before_enumerating(self, monkeypatch):
        def no_enumeration(*args):
            raise AssertionError("the index list was built")

        monkeypatch.setattr(membership, "graded_indices", no_enumeration)
        # conj(zeta_1) + |zeta_2|^200 in n = 3 at order 101: C(103, 3) pairs on
        # the line -e_1 and C(104, 3) on the line 0, 358955 in all
        f = mono(3, (0, 0, 0), (1, 0, 0)) + mono(3, (0, 100, 0), (0, 100, 0))
        for run in (lambda: sweep(f, 101), lambda: is_boundary_trace(f)):
            with pytest.raises(PreconditionError, match="358955 pairs"):
                run()

    def test_estimate_counts_lines(self, monkeypatch):
        monkeypatch.setattr(membership, "graded_indices", None)
        # f has two lines; its residual r = conj(zeta_1), the scanned polynomial,
        # one, whose box at order 120 in n = 3 holds C(122, 3) = 295240 pairs
        f = mono(3, (0, 0, 0), (1, 0, 0)) + mono(3, (1, 0, 0), (0, 0, 0))
        with pytest.raises(PreconditionError, match=r"295240 pairs \(alpha, beta\) on 1 lines"):
            sweep(f, 120)

    def test_member_sweep_returns_before_the_budget(self, monkeypatch):
        monkeypatch.setattr(membership, "graded_indices", None)
        # f's own line would hold C(122, 3) = 295240 pairs at order 120; its residual is 0
        assert sweep(mono(3, (1, 0, 0), (0, 0, 0)), 120) == []
        g = random_holomorphic_poly(np.random.default_rng(21), 21, 3).restrict_to_sphere()
        assert sweep(g, g.max_degree() + 2) == []

    def test_integers_of_a_few_thousand_bits_pass(self):
        # conj(zeta_1)^2000 in n = 1: order 2001, K = 4001, integers of about
        # 42000 bits; 2 pairs, charged as 21 * 21 = 441 units; about 0.05 s
        cert = is_boundary_trace(mono(1, (0,), (2000,)))
        assert not cert.member and cert.violation_order == 2001

    @pytest.mark.parametrize(
        "run",
        [
            lambda: is_boundary_trace(mono(1, (0,), (10**7,))),  # 2 pairs, about 4.6e8-bit integers
            lambda: sweep(mono(1, (0,), (1,)), 120_000),  # 120000 pairs, 1851624-bit integers
        ],
    )
    def test_integer_size_is_budgeted(self, monkeypatch, run):
        monkeypatch.setattr(membership, "graded_indices", None)
        start = time.perf_counter()
        with pytest.raises(PreconditionError, match="bits"):
            run()
        assert time.perf_counter() - start < 1.0

    def test_building_m_is_charged(self, monkeypatch):
        monkeypatch.setattr(membership, "graded_indices", None)
        # conj(zeta_1)^(10^6) in n = 1: no pair at order 0 and 2 at the default
        # order 10^6 + 1, but M = K! has about 1.8e7 and 3.9e7 bits there (the
        # order-0 scan built it in 19 s); M counts as one pair per 2048 bits of it
        f = mono(1, (0,), (10**6,))
        for run, pairs in ((lambda: sweep(f, 0), 0), (lambda: is_boundary_trace(f), 2)):
            start = time.perf_counter()
            with pytest.raises(PreconditionError, match=f"would test {pairs} pairs"):
                run()
            assert time.perf_counter() - start < 1.0


class TestSphereRelationInvariance:
    def test_member_and_witness_unchanged(self, rng):
        for _ in range(5):
            f = random_sphere_poly(rng, 2, 2)
            lifted = f * sphere_relation(2)
            a, b = is_boundary_trace(f), is_boundary_trace(lifted)
            assert a.member == b.member
            if a.member:
                assert a.witness_extension == b.witness_extension
            assert szego_residual(f)[0] == szego_residual(lifted)[0]


class TestCertificateSerialization:
    def test_counterexample_json(self):
        doc = is_boundary_trace(counterexample()).to_json_dict()
        assert doc["member"] is False
        assert doc["violation"]["lhs"] == {"re": "1/5", "im": "0/1"}
        assert doc["violation"]["rhs"] == {"re": "1/6", "im": "0/1"}
        json.dumps(doc)  # serializable

    def test_condition_report_round_trip(self):
        rep = check_condition_b(counterexample(), MI((1, 1)), MI((1, 1)))
        again = ConditionReport.from_json_dict(json.loads(json.dumps(rep.to_json_dict())))
        assert (again.kind, again.alpha, again.beta, again.lhs, again.rhs, again.satisfied) == (
            rep.kind,
            rep.alpha,
            rep.beta,
            rep.lhs,
            rep.rhs,
            rep.satisfied,
        )

    def test_member_json_has_witness(self):
        doc = is_boundary_trace(mono(2, (1, 0), (0, 0))).to_json_dict()
        assert doc["member"] is True
        assert doc["residual_sq"] == "0/1"
        assert doc["witness_extension"]["terms"][0]["mu"] == [1, 0]
