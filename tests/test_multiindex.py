import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from balltrace.errors import DimensionMismatchError, DominationError
from balltrace.multiindex import MultiIndex, _multinomial, graded_indices, monomial_norm_sq

small_dims = st.integers(min_value=1, max_value=4)


def indices(dim):
    return st.lists(st.integers(0, 4), min_size=dim, max_size=dim).map(MultiIndex)


class TestBasics:
    @pytest.mark.parametrize("comps,deg", [((0, 0), 0), ((1, 1), 2), ((2, 0, 3), 5)])
    def test_degree(self, comps, deg):
        assert MultiIndex(comps).degree == deg

    @pytest.mark.parametrize("comps,fact", [((0, 0), 1), ((2, 2), 4), ((3, 1), 6)])
    def test_factorial(self, comps, fact):
        assert MultiIndex(comps).index_factorial() == fact

    def test_add(self):
        assert MultiIndex((1, 0)) + MultiIndex((0, 1)) == MultiIndex((1, 1))
        assert MultiIndex((0, 0)) + MultiIndex((2, 3)) == MultiIndex((2, 3))
        assert MultiIndex((1, 2)) + MultiIndex((3, 4)) == MultiIndex((4, 6))

    def test_dominates(self):
        assert MultiIndex((2, 2)).dominates(MultiIndex((1, 1)))
        assert not MultiIndex((2, 0)).dominates(MultiIndex((1, 1)))
        a = MultiIndex((3, 1))
        assert a.dominates(a)  # reflexive

    def test_sub_checked(self):
        assert MultiIndex((2, 2)) - MultiIndex((1, 1)) == MultiIndex((1, 1))
        assert MultiIndex((3, 1)) - MultiIndex((0, 0)) == MultiIndex((3, 1))
        with pytest.raises(DominationError):
            MultiIndex((1, 0)) - MultiIndex((0, 1))

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            MultiIndex((1, 0)) + MultiIndex((1, 0, 0))
        with pytest.raises(DimensionMismatchError):
            MultiIndex((1, 0)).dominates(MultiIndex((1,)))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MultiIndex((1, -1))

    @pytest.mark.parametrize("comps", [(1.5, 0), (1.0, 0), ("1", 0), (0, Fraction(1))])
    def test_non_integer_components_rejected(self, comps):
        # int() would turn 1.5 into 1 and "1" into 1 without a word
        with pytest.raises(TypeError):
            MultiIndex(comps)

    def test_integer_like_components_accepted(self):
        assert MultiIndex((np.int64(2), 1)) == (2, 1)

    @given(small_dims.flatmap(lambda n: st.tuples(indices(n), indices(n))))
    def test_sub_inverts_add(self, pair):
        a, b = pair
        assert (a + b) - b == a
        assert (a + b).dominates(a)


class TestEnumeration:
    def test_n2_order1(self):
        assert graded_indices(2, 1) == [MultiIndex((0, 0)), MultiIndex((1, 0)), MultiIndex((0, 1))]

    def test_n2_order2_count(self):
        # binomial(2+2, 2) = 6, verified by direct count
        idx = graded_indices(2, 2)
        assert len(idx) == 6
        assert idx[3:] == [MultiIndex((2, 0)), MultiIndex((1, 1)), MultiIndex((0, 2))]

    def test_n1(self):
        assert graded_indices(1, 3) == [MultiIndex((j,)) for j in range(4)]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_recursive_definition(self, n):
        # leading part from high to low, the rest recursively: lex-descending within a degree
        def compositions(dim, degree):
            if dim == 1:
                return [(degree,)]
            return [
                (head,) + rest
                for head in range(degree, -1, -1)
                for rest in compositions(dim - 1, degree - head)
            ]

        idx = graded_indices(n, 8)
        assert idx == [c for degree in range(9) for c in compositions(n, degree)]
        assert all(type(a) is MultiIndex for a in idx)

    def test_high_dimension(self):
        # a recursion per dimension would exceed the interpreter's recursion limit
        assert graded_indices(2000, 1) == [MultiIndex.zero(2000)] + [
            MultiIndex.unit(2000, k) for k in range(2000)
        ]

    def test_dimension_below_one(self):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            graded_indices(0, 2)

    @given(small_dims, st.integers(0, 6))
    def test_count_no_dups_sorted(self, n, order):
        idx = graded_indices(n, order)
        assert len(idx) == math.comb(order + n, n)
        assert len(set(idx)) == len(idx)
        assert idx == sorted(idx, key=MultiIndex.sort_key)
        assert all(a.degree <= order for a in idx)


class TestNormSqConstants:
    def test_known_values_n2(self):
        assert monomial_norm_sq(MultiIndex((1, 1))) == Fraction(1, 6)
        assert monomial_norm_sq(MultiIndex((2, 2))) == Fraction(1, 30)

    @given(st.integers(0, 50))
    def test_n1_always_one(self, j):
        assert monomial_norm_sq(MultiIndex((j,))) == 1

    @given(small_dims)
    def test_zero_index_is_one(self, n):
        assert monomial_norm_sq(MultiIndex.zero(n)) == 1

    @given(small_dims.flatmap(indices))
    def test_permutation_invariance(self, a):
        assert monomial_norm_sq(MultiIndex(sorted(a))) == monomial_norm_sq(a)

    @given(small_dims)
    def test_unit_masses_sum_to_one(self, n):
        # sum_k integral |zeta_k|^2 = integral 1 = 1
        total = sum(monomial_norm_sq(MultiIndex.unit(n, k)) for k in range(n))
        assert total == 1

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_factorial_formula(self, n):
        # the multinomial reciprocal equals (n-1)! w! / (n-1+|w|)!
        for w in graded_indices(n, 8):
            expected = Fraction(
                math.factorial(n - 1) * w.index_factorial(), math.factorial(n - 1 + w.degree)
            )
            assert monomial_norm_sq(w) == expected

    @given(st.data(), small_dims, st.integers(0, 40))
    def test_scan_weight_is_mass_quotient(self, data, n, k):
        # M = (n-1+K)!/(n-1)!, whose bits the scan budget charges, over multinomial(w)
        # is the integer w! (n-1+K)! / (n-1+|w|)! for every |w| <= K, so the scan's L divides M
        parts, left = [], k
        for _ in range(n):
            parts.append(data.draw(st.integers(0, left)))
            left -= parts[-1]
        w = MultiIndex(data.draw(st.permutations(parts)))
        expected = Fraction(
            w.index_factorial() * math.factorial(n - 1 + k), math.factorial(n - 1 + w.degree)
        )
        assert expected.denominator == 1
        assert math.perm(n - 1 + k, k) // _multinomial(w) == expected
        assert math.perm(n - 1 + k, k) % _multinomial(w) == 0
        assert monomial_norm_sq(w) == Fraction(1, _multinomial(w))

    def test_closed_form_spot_check(self):
        # n=3, w=(2,1,0): 2! * (2*1*1) / 5! = 4/120
        assert monomial_norm_sq(MultiIndex((2, 1, 0))) == Fraction(2 * 2, math.factorial(5))
