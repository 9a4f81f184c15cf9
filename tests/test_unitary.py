"""U(n)-invariance of the cut Poisson series and of the Szego residual.

A unitary U maps each H(p,q) onto itself and preserves |z|, and the series
cuts each component's own profile, so poisson_series_eval(f o U, z, k)
equals poisson_series_eval(f, U z, k) at every cut k.  The exact residual
norm ||f - C[f]||^2 is unchanged by U too.  tests/reference_unitary.py
builds U and f o U in exact arithmetic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from balltrace.exact import ComplexFraction
from balltrace.membership import szego_residual
from balltrace.transforms import poisson_series_eval

from reference_unitary import ONE, ZERO, _matmul, cayley_unitary, compose
from test_harmonic import ball_points
from test_line_keyed import polys

small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def rotated(draw):
    """(f, U): f of degree <= 3 in n = 1..4 and a Cayley unitary U."""
    dim = draw(st.integers(1, 4))
    f = draw(polys(dim, 3))
    pairs = dim * (dim - 1) // 2
    upper = draw(st.lists(st.builds(ComplexFraction, small, small), min_size=pairs, max_size=pairs))
    diagonal = draw(st.lists(small, min_size=dim, max_size=dim))
    return f, cayley_unitary(upper, diagonal)


@given(rotated(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_series_and_residual_are_unitarily_invariant(case, seed):
    f, u = case
    adjoint = [[x.conjugate() for x in col] for col in zip(*u)]
    assert _matmul(u, adjoint) == [[ONE if i == j else ZERO for j in range(f.dim)] for i in range(f.dim)]
    g = compose(f, u)
    assert szego_residual(g)[0] == szego_residual(f)[0]
    Z = ball_points(np.random.default_rng(seed), f.dim, 3, 0.9)
    UZ = np.einsum("jk,ik->ij", np.array([[complex(x) for x in row] for row in u]), Z)
    for k in range(8):
        got, want = poisson_series_eval(g, Z, k), poisson_series_eval(f, UZ, k)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))
