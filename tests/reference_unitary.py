"""Exact unitary maps of C^n and the composition f o U, for invariance tests.

cayley_unitary forms U = (I - A)(I + A)^(-1) from a skew-Hermitian A with
Gaussian-rational entries.  A's eigenvalues are imaginary, so I + A is
invertible, and U is unitary with Gaussian-rational entries.  compose forms
f o U, zeta -> f(U zeta), through the ring operations of SpherePolynomial:
each coordinate (U zeta)_j is a linear polynomial, and each term of f a
product of their powers and of the powers of their conjugates.
"""

from balltrace.exact import ComplexFraction
from balltrace.multiindex import MultiIndex
from balltrace.polynomials import SpherePolynomial

ONE, ZERO = ComplexFraction(1), ComplexFraction(0)


def _matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*b)] for row in a]


def _inverse(a):
    """Gauss-Jordan over the Gaussian rationals; a must be invertible."""
    n = len(a)
    rows = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if rows[i][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[col])]
    return [row[n:] for row in rows]


def cayley_unitary(upper, diagonal):
    """U = (I - A)(I + A)^(-1) for the skew-Hermitian A with the given entries.

    upper lists A's entries above the diagonal row by row (n(n-1)/2
    ComplexFractions); A_jj = i diagonal[j] for the n rationals of diagonal,
    and A_kj = -conj(A_jk).
    """
    n = len(diagonal)
    a = [[ComplexFraction(0, d) if i == j else ZERO for j, d in enumerate(diagonal)] for i in range(n)]
    cells = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = next(cells)
            a[j][i] = -a[i][j].conjugate()
    plus = [[(ONE if i == j else ZERO) + a[i][j] for j in range(n)] for i in range(n)]
    minus = [[(ONE if i == j else ZERO) - a[i][j] for j in range(n)] for i in range(n)]
    return _matmul(minus, _inverse(plus))


def compose(f, u):
    """f o U as a SpherePolynomial: sum of c prod_j (U zeta)_j^mu_j conj((U zeta)_j)^nu_j."""
    n = f.dim
    units = [MultiIndex.unit(n, k) for k in range(n)]
    zero = MultiIndex.zero(n)
    coords = [SpherePolynomial(n, {(units[k], zero): u[j][k] for k in range(n)}) for j in range(n)]
    conjs = [SpherePolynomial(n, {(zero, units[k]): u[j][k].conjugate() for k in range(n)}) for j in range(n)]
    out = SpherePolynomial.zero(n)
    for (mu, nu), c in f.terms.items():
        term = SpherePolynomial.one(n).scale(c)
        for j in range(n):
            for _ in range(mu[j]):
                term = term * coords[j]
            for _ in range(nu[j]):
                term = term * conjs[j]
        out = out + term
    return out
