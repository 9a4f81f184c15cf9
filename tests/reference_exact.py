"""Reference implementations of the exact core, kept for equivalence tests.

These are the direct forms the line-keyed code in balltrace replaced: a
sweep that tests every (alpha, beta) pair of the index list, and a moment,
an inner product and a Cauchy projection that visit every term (or pair of
terms) in Fractions and build a MultiIndex for each; and the choice of the
worst violation by its exact Fraction gap, which the integer scan replaced.
They are slow and obviously correct; the tests require the library functions
to return identical values.
"""

from balltrace.exact import ZERO
from balltrace.membership import check_condition
from balltrace.multiindex import graded_indices, monomial_norm_sq
from balltrace.polynomials import HolomorphicPolynomial


def reference_moment(f, alpha, beta):
    total = ZERO
    for (mu, nu), coeff in f.terms.items():
        left = alpha + mu
        if left == beta + nu:
            total = total + coeff * monomial_norm_sq(left)
    return total


def reference_inner_product(f, g):
    total = ZERO
    for (mu, nu), a in f.terms.items():
        for (mu2, nu2), b in g.terms.items():
            left = mu + nu2
            if left == nu + mu2:
                total = total + a * b.conjugate() * monomial_norm_sq(left)
    return total


def reference_cauchy(f):
    """The term rule of the transforms docstring, one term at a time.

    c zeta^mu conj(zeta)^nu maps to c norm_sq(mu) / norm_sq(mu - nu) z^(mu - nu)
    when mu dominates nu, and to 0 otherwise.
    """
    out = {}
    for (mu, nu), c in f.terms.items():
        if mu.dominates(nu):
            lam = mu - nu
            out[lam] = out.get(lam, ZERO) + c * (monomial_norm_sq(mu) / monomial_norm_sq(lam))
    return HolomorphicPolynomial(f.dim, out)


def reference_sweep(f, max_order):
    diffs = {tuple(m - v for m, v in zip(mu, nu)) for (mu, nu) in f.terms}
    indices = graded_indices(f.dim, max_order)
    out = []
    for alpha in indices:
        for beta in indices:
            if tuple(b - a for a, b in zip(alpha, beta)) not in diffs:
                continue
            report = check_condition(f, alpha, beta)
            if not report.satisfied:
                out.append(report)
    return out


def reference_worst(violations):
    """The most violated condition: largest exact |lhs - rhs|^2, graded-lex ties."""
    return min(
        violations,
        key=lambda v: (-(v.lhs - v.rhs).abs_sq(), v.alpha.sort_key(), v.beta.sort_key()),
    )
