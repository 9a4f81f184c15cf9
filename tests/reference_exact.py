"""Reference implementations of the exact core, kept for equivalence tests.

These are the direct forms the line-keyed code in balltrace replaced: a
sweep that tests every (alpha, beta) pair of the index list, the integer
scan that tries every alpha of the index list against every line, and a moment,
an inner product and a Cauchy projection that visit every term (or pair of
terms) in Fractions and build a MultiIndex for each; the choice of the
worst violation by its exact Fraction gap, which the integer scan replaced;
the integer ranking before it kept a running worst: every violation of a
box scan weighted by the factorial M, divided by G and then ranked; and the
decision's search for a violated order by scanning again every
ESCALATION_STEP orders, before that order was computed from the lowest one;
the line sums that read each multinomial off the radix code of its index,
with n divisions of the code, before the scan took it from the index.
The ring operations add and multiply ComplexFraction coefficients term by
term, as before polynomials were stored as Gaussian integers over one
denominator; each returns the terms of its result in the order it first
meets them, without the ones that sum to zero.  The float view converts each
coefficient with complex(ComplexFraction).  They are slow and obviously
correct; the tests require the library functions to return identical values.
"""

import math
from operator import add, le, mul

import numpy as np

from balltrace.exact import ZERO
from balltrace.membership import (
    ESCALATION_STEP,
    MAX_ESCALATIONS,
    MembershipCertificate,
    _check_budget,
    _worst_violation,
    check_condition,
)
from balltrace.multiindex import MultiIndex, _multinomial, graded_indices, monomial_norm_sq
from balltrace.polynomials import HolomorphicPolynomial, _PowerTable, cauchy_transform_poly, l2_norm_sq


def _accumulate(products):
    out = {}
    for key, c in products:
        out[key] = out.get(key, ZERO) + c
    return {key: c for key, c in out.items() if c}


def reference_add(f, g):
    return _accumulate([*f.terms.items(), *g.terms.items()])


def reference_sub(f, g):
    return _accumulate([*f.terms.items(), *((k, -c) for k, c in g.terms.items())])


def reference_neg(f):
    return _accumulate((k, -c) for k, c in f.terms.items())


def reference_scale(f, factor):
    return _accumulate((k, c * factor) for k, c in f.terms.items())


def reference_mul(f, g):
    return _accumulate(
        ((mu1 + mu2, nu1 + nu2), a * b)
        for (mu1, nu1), a in f.terms.items() for (mu2, nu2), b in g.terms.items()
    )


def reference_conjugate(f):
    return _accumulate(((nu, mu), c.conjugate()) for (mu, nu), c in f.terms.items())


def reference_laplacian(f):
    out = []
    for (mu, nu), c in f.terms.items():
        for j in range(f.dim):
            if mu[j] and nu[j]:
                e = MultiIndex.unit(f.dim, j)
                out.append(((mu - e, nu - e), c * (mu[j] * nu[j])))
    return _accumulate(out)


def reference_eval(f, Z):
    """f at the rows of Z, summed as SpherePolynomial.eval sums, each coefficient through complex()."""
    zp, zc = _PowerTable(Z), _PowerTable(np.conj(Z))
    acc = np.zeros(Z.shape[0], dtype=np.complex128)
    for (mu, nu), c in f.terms.items():
        acc = acc + np.multiply(complex(c), zp.monomial(mu)) * zc.monomial(nu)
    return acc


def reference_masses(f):
    """{(p, q): sum of |c| over that harmonic component}, each |c|^2 through float(Fraction)."""
    return {
        pq: sum(math.sqrt(float(c.abs_sq())) for c in h.terms.values())
        for pq, h in f.harmonics().items()
    }


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


def reference_scan(r, order):
    """membership._scan before it walked each line's box: every alpha of the index
    list against every line of r, beta = alpha + d looked up in the list.  Each
    violation reports S / G, G = M / L with L the lcm of the multinomials of its weights."""
    n, lines = r.dim, r.lines()
    k = order + r.max_degree()
    full = math.perm(n - 1 + k, k)
    weights = {}

    def weight(omega):
        if omega not in weights:
            weights[omega] = full // _multinomial(omega)
        return weights[omega]

    # for a fixed alpha, beta = alpha + d runs in the graded-lex order of d
    plan = [(d, lines[d]) for d in sorted(lines, key=lambda d: (sum(d), tuple(-x for x in d)))]
    indices = graded_indices(n, order)
    lookup = {idx: idx for idx in indices}
    out = []
    for alpha in indices:
        for d, terms in plan:
            beta = lookup.get(tuple(map(add, alpha, d)))
            if beta is None:
                continue
            s_re = s_im = 0
            for mu, _, re, im in terms:
                w = weight(tuple(map(add, alpha, mu)))
                s_re += re * w
                s_im += im * w
            if s_re or s_im:
                out.append((alpha, beta, s_re, s_im))
    g = full // math.lcm(*(full // w for w in weights.values()))
    return [(alpha, beta, s_re // g, s_im // g) for alpha, beta, s_re, s_im in out]


def reference_worst(violations):
    """The most violated condition: largest exact |lhs - rhs|^2, graded-lex ties."""
    return min(
        violations,
        key=lambda v: (-(v.lhs - v.rhs).abs_sq(), v.alpha.sort_key(), v.beta.sort_key()),
    )


def reference_worst_pair(r, order):
    """(alpha, beta) of the worst violation as membership ranked it before it kept a running worst.

    Each line's box is scanned with weights W(omega) = M / multinomial(omega), M = (n-1+K)!/(n-1)!;
    the violations are sorted graded-lex and divided by G = M / L, and the largest |s|^2 c wins
    (c = 1 for A, multinomial(beta)^2 for B), ties to the first.  None when no pair is violated.
    """
    boxes = _check_budget(r, order)
    n, lines = r.dim, r.lines()
    k = order + r.max_degree()
    full = math.perm(n - 1 + k, k)
    weights, multinomials = {}, []

    def weight(omega):
        if omega not in weights:
            multinomials.append(_multinomial(omega))
            weights[omega] = full // multinomials[-1]
        return weights[omega]

    indices = graded_indices(n, max((size for *_, size in boxes), default=-1))
    out = []
    for d, low, high, size in boxes:
        shifts = [(tuple(map(add, low, mu)), re, im) for mu, _, re, im in lines[d]]
        for gamma in indices[:math.comb(size + n, n)]:
            s_re = s_im = 0
            for shift, re, im in shifts:
                w = weight(tuple(map(add, gamma, shift)))
                s_re += re * w
                s_im += im * w
            if s_re or s_im:
                out.append((MultiIndex(map(add, gamma, low)), MultiIndex(map(add, gamma, high)), s_re, s_im))
    out.sort(key=lambda v: (-sum(v[0]), v[0]), reverse=True)
    g = full // math.lcm(*multinomials)
    violations = [(alpha, beta, s_re // g, s_im // g) for alpha, beta, s_re, s_im in out]

    def size(v):
        alpha, beta, s_re, s_im = v
        c = _multinomial(beta) if all(map(le, alpha, beta)) else 1  # B exactly when beta dominates alpha
        return (s_re * s_re + s_im * s_im) * c * c

    return max(violations, key=size)[:2] if violations else None


def reference_line_sums(r, order):
    """membership._line_sums as it decoded each index met from its code in radix K + 1.

    Each code is split into its parts by n divisions of integers of n log2(K + 1) bits, and the
    multinomial is the product of binomials read off the parts.
    """
    boxes = _check_budget(r, order)
    n, lines, radix = r.dim, r.lines(), order + r.max_degree() + 1
    place = [radix ** j for j in range(n)]
    indices = graded_indices(n, max((size for *_, size in boxes), default=-1))
    codes = [sum(map(mul, gamma, place)) for gamma in indices]

    def multinomial(code):
        top, out = n - 1, 1
        for p in place:
            part = code // p % radix
            top += part
            out *= math.comb(top, part)
        return out

    plan, met = [], set()
    for d, low, high, size in boxes:
        length = math.comb(size + n, n)
        shifts = [(sum(map(mul, map(add, low, mu), place)), re, im) for mu, _, re, im in lines[d]]
        if n > 1:
            for shift, _, _ in shifts:
                met.update([code + shift for code in codes[:length]])
        plan.append((low, high, length, shifts))
    multinomials = {code: multinomial(code) for code in met}
    lcm = math.lcm(*multinomials.values())
    weights = {code: lcm // m for code, m in multinomials.items()}
    out = []
    for low, high, length, shifts in plan:
        kind_a, to_beta = any(low), sum(map(mul, high, place))
        hits = []
        for gamma, code in zip(indices[:length], codes):
            s_re = s_im = 0
            for shift, re, im in shifts:
                w = weights.get(code + shift, 1)
                s_re += re * w
                s_im += im * w
            if s_re or s_im:
                c = 1 if kind_a else (multinomials.get(code + to_beta) or multinomial(code + to_beta)) ** 2
                hits.append((gamma, s_re, s_im, c))
        out.append((low, high, hits))
    return out


def reference_escalation(f, order):
    """is_boundary_trace(f, order).to_json_dict() as the escalation loop made it.

    Scans at order, then every ESCALATION_STEP orders until some pair is violated;
    after MAX_ESCALATIONS scans without one it scans at max_degree + 1.
    """
    g = cauchy_transform_poly(f)
    r = f - g
    residual_sq = l2_norm_sq(r)
    if residual_sq == 0:
        cert = MembershipCertificate(member=True, residual_sq=residual_sq, witness_extension=g, violation=None)
        return cert.to_json_dict()
    for _ in range(MAX_ESCALATIONS):
        worst = _worst_violation(r, order)
        if worst:
            break
        order += ESCALATION_STEP
    else:
        order = f.max_degree() + 1
        worst = _worst_violation(r, order)
    cert = MembershipCertificate(
        member=False, residual_sq=residual_sq, witness_extension=None,
        violation=check_condition(f, *worst), violation_order=order,
    )
    return cert.to_json_dict()
