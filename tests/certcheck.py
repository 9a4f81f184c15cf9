"""An independent checker of membership certificates: stdlib only, nothing from balltrace.

problems(doc, cert) re-derives in Fractions what the certificate of
`balltrace check` claims about a polynomial document, from three definitions:
the sphere integral of zeta^w conj(zeta)^v is (n-1)! w! / (n-1+|w|)! if w = v
and 0 otherwise; C maps c zeta^mu conj(zeta)^nu to c norm_sq(mu) / norm_sq(lam)
z^lam when lam = mu - nu >= 0, and to 0 otherwise; a pair is of kind A
(moment(f, alpha, beta) = 0) when some alpha_j > beta_j, else of kind B
(moment(f, alpha, beta) / norm_sq(beta) = moment(f, 0, lam) / norm_sq(lam),
lam = beta - alpha).  It cannot check that the violation is the worst one:
that takes every pair up to the order, the sweep itself.
"""

import math
from fractions import Fraction


def plus(x, y):
    return tuple(a + b for a, b in zip(x, y))


def norm_sq(w):  # the sphere integral of |zeta^w|^2
    n = len(w)
    return Fraction(math.factorial(n - 1) * math.prod(map(math.factorial, w)), math.factorial(n - 1 + sum(w)))


def poly(doc):
    """{(mu, nu): (re, im)} of a polynomial document; a witness's terms have no nu."""
    out = {}
    for t in doc["terms"]:
        key = (tuple(t["mu"]), tuple(t.get("nu", [0] * doc["n"])))
        re, im = out.get(key, (0, 0))
        out[key] = (re + Fraction(t["re"]), im + Fraction(t["im"]))
    return out


def minus(f, g):
    out = dict(f)
    for key, (re, im) in g.items():
        a, b = out.get(key, (0, 0))
        out[key] = (a - re, b - im)
    return out


def cauchy(f):
    out = {}
    for (mu, nu), (re, im) in f.items():
        lam = tuple(m - v for m, v in zip(mu, nu))
        if min(lam) >= 0:
            q = norm_sq(mu) / norm_sq(lam)
            out = minus(out, {(lam, (0,) * len(lam)): (-re * q, -im * q)})
    return out


def moment(f, alpha, beta):  # the integral of zeta^alpha conj(zeta)^beta f, as [re, im]
    hits = [(c, norm_sq(plus(alpha, mu))) for (mu, nu), c in f.items() if plus(alpha, mu) == plus(beta, nu)]
    return [sum(c[0] * q for c, q in hits), sum(c[1] * q for c, q in hits)]


def norm2(f):
    """||f||^2: each term pair (s, t) adds Re(c_s conj(c_t)) times the integral of z^(mu_s+nu_t) zbar^(nu_s+mu_t)."""
    return sum((a * c + b * d) * norm_sq(plus(mu, nu2)) for (mu, nu), (a, b) in f.items()
               for (mu2, nu2), (c, d) in f.items() if plus(mu, nu2) == plus(nu, mu2))


def problems(doc, cert):
    """What the certificate of the document gets wrong; [] when every claim holds."""
    f, out = poly(doc), []
    residual_sq = norm2(minus(f, cauchy(f)))
    if Fraction(cert["residual_sq"]) != residual_sq or cert["member"] != (residual_sq == 0):
        out.append(f"residual_sq {cert['residual_sq']}, member {cert['member']}: ||f - C[f]||^2 is {residual_sq}")
    if cert["member"]:
        if "witness_extension" not in cert or norm2(minus(f, poly(cert["witness_extension"]))):
            out.append("the witness differs from f on the sphere")
        return out
    v = cert["violation"]
    alpha, beta = tuple(v["alpha"]), tuple(v["beta"])
    lhs, rhs = ([Fraction(v[side][part]) for part in ("re", "im")] for side in ("lhs", "rhs"))
    lam = tuple(b - a for a, b in zip(alpha, beta))
    if min(lam) < 0:  # some alpha_j > beta_j
        want = ("A", moment(f, alpha, beta), [0, 0])
    else:
        zero = (0,) * len(lam)
        want = ("B", [x / norm_sq(beta) for x in moment(f, alpha, beta)],
                [x / norm_sq(lam) for x in moment(f, zero, lam)])
    if (v["kind"], lhs, rhs) != want:
        out.append(f"pair {alpha}, {beta} is of kind {want[0]} with lhs {want[1]} and rhs {want[2]}")
    if v["satisfied"] or lhs == rhs:
        out.append("the reported condition holds")
    if max(sum(alpha), sum(beta)) > cert["violation_order"]:
        out.append(f"the pair lies beyond order {cert['violation_order']}")
    return out
