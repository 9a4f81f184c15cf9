"""The boundary-trace decision procedure with exact certificates.

A polynomial f on the sphere is the boundary trace of a holomorphic
function on the ball exactly when its moments satisfy two families of
conditions, one per ordered pair of multi-indices (alpha, beta):

  (A) if alpha_j > beta_j for some j, the moment
      integral zeta^alpha conj(zeta)^beta f dsigma must vanish;
  (B) if beta dominates alpha, the normalized moment
      norm_sq(beta)^(-1) * moment(f, alpha, beta) must equal
      norm_sq(beta-alpha)^(-1) * moment(f, 0, beta-alpha).

Every pair falls in exactly one family: "some alpha_j > beta_j" is the
negation of "beta dominates alpha".

Membership itself is decided in finite exact arithmetic through the Cauchy
(Szego) projection C[f]: f is a trace iff the exact L2 norm of the residual
r = f - C[f] vanishes, in which case C[f] is the holomorphic extension
witness; C[f] (polynomials.cauchy_transform_poly) and ||r||^2 come from the
integer line kernel of polynomials.
The conditions are linear and C[f] satisfies all of them, so they
hold for f exactly when they hold for r.  r is orthogonal to every
holomorphic monomial (Rudin, Function Theory in the Unit Ball of C^n, ch. 6),
so every right side moment(r, 0, lambda) vanishes: a pair is violated exactly
when moment(r, alpha, beta) != 0, and its gap |lhs - rhs| is
|moment(r, alpha, beta)| for A and that divided by norm_sq(beta) for B.
r is the sum of f's components h_pq in H(p,q) with q >= 1 (ch. 12), and the
pairs with |alpha|, |beta| <= N reach exactly the (orthogonal) H(p,q) with
p, q <= N: the scan at order N finds a violated pair exactly when
N >= N* = min{max(p, q) : h_pq != 0, q >= 1}, and N* <= f.max_degree().

moment(r, alpha, beta) can be nonzero only when d = beta - alpha is one of
r's difference lines mu - nu (a subset of f's: C[f] puts its terms on f's
lines d >= 0).  With d- = max(-d, 0), d+ = max(d, 0) componentwise and
h_d = max(|d-|, |d+|), the pairs on line d with |alpha|, |beta| <= N are
exactly (d- + gamma, d+ + gamma) for |gamma| <= N - h_d, C(N - h_d + n, n) of
them, and the shift by d- keeps the graded-lex order of gamma: the scan walks
each line's box and visits only pairs that exist.  As max(|alpha|, |beta|) =
|gamma| + h_d, the lines' first hits at max_degree + 1 give N*, and so where
escalating from N <= max_degree by ESCALATION_STEP first finds a violation:
N + k ESCALATION_STEP, k = ceil(max(N* - N, 0) / ESCALATION_STEP), if
k < MAX_ESCALATIONS, else max_degree + 1.  That order is below
N* + ESCALATION_STEP, so with ESCALATION_STEP = 2 at most max_degree + 1,
and its pairs are a graded-lex prefix of each line's hits at
max_degree + 1.  At sweep order N let
K = N + r.max_degree(), D = r's stored denominator (the lcm of those of its
coefficient parts) and L the lcm of the multinomials of the indices w met,
all with |w| <= K (L = 1 in n = 1).  With the weights L / multinomial(w),
  s(alpha, d) = sum over the line's terms t of (D c_t) L / multinomial(alpha + mu_t)
is a Gaussian integer with moment(r, alpha, beta) = s / (D L), and a pair is
violated iff s != 0.  The gap is |s| / (D L) for A and |s| multinomial(beta)
/ (D L) for B, so the worst violation has the largest |s|^2 c, c = 1 for A
and multinomial(beta)^2 for B, ties going to the first pair in graded-lex
order.  The decision keeps only that running worst, and only its report,
through check_condition on f, builds Fractions.  The masses are those of
moment, inner_product and C[f]: multiindex._multinomial, taken once per index
met in a scan from gamma and d- + mu_t (from gamma and d+ for a beta no term
meets), and keyed by the index's parts in radix K + 1.
A scan refuses to start when its estimate exceeds WORK_BUDGET: its pairs,
each counted once more per whole SIZE_UNIT_BITS bits of M = (n-1+K)!/(n-1)!
(bits from lgamma: nothing is built for the estimate).  L divides M, so M's
bits bound the scan's largest integers; a scan is charged for no fewer pairs
than M has such units, so one-term data of high degree, with a handful of
pairs, is still charged for its degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

from .errors import PreconditionError
from .exact import (
    ComplexFraction,
    ZERO,
    complex_from_strings,
    complex_to_float_strings,
    complex_to_strings,
    format_float,
    format_rational,
)
from .multiindex import MultiIndex, _multinomial, graded_indices, monomial_norm_sq
from .polynomials import HolomorphicPolynomial, SpherePolynomial, cauchy_transform_poly, l2_norm_sq, moment

ESCALATION_STEP = 2
MAX_ESCALATIONS = 64

# Largest condition scan accepted, in units of one pair on small integers
# (module docstring).  Measured at the budget on a 2-core x86 VM (CPython
# 3.11): sweep on conj(zeta_1) in n = 1, 2, 3, 4 (orders 6720, 499, 113, 48)
# takes 0.1, 4.1, 7.0 and 6.7 s and 4, 97, 168 and 165 MB above the
# interpreter; check on conj(zeta_1)^34947 in n = 1, under 0.01 s and 1 MB.
WORK_BUDGET = 250_000
# A scanned pair holds about 400 bytes of Python objects plus 1.5 to 2
# integers of the scan's size (peak RSS of scans in n = 1..3), so its
# integers weigh one more small pair per 1600 to 2100 bits.  2048 is the
# power of two in that range; at 4096 the n = 1 and n = 2 sweeps at the
# budget reached 260 and 222 MB.
SIZE_UNIT_BITS = 2048


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one moment condition at a pair (alpha, beta).

    Kind "A" reports lhs = moment(f, alpha, beta) against rhs = 0; kind "B"
    reports the two normalized moments of the proportionality identity.
    Satisfied means exact equality of the two sides.
    """

    kind: str
    alpha: MultiIndex
    beta: MultiIndex
    lhs: ComplexFraction
    rhs: ComplexFraction
    satisfied: bool

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "alpha": list(self.alpha),
            "beta": list(self.beta),
            "lhs": complex_to_strings(self.lhs),
            "rhs": complex_to_strings(self.rhs),
            "lhs_float": complex_to_float_strings(self.lhs),
            "rhs_float": complex_to_float_strings(self.rhs),
            "satisfied": self.satisfied,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ConditionReport":
        return cls(
            kind=doc["kind"],
            alpha=MultiIndex(doc["alpha"]),
            beta=MultiIndex(doc["beta"]),
            lhs=complex_from_strings(doc["lhs"]),
            rhs=complex_from_strings(doc["rhs"]),
            satisfied=bool(doc["satisfied"]),
        )


def check_condition_a(f: SpherePolynomial, alpha: MultiIndex, beta: MultiIndex) -> ConditionReport:
    """Vanishing condition at a pair with alpha_j > beta_j somewhere."""
    if not any(a > b for a, b in zip(alpha, beta)):
        raise PreconditionError(
            f"condition A needs alpha_j > beta_j for some j, got {tuple(alpha)}, {tuple(beta)}"
        )
    lhs = moment(f, alpha, beta)
    return ConditionReport(
        kind="A", alpha=alpha, beta=beta, lhs=lhs, rhs=ZERO, satisfied=not lhs
    )


def check_condition_b(f: SpherePolynomial, alpha: MultiIndex, beta: MultiIndex) -> ConditionReport:
    """Proportionality condition at a pair where beta dominates alpha."""
    if not beta.dominates(alpha):
        raise PreconditionError(
            f"condition B needs beta to dominate alpha, got {tuple(alpha)}, {tuple(beta)}"
        )
    lhs = moment(f, alpha, beta) * (1 / monomial_norm_sq(beta))
    lam = beta - alpha
    rhs = moment(f, MultiIndex.zero(f.dim), lam) * (1 / monomial_norm_sq(lam))
    return ConditionReport(
        kind="B", alpha=alpha, beta=beta, lhs=lhs, rhs=rhs, satisfied=lhs == rhs
    )


def check_condition(f: SpherePolynomial, alpha: MultiIndex, beta: MultiIndex) -> ConditionReport:
    """Dispatch a pair to its condition family (exactly one applies)."""
    a_case = any(a > b for a, b in zip(alpha, beta))
    if a_case:
        return check_condition_a(f, alpha, beta)
    assert beta.dominates(alpha)  # trichotomy: not case A forces domination
    return check_condition_b(f, alpha, beta)


def sweep(f: SpherePolynomial, max_order: int) -> list[ConditionReport]:
    """All violated conditions with |alpha|, |beta| <= max_order, graded-lex order.

    The integer scan of the residual r = f - C[f] (module docstring) finds
    the violated pairs; only those get a ConditionReport, built through
    check_condition on f.  A member (||r||^2 = 0) returns [] before any budget
    check; a scan estimated over WORK_BUDGET raises PreconditionError first.
    """
    if max_order < 0:
        raise PreconditionError(f"order must be >= 0, got {max_order}")
    residual_sq, _, r = _residual(f)
    if residual_sq == 0:
        return []
    return [check_condition(f, alpha, beta) for alpha, beta, *_ in _scan(r, max_order)]


def _check_budget(r: SpherePolynomial, order: int) -> list[tuple]:
    """(d, d-, d+, N - h_d) per line of r with a box, graded-lex in d; refuses estimates over WORK_BUDGET."""
    n, lines = r.dim, r.lines()
    boxes = []
    for d in sorted(lines, key=lambda d: (sum(d), tuple(-x for x in d))):
        low, high = tuple(-x if x < 0 else 0 for x in d), tuple(x if x > 0 else 0 for x in d)
        size = order - max(sum(low), sum(high))
        if size >= 0:
            boxes.append((d, low, high, size))
    pairs = sum(math.comb(size + n, n) for *_, size in boxes)
    k = order + r.max_degree()
    bits = (math.lgamma(n + k) - math.lgamma(n)) / math.log(2)  # of M = (n-1+K)!/(n-1)!
    units = 1 + int(bits) // SIZE_UNIT_BITS
    estimate = max(pairs, units) * units
    if estimate > WORK_BUDGET:
        raise PreconditionError(
            f"a condition scan at order {order} in dimension {n} would test {pairs} pairs "
            f"(alpha, beta) on {len(lines)} lines, with integers of about {int(bits)} bits: "
            f"{estimate} units of work, above the budget of {WORK_BUDGET}"
        )
    return boxes


def _line_sums(r: SpherePolynomial, order: int):
    """(d-, d+, [(gamma, s_re, s_im, c) for each pair with s != 0, graded-lex]) per line of r with a box.

    s = sum over the line's terms t of (D c_t) L / multinomial(gamma + d- + mu_t), and c = 1 on an
    A line and multinomial(beta)^2 on a B line (module docstring).  Every index met is keyed by its
    parts in radix K + 1, and its multinomial is computed the first time the scan meets it, from
    gamma and d- + mu_t; in n = 1 every weight is 1.  _check_budget refuses an estimate over
    WORK_BUDGET before any work.
    """
    boxes = _check_budget(r, order)
    n, lines, radix = r.dim, r.lines(), order + r.max_degree() + 1
    place = [radix ** j for j in range(n)]
    indices = graded_indices(n, max((size for *_, size in boxes), default=-1))
    codes = [sum(map(mul, gamma, place)) for gamma in indices]
    plan, multinomials = [], {}  # per box: d-, d+, its length and (code of d- + mu_t, D c_t)
    for d, low, high, size in boxes:
        length = math.comb(size + n, n)  # each box is a prefix of the largest
        shifts = []
        for mu, _, re, im in lines[d]:
            start = tuple(map(add, low, mu))  # d- + mu_t
            shift = sum(map(mul, start, place))
            shifts.append((shift, re, im))
            if n > 1:
                for gamma, code in zip(indices[:length], codes):
                    if code + shift not in multinomials:
                        multinomials[code + shift] = _multinomial(tuple(map(add, gamma, start)))
        plan.append((low, high, length, shifts))
    lcm = math.lcm(*multinomials.values())  # L
    weights = {code: lcm // m for code, m in multinomials.items()}
    for low, high, length, shifts in plan:
        kind_a, to_beta = any(low), sum(map(mul, high, place))  # A exactly when d- != 0
        hits = []
        for gamma, code in zip(indices[:length], codes):
            s_re = s_im = 0
            for shift, re, im in shifts:
                w = weights.get(code + shift, 1)
                s_re += re * w
                s_im += im * w
            if s_re or s_im:
                m = 1 if kind_a else multinomials.get(code + to_beta) or _multinomial(tuple(map(add, gamma, high)))
                hits.append((gamma, s_re, s_im, m * m))  # c = multinomial(beta)^2 on a B line
        yield low, high, hits


def _scan(r: SpherePolynomial, order: int) -> list[tuple]:
    """Violated pairs of the residual r up to order as (alpha, beta, s_re, s_im), graded-lex.

    moment(r, alpha, beta) = (s_re + i s_im) / (D L) (module docstring); every s is nonzero.
    """
    out, lines_hit = [], 0
    for low, high, hits in _line_sums(r, order):
        kind_a, shift_beta = any(low), any(high)
        lines_hit += bool(hits)
        for gamma, s_re, s_im, _ in hits:
            alpha = tuple.__new__(MultiIndex, map(add, gamma, low)) if kind_a else gamma
            beta = tuple.__new__(MultiIndex, map(add, gamma, high)) if shift_beta else gamma
            out.append((alpha, beta, s_re, s_im))
    # lines come graded-lex in d, each graded-lex in alpha; a reverse sort keeps ties in place
    if lines_hit > 1:
        out.sort(key=lambda v: (-sum(v[0]), v[0]), reverse=True)
    return out


def _worst_violation(r: SpherePolynomial, order: int, sums=None) -> tuple[MultiIndex, MultiIndex] | None:
    """(alpha, beta) of the largest |s|^2 c (module docstring), None if no pair is violated.

    A running worst over the line sums, those of a scan at order unless sums
    gives them; ties go to the first pair in graded-lex order.
    """
    worst = None
    for low, high, hits in _line_sums(r, order) if sums is None else sums:
        if hits:  # max keeps the first of equal sizes on a line; across lines alpha decides
            gamma, s_re, s_im, c = max(hits, key=lambda h: (h[1] * h[1] + h[2] * h[2]) * h[3])
            alpha = tuple.__new__(MultiIndex, map(add, gamma, low))
            rank = (-(s_re * s_re + s_im * s_im) * c, alpha.sort_key())
            if worst is None or rank < worst[0]:
                worst = rank, alpha, tuple.__new__(MultiIndex, map(add, gamma, high))
    return worst and worst[1:]


def _residual(f: SpherePolynomial) -> tuple[Fraction, HolomorphicPolynomial, SpherePolynomial]:
    """(||r||^2, C[f], r) for the Szego residual r = f - C[f]: the one membership test."""
    g = cauchy_transform_poly(f)
    r = f - g
    return l2_norm_sq(r), g, r


def szego_residual(f: SpherePolynomial) -> tuple[Fraction, HolomorphicPolynomial]:
    """Exact squared L2 distance between f and its Cauchy projection.

    Returns (residual_sq, projection).  The residual vanishes exactly when f
    agrees a.e. on the sphere with the restriction of a holomorphic
    polynomial, i.e. when f is a boundary trace (for every p >= 1; polynomial
    data lies in every Lp, so membership does not depend on p).
    """
    return _residual(f)[:2]


@dataclass(frozen=True)
class MembershipCertificate:
    """Exact decision: either an extension witness or a violated condition.

    member is equivalent to residual_sq == 0.  Non-members always carry a
    violation together with the sweep order at which it was found.
    """

    member: bool
    residual_sq: Fraction
    witness_extension: HolomorphicPolynomial | None
    violation: ConditionReport | None
    violation_order: int | None = None

    def to_json_dict(self) -> dict:
        doc = {
            "member": self.member,
            "residual_sq": format_rational(self.residual_sq),
            "residual_sq_float": format_float(self.residual_sq),
        }
        if self.witness_extension is not None:
            doc["witness_extension"] = self.witness_extension.to_json_dict()
        if self.violation is not None:
            doc["violation"] = self.violation.to_json_dict()
            doc["violation_order"] = self.violation_order
        return doc


def is_boundary_trace(f: SpherePolynomial, sweep_order: int | None = None) -> MembershipCertificate:
    """Decide membership exactly and produce a certificate.

    The decision itself comes from the exact Szego residual r = f - C[f],
    formed once and used both for ||r||^2 and for the scan.  A non-member's
    violation is the worst of one scan, at max(sweep_order, max_degree + 1).
    At sweep_order >= max_degree + 1 (the default) that is the whole scan.
    Below it, the violation order is where escalating from sweep_order by
    ESCALATION_STEP first finds a violated pair, computed from the lowest
    violated order of the scan (MAX_ESCALATIONS steps at most, else
    max_degree + 1; module docstring), and the worst is taken among the
    scan's pairs up to that order.  Every s of one scan carries the same
    factor D L, so their ranking and its ties are those of a scan at that
    order.  A negative order or a scan over WORK_BUDGET raises
    PreconditionError.
    """
    if sweep_order is not None and sweep_order < 0:
        raise PreconditionError(f"order must be >= 0, got {sweep_order}")
    residual_sq, g, r = _residual(f)
    if residual_sq == 0:
        return MembershipCertificate(
            member=True, residual_sq=residual_sq, witness_extension=g, violation=None
        )
    bound = f.max_degree() + 1
    order = bound if sweep_order is None else sweep_order
    sums = None
    if order < bound:  # where the escalation from order stops (module docstring), and its pairs
        sums = [(lo, hi, hits) for lo, hi, hits in _line_sums(r, bound) if hits]
        lowest = min(max(sum(lo), sum(hi)) + sum(hits[0][0]) for lo, hi, hits in sums)
        steps = -(-max(lowest - order, 0) // ESCALATION_STEP)
        order = order + steps * ESCALATION_STEP if steps < MAX_ESCALATIONS else bound
        sums = [(lo, hi, [hit for hit in hits if sum(hit[0]) + max(sum(lo), sum(hi)) <= order])
                for lo, hi, hits in sums]
    worst = _worst_violation(r, order, sums)
    return MembershipCertificate(
        member=False,
        residual_sq=residual_sq,
        witness_extension=None,
        violation=check_condition(f, *worst),
        violation_order=order,
    )
