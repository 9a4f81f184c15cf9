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

Both moments of a pair can be nonzero only when beta - alpha lies on one of
f's difference lines d = mu - nu, so the sweep enumerates, for each alpha,
only beta = alpha + d over those few lines: O(|indices| * lines) pairs, not
|indices|^2.

Membership itself is decided in finite exact arithmetic through the Cauchy
(Szego) projection: f is a trace iff the exact L2 residual of f minus its
projection vanishes, in which case the projection is the holomorphic
extension witness.  For a non-member the sweep at order max_degree + 1
always returns a counter-certificate.  The conditions are linear and the
projection C[f] satisfies all of them, so they hold for f exactly when they
hold for the residual r = f - C[f].  r is orthogonal to every holomorphic
monomial, so every right side moment(r, 0, lambda) vanishes and a pair is
violated exactly when moment(r, alpha, beta) != 0.  Since
||r||^2 = sum over r's terms of conj(c_{mu,nu}) moment(r, nu, mu) > 0, some
pair (nu, mu) with |nu|, |mu| <= f.max_degree() is violated.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .exact import (
    ComplexFraction,
    ZERO,
    complex_from_strings,
    complex_to_strings,
    format_rational,
    to_complex,
)
from .multiindex import MultiIndex, graded_indices, monomial_norm_sq
from .polynomials import (
    HolomorphicPolynomial,
    SpherePolynomial,
    l2_norm_sq,
    moment,
)
from .transforms import cauchy_transform_poly

logger = logging.getLogger(__name__)

ESCALATION_STEP = 2
MAX_ESCALATIONS = 64


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
            "lhs_float": _float_pair(self.lhs),
            "rhs_float": _float_pair(self.rhs),
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


def _float_pair(z: ComplexFraction) -> dict:
    # float renderings in reports are fixed-width strings for byte stability
    c = to_complex(z)
    return {"re": f"{c.real:.17g}", "im": f"{c.imag:.17g}"}


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

    Pairs off f's difference lines are satisfied trivially, so they are never
    formed: for each alpha and each line d, beta = alpha + d is kept when it
    is an index of the list (nonnegative, degree <= max_order).  Cost is
    O(|indices| * lines) lookups plus one check per kept pair.
    """
    indices = graded_indices(f.dim, max_order)
    position = {idx: j for j, idx in enumerate(indices)}
    lines = f.lines()
    out = []
    for alpha in indices:
        hits = [position.get(tuple(a + x for a, x in zip(alpha, d))) for d in lines]
        # sorted positions in the graded-lex list give the beta order of a full scan
        for j in sorted(j for j in hits if j is not None):
            report = check_condition(f, alpha, indices[j])
            if not report.satisfied:
                out.append(report)
    return out


def _worst_violation(violations: list[ConditionReport]) -> ConditionReport:
    """The most violated condition: largest exact |lhs - rhs|^2, graded-lex ties."""
    return min(
        violations,
        key=lambda v: (-(v.lhs - v.rhs).abs_sq(), v.alpha.sort_key(), v.beta.sort_key()),
    )


def szego_residual(f: SpherePolynomial) -> tuple[Fraction, HolomorphicPolynomial]:
    """Exact squared L2 distance between f and its Cauchy projection.

    Returns (residual_sq, projection).  The residual vanishes exactly when f
    agrees a.e. on the sphere with the restriction of a holomorphic
    polynomial, i.e. when f is a boundary trace (for every p >= 1; polynomial
    data lies in every Lp, so membership does not depend on p).
    """
    g = cauchy_transform_poly(f)
    residual_sq = l2_norm_sq(f - g.restrict_to_sphere())
    return residual_sq, g


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
            "residual_sq_float": f"{float(self.residual_sq):.17g}",
        }
        if self.witness_extension is not None:
            doc["witness_extension"] = self.witness_extension.to_json_dict()
        if self.violation is not None:
            doc["violation"] = self.violation.to_json_dict()
            doc["violation_order"] = self.violation_order
        return doc


def is_boundary_trace(f: SpherePolynomial, sweep_order: int | None = None) -> MembershipCertificate:
    """Decide membership exactly and produce a certificate.

    The decision itself comes from the exact Szego residual.  For a
    non-member, the sweep runs at sweep_order (default: the polynomial's
    maximum degree plus one, where a violation is guaranteed; see the module
    docstring) and escalates by ESCALATION_STEP until some violated condition
    appears.  After MAX_ESCALATIONS steps below that order it jumps straight
    to it, so the search always ends; the certificate records the order where
    it stopped.
    """
    residual_sq, g = szego_residual(f)
    if residual_sq == 0:
        return MembershipCertificate(
            member=True, residual_sq=residual_sq, witness_extension=g, violation=None
        )
    bound = f.max_degree() + 1
    order = sweep_order if sweep_order is not None else bound
    steps = 0
    while True:
        violations = sweep(f, order)
        if violations:
            logger.info("violation found at sweep order %d", order)
            return MembershipCertificate(
                member=False,
                residual_sq=residual_sq,
                witness_extension=None,
                violation=_worst_violation(violations),
                violation_order=order,
            )
        if order >= bound:
            raise RuntimeError(
                f"no violated condition found at order {order} despite residual "
                f"{residual_sq} > 0; this contradicts the moment characterization"
            )
        steps += 1
        order = order + ESCALATION_STEP if steps < MAX_ESCALATIONS else bound


def certificate_to_json(cert: MembershipCertificate, indent: int | None = 2) -> str:
    return json.dumps(cert.to_json_dict(), indent=indent)
