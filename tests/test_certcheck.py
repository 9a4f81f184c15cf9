"""Membership certificates re-derived by tests/certcheck.py, which imports nothing from balltrace.

The checker runs over the golden corpus's 480 certificates (default order
and orders 0, 1, 3 on 120 documents) and over one-term data of high degree,
and each planted corruption of a certificate must be caught.
"""

import copy
import math
from fractions import Fraction

import pytest

from balltrace.membership import is_boundary_trace
from balltrace.polynomials import SpherePolynomial

from certcheck import problems
from test_golden import corpus


@pytest.fixture(scope="module")
def certified():
    return [(f.to_json_dict(), is_boundary_trace(f, order).to_json_dict())
            for f in corpus() for order in (None, 0, 1, 3)]


def test_golden_certificates_check(certified):
    assert len(certified) == 480
    assert [(doc, cert) for doc, cert in certified if problems(doc, cert)] == []
    assert {cert["member"] for _, cert in certified} == {True, False}


@pytest.mark.parametrize("n, m", [(3, 400), (3, 2000), (2, 4000), (1, 20000)])
def test_high_degree_certificates_check(n, m):
    doc = SpherePolynomial.monomial(n, (0,) * n, (m,) + (0,) * (n - 1)).to_json_dict()
    cert = is_boundary_trace(SpherePolynomial.from_json_dict(doc)).to_json_dict()
    assert cert["violation_order"] == m + 1 and problems(doc, cert) == []


def _negated(value):
    return {part: str(-Fraction(s)) for part, s in value.items()}


def _first(certified, test):
    return copy.deepcopy(next((doc, cert) for doc, cert in certified if test(doc, cert)))


def test_planted_corruptions_fail(certified):
    doc, cert = _first(certified, lambda d, c: not c["member"] and Fraction(c["violation"]["lhs"]["re"]))
    cert["violation"]["lhs"] = _negated(cert["violation"]["lhs"])
    assert problems(doc, cert)

    doc, cert = _first(certified, lambda d, c: not c["member"] and c["violation"]["alpha"] != c["violation"]["beta"])
    v = cert["violation"]
    v["alpha"], v["beta"] = v["beta"], v["alpha"]
    assert problems(doc, cert)

    doc, cert = _first(certified, lambda d, c: not c["member"])
    cert["violation"]["kind"] = {"A": "B", "B": "A"}[cert["violation"]["kind"]]
    assert problems(doc, cert)

    doc, cert = _first(certified, lambda d, c: True)
    den = math.lcm(*(Fraction(t[part]).denominator for t in doc["terms"] for part in ("re", "im")))
    cert["residual_sq"] = str(Fraction(cert["residual_sq"]) + Fraction(1, den * den))
    assert problems(doc, cert)

    doc, cert = _first(certified, lambda d, c: c["member"] and c["witness_extension"]["terms"])
    cert["witness_extension"]["terms"].pop()
    assert problems(doc, cert)
