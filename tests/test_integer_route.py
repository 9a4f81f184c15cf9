"""`check` works on the stored integers from the document to the certificate.

Parsing stores each literal's numerator and denominator over their lcm and
builds no ComplexFraction; the Cauchy projection and the condition scan stay
in integers, so a decision builds ComplexFractions only for the values its
certificate reports, a number that does not grow with the terms or lines of f.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balltrace import exact
from balltrace.cli import parse_polynomial
from balltrace.exact import ComplexFraction
from balltrace.generators import random_nonmember_poly
from balltrace.membership import is_boundary_trace
from balltrace.multiindex import graded_indices
from balltrace.polynomials import SpherePolynomial


@pytest.fixture
def built(monkeypatch):
    """A list that grows by one for every ComplexFraction constructed."""
    calls, original = [], exact.ComplexFraction.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(exact.ComplexFraction, "__init__", counting)
    return calls


SIZES = [(2, 5), (3, 21), (4, 41)]  # (n, terms drawn): 6, 22 and 41 terms on 6, 22 and 37 lines


def nonmember_document(n: int, terms: int) -> str:
    return json.dumps(random_nonmember_poly(np.random.default_rng(n), n, 4, terms).to_json_dict())


@pytest.mark.parametrize("n, terms", SIZES)
def test_parsing_builds_no_complex_fraction(built, n, terms):
    text = nonmember_document(n, terms)
    built.clear()
    f = parse_polynomial(text)
    assert built == [] and len(f.lines()) > 5


@pytest.mark.parametrize("n, terms", SIZES)
def test_a_decision_builds_a_bounded_number(built, n, terms):
    f = parse_polynomial(nonmember_document(n, terms))
    built.clear()
    cert = is_boundary_trace(f)
    # one for ||r||^2, then one (kind A) or four (kind B) for the reported lhs and rhs
    assert not cert.member and len(f.lines()) > 5 and len(built) <= 5


@st.composite
def documents(draw):
    """(doc, expected): unreduced literals ("2/4", "-6/9", "0/7"), repeated and cancelling keys.

    expected is the Mapping constructor on each key's summed Fractions, keys in first-seen order.
    """
    n = draw(st.integers(1, 3))
    pool = [list(idx) for idx in graded_indices(n, 2)]
    literal = st.tuples(st.integers(-9, 9), st.integers(1, 9), st.integers(1, 4))  # (p, q, k): "pk/qk"
    terms = []
    for _ in range(draw(st.integers(0, 8))):
        mu, nu, re, im = draw(st.sampled_from(pool)), draw(st.sampled_from(pool)), draw(literal), draw(literal)
        terms.append((mu, nu, re, im))
        if draw(st.booleans()):  # cancelled by the same term, negated over three times the denominator
            terms.append((mu, nu, (-re[0], re[1], 3 * re[2]), (-im[0], im[1], 3 * im[2])))
    terms = draw(st.permutations(terms))

    def text(p, q, k):
        return f"{p * k}" if q * k == 1 and draw(st.booleans()) else f"{p * k}/{q * k}"

    sums = {}
    for mu, nu, re, im in terms:
        x, y = sums.get((tuple(mu), tuple(nu)), (0, 0))
        sums[(tuple(mu), tuple(nu))] = (x + Fraction(re[0], re[1]), y + Fraction(im[0], im[1]))
    doc = {"n": n, "terms": [{"mu": mu, "nu": nu, "re": text(*re), "im": text(*im)} for mu, nu, re, im in terms]}
    return doc, SpherePolynomial(n, {key: ComplexFraction(x, y) for key, (x, y) in sums.items()})


@given(documents())
@settings(max_examples=200, deadline=None)
def test_parsed_documents_equal_the_mapping_constructor(case):
    doc, want = case
    got = SpherePolynomial.from_json_dict(doc)
    assert got == want and hash(got) == hash(want)
    assert list(got.terms.items()) == list(want.terms.items())  # the same key order, so the same float sums
