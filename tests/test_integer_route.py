"""`check` works on the stored integers from the document to the certificate.

Parsing adds up each key's literals over the lcm of their denominators,
reduces each sum, and stores the polynomial over D, the lcm of the reduced
denominators, in lowest terms; it builds no ComplexFraction.  So literals that
cancel or reduce never make D large.  The Cauchy projection and the condition
scan stay in integers, so a decision builds ComplexFractions only for the
values its certificate reports, a number that does not grow with the terms or
lines of f.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balltrace import exact
from balltrace.cli import main, parse_polynomial
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


@given(documents())
@settings(max_examples=200, deadline=None)
def test_parsed_documents_are_stored_in_lowest_terms(case):
    got = SpherePolynomial.from_json_dict(case[0])
    assert math.gcd(got._den, *(x for part in got._parts.values() for x in part)) == 1


def odd_denominators(count: int, digits: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(10 ** (digits - 1), 10 ** digits) | 1 for _ in range(count)]


def test_cancelling_literals_parse_at_once(tmp_path, capsys):
    # 400 pairs 1/q, -1/q with distinct odd 1001-digit q, each pair on its own key (0.84 MB):
    # over the lcm of every written denominator, D would have about 400000 digits
    qs = odd_denominators(400, 1001, seed=29)
    terms = [{"mu": [k], "nu": [0], "re": f"{sign}/{q}", "im": "0"} for sign in (1, -1) for k, q in enumerate(qs)]
    text = json.dumps({"n": 1, "terms": terms})
    start = time.perf_counter()
    f = parse_polynomial(text)
    assert time.perf_counter() - start < 1.0
    assert f.is_zero() and f._den == 1
    path = tmp_path / "cancelling.json"
    path.write_text(text)
    assert main(["check", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["member"] is True


def test_distinct_large_denominators_parse_to_the_mapping_constructor():
    # nothing cancels: D is the product of 200 distinct 500-digit denominators,
    # and the parts need no gcd pass over integers of D's size
    qs = odd_denominators(200, 500, seed=7)
    doc = {"n": 1, "terms": [{"mu": [k], "nu": [0], "re": f"1/{q}", "im": "0"} for k, q in enumerate(qs)]}
    start = time.perf_counter()
    got = SpherePolynomial.from_json_dict(doc)
    assert time.perf_counter() - start < 3.0
    want = SpherePolynomial(1, {((k,), (0,)): Fraction(1, q) for k, q in enumerate(qs)})
    assert got == want and hash(got) == hash(want)
    assert list(got.terms.items()) == list(want.terms.items())
