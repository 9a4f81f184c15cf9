"""Golden output: certificates, sweeps and projections over a seeded corpus.

One SHA-256 digest pins the JSON of is_boundary_trace (default order and
orders 0, 1, 3), sweep at max_degree + 1 and cauchy_transform_poly on 120
seeded documents in n = 1..4.  A refactor of the exact core must leave every
byte of these outputs unchanged; a deliberate change of output updates the
digest together with the reason.
"""

import hashlib
import json

import numpy as np

from balltrace.generators import random_nonmember_poly, random_sphere_poly
from balltrace.membership import is_boundary_trace, sweep
from balltrace.transforms import cauchy_transform_poly

GOLDEN_SHA256 = "3f94395f8594f79be7d9bb66c832e8f11e4d9a4aa3c8e075edfd22b6408212fe"


def corpus():
    rng = np.random.default_rng(20261018)
    docs = []
    for k in range(120):
        n = 1 + k % 4
        degree = 1 + (k // 4) % 3
        terms = 2 + (k // 12) % 5
        make = random_nonmember_poly if k % 2 else random_sphere_poly
        docs.append(make(rng, n, degree, terms))
    return docs


def outputs(f):
    yield f.to_json_dict()
    for order in (None, 0, 1, 3):
        yield is_boundary_trace(f, order).to_json_dict()
    yield [rep.to_json_dict() for rep in sweep(f, f.max_degree() + 1)]
    yield cauchy_transform_poly(f).to_json_dict()


def test_golden_digest():
    digest = hashlib.sha256()
    for f in corpus():
        for doc in outputs(f):
            digest.update(json.dumps(doc, sort_keys=True).encode())
            digest.update(b"\n")
    assert digest.hexdigest() == GOLDEN_SHA256
