"""Golden digest of the exact CLI: every byte that `cli.main` writes.

Seeded argv cases run in process through cli.main: constants (json and csv),
moment, check (default order and --sweep-order), and sweep on member,
non-member, holomorphic and sphere-relation documents in n = 1..4, each
written to stdout and, through --output, over a longer file; each budget
refusal; and one fault per flag of the fuzz grammar (tests/test_cli_fuzz.py).
Each case hashes its exit code, stdout, stderr and --output bytes; one
SHA-256 digest over all cases pins them.  Where an error's text comes from
Python itself (an OSError, the JSON decoder, argparse), a case hashes only
the exit code and the error's type.  The float commands (radial-scan and
verify past their refusals) stay out: their bits can depend on numpy, and
tests/test_cli.py pins their bytes.

A deliberate change of output updates GOLDEN_SHA256 together with the
reason.  `python tests/test_cli_golden.py` prints one digest per case, so
two checkouts' listings name the cases that moved.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from unittest import mock

from balltrace import cli

GOLDEN_SHA256 = "3b77d48fa8afabee7049760ac33defa22c3f06bc1753ab56c211aeacb875eab3"

# what an --output file holds before each run: longer than most payloads
STALE = "stale bytes\n" * 400


def _term(mu, nu, re="1/1", im="0/1"):
    return {"mu": list(mu), "nu": list(nu), "re": re, "im": im}


def _unit(n, k, scale=1):
    return [scale if j == k else 0 for j in range(n)]


def documents():
    """name -> document text, four kinds in each n = 1..4."""
    docs = {}
    for n in (1, 2, 3, 4):
        zero, last = [0] * n, n - 1
        e = [_unit(n, k) for k in range(n)]
        docs[f"holomorphic-n{n}"] = [
            _term(_unit(n, 0, 2), zero, "3/2", "-1/3"),
            _term(_unit(n, last, 1), zero, "-2/3"),
            _term([1] * n, zero, "0/1", "5/4"),
            _term(zero, zero, "1/2", "1/2"),
        ]
        # (|zeta_1|^2 + ... + |zeta_n|^2) zeta_1 / 2 + 3 zeta_n^2: the trace of zeta_1 / 2 + 3 zeta_n^2
        docs[f"member-n{n}"] = [
            _term([a + b for a, b in zip(e[0], e[k])], e[k], "1/2") for k in range(n)
        ] + [_term(_unit(n, last, 2), zero, "3/1")]
        docs[f"sphere-relation-n{n}"] = [_term(e[k], e[k]) for k in range(n)]
        docs[f"nonmember-n{n}"] = [
            _term(zero, e[0], "1/1", "-1/2"),
            _term([1] * n, [1] * n, "2/3"),
            _term(_unit(n, 0, 2), _unit(n, last, 3), "-1/5", "7/3"),
            _term(e[last], _unit(n, 0, 2), "0/1", "1/7"),
        ]
    return {name: json.dumps({"n": int(name[-1]), "terms": terms}) for name, terms in docs.items()}


def _max_degree(doc_text):
    return max(sum(t["mu"]) + sum(t["nu"]) for t in json.loads(doc_text)["terms"])


def _over_budget_docs():
    shell3 = [_term([0, 0, 0], [1, 0, 0]), _term([0, 100, 0], [0, 100, 0])]  # 358955 pairs at order 101
    shell4 = [_term([0] * 4, [1, 0, 0, 0]), _term([48, 0, 0, 0], [48, 0, 0, 0])]  # 563550 at order 49
    return {
        "conj-shell-n3": json.dumps({"n": 3, "terms": shell3}),
        "conj-shell-n4": json.dumps({"n": 4, "terms": shell4}),
        "conj-power-n1": json.dumps({"n": 1, "terms": [_term([0], [10**7])]}),
        "conj-n2": json.dumps({"n": 2, "terms": [_term([0, 0], [1, 0])]}),
    }


def cases():
    """(name, argv, document text or None, own_text) in a fixed order.

    argv may hold "{doc}", "{out}", "{missing}", "{dir}" and "{missing_dir}",
    filled in per run.  own_text is False where an error's text is Python's.
    """
    out = []
    for name, doc in documents().items():
        n, top = json.loads(doc)["n"], _max_degree(doc)
        alpha, beta = ",".join(map(str, _unit(n, 0, 2))), ",".join(map(str, [1] * n))
        commands = [
            ("check", ["check", "--input", "{doc}"]),
            ("check-order0", ["check", "--input", "{doc}", "--sweep-order", "0"]),
            ("check-order5", ["check", "--input", "{doc}", "--sweep-order", "5"]),
            ("sweep", ["sweep", "--input", "{doc}", "--order", str(top + 1)]),
            ("sweep-order1", ["sweep", "--input", "{doc}", "--order", "1"]),
            ("moment", ["moment", "--input", "{doc}", "--alpha", alpha, "--beta", beta]),
        ]
        for label, argv in commands:
            out.append((f"{label}:{name}", argv, doc, True))
            out.append((f"{label}:{name}:output", argv + ["--output", "{out}"], doc, True))
    out.append(("check-stdin:nonmember-n2", ["check", "--input", "-"], documents()["nonmember-n2"], True))
    for n in (1, 2, 3, 4):
        for order in (0, 3):
            for fmt in ("json", "csv"):
                argv = ["constants", "--n", str(n), "--order", str(order), "--format", fmt]
                out.append((f"constants-{fmt}:n{n}:order{order}", argv, None, True))
                out.append((f"constants-{fmt}:n{n}:order{order}:output", argv + ["--output", "{out}"], None, True))

    refusals = _over_budget_docs()
    out += [
        ("refuse-scan:check", ["check", "--input", "{doc}"], refusals["conj-shell-n3"], True),
        ("refuse-scan:check-order0", ["check", "--input", "{doc}", "--sweep-order", "0"],
         refusals["conj-shell-n4"], True),
        ("refuse-scan:integer-size", ["check", "--input", "{doc}"], refusals["conj-power-n1"], True),
        ("refuse-scan:sweep", ["sweep", "--input", "{doc}", "--order", "500", "--output", "{out}"],
         refusals["conj-n2"], True),
        ("refuse-constants-rows", ["constants", "--n", "4", "--order", "60"], None, True),
        ("refuse-verify-pool", ["verify", "--n", "2000", "--samples", "100"], None, True),
        ("refuse-sample-coordinates:verify", ["verify", "--n", "3", "--samples", str(10**12)], None, True),
        ("refuse-sample-coordinates:radial-scan",
         ["radial-scan", "--input", "{doc}", "--samples", str(10**12), "--seed", "7"],
         documents()["nonmember-n2"], True),
    ]

    doc2 = documents()["nonmember-n2"]
    faults = [
        # constants
        ("constants --n", ["constants", "--n", "x", "--order", "2"], None, False),
        ("constants --n 0", ["constants", "--n", "0", "--order", "2"], None, True),
        ("constants --order", ["constants", "--n", "2", "--order", "-1"], None, True),
        ("constants --format", ["constants", "--n", "2", "--order", "2", "--format", "xml"], None, False),
        ("constants --output", ["constants", "--n", "2", "--order", "2", "--output", "{missing_dir}"], None, False),
        # moment
        ("moment --input", ["moment", "--input", "{missing}", "--alpha", "1,0", "--beta", "0,1"], doc2, False),
        ("moment --alpha", ["moment", "--input", "{doc}", "--alpha", "a", "--beta", "0,1"], doc2, False),
        ("moment --beta", ["moment", "--input", "{doc}", "--alpha", "1,0", "--beta", "-1"], doc2, True),
        ("moment --alpha dimension", ["moment", "--input", "{doc}", "--alpha", "1,0,2", "--beta", "0,1"], doc2, True),
        ("moment --output", ["moment", "--input", "{doc}", "--alpha", "1,0", "--beta", "0,1", "--output", "{dir}"],
         doc2, False),
        # check
        ("check --input", ["check", "--input", "{dir}"], doc2, False),
        ("check --input empty", ["check", "--input", ""], doc2, False),
        ("check --sweep-order", ["check", "--input", "{doc}", "--sweep-order", "-1"], doc2, True),
        ("check --sweep-order x", ["check", "--input", "{doc}", "--sweep-order", "x"], doc2, False),
        ("check --output", ["check", "--input", "{doc}", "--output", "{missing_dir}"], doc2, False),
        # sweep
        ("sweep --order", ["sweep", "--input", "{doc}", "--order", "-2"], doc2, True),
        ("sweep --order 1.5", ["sweep", "--input", "{doc}", "--order", "1.5"], doc2, False),
        ("sweep no --order", ["sweep", "--input", "{doc}"], doc2, False),
        ("sweep --input", ["sweep", "--input", "{missing}", "--order", "2"], doc2, False),
        ("sweep --output", ["sweep", "--input", "{doc}", "--order", "2", "--output", ""], doc2, False),
        # radial-scan: each fault is refused before anything is drawn
        ("radial-scan --p", ["radial-scan", "--input", "{doc}", "--p", "0.5", "--samples", "50"], doc2, True),
        ("radial-scan --p nan", ["radial-scan", "--input", "{doc}", "--p", "nan", "--samples", "50"], doc2, True),
        ("radial-scan --radii", ["radial-scan", "--input", "{doc}", "--radii", "0.5,1.0", "--samples", "50"],
         doc2, True),
        ("radial-scan --radii x", ["radial-scan", "--input", "{doc}", "--radii", "x", "--samples", "50"],
         doc2, False),
        ("radial-scan --seed", ["radial-scan", "--input", "{doc}", "--seed", "1.5", "--samples", "50"], doc2, False),
        ("radial-scan --samples", ["radial-scan", "--input", "{doc}", "--samples", "1", "--seed", "7"], doc2, True),
        ("radial-scan --input", ["radial-scan", "--input", "{missing}", "--samples", "50"], doc2, False),
        ("radial-scan --output", ["radial-scan", "--input", "{doc}", "--samples", "50", "--output", "{dir}"],
         doc2, False),
        # verify
        ("verify --n", ["verify", "--n", "2.0", "--samples", "50"], None, False),
        ("verify --seed", ["verify", "--seed", "x", "--samples", "50"], None, False),
        ("verify --samples", ["verify", "--n", "2", "--samples", "0", "--seed", "7"], None, True),
        ("verify --output", ["verify", "--n", "1", "--samples", "200", "--output", "{missing_dir}"], None, False),
        # junk and documents
        ("unknown command", ["frobnicate", "--input", "{doc}"], doc2, False),
        ("junk flag", ["check", "--input", "{doc}", "--bogus"], doc2, False),
        ("malformed json", ["check", "--input", "{doc}"], doc2[: len(doc2) // 2], False),
        ("bad coefficient", ["check", "--input", "{doc}"],
         json.dumps({"n": 2, "terms": [_term([1, 0], [0, 1], "1/0x")]}), True),
        ("bad dimension", ["check", "--input", "{doc}"], json.dumps({"n": 0, "terms": []}), True),
        ("terms not a list", ["sweep", "--input", "{doc}", "--order", "2"],
         json.dumps({"n": 2, "terms": {"mu": [0, 0]}}), True),
        ("bad exponent", ["moment", "--input", "{doc}", "--alpha", "0,0", "--beta", "0,0"],
         json.dumps({"n": 2, "terms": [_term([1, -1], [0, 0])]}), True),
    ]
    out += [(f"fault:{name}", argv, doc, own) for name, argv, doc, own in faults]
    return out


def run_case(argv, doc_text, own_text, tmp):
    """sha256 hex of one case's exit code, stdout, stderr and --output bytes, run in tmp."""
    paths = {
        "doc": os.path.join(tmp, "f.json"),
        "out": os.path.join(tmp, "out.txt"),
        "missing": os.path.join(tmp, "missing.json"),
        "dir": tmp,
        "missing_dir": os.path.join(tmp, "no", "out.txt"),
    }
    with open(paths["doc"], "w", encoding="utf-8") as fh:
        fh.write(doc_text or "")
    with open(paths["out"], "w", encoding="utf-8") as fh:
        fh.write(STALE)
    argv = [token.format(**paths) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(doc_text or "")), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stderr = err.getvalue()
    if code and not own_text:
        stderr = json.loads(stderr)["error"]["type"]
    with open(paths["out"], "rb") as fh:
        written = fh.read()
    digest = hashlib.sha256()
    for part in (str(code), out.getvalue(), stderr):
        digest.update(part.encode() + b"\0")
    digest.update(written)
    return digest.hexdigest()


def case_digests():
    """(name, digest) per case, in order."""
    out = []
    for name, argv, doc_text, own_text in cases():
        with tempfile.TemporaryDirectory() as tmp:
            out.append((name, run_case(argv, doc_text, own_text, tmp)))
    return out


def golden_digest(digests):
    return hashlib.sha256("".join(f"{name} {d}\n" for name, d in digests).encode()).hexdigest()


def test_golden_cli_digest():
    assert golden_digest(case_digests()) == GOLDEN_SHA256


if __name__ == "__main__":
    for name, d in case_digests():
        print(d, name)
