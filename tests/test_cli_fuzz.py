"""Fuzzing of the CLI: argv and input documents over the six commands.

Every invocation ends in an exit code, never in a traceback: a nonzero code
comes with exactly one JSON line on stderr that names it, and no input ends
in the internal-error code 5.  Help (-h) is the one documented SystemExit.
Examples stay cheap (n <= 4, orders <= 6, --samples <= 2000), because the
sample budget (cli.SAMPLE_BUDGET coordinates) still allows seconds of work.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st

from balltrace import cli

FLAGS = {
    "constants": ("--n", "--order", "--format", "--output"),
    "moment": ("--input", "--alpha", "--beta", "--output"),
    "check": ("--input", "--sweep-order", "--output"),
    "sweep": ("--input", "--order", "--output"),
    "radial-scan": ("--input", "--p", "--radii", "--seed", "--samples", "--output"),
    "verify": ("--n", "--seed", "--samples", "--output"),
}
JUNK = ("", "-", "--", "x", "0", "1", "-1", "nan", "inf", "=", ",", "--bogus", "--o", "--s", "-h",
        "--help")


def mostly(good, bad):
    """Draw from good three times as often as from bad."""
    return st.one_of(good, good, good, bad)


order = mostly(st.integers(0, 6), st.sampled_from((-2, -1, "x", "1.5"))).map(str)
index = mostly(
    st.lists(st.integers(0, 3), min_size=1, max_size=4),
    st.lists(st.sampled_from((-1, 0, 2, "a", "")), max_size=3),
).map(lambda parts: ",".join(map(str, parts)))
radius = mostly(st.sampled_from(("0", "0.3", "0.5", "0.9", "0.99")),
                st.sampled_from(("1", "1.0", "-0.1", "nan", "inf", "-inf", "", "x")))


def _values(paths):
    """Strategy per flag for its value, given the document, output and missing paths."""
    return {
        "--n": mostly(st.integers(1, 4), st.sampled_from((-1, 0, "x", "2.0"))).map(str),
        "--order": order,
        "--sweep-order": order,
        "--format": st.sampled_from(("json", "csv", "json", "csv", "xml")),
        "--input": st.sampled_from((paths["doc"],) * 4 + ("-", paths["missing"], paths["dir"], "")),
        "--output": st.sampled_from(("-", paths["out"]) * 2 + (paths["missing_dir"], paths["dir"], "")),
        "--alpha": index,
        "--beta": index,
        "--p": mostly(
            st.sampled_from(("1", "2", "2.5", "3")), st.sampled_from(("0.5", "nan", "inf", "-inf", "x"))
        ),
        "--radii": st.lists(radius, min_size=1, max_size=3).map(",".join),
        "--seed": st.sampled_from((0, 7, -1, 2**63, 2**64, -(2**64), "x", "1.5")).map(str),
        "--samples": mostly(st.integers(2, 2000), st.sampled_from((-3, 0, 1, "x"))).map(str),
    }


@st.composite
def argvs(draw, paths):
    """A command, some of its own flags in any order, then junk or any other flag."""
    values = _values(paths)

    def flag_tokens(flag):
        kind = draw(st.sampled_from(("pair",) * 8 + ("joined", "bare")))
        if kind == "bare":
            return [flag]
        value = draw(values[flag])
        return [f"{flag}={value}"] if kind == "joined" else [flag, value]

    command = draw(st.sampled_from(sorted(FLAGS) * 3 + ["frobnicate"]))
    argv = [command]
    if command in ("radial-scan", "verify"):
        argv += ["--samples", str(draw(st.integers(2, 2000)))]  # the default would be 10^5
    for flag in draw(st.permutations(FLAGS.get(command, ("--input",)))):
        if draw(st.integers(0, 5)):  # each own flag is left out one time in six
            argv += flag_tokens(flag)
    for _ in range(draw(st.sampled_from((0, 0, 0, 0, 1, 2)))):
        if draw(st.booleans()):
            argv.append(draw(st.sampled_from(JUNK)))
        else:
            argv += flag_tokens(draw(st.sampled_from(sorted(values))))
    return argv


fraction = st.fractions(min_value=-3, max_value=3, max_denominator=4).map(str)
bad_coefficient = st.one_of(
    st.sampled_from(("1/0", "nan", "abc", "", " 2 ")),
    st.integers(-2, 2),
    st.floats(allow_nan=True, allow_infinity=True),
)
bad_part = st.one_of(st.booleans(), st.floats(0, 2), st.just("1"), st.just(-1), st.integers(0, 2))


@st.composite
def documents(draw):
    """A polynomial document: valid (n <= 4, exponents <= 2, up to 3 terms) or malformed."""
    n = draw(st.integers(1, 4))
    exponents = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    coefficient = fraction
    valid = draw(st.sampled_from((True, True, False)))
    if not valid:
        exponents = st.one_of(exponents, st.lists(bad_part, min_size=max(0, n - 1), max_size=n + 1))
        coefficient = st.one_of(fraction, bad_coefficient)
    term = st.fixed_dictionaries({"mu": exponents, "nu": exponents, "re": coefficient, "im": coefficient})
    doc = {"n": n, "terms": draw(st.lists(term, max_size=3))}
    if valid:
        return json.dumps(doc)
    doc["n"] = draw(st.one_of(st.just(n), st.sampled_from((0, -1, True, 2.0, "2", None))))
    shape = draw(st.sampled_from(("doc", "no_terms", "terms_not_list", "list", "truncated", "nested")))
    if shape == "no_terms":
        del doc["terms"]
    elif shape == "terms_not_list":
        doc["terms"] = {"mu": [0] * n}
    elif shape == "list":
        doc = [doc]
    elif shape == "nested":
        return "[" * 100_000 + json.dumps(doc) + "]" * 100_000
    text = json.dumps(doc)
    return text[: len(text) // 2] if shape == "truncated" else text


def _invoke(argv, doc_text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(doc_text)), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse help
            code = ("help", exc.code)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=250, deadline=None)
@given(st.data(), documents())
def test_every_argv_ends_in_a_documented_exit(data, doc_text):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {
            "doc": os.path.join(tmp, "f.json"),
            "missing": os.path.join(tmp, "missing.json"),
            "dir": tmp,
            "out": os.path.join(tmp, "out.txt"),
            "missing_dir": os.path.join(tmp, "no", "out.txt"),
        }
        with open(paths["doc"], "w", encoding="utf-8") as fh:
            fh.write(doc_text)
        argv = data.draw(argvs(paths), label="argv")
        cwd = os.getcwd()
        os.chdir(tmp)  # a junk token can become a relative --output path
        try:
            code, out, err = _invoke(argv, doc_text)
        finally:
            os.chdir(cwd)
    event(f"{argv[0]} exit {code}")
    if isinstance(code, tuple):
        assert code == ("help", 0) and out.startswith("usage:") and err == ""
        return
    assert code in (0, 1, 2, 3, 4)
    if code == 0:
        assert err == ""
        return
    assert err.endswith("\n")
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["exit_code"] == code
    assert isinstance(error["type"], str) and isinstance(error["message"], str)
