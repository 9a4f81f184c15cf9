"""The benchmark workloads: seeded inputs, operations, traced runs, checks.

Each workload is a fixed grid of cells (input properties such as n, degree,
term count, radii or estimator) with a fixed pool of seeded inputs per cell.
Inputs are generated here, from a string-seeded `random.Random`, as plain
polynomial documents; the program only ever receives those documents and
arguments.

A run covers the same inputs whatever its `--seed`.  Its base inputs are
ROUNDS rounds, where a round holds one input of every cell.  The run makes
PASSES passes over them; pass k runs twin k of every base input.  Twins of
an input cost the program the same work: every coefficient is multiplied by
i**k, the variables are rotated by k places and the sampler seed is moved.
They are still distinct inputs with distinct outputs, so no input runs twice
in a run and a program-side cache keyed on the input never hits.  An
operation's latency is the fastest of its twins.  The seed only sets the
order of the operations within each pass, so runs with different seeds
differ by noise, not by input.

Every input has a reference output recorded at the commit that defined the
benchmark (refs/<workload>.json, written by record_refs.py).  Exact outputs
are compared byte for byte (by SHA-256); float outputs within the tolerances
stated below.

An operation is one call of the public entry point a user calls:
`balltrace.cli.main` for certify and radial, the library
estimators for montecarlo.  The traced form of an operation re-issues it as
the sequence of public layer calls it consists of, with a span around each,
and must produce the same output as the untraced form.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from contextlib import ExitStack
from fractions import Fraction

import numpy as np

from balltrace import cli, membership, polynomials, sphere, transforms
from balltrace.kernels import cauchy_kernel, poisson_kernel
from balltrace.membership import MembershipCertificate, check_condition
from balltrace.multiindex import MultiIndex
from balltrace.polynomials import MCEstimate, l2_norm_sq, mc_moment, moment
from balltrace.sphere import SphereSampler, mean_and_stderr, monomial_eval
from balltrace.transforms import (
    _lp_estimate,
    cauchy_transform_mc,
    cauchy_transform_poly,
    choose_poisson_order,
    poisson_series_eval,
    poisson_transform_mc,
)


REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

# Radial Lp values may move by the certified series tail (the CLI's truncation
# budget is 1e-8 per point) when the Poisson evaluation route changes, and by
# float rounding; 1e-7 absolute plus 1e-9 relative covers both.
RADIAL_ABS_TOL = 1e-7
RADIAL_REL_TOL = 1e-9
# Monte-Carlo values may move in the last bits if the estimator changes its
# summation order; relative to |value| + stderr this stays far below 1e-9.
MC_REL_TOL = 1e-9
MC_SIGMAS = 4.0


# ---------------------------------------------------------------------------
# benchmark-side input generation (plain Python; no balltrace code involved)


def _rng(*parts) -> random.Random:
    return random.Random("balltrace-bench:" + ":".join(str(p) for p in parts))


def _coeff(rnd: random.Random) -> tuple[Fraction, Fraction]:
    while True:
        re = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
        im = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
        if re or im:
            return re, im


def _index(rnd: random.Random, n: int, max_degree: int, degree: int | None = None) -> tuple:
    k = rnd.randint(0, max_degree) if degree is None else degree
    comps = [0] * n
    for _ in range(k):
        comps[rnd.randrange(n)] += 1
    return tuple(comps)


def _add(poly: dict, key, c) -> None:
    re, im = poly.get(key, (Fraction(0), Fraction(0)))
    re, im = re + c[0], im + c[1]
    if re or im:
        poly[key] = (re, im)
    else:
        poly.pop(key, None)


def _fmt(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _doc(n: int, poly: dict) -> dict:
    return {
        "n": n,
        "terms": [
            {"mu": list(mu), "nu": list(nu), "re": _fmt(re), "im": _fmt(im)}
            for (mu, nu), (re, im) in sorted(poly.items())
        ],
    }


def _random_sphere(rnd, n, max_degree, draws) -> dict:
    poly: dict = {}
    for _ in range(draws):
        _add(poly, (_index(rnd, n, max_degree), _index(rnd, n, max_degree)), _coeff(rnd))
    return poly


def _random_holo(rnd, n, max_degree, draws) -> dict:
    """Holomorphic polynomial as {mu: coeff}; never empty."""
    g: dict = {}
    while not g:
        for _ in range(draws):
            _add(g, _index(rnd, n, max_degree), _coeff(rnd))
    return g


def _disguise(n: int, g: dict, q: dict) -> dict:
    """Terms of g + q * (|zeta_1|^2 + ... + |zeta_n|^2 - 1); equals g on the sphere."""
    zero = (0,) * n
    f: dict = {}
    for mu, c in g.items():
        _add(f, (mu, zero), c)
    for (mu, nu), (re, im) in q.items():
        _add(f, (mu, nu), (-re, -im))
        for k in range(n):
            _add(f, (_bump(mu, k), _bump(nu, k)), (re, im))
    return f


def _bump(idx: tuple, k: int) -> tuple:
    return tuple(e + (j == k) for j, e in enumerate(idx))


def _ball_point(rnd: random.Random, n: int, radius: float) -> list[list[float]]:
    x = [rnd.gauss(0.0, 1.0) for _ in range(2 * n)]
    scale = radius / math.sqrt(sum(v * v for v in x))
    return [[x[k] * scale, x[n + k] * scale] for k in range(n)]


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _bits(q: Fraction) -> int:
    return q.numerator.bit_length() + q.denominator.bit_length()


def _twin(spec: dict, k: int) -> dict:
    """Twin k of a generated input (twin 0 is the input itself).

    Every coefficient is multiplied by i**k, variable j becomes variable
    j + k (mod n), and sampler seeds move.  The sphere's unitary symmetry
    keeps membership, and the program does the same work on every twin, yet
    no two twins are the same document (for n = 1 they share exponents).
    """
    if k == 0:
        return spec
    n = spec["doc"]["n"]
    shift = k % n

    def perm(idx) -> tuple:
        return tuple(idx[-shift:]) + tuple(idx[:-shift]) if shift else tuple(idx)

    def rot(t) -> tuple[Fraction, Fraction]:
        re, im = Fraction(t["re"]), Fraction(t["im"])
        for _ in range(k % 4):
            re, im = -im, re
        return re, im

    twin = dict(spec)
    twin["doc"] = _doc(n, {(perm(t["mu"]), perm(t["nu"])): rot(t) for t in spec["doc"]["terms"]})
    if "g" in spec:
        g = sorted((perm(t["mu"]), rot(t)) for t in spec["g"])
        twin["g"] = [{"mu": list(mu), "re": _fmt(re), "im": _fmt(im)} for mu, (re, im) in g]
    for key in ("alpha", "beta"):
        if key in spec:
            twin[key] = list(perm(spec[key]))
    moved = lambda seed: (seed + k * 0x9E3779B1) % 2**31  # noqa: E731
    if "seed" in spec:
        twin["seed"] = moved(spec["seed"])
    args = list(spec.get("args", []))
    if "--seed" in args:
        i = args.index("--seed") + 1
        args[i] = str(moved(int(args[i])))
        twin["args"] = args
    return twin


# ---------------------------------------------------------------------------
# shared pieces


class Item:
    """One input of the pool: cell, variant and twin; the document is made on first use."""

    def __init__(self, workload: str, cell: int, variant: int, twin: int):
        self.workload = workload
        self.cell = cell
        self.variant = variant
        self.twin = twin
        self.base = f"{cell}/{variant}"
        self.key = f"{cell}/{variant}/{twin}"
        self.spec = None   # document and operation arguments
        self.digest = None
        self.doc_text = None
        self.poly = None   # parsed SpherePolynomial, for library workloads


class Workload:
    """Base class: a grid of cells, a pool of inputs each, and one operation kind."""

    name = ""
    cells: list = []
    # Base rounds at REFERENCE_SECONDS (run.py), and passes (twins per base
    # input).  ROUNDS gives at least 100 base inputs, so that ten latencies
    # lie beyond the 90th percentile; both are sized so that a run measures
    # about REFERENCE_SECONDS at the commit that defined the benchmark.
    ROUNDS = 0
    PASSES = 3

    def make_spec(self, cell: int, variant: int) -> dict:
        raise NotImplementedError

    def prepare(self, workdir: str) -> list[list[list[Item]]]:
        """The pool of inputs, items[cell][variant][twin], and the files operations use.

        Variants 0 .. ROUNDS - 1 are the base inputs, with PASSES twins each;
        variant ROUNDS, without twins, is the warm-up.
        """
        os.makedirs(workdir, exist_ok=True)
        self.in_path = os.path.join(workdir, "in.json")
        self.out_path = os.path.join(workdir, "out.txt")
        return [
            [[Item(self.name, c, v, k) for k in range(self.PASSES if v < self.ROUNDS else 1)]
             for v in range(self.ROUNDS + 1)]
            for c in range(len(self.cells))
        ]

    def materialize(self, item: Item) -> None:
        """Generate the item's document (once)."""
        if item.spec is None:
            item.spec = _twin(self.make_spec(item.cell, item.variant), item.twin)
            item.digest = _digest(item.spec)
            item.doc_text = json.dumps(item.spec["doc"], indent=1) + "\n"
            self.build(item)

    def build(self, item: Item) -> None:
        """Program-side input objects of a library workload."""

    def stage(self, item: Item) -> None:
        """Make the input and put it where the operation reads it.

        Runs before each operation, outside its timing: a user's document
        already exists when the user calls the program.
        """
        self.materialize(item)
        with open(self.in_path, "w", encoding="utf-8") as fh:
            fh.write(item.doc_text)

    def collect(self, code):
        """(exit code, output bytes) of a CLI operation."""
        if code != 0:
            return code, b""
        with open(self.out_path, "rb") as fh:
            return code, fh.read()


def schedule(items: list[list[list[Item]]], seed: int, rounds: int):
    """(warm-up operations, [operations of each pass]) of one run.

    Pass k runs twin k of the base inputs 0 .. rounds - 1 of every cell; the
    warm-up runs the warm-up input of every cell.  Which inputs run depends
    only on `rounds`; the seed shuffles each list.
    """
    if not 1 <= rounds < len(items[0]):
        raise ValueError(f"rounds must lie in 1..{len(items[0]) - 1}")
    rnd = _rng("schedule", seed)
    warm = [row[-1][0] for row in items]
    rnd.shuffle(warm)
    passes = []
    for k in range(len(items[0][0])):
        ops = [row[v][k] for row in items for v in range(rounds)]
        rnd.shuffle(ops)
        passes.append(ops)
    return warm, passes


# ---------------------------------------------------------------------------
# work counts, taken from the calls the program makes (see Tracer.calls)


def _tally_condition(args, report, seconds) -> dict:
    # a pair is useful work if the condition is violated or a side is nonzero
    useful = not report.satisfied or bool(report.lhs) or bool(report.rhs)
    return {"membership.pairs_checked": 1, "membership.pairs_useful": int(useful)}


def _tally_moment(args, result, seconds) -> dict:
    return {
        "polynomials.moment_calls": 1,
        "polynomials.moment_term_visits": len(args[0].terms),
        "polynomials.moment_s": seconds,
    }


def _tally_indices(args, indices, seconds) -> dict:
    # the sweep visits every (alpha, beta) pair of this index list
    return {"multiindex.indices": len(indices), "membership.pairs_total": len(indices) ** 2}


def _tally_norm_sq(args, result, seconds) -> dict:
    return {"multiindex.norm_sq_calls": 1}


def _tally_chunk(args, result, seconds) -> dict:
    return {"sphere.chunks": 1}


def _tally_partial_sums(args, result, seconds) -> dict:
    # one term of the collapsed series per step j = 0 .. max(orders)
    return {"transforms.series_terms": max(0, max(args[1], default=-1) + 1)}


def _tally_plan(args, plan, seconds) -> dict:
    return {"transforms.series_terms": len(plan[2])}


def _count_batch(tr, batch) -> None:
    tr.count("sphere.samples", len(batch))
    tr.count("sphere.batch_mb", batch.nbytes / 1e6)
    tr.count("polynomials.eval_points", len(batch))


# ---------------------------------------------------------------------------
# certify: `balltrace check`


class CertifyWorkload(Workload):
    """`balltrace check` on non-members by construction, certified by the condition sweep."""

    name = "certify"
    ROUNDS = 4
    cells = [(n, d, t) for n in (1, 2, 3, 4) for d in (2, 3, 5) for t in (4, 10, 20)]

    def _argv(self, item: Item) -> list[str]:
        return ["check", "--input", self.in_path, "--output", self.out_path]

    def run(self, item: Item):
        return cli.main(self._argv(item))

    def run_traced(self, item: Item, tr):
        """`check` as its layer calls; mirrors the CLI command and is_boundary_trace."""
        info = {}
        with tr.span("op"), ExitStack() as calls:
            for module in (membership, polynomials, transforms):
                calls.enter_context(tr.calls(module, "monomial_norm_sq", _tally_norm_sq))
            with tr.span("cli.args"):
                cli.config_from_args(cli.build_parser().parse_args(self._argv(item)))
            with tr.span("cli.parse"):
                with open(self.in_path, "r", encoding="utf-8") as fh:
                    text = fh.read()
                f = cli.parse_polynomial(text)
            with tr.span("transforms.cauchy"):
                g = cauchy_transform_poly(f)
            with tr.span("polynomials.ring"):
                r = f - g.restrict_to_sphere()
            with tr.span("polynomials.residual"):
                residual_sq = l2_norm_sq(r)
            if residual_sq == 0:
                cert = MembershipCertificate(
                    member=True, residual_sq=residual_sq, witness_extension=g, violation=None
                )
            else:
                order = f.max_degree() + 1
                with ExitStack() as sweep_calls:
                    sweep_calls.enter_context(
                        tr.calls(membership, "graded_indices", _tally_indices, span="multiindex.graded"))
                    sweep_calls.enter_context(tr.calls(membership, "check_condition", _tally_condition))
                    sweep_calls.enter_context(tr.calls(membership, "moment", _tally_moment))
                    for _ in range(membership.MAX_ESCALATIONS):
                        with tr.span("membership.sweep"):
                            violations = membership.sweep(f, order)
                        if violations:
                            break
                        order += membership.ESCALATION_STEP
                if not violations:
                    raise RuntimeError(f"no violated condition up to order {order}")
                with tr.span("membership.select"):
                    worst = min(
                        violations,
                        key=lambda v: (-(v.lhs - v.rhs).abs_sq(), v.alpha.sort_key(), v.beta.sort_key()),
                    )
                cert = MembershipCertificate(
                    member=False, residual_sq=residual_sq, witness_extension=None,
                    violation=worst, violation_order=order,
                )
                info.update(order=order, violations=violations)
            with tr.span("cli.emit"):
                payload = json.dumps(cert.to_json_dict(), indent=2) + "\n"
                with open(self.out_path, "w", encoding="utf-8") as fh:
                    fh.write(payload)
        info.update(f=f, r=r, cert=cert, text=text)
        return (0, payload.encode()), info

    def count(self, item: Item, output, info: dict, tr) -> None:
        cert = info["cert"]
        tr.count("cli.doc_bytes", len(info["text"].encode()) + len(output[1]))
        tr.count("polynomials.inner_pairs", len(info["r"].terms) ** 2)
        bits = _bits(cert.residual_sq)
        if cert.violation is not None:
            for z in (cert.violation.lhs, cert.violation.rhs):
                bits += _bits(z.re) + _bits(z.im)
        else:
            for c in cert.witness_extension.terms.values():
                bits += _bits(c.re) + _bits(c.im)
        tr.count("exact.value_bits", bits)
        if "order" in info:
            tr.count("membership.violations", len(info["violations"]))
            tr.count("membership.sweep_order", info["order"])

    def reference(self, item: Item, output) -> dict:
        return {"out": hashlib.sha256(output[1]).hexdigest()}

    def _common_check(self, item: Item, output, ref: dict):
        code, data = output
        if code != 0:
            return None, f"exit code {code}"
        if ref is not None and hashlib.sha256(data).hexdigest() != ref["out"]:
            return None, "output differs from the recorded reference"
        try:
            return json.loads(data), None
        except ValueError as exc:
            return None, f"output is not JSON: {exc}"

    def make_spec(self, cell, variant):
        n, d, t = self.cells[cell]
        rnd = _rng(self.name, n, d, t, variant)
        # the pure conjugate term of top degree d makes f a non-member: the
        # condition-A moment at (alpha, beta) = (nu, 0) picks up only that term
        forced = ((0,) * n, _index(rnd, n, d, degree=d))
        poly: dict = {}
        for _ in range(t - 1):
            key = (_index(rnd, n, d), _index(rnd, n, d))
            if key != forced:
                _add(poly, key, _coeff(rnd))
        poly[forced] = _coeff(rnd)
        return {"doc": _doc(n, poly), "args": ["check"]}

    def check(self, item, output, ref):
        doc, err = self._common_check(item, output, ref)
        if err:
            return err
        v = doc.get("violation")
        if doc.get("member") is not False or v is None or v.get("satisfied") is not False:
            return "not a non-member certificate"
        if Fraction(doc["residual_sq"]) <= 0:
            return "non-member with a non-positive residual"
        f = cli.parse_polynomial(item.doc_text)
        report = check_condition(f, MultiIndex(v["alpha"]), MultiIndex(v["beta"]))
        if report.to_json_dict() != v:
            return "recomputed condition does not match the reported pair"
        if report.lhs == report.rhs:
            return "reported pair is not violated"
        return None


# ---------------------------------------------------------------------------
# radial: `balltrace radial-scan`


class RadialWorkload(Workload):
    """Radial Poisson slices: collapsed data up to r = 0.99, mixed n = 2 data up to r = 0.7."""

    name = "radial"
    ROUNDS = 13
    PASSES = 2  # an operation takes about 0.1 s; three passes would not fit the run
    SAMPLES = 10_000
    P = 2.0
    OUTER = (0.5, 0.9, 0.99)
    INNER = (0.3, 0.5, 0.7)
    # (kind, n, radii); mixed data at r >= 0.9 and mixed n = 3 data are left
    # out: one such operation costs 3 s to minutes, and mixed data at
    # r = 0.99 ends in ConvergenceError
    cells = [
        ("holo", 2, OUTER), ("holo", 3, OUTER), ("holo", 4, OUTER),
        ("anti", 2, OUTER), ("anti", 3, OUTER), ("both", 4, OUTER),
        ("mixed11", 2, INNER), ("mixed21", 2, INNER),
    ]

    def make_spec(self, cell, variant):
        kind, n, radii = self.cells[cell]
        rnd = _rng(self.name, kind, n, variant)
        zero = (0,) * n
        poly: dict = {}
        if kind in ("holo", "both"):
            for mu, c in _random_holo(rnd, n, 3, 4).items():
                _add(poly, (mu, zero), c)
        if kind in ("anti", "both"):
            for nu, c in _random_holo(rnd, n, 3, 4).items():
                _add(poly, (zero, nu), c)
        if kind.startswith("mixed"):
            for mu, c in _random_holo(rnd, n, 2, 3).items():
                _add(poly, (mu, zero), c)
            a, b = int(kind[-2]), int(kind[-1])
            poly[(_index(rnd, n, a, degree=a), _index(rnd, n, b, degree=b))] = _coeff(rnd)
        args = [
            "radial-scan", "--p", repr(self.P), "--radii", ",".join(repr(r) for r in radii),
            "--seed", str(rnd.randrange(2**31)), "--samples", str(self.SAMPLES),
        ]
        return {"doc": _doc(n, poly), "args": args}

    def _argv(self, item: Item) -> list[str]:
        args = item.spec["args"]
        return args[:1] + ["--input", self.in_path, "--output", self.out_path] + args[1:]

    def run(self, item):
        return cli.main(self._argv(item))

    def run_traced(self, item, tr):
        """radial-scan as its layer calls; mirrors the CLI command and radial_scan."""
        args = item.spec["args"]
        radii = [float(r) for r in args[args.index("--radii") + 1].split(",")]
        seed = int(args[args.index("--seed") + 1])
        p, samples = self.P, self.SAMPLES
        orders = []
        with tr.span("op"):
            with tr.span("cli.args"):
                cli.config_from_args(cli.build_parser().parse_args(self._argv(item)))
            with tr.span("cli.parse"):
                with open(self.in_path, "r", encoding="utf-8") as fh:
                    text = fh.read()
                f = cli.parse_polynomial(text)
            with tr.span("sphere.sample"), tr.calls(sphere, "_chunk", _tally_chunk):
                batch = SphereSampler(f.dim, seed).sample_batch(samples)
            _count_batch(tr, batch)
            with tr.span("polynomials.eval"):
                boundary = f.eval(batch)
            lines = ["r,p,lp_error,lp_error_stderr,lp_norm_r,samples,seed"]
            for r in radii:
                with tr.span("transforms.order_select"):
                    order = choose_poisson_order(f, r)
                orders.append(order)
                with tr.span("transforms.series_eval"), \
                        tr.calls(transforms, "_binom_partial_sums", _tally_partial_sums), \
                        tr.calls(transforms, "_mixed_term_plan", _tally_plan):
                    slice_vals = poisson_series_eval(f, r * batch, order)
                with tr.span("transforms.lp_estimate"):
                    err, err_se = _lp_estimate(slice_vals - boundary, p)
                    norm_r, _ = _lp_estimate(slice_vals, p)
                lines.append(",".join(
                    [f"{x:.17g}" for x in (r, p, err, err_se, norm_r)] + [str(samples), str(seed)]
                ))
            with tr.span("cli.emit"):
                payload = "\n".join(lines) + "\n"
                with open(self.out_path, "w", encoding="utf-8") as fh:
                    fh.write(payload)
        return (0, payload.encode()), {"orders": orders, "text": text}

    def count(self, item, output, info, tr):
        orders = info["orders"]
        tr.count("cli.doc_bytes", len(info["text"].encode()) + len(output[1]))
        tr.count("transforms.series_order", sum(orders) / len(orders))

    def _rows(self, data: bytes):
        lines = data.decode().splitlines()
        if not lines or lines[0] != "r,p,lp_error,lp_error_stderr,lp_norm_r,samples,seed":
            raise ValueError("bad CSV header")
        return [line.split(",") for line in lines[1:]]

    def reference(self, item, output):
        rows = self._rows(output[1])
        return {"rows": [[float(x) for x in row[2:5]] for row in rows]}

    def check(self, item, output, ref):
        code, data = output
        if code != 0:
            return f"exit code {code}"
        try:
            rows = self._rows(data)
        except ValueError as exc:
            return str(exc)
        args = item.spec["args"]
        radii = [float(r) for r in args[args.index("--radii") + 1].split(",")]
        seed = args[args.index("--seed") + 1]
        if len(rows) != len(radii):
            return "wrong number of rows"
        for row, r, want in zip(rows, radii, ref["rows"]):
            if len(row) != 7 or float(row[0]) != r or float(row[1]) != self.P:
                return "row does not echo its radius and exponent"
            if row[5] != str(self.SAMPLES) or row[6] != seed:
                return "row does not echo its samples and seed"
            for got, exp in zip((float(x) for x in row[2:5]), want):
                if not (got >= 0 and abs(got - exp) <= RADIAL_ABS_TOL + RADIAL_REL_TOL * abs(exp)):
                    return f"Lp value {got!r} differs from the reference {exp!r}"
        return None


# ---------------------------------------------------------------------------
# montecarlo: the library estimators


class MonteCarloWorkload(Workload):
    """mc_moment, poisson_transform_mc and cauchy_transform_mc on seeded inputs."""

    name = "montecarlo"
    ROUNDS = 12
    SAMPLES = 100_000
    RADIUS = 0.5
    cells = [(est, n) for est in ("moment", "poisson", "cauchy") for n in (2, 3, 4)]

    def make_spec(self, cell, variant):
        est, n = self.cells[cell]
        rnd = _rng(self.name, est, n, variant)
        spec = {"estimator": est, "samples": self.SAMPLES}
        if est == "poisson":
            g = _random_holo(rnd, n, 2, 4)
            spec["doc"] = _doc(n, _disguise(n, g, _random_sphere(rnd, n, 1, 3)))
            spec["g"] = [
                {"mu": list(mu), "re": _fmt(re), "im": _fmt(im)} for mu, (re, im) in sorted(g.items())
            ]
        else:
            spec["doc"] = _doc(n, _random_sphere(rnd, n, 2, 6))
        if est == "moment":
            spec["alpha"] = list(_index(rnd, n, 1))
            spec["beta"] = list(_index(rnd, n, 1))
        else:
            spec["point"] = _ball_point(rnd, n, self.RADIUS)
        spec["seed"] = rnd.randrange(2**31)
        return spec

    def stage(self, item):
        self.materialize(item)

    def build(self, item):
        s = item.spec
        item.poly = cli.parse_polynomial(item.doc_text)
        if "alpha" in s:
            item.alpha, item.beta = MultiIndex(s["alpha"]), MultiIndex(s["beta"])
        else:
            item.point = np.array([complex(re, im) for re, im in s["point"]])

    def run(self, item):
        s, f = item.spec, item.poly
        sampler = SphereSampler(f.dim, s["seed"])
        if s["estimator"] == "moment":
            return mc_moment(f.eval, item.alpha, item.beta, sampler, s["samples"])
        transform = poisson_transform_mc if s["estimator"] == "poisson" else cauchy_transform_mc
        return transform(f.eval, item.point, sampler, s["samples"])

    def collect(self, est):
        return est

    def run_traced(self, item, tr):
        """The estimator as its layer calls; mirrors mc_moment and the kernel transforms."""
        s, f = item.spec, item.poly
        samples, seed = s["samples"], s["seed"]
        with tr.span("op"):
            if s["estimator"] == "moment":
                with tr.span("polynomials.mc_moment"):
                    with tr.span("sphere.sample"), tr.calls(sphere, "_chunk", _tally_chunk):
                        batch = SphereSampler(f.dim, seed).sample_batch(samples)
                    with tr.span("polynomials.eval"):
                        vals = np.asarray(f.eval(batch), dtype=np.complex128)
                    _require_finite(vals)
                    with tr.span("sphere.monomial_eval"):
                        mono = monomial_eval(batch, item.alpha, item.beta)
                    weighted = mono * vals
                    with tr.span("sphere.mean_stderr"):
                        value, stderr = mean_and_stderr(weighted)
            else:
                kernel = poisson_kernel if s["estimator"] == "poisson" else cauchy_kernel
                with tr.span("transforms.mc_integral"):
                    with tr.span("sphere.sample"), tr.calls(sphere, "_chunk", _tally_chunk):
                        batch = SphereSampler(f.dim, seed).sample_batch(samples)
                    with tr.span("kernels.eval"):
                        weights = kernel(item.point, batch)
                    with tr.span("polynomials.eval"):
                        vals = np.asarray(f.eval(batch), dtype=np.complex128)
                    _require_finite(vals)
                    weighted = weights * vals
                    with tr.span("sphere.mean_stderr"):
                        value, stderr = mean_and_stderr(weighted)
        return MCEstimate(value=value, stderr=stderr, samples=samples, seed=seed), {"batch": batch}

    def count(self, item, output, info, tr):
        _count_batch(tr, info["batch"])
        if item.spec["estimator"] != "moment":
            tr.count("kernels.points", len(info["batch"]))

    def exact(self, item) -> complex:
        """The exact value the estimate must agree with."""
        s, f = item.spec, item.poly
        if s["estimator"] == "moment":
            return complex(moment(f, item.alpha, item.beta))
        if s["estimator"] == "cauchy":
            return complex(cauchy_transform_poly(f).eval(item.point))
        # the Poisson integral of a disguised member is its holomorphic part g
        total = 0j
        for t in s["g"]:
            c = complex(float(Fraction(t["re"])), float(Fraction(t["im"])))
            total += c * np.prod(item.point ** np.array(t["mu"]))
        return complex(total)

    def reference(self, item, output):
        return {"value": [output.value.real, output.value.imag], "stderr": output.stderr}

    def check(self, item, output, ref):
        if not isinstance(output, MCEstimate):
            return f"unexpected result {output!r}"
        if output.samples != item.spec["samples"] or output.seed != item.spec["seed"]:
            return "estimate does not echo its samples and seed"
        want = complex(*ref["value"])
        scale = abs(want) + ref["stderr"]
        if abs(output.value - want) > MC_REL_TOL * scale or abs(output.stderr - ref["stderr"]) > MC_REL_TOL * scale:
            return f"estimate {output.value!r} +- {output.stderr!r} differs from the reference"
        exact = self.exact(item)
        if abs(output.value - exact) > MC_SIGMAS * output.stderr + 1e-12:
            return f"estimate {output.value!r} is more than 4 standard errors from {exact!r}"
        return None


def _require_finite(vals: np.ndarray) -> None:
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("integrand returned a non-finite value")


WORKLOADS = {
    w.name: w for w in (CertifyWorkload, RadialWorkload, MonteCarloWorkload)
}


def load_refs(name: str) -> dict:
    with open(os.path.join(REFS_DIR, f"{name}.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)["items"]
