"""Command-line front end.

Subcommands: constants, moment, check, sweep, radial-scan, verify.  Flags
are parsed into a frozen RunConfig; all randomness is seeded from it (no
wall-clock entropy) and output is byte-stable for a fixed invocation:
exact values render as "num/den" rational strings, float renderings as
strings with 17 significant digits, orderings are graded-lex.

Exit codes: 0 success, 1 usage (flags or input document), 2 violated
precondition or domain restriction, 3 numerical failure (singularity,
divergence, lost convergence, failed verification), 4 I/O.  Every error
prints a one-line JSON object to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    BalltraceError,
    DomainError,
    NumericalError,
    PreconditionError,
    SchemaError,
    UsageError,
)
from .exact import complex_to_strings, format_rational, to_complex
from .generators import random_holomorphic_poly, random_nonmember_poly
from .kernels import cauchy_kernel, cauchy_series, poisson_kernel
from .membership import is_boundary_trace, sweep, szego_residual
from .multiindex import MultiIndex, graded_indices, monomial_norm_sq
from .polynomials import SpherePolynomial, mc_moment, moment
from .sphere import _MASK64, SphereSampler
from .transforms import cauchy_transform_poly, poisson_transform_mc, radial_scan

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_MC_COMMANDS = {"radial-scan", "verify"}


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation, validated.

    samples must be >= 2 for Monte-Carlo commands, radii must lie in [0, 1),
    orders must be >= 0, and the Lp exponent must be finite with p >= 1.
    """

    command: str
    input_path: str | None = None
    n: int | None = None
    seed: int = 0
    samples: int = 100_000
    order: int | None = None
    p: float = 2.0
    radii: tuple[float, ...] = ()
    output: str | None = None
    fmt: str = "json"
    alpha: MultiIndex | None = None
    beta: MultiIndex | None = None

    def __post_init__(self):
        if self.order is not None and self.order < 0:
            raise UsageError(f"order must be >= 0, got {self.order}")
        if self.command in _MC_COMMANDS and self.samples < 2:
            raise PreconditionError(f"--samples must be >= 2, got {self.samples}")
        if any(not 0.0 <= r < 1.0 for r in self.radii):
            raise DomainError(f"radii must lie in [0, 1), got {list(self.radii)}")
        if not (math.isfinite(self.p) and self.p >= 1):
            raise DomainError(f"exponent must be finite with p >= 1, got {self.p}")


def _f17(x: float) -> str:
    return f"{float(x):.17g}"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap onto the usage code
    def error(self, message):
        raise UsageError(message)


def parse_polynomial(text: str) -> SpherePolynomial:
    """Parse the polynomial JSON document format into exact coefficients."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return SpherePolynomial.from_json_dict(doc)


def _load_polynomial(path: str | None) -> SpherePolynomial:
    if path is None:
        raise UsageError("an input polynomial is required")
    if path == "-":
        return parse_polynomial(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_polynomial(fh.read())


def _parse_index(text: str) -> MultiIndex:
    try:
        return MultiIndex(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad multi-index {text!r}: {exc}") from exc


def _write_output(payload: str, destination: str | None) -> None:
    if destination in (None, "-"):
        sys.stdout.write(payload)
        return
    with open(destination, "w", encoding="utf-8") as fh:
        fh.write(payload)


def _emit_json(doc, destination: str | None) -> None:
    _write_output(json.dumps(doc, indent=2) + "\n", destination)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_constants(config: RunConfig) -> int:
    rows = [
        {
            "omega": list(idx),
            "value": format_rational(monomial_norm_sq(idx)),
            "value_float": _f17(float(monomial_norm_sq(idx))),
        }
        for idx in graded_indices(config.n, config.order)
    ]
    if config.fmt == "csv":
        lines = ["omega,value,value_float"]
        lines += [
            "{},{},{}".format(
                " ".join(str(c) for c in row["omega"]), row["value"], row["value_float"]
            )
            for row in rows
        ]
        _write_output("\n".join(lines) + "\n", config.output)
    else:
        _emit_json({"n": config.n, "order": config.order, "constants": rows}, config.output)
    return EXIT_OK


def _cmd_moment(config: RunConfig) -> int:
    f = _load_polynomial(config.input_path)
    value = moment(f, config.alpha, config.beta)
    as_float = to_complex(value)
    _emit_json(
        {
            "alpha": list(config.alpha),
            "beta": list(config.beta),
            "moment": complex_to_strings(value),
            "moment_float": {"re": _f17(as_float.real), "im": _f17(as_float.imag)},
        },
        config.output,
    )
    return EXIT_OK


def _cmd_check(config: RunConfig) -> int:
    f = _load_polynomial(config.input_path)
    cert = is_boundary_trace(f, sweep_order=config.order)
    _emit_json(cert.to_json_dict(), config.output)
    return EXIT_OK


def _cmd_sweep(config: RunConfig) -> int:
    f = _load_polynomial(config.input_path)
    violations = sweep(f, config.order)
    _emit_json(
        {
            "order": config.order,
            "count": len(violations),
            "violations": [v.to_json_dict() for v in violations],
        },
        config.output,
    )
    return EXIT_OK


def _cmd_radial_scan(config: RunConfig) -> int:
    f = _load_polynomial(config.input_path)
    sampler = SphereSampler(f.dim, config.seed)
    rows = radial_scan(f, config.p, list(config.radii), sampler, config.samples)
    lines = ["r,p,lp_error,lp_error_stderr,lp_norm_r,samples,seed"]
    lines += [
        ",".join(
            (
                _f17(row.r),
                _f17(row.p),
                _f17(row.lp_error),
                _f17(row.lp_error_stderr),
                _f17(row.lp_norm_r),
                str(row.samples),
                str(row.seed),
            )
        )
        for row in rows
    ]
    _write_output("\n".join(lines) + "\n", config.output)
    return EXIT_OK


def _cmd_verify(config: RunConfig) -> int:
    checks = _run_verify(config.n, config.seed, config.samples)
    failures = [name for name, ok, _ in checks if not ok]
    lines = [f"{'ok' if ok else 'FAIL'} - {name}: {detail}" for name, ok, detail in checks]
    lines.append(f"passed {len(checks) - len(failures)}/{len(checks)} checks")
    _write_output("\n".join(lines) + "\n", config.output)
    if failures:
        raise NumericalError(f"verification failed: {', '.join(failures)}")
    return EXIT_OK


def _run_verify(n: int, seed: int, samples: int) -> list[tuple[str, bool, str]]:
    """Seeded self-test: both directions of the moment characterization
    plus stochastic cross-checks of the exact integral calculus."""
    key = np.array([seed & _MASK64, 0xB417], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    checks: list[tuple[str, bool, str]] = []

    clean = 0
    for _ in range(10):
        g = random_holomorphic_poly(rng, n, 3)
        residual_sq, _ = szego_residual(g)
        if residual_sq == 0 and not sweep(g, g.max_degree() + 2):
            clean += 1
    checks.append(
        ("holomorphic data passes all conditions", clean == 10, f"{clean}/10 clean")
    )

    certified = 0
    for _ in range(10):
        f = random_nonmember_poly(rng, n, 3)
        cert = is_boundary_trace(f)
        if not cert.member and cert.violation is not None and not cert.violation.satisfied:
            certified += 1
    checks.append(
        ("non-members receive violation certificates", certified == 10, f"{certified}/10 certified")
    )

    sampler = SphereSampler(n, seed)
    hits = 0
    pool = graded_indices(n, 2)
    for _ in range(5):
        w = pool[int(rng.integers(0, len(pool)))]
        v = pool[int(rng.integers(0, len(pool)))]
        f = SpherePolynomial.monomial(n, w, v)
        est = mc_moment(lambda Z: f.eval(Z), MultiIndex.zero(n), MultiIndex.zero(n), sampler, samples)
        exact = to_complex(moment(f, MultiIndex.zero(n), MultiIndex.zero(n)))
        if abs(est.value - exact) <= 4 * est.stderr + 1e-12:
            hits += 1
    checks.append(("Monte-Carlo moments match exact moments", hits == 5, f"{hits}/5 within 4 sigma"))

    ok_kernel = True
    for _ in range(20):
        z = _random_ball_point(rng, n, 0.6)
        w = _random_ball_point(rng, n, 0.6)
        zeta = _random_sphere_point(rng, n)
        series, trunc = cauchy_series(z, w, 25)
        if abs(series - cauchy_kernel(z, w)) > trunc.tail_bound + 1e-12:
            ok_kernel = False
        lhs = poisson_kernel(z, zeta)
        rhs = cauchy_kernel(z, zeta) * cauchy_kernel(zeta, z) / cauchy_kernel(z, z)
        if abs(lhs - rhs) > 1e-10:
            ok_kernel = False
    checks.append(("kernel series and factorization hold", ok_kernel, "20 random pairs"))

    g = random_holomorphic_poly(rng, n, 2)
    witness = cauchy_transform_poly(g)
    z = _random_ball_point(rng, n, 0.5)
    est = poisson_transform_mc(lambda Z: g.eval(Z), z, SphereSampler(n, seed + 1), samples)
    target = witness.eval(z)
    agree = abs(est.value - target) <= 4 * est.stderr + 1e-12
    checks.append(
        ("Poisson integral reproduces the holomorphic extension", agree,
         f"|{est.value:.6g} - {target:.6g}| vs 4*{est.stderr:.3g}")
    )
    return checks


def _random_ball_point(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    z /= max(1.0, float(np.linalg.norm(z)))
    return scale * z


def _random_sphere_point(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    while float(np.linalg.norm(z)) == 0.0:
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return z / float(np.linalg.norm(z))


# ---------------------------------------------------------------------------


_COMMANDS = {
    "constants": _cmd_constants,
    "moment": _cmd_moment,
    "check": _cmd_check,
    "sweep": _cmd_sweep,
    "radial-scan": _cmd_radial_scan,
    "verify": _cmd_verify,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="balltrace", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="table of exact monomial L2 masses")
    p.add_argument("--n", type=int, required=True, help="ambient complex dimension")
    p.add_argument("--order", type=int, required=True, help="maximum total degree")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None)

    p = sub.add_parser("moment", help="one exact moment of a polynomial")
    p.add_argument("--input", required=True, help="polynomial JSON file, or - for stdin")
    p.add_argument("--alpha", required=True, help="comma-separated exponents")
    p.add_argument("--beta", required=True, help="comma-separated exponents")
    p.add_argument("--output", default=None)

    p = sub.add_parser("check", help="exact membership certificate")
    p.add_argument("--input", required=True)
    p.add_argument("--sweep-order", dest="order", type=int, default=None)
    p.add_argument("--output", default=None)

    p = sub.add_parser("sweep", help="all violated conditions up to an order")
    p.add_argument("--input", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--output", default=None)

    p = sub.add_parser("radial-scan", help="Lp convergence of radial Poisson slices")
    p.add_argument("--input", required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--radii", default="0.5,0.9,0.99")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--output", default=None)

    p = sub.add_parser("verify", help="seeded randomized self-test")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--output", default=None)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {"command": args.command}
    for name in ("n", "seed", "samples", "p", "output", "fmt"):
        if hasattr(args, name) and getattr(args, name) is not None:
            fields[name] = getattr(args, name)
    if hasattr(args, "order"):  # may legitimately stay None for `check`
        fields["order"] = args.order
    if hasattr(args, "input"):
        fields["input_path"] = args.input
    if hasattr(args, "radii"):
        try:
            fields["radii"] = tuple(float(r) for r in args.radii.split(",") if r)
        except ValueError as exc:
            raise UsageError(f"bad radii list {args.radii!r}: {exc}") from exc
        if not fields["radii"]:
            raise UsageError("--radii must list at least one radius")
    if hasattr(args, "alpha"):
        fields["alpha"] = _parse_index(args.alpha)
        fields["beta"] = _parse_index(args.beta)
    return RunConfig(**fields)


def run(config: RunConfig) -> int:
    """Dispatch a validated config to its command implementation."""
    return _COMMANDS[config.command](config)


def _error_exit(exc: Exception, code: int) -> int:
    doc = {"error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}}
    point = getattr(exc, "point", None)
    if point is not None:
        doc["error"]["point"] = [
            {"re": float(c.real), "im": float(c.imag)} for c in np.asarray(point).ravel()
        ]
    sys.stderr.write(json.dumps(doc) + "\n")
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return run(config_from_args(args))
    except UsageError as exc:
        return _error_exit(exc, EXIT_USAGE)
    except PreconditionError as exc:
        return _error_exit(exc, EXIT_PRECONDITION)
    except NumericalError as exc:
        return _error_exit(exc, EXIT_NUMERICAL)
    except OSError as exc:
        return _error_exit(exc, EXIT_IO)
    except ValueError as exc:  # library-level argument rejections
        return _error_exit(exc, EXIT_PRECONDITION)
    except (OverflowError, ZeroDivisionError) as exc:
        return _error_exit(exc, EXIT_NUMERICAL)
    except BalltraceError as exc:
        return _error_exit(exc, EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
