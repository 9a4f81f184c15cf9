"""Command-line front end.

Subcommands: constants, moment, check, sweep, radial-scan, verify.  Flags are
parsed into a frozen RunConfig, which holds every default; all randomness is
seeded from it (no wall-clock entropy) and output is byte-stable for a fixed
invocation: exact values render as "num/den" rational strings, float
renderings as strings with 17 significant digits, orderings are graded-lex.

Exit codes: 0 success, 1 usage (flags or input document), 2 violated
precondition or domain restriction, 3 numerical failure (singularity,
divergence, lost convergence, failed verification), 4 I/O, 5 internal
error (any other exception, such as MemoryError).  The package's own errors
carry their code as the class attribute exit_code (balltrace.errors); main
adds only the builtin cases.  Every error prints a one-line JSON object to
stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
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
from .exact import complex_to_float_strings, complex_to_strings, format_float, format_rational, to_complex
from .generators import random_holomorphic_poly, random_nonmember_poly
from .kernels import cauchy_kernel, cauchy_series, poisson_kernel
from .membership import WORK_BUDGET, is_boundary_trace, sweep, szego_residual
from .multiindex import MultiIndex, graded_indices, monomial_norm_sq
from .polynomials import SpherePolynomial, cauchy_transform_poly, mc_moment, moment
from .sphere import _MASK64, SphereSampler, norm
from .transforms import RADIAL_CSV_HEADER, poisson_transform_mc, radial_scan

EXIT_OK = 0
EXIT_IO = 4
EXIT_INTERNAL = 5

# Largest Monte-Carlo request accepted, in sample coordinates samples * n.
# radial-scan holds its batch, its power table and component values: at the
# budget (radii 0.5, 0.9, 0.99) it peaked 400, 300 and 210 MB above the
# interpreter in n = 1, 2, 4 on every term of degree 3 (1.4 s at most; 2-core
# x86 VM), 110-210 bytes a coordinate, and 740 MB on degree 8 in n = 2.
# verify's estimators stream in constant memory; at the budget it took 0.9 s
# (n = 2) and 1.9 s (n = 20, the default 10^5 samples, so every verify --n
# the scan budget lets through at the default still runs).
SAMPLE_BUDGET = 2_000_000


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation, validated: samples >= 2, radii in [0, 1), orders >= 0, finite p >= 1."""

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
        if self.samples < 2:
            raise PreconditionError(f"--samples must be >= 2, got {self.samples}")
        if any(not 0.0 <= r < 1.0 for r in self.radii):
            raise DomainError(f"radii must lie in [0, 1), got {list(self.radii)}")
        if not (math.isfinite(self.p) and self.p >= 1):
            raise DomainError(f"exponent must be finite with p >= 1, got {self.p}")


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
    except RecursionError as exc:
        raise SchemaError("malformed JSON: nested too deeply") from exc
    return SpherePolynomial.from_json_dict(doc)


def _load_polynomial(path: str | None) -> SpherePolynomial:
    if path is None:
        raise UsageError("an input polynomial is required")
    if path == "-":
        return parse_polynomial(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_polynomial(fh.read())


# argparse type= converters: UsageError is no ValueError, so argparse passes it through unchanged
def _parse_index(text: str) -> MultiIndex:
    try:
        return MultiIndex(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad multi-index {text!r}: {exc}") from exc


def _parse_radii(text: str) -> tuple[float, ...]:
    try:
        radii = tuple(float(r) for r in text.split(",") if r)
    except ValueError as exc:
        raise UsageError(f"bad radii list {text!r}: {exc}") from exc
    if not radii:
        raise UsageError("--radii must list at least one radius")
    return radii


def _write_output(payload: str, destination: str | None) -> None:
    if destination in (None, "-"):
        sys.stdout.write(payload)
        return
    # Written over the old bytes, then cut to those written, after a failed write too: after a "w"
    # truncation ext4 flushes on close (auto_da_alloc; 0.12 ms against 0.04 ms for 1.8 KB on a
    # 2-core x86 VM).  Only a regular file is cut: /dev/null rejects ftruncate.
    fd = os.open(destination, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as fh:
        try:
            fh.write(payload)
            fh.flush()
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _emit_json(doc, destination: str | None) -> None:
    _write_output(json.dumps(doc, indent=2) + "\n", destination)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_constants(config: RunConfig) -> int:
    # C(order+n, n) rows; a dimension below 1 is left to graded_indices, which rejects it
    if config.n >= 1 and (count := math.comb(config.order + config.n, config.n)) > WORK_BUDGET:
        raise PreconditionError(
            f"a constants table at order {config.order} in dimension {config.n} would "
            f"have {count} rows (C(order+n, n)), above the budget of {WORK_BUDGET}"
        )
    rows = [
        {
            "omega": list(idx),
            "value": format_rational(monomial_norm_sq(idx)),
            "value_float": format_float(monomial_norm_sq(idx)),
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
    _emit_json(
        {
            "alpha": list(config.alpha),
            "beta": list(config.beta),
            "moment": complex_to_strings(value),
            "moment_float": complex_to_float_strings(value),
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
    _check_samples(config.samples, f.dim)
    sampler = SphereSampler(f.dim, config.seed)
    rows = radial_scan(f, config.p, list(config.radii), sampler, config.samples)
    lines = [RADIAL_CSV_HEADER] + [row.csv() for row in rows]
    _write_output("\n".join(lines) + "\n", config.output)
    return EXIT_OK


def _cmd_verify(config: RunConfig) -> int:
    # each random polynomial draws from the indices of degree <= 3; n < 1 is left to graded_indices
    if config.n >= 1 and (pool := math.comb(config.n + 3, 3)) > WORK_BUDGET:
        raise PreconditionError(
            f"verify in dimension {config.n} would enumerate {pool} indices (C(n+3, 3)) "
            f"per random polynomial, above the budget of {WORK_BUDGET}"
        )
    _check_samples(config.samples, config.n)
    checks = _run_verify(config.n, config.seed, config.samples)
    failures = [name for name, ok, _ in checks if not ok]
    lines = [f"{'ok' if ok else 'FAIL'} - {name}: {detail}" for name, ok, detail in checks]
    lines.append(f"passed {len(checks) - len(failures)}/{len(checks)} checks")
    _write_output("\n".join(lines) + "\n", config.output)
    if failures:
        raise NumericalError(f"verification failed: {', '.join(failures)}")
    return EXIT_OK


def _check_samples(samples: int, n: int) -> None:
    """Refuse, before any draw, a request of more than SAMPLE_BUDGET sample coordinates."""
    if samples * n > SAMPLE_BUDGET:
        raise PreconditionError(
            f"{samples} samples in dimension {n} are {samples * n} sample coordinates, "
            f"above the budget of {SAMPLE_BUDGET}"
        )


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
    for zeta in sampler.sample_batch(20):
        z = _random_ball_point(rng, n, 0.6)
        w = _random_ball_point(rng, n, 0.6)
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
    # |z| <= min(1/2, 1/n) keeps the kernel's peak ((1+|z|)/(1-|z|))^n at most 9
    z = _random_ball_point(rng, n, min(0.5, 1 / n))
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
    z /= max(1.0, norm(z))
    return scale * z


# ---------------------------------------------------------------------------


_COMMANDS = {
    "constants": _cmd_constants,
    "moment": _cmd_moment,
    "check": _cmd_check,
    "sweep": _cmd_sweep,
    "radial-scan": _cmd_radial_scan,
    "verify": _cmd_verify,
}


@functools.cache
def build_parser() -> _Parser:
    """The argparse tree, built once per process; an omitted flag leaves RunConfig's default."""
    parent = functools.partial(argparse.ArgumentParser, add_help=False, argument_default=argparse.SUPPRESS)
    source = parent()
    source.add_argument(
        "--input", dest="input_path", required=True, help="polynomial JSON file, or - for stdin"
    )
    sampling = parent()
    sampling.add_argument("--seed", type=int)
    sampling.add_argument("--samples", type=int)

    parser = _Parser(prog="balltrace", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    command = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    p = command("constants", help="table of exact monomial L2 masses")
    p.add_argument("--n", type=int, required=True, help="ambient complex dimension")
    p.add_argument("--order", type=int, required=True, help="maximum total degree")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"))

    p = command("moment", parents=[source], help="one exact moment of a polynomial")
    p.add_argument("--alpha", type=_parse_index, required=True, help="comma-separated exponents")
    p.add_argument("--beta", type=_parse_index, required=True, help="comma-separated exponents")

    p = command("check", parents=[source], help="exact membership certificate")
    p.add_argument("--sweep-order", dest="order", type=int)

    p = command("sweep", parents=[source], help="all violated conditions up to an order")
    p.add_argument("--order", type=int, required=True)

    p = command("radial-scan", parents=[source, sampling], help="Lp convergence of radial Poisson slices")
    p.add_argument("--p", type=float)
    p.add_argument("--radii", type=_parse_radii, default=(0.5, 0.9, 0.99))

    p = command("verify", parents=[sampling], help="seeded randomized self-test")
    p.add_argument("--n", type=int, default=2)

    # last on every command, so help and ambiguous-prefix errors list it after the rest
    for p in sub.choices.values():
        p.add_argument("--output")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**vars(args))


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
    except BalltraceError as exc:
        return _error_exit(exc, exc.exit_code)
    except OSError as exc:
        return _error_exit(exc, EXIT_IO)
    except ValueError as exc:  # library-level argument rejections
        return _error_exit(exc, PreconditionError.exit_code)
    except (OverflowError, ZeroDivisionError) as exc:
        return _error_exit(exc, NumericalError.exit_code)
    except Exception as exc:  # KeyboardInterrupt and SystemExit still propagate
        return _error_exit(exc, EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
