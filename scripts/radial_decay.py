#!/usr/bin/env python3
"""Radial convergence experiment: how fast do Poisson slices reach the boundary?

For a few boundary functions (a member, a pure anti-holomorphic part, and a
mixed non-member) the script scans ||P[f]_r - f||_p over a radius grid and
writes one CSV per function.  The anti-holomorphic coordinate has the exact
error law (1-r)/sqrt(2) at p = 2, which makes a handy calibration line.  Its
Poisson slice is r conj(zeta_1) with no series cut, so each row's error is
(1-r) times the sample Lp norm of f to rounding; the law holds up to the
Monte-Carlo error of that one norm, the same at every radius.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, "src")  # allow running from a fresh checkout

from balltrace import SpherePolynomial, SphereSampler, radial_scan
from balltrace.transforms import RADIAL_CSV_HEADER

CASES = {
    "member_z1z2": SpherePolynomial.monomial(2, (1, 1), (0, 0)),
    "conj_z1": SpherePolynomial.monomial(2, (0, 0), (1, 0)),
    "mixed_z1_conj_z2": SpherePolynomial.monomial(2, (1, 0), (0, 1)),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=float, default=2.0)
    parser.add_argument("--radii", default="0.3,0.5,0.7,0.9,0.95,0.99")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--samples", type=int, default=50_000)
    parser.add_argument("--outdir", default="radial_decay_out")
    args = parser.parse_args()

    radii = [float(r) for r in args.radii.split(",")]
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for name, f in CASES.items():
        rows = radial_scan(f, args.p, radii, SphereSampler(f.dim, args.seed), args.samples)
        dest = outdir / f"{name}.csv"
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write("\n".join([RADIAL_CSV_HEADER] + [row.csv() for row in rows]) + "\n")
        print(f"{name}: wrote {dest}")
        for row in rows:
            print(f"  r={row.r:<5} error={row.lp_error:.6f} norm_r={row.lp_norm_r:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
