import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from balltrace import cli
from balltrace.errors import DimensionMismatchError, DivergenceError, DomainError, SingularityError
from balltrace.kernels import (
    KernelTruncation,
    cauchy_kernel,
    cauchy_series,
    poisson_kernel,
    series_tail_bound,
)
from balltrace.multiindex import graded_indices, monomial_norm_sq
from balltrace.sphere import SphereSampler, mean_and_stderr, norm
from balltrace.transforms import poisson_transform_mc
from test_cli import MIXED2


def random_ball_point(rng, n, radius):
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    z /= max(1.0, float(np.linalg.norm(z)) / radius)
    return z


def assert_points_have_their_rows_bits(evaluate):
    """evaluate(z, w) of a point w is its value as a one-row batch: the bits of its row in every batch.

    Batch lengths 1, 2, 7 and 2048 (a whole Monte-Carlo block), n = 1..16, z inside the ball.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([20261020, 0], dtype=np.uint64)))
    for n in range(1, 17):
        z = random_ball_point(rng, n, 0.9)
        for length in (1, 2, 7, 2048):
            batch = SphereSampler(n, seed=length).sample_batch(length)
            rows = evaluate(z, batch)
            assert rows.shape == (length,)
            assert [evaluate(z, point) for point in batch] == rows.tolist(), (n, length)


def enumerated_series(z, w, order):
    """Raw multi-index form of the kernel series: sum over |w| <= order of
    norm_sq(idx)^(-1) z^idx conj(w)^idx.  Validates the degree-grouped form."""
    n = len(z)
    total = 0j
    for idx in graded_indices(n, order):
        term = 1.0 / float(monomial_norm_sq(idx))
        for k in range(n):
            term = term * z[k] ** idx[k] * np.conj(w[k]) ** idx[k]
        total += term
    return total


class TestCauchyKernel:
    def test_center(self):
        assert cauchy_kernel(np.zeros(2), np.array([0.3, 0.4j])) == 1

    def test_n1_closed_form(self):
        z, w = np.array([0.3 + 0.2j]), np.array([0.1 - 0.5j])
        assert cauchy_kernel(z, w) == pytest.approx(1 / (1 - z[0] * np.conj(w[0])))

    def test_geometric_value(self):
        # <z,w> = 1/4, n = 2: (1 - 1/4)^-2 = 16/9, cross-checked against the
        # degree-grouped series sum (j+1)/4^j below
        z = np.array([0.5, 0.0])
        assert cauchy_kernel(z, z) == pytest.approx(16 / 9, abs=1e-14)
        geometric = sum((j + 1) * 0.25**j for j in range(200))
        assert cauchy_kernel(z, z) == pytest.approx(geometric, abs=1e-12)

    def test_singularity_guard(self):
        e1 = np.array([1.0, 0.0])
        with pytest.raises(SingularityError):
            cauchy_kernel(e1, e1)

    def test_symmetry(self, rng):
        for _ in range(20):
            z, w = random_ball_point(rng, 2, 0.9), random_ball_point(rng, 2, 0.9)
            assert cauchy_kernel(z, w) == pytest.approx(np.conj(cauchy_kernel(w, z)))

    def test_batch_matches_pointwise(self):
        assert_points_have_their_rows_bits(cauchy_kernel)


class TestDimensionMismatch:
    @pytest.mark.parametrize("kernel", [cauchy_kernel, poisson_kernel])
    def test_point_and_batch(self, kernel):
        w = np.array([0.6, 0.0, 0.8], dtype=complex)
        with pytest.raises(DimensionMismatchError):
            kernel(np.zeros(2), w)
        with pytest.raises(DimensionMismatchError):
            kernel(np.zeros(2), np.stack([w, w]))

    @pytest.mark.parametrize("kernel", [cauchy_kernel, poisson_kernel])
    def test_batch_as_first_argument(self, kernel):
        # two points of length 0.9: a |z|^2 summed over the batch would be 1.62
        Z = np.array([[0.9, 0.0], [0.0, 0.9]], dtype=complex)
        with pytest.raises(ValueError, match="first argument must be a single point"):
            kernel(Z, Z[0])


class TestPoissonKernel:
    def test_center_is_one(self, sampler2):
        zeta = sampler2.sample()
        assert poisson_kernel(np.zeros(2), zeta) == 1

    def test_positive(self, rng, sampler2):
        batch = sampler2.sample_batch(200)
        z = random_ball_point(rng, 2, 0.95)
        assert np.all(poisson_kernel(z, batch) > 0)

    def test_factorization(self, rng, sampler2):
        # P(z, zeta) = C(z, zeta) C(zeta, z) / C(z, z)
        for _ in range(25):
            z = random_ball_point(rng, 2, 0.9)
            zeta = sampler2.sample().coords
            lhs = poisson_kernel(z, zeta)
            rhs = cauchy_kernel(z, zeta) * cauchy_kernel(zeta, z) / cauchy_kernel(z, z)
            assert abs(lhs - rhs) <= 1e-10

    def test_batch_matches_pointwise(self):
        assert_points_have_their_rows_bits(poisson_kernel)

    def test_outside_ball_rejected(self):
        with pytest.raises(DomainError):
            poisson_kernel(np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_mc_average_is_one(self):
        # P[1] = 1: the kernel integrates to 1 over the sphere
        s = SphereSampler(2, 123)
        z = np.array([0.4, 0.3j])
        mean, se = mean_and_stderr(poisson_kernel(z, s.sample_batch(200_000)))
        assert abs(mean.real - 1) <= 4 * se


def test_norm_batch_matches_pointwise():
    assert_points_have_their_rows_bits(lambda z, w: norm(w))
    assert_points_have_their_rows_bits(lambda z, w: norm(w - z))  # rows off the sphere


class TestCauchySeries:
    def test_center(self):
        value, trunc = cauchy_series(np.zeros(2), np.array([0.5, 0.5]), 4)
        assert value == 1
        assert trunc.tail_bound == 0  # r = 0 kills every omitted term

    def test_geometric_value_within_tail(self):
        z = np.array([0.5, 0.0])
        value, trunc = cauchy_series(z, z, 30)
        assert abs(value - 16 / 9) <= trunc.tail_bound
        assert isinstance(trunc, KernelTruncation) and trunc.order == 30

    def test_divergent_arguments_rejected(self):
        z = np.array([1.0, 0.0]) * 1.2
        with pytest.raises(DivergenceError):
            cauchy_series(z, z, 5)

    # 1e-13 covers float evaluation roundoff when the mathematical tail is
    # below double precision (values reach (1-0.8)^-3 ~ 125 here)
    FLOAT_SLACK = 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("order", [5, 10, 20])
    def test_discrepancy_below_tail_bound(self, rng, n, order):
        for _ in range(30):
            z = random_ball_point(rng, n, 0.9)
            w = random_ball_point(rng, n, 0.85)
            if np.linalg.norm(z) * np.linalg.norm(w) > 0.8:
                continue
            value, trunc = cauchy_series(z, w, order)
            assert abs(value - cauchy_kernel(z, w)) <= trunc.tail_bound + self.FLOAT_SLACK

    @pytest.mark.parametrize("n", [2, 3])
    def test_multinomial_identity_against_enumerated_form(self, rng, n):
        # degree-grouped series == raw index-enumerated series
        for order in (0, 1, 3, 6):
            z = random_ball_point(rng, n, 0.8)
            w = random_ball_point(rng, n, 0.8)
            grouped, _ = cauchy_series(z, w, order)
            assert grouped == pytest.approx(enumerated_series(z, w, order), abs=1e-12)


class TestSeriesTailBound:
    def test_zero_radius(self):
        assert series_tail_bound(0.0, 3, 2) == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            series_tail_bound(1.0, 3, 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bound_dominates_true_tail(self, rng, n):
        for _ in range(40):
            r = float(rng.uniform(0.05, 0.95))
            order = int(rng.integers(0, 25))
            true_tail = 0.0
            j = order + 1
            while True:
                t = math.comb(j + n - 1, n - 1) * r**j
                true_tail += t
                if t < 1e-300 or j > 200 * (order + 1):
                    break
                j += 1
            assert series_tail_bound(r, order, n) >= true_tail * (1 - 1e-12)

    def test_matches_binomial_majorant(self):
        # t_(order+1) / (1 - q) with an exact binomial, as in the kernels module
        # docstring; the shared radial-series tail computes it up to rounding
        def majorant(r, order, n):
            if r == 0.0:
                return 0.0
            full = (1.0 - r) ** (-n)
            q = r * (order + n + 1) / (order + 2)
            if q >= 1.0:
                return full
            return min(math.comb(order + n, n - 1) * r ** (order + 1) / (1.0 - q), full)

        for n in range(1, 9):
            for order in range(0, 199, 7):
                for r in (0.0, 0.1, 0.5, 0.9, 0.99, 0.999):
                    expected = majorant(r, order, n)
                    assert series_tail_bound(r, order, n) == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_monotone_in_order(self, n):
        for r in (0.1, 0.5, 0.9, 0.99):
            bounds = [series_tail_bound(r, order, n) for order in range(60)]
            assert all(a >= b for a, b in zip(bounds, bounds[1:]))


def print_float_outputs(mixed_path):
    """Print radial-scan's stdout on MIXED2, a Poisson kernel batch and a Poisson Monte-Carlo estimate."""
    cli.main(["radial-scan", "--input", mixed_path, "--radii", "0.3,0.5,0.7", "--seed", "5", "--samples", "2000"])
    z = np.array([0.3, -0.2j, 0.1 + 0.4j])
    print(poisson_kernel(z, SphereSampler(3, 7).sample_batch(2048)).tobytes().hex())
    estimate = poisson_transform_mc(lambda Z: Z[:, 0] * Z[:, 1].conj(), z, SphereSampler(3, 8), 10_000)
    print(repr(estimate.value), repr(estimate.stderr))


def test_float_outputs_do_not_depend_on_the_blas_kernel(capsys, tmp_path):
    # every sum that reaches an output is a fixed-order numpy sum with no BLAS call, so a child
    # process on OpenBLAS's generic x86-64 kernel prints this process's bytes
    path = tmp_path / "mixed.json"
    path.write_text(MIXED2)
    print_float_outputs(str(path))
    here = capsys.readouterr().out
    tests, src = Path(__file__).resolve().parent, Path(cli.__file__).parents[1]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    child = (f"import sys; sys.path.insert(0, {str(tests)!r}); "
             f"from {Path(__file__).stem} import print_float_outputs; print_float_outputs({str(path)!r})")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == here
