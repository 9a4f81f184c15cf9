import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from balltrace import sphere
from balltrace.errors import DimensionMismatchError, DomainError
from balltrace.multiindex import MultiIndex
from balltrace.sphere import (
    CHUNK_DRAWS,
    _chunk,
    SpherePoint,
    SphereSampler,
    herm_inner,
    mean_and_stderr,
    monomial_eval,
    norm,
)


class TestInnerAndNorm:
    def test_inner_examples(self):
        assert herm_inner([1, 0], [1, 0]) == 1
        assert herm_inner([1, 0], [0, 1]) == 0
        assert herm_inner([0.5, 0], [0.5, 0]) == pytest.approx(0.25)

    def test_inner_conjugates_second_argument(self):
        assert herm_inner([1j, 0], [1j, 0]) == pytest.approx(1)
        assert herm_inner([1j, 0], [1, 0]) == pytest.approx(1j)

    def test_norm_examples(self):
        assert norm([1, 0]) == 1
        assert norm([0, 0]) == 0
        assert norm([0.6j, 0.8]) == pytest.approx(1.0)  # pythagorean

    def test_norm_is_sqrt_of_self_inner(self):
        z = np.array([0.3 + 0.1j, -0.2 + 0.7j])
        assert norm(z) ** 2 == pytest.approx(herm_inner(z, z).real)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            herm_inner([1, 0], [1, 0, 0])


class TestSpherePoint:
    def test_accepts_unit_vector(self):
        p = SpherePoint([3 / 5 * 1j, 4 / 5])
        assert abs(norm(p.coords) - 1) <= 1e-12

    def test_renormalizes_small_drift(self):
        p = SpherePoint([1 + 3e-9, 0])
        assert abs(norm(p.coords) - 1) <= 1e-12

    def test_rejects_large_drift(self):
        with pytest.raises(DomainError):
            SpherePoint([1.001, 0])

    def test_immutable(self):
        p = SpherePoint([1, 0])
        with pytest.raises((AttributeError, ValueError)):
            p.coords[0] = 0


class TestSampler:
    def test_same_seed_same_stream(self):
        a = SphereSampler(2, 7).sample_batch(500)
        b = SphereSampler(2, 7).sample_batch(500)
        assert np.array_equal(a, b)

    def test_stream_independent_of_batching(self):
        a = SphereSampler(3, 11).sample_batch(CHUNK_DRAWS + 1000)
        s = SphereSampler(3, 11)
        b = np.concatenate([s.sample_batch(999), s.sample_batch(CHUNK_DRAWS), s.sample_batch(1)])
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = SphereSampler(2, 1).sample_batch(10)
        b = SphereSampler(2, 2).sample_batch(10)
        assert not np.allclose(a, b)

    def test_counter_tracks_draws(self):
        s = SphereSampler(2, 0)
        s.sample_batch(123)
        s.sample()
        assert s.counter == 124

    def test_counter_is_read_only(self):
        # a sampler only draws forward, so its stream position cannot be moved
        s = SphereSampler(2, 0)
        with pytest.raises(AttributeError):
            s.counter = 5
        assert s.counter == 0

    def test_unit_norm_within_tolerance(self):
        batch = SphereSampler(4, 3).sample_batch(2000)
        assert np.max(np.abs(np.linalg.norm(batch, axis=1) - 1)) <= 1e-12

    def test_single_sample_is_sphere_point(self):
        p = SphereSampler(2, 5).sample()
        assert isinstance(p, SpherePoint)
        assert p.dim == 2

    def test_first_coordinate_moment(self):
        # symmetry forces E|zeta_1|^2 = 1/n
        batch = SphereSampler(2, 40).sample_batch(200_000)
        mean, se = mean_and_stderr(np.abs(batch[:, 0]) ** 2)
        assert abs(mean.real - 0.5) <= 4 * se

    def test_mean_coordinate_vanishes(self):
        batch = SphereSampler(2, 41).sample_batch(200_000)
        mean, se = mean_and_stderr(batch[:, 0])
        assert abs(mean) <= 4 * se


class TestChunkPrefix:
    """A batch generates only the chunk rows it needs, bit-identical to the whole chunk."""

    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_prefix_is_slice_of_full_chunk(self, seed, dim):
        # the sampler draws prefixes of chunk 3 that end at rows 1, 10000 and 34464
        full = _chunk(seed, dim, 3)
        s = SphereSampler(dim, seed)
        s.sample_batch(3 * CHUNK_DRAWS)
        got = np.empty((0, dim), dtype=np.complex128)
        for take in (1, 9_999, CHUNK_DRAWS - 41_072):
            got = np.concatenate([got, s.sample_batch(take)])
            assert np.array_equal(got, full[: got.shape[0]])

    @pytest.mark.parametrize(
        "splits", [(1, 2, 5, 100, 10_000, 70_000), (9_999, 1, 60_000), (CHUNK_DRAWS, 3, 34_464)]
    )
    def test_batch_splits_match_full_chunks(self, splits):
        s = SphereSampler(2, 99)
        got = np.concatenate([s.sample_batch(c) for c in splits])
        want = np.concatenate([_chunk(99, 2, 0), _chunk(99, 2, 1)])[: sum(splits)]
        assert np.array_equal(got, want)

    def test_zero_row_in_prefix_falls_back_to_full_chunk(self, monkeypatch):
        # treat every Gaussian row shorter than 0.3 as zero: in n = 1 about 4 %
        # of rows, so the 200-row prefix holds some and must redraw them past
        # the end of the whole chunk, exactly as the full chunk does
        monkeypatch.setattr(sphere, "_ZERO_NORM", 0.3)
        raw = np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64)))
        x = raw.standard_normal((200, 2))
        assert np.any(np.hypot(x[:, 0], x[:, 1]) < 0.3)
        prefix = _chunk(5, 1, 0)[:200]
        assert np.array_equal(SphereSampler(1, 5).sample_batch(200), prefix)


    def test_zero_row_in_a_later_block(self, monkeypatch):
        # the 200 rows of the test above, drawn in two requests from one generator
        monkeypatch.setattr(sphere, "_ZERO_NORM", 0.3)
        s = SphereSampler(1, 5)
        got = np.concatenate([s.sample_batch(60), s.sample_batch(140)])
        assert np.array_equal(got, _chunk(5, 1, 0)[:200])


class TestStreamDigest:
    def test_stream_bytes_are_pinned(self):
        # any change to the stream's bits, down to the last one, changes the digest
        h = hashlib.sha256()
        for dim in (1, 2, 3, 4):
            for seed in (0, 7, 2**63 + 5):
                s = SphereSampler(dim, seed)
                for count in (1, 2047, 2048, 30_000, CHUNK_DRAWS, 5):
                    h.update(s.sample_batch(count).tobytes())
        assert h.hexdigest() == "a21dc6ebddf1191e89694ccb33c87f8cb066383b0da5aa78aa65bc869dd31697"

    def test_high_dimension_stream_bytes_are_pinned(self):
        # these rows have 16 to 32 float parts, those of n <= 4 at most 8: a norm that sums
        # each row in blocks of 8 float parts keeps that digest and moves this one; the
        # counts cross a chunk boundary
        h = hashlib.sha256()
        for dim in (8, 9, 16):
            for seed in (3, 2**63 + 5):
                s = SphereSampler(dim, seed)
                for count in (1, 2047, 2048, CHUNK_DRAWS - 3000, 5):
                    h.update(s.sample_batch(count).tobytes())
        assert h.hexdigest() == "4f9910cfa5b829b6c4a4004966d2e426aee717413c371e76468facdc35a8bec1"


def dispatch_digest() -> str:
    """sha256 of sample_batch bytes in n = 1, 2, 3, 4, 8, 16, with norm and herm_inner on each batch."""
    h = hashlib.sha256()
    for dim in (1, 2, 3, 4, 8, 16):
        batch = SphereSampler(dim, 17).sample_batch(3000)
        h.update(batch.tobytes())
        h.update(norm(batch + batch[::-1]).tobytes())  # rows off the sphere too
        h.update(np.array([herm_inner(z, w) for z, w in zip(batch[:500], batch[::-1])]).tobytes())
    return h.hexdigest()


def test_stream_does_not_depend_on_simd_dispatch():
    # a child process with every dispatch target this CPU supports switched off runs numpy's
    # baseline (X86_V2 on x86-64); naming an unsupported target would make numpy warn
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    if not targets:
        pytest.skip("numpy dispatches to no target above its baseline")
    tests, src = Path(__file__).resolve().parent, Path(sphere.__file__).parents[1]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    child = (f"import sys; sys.path.insert(0, {str(tests)!r}); "
             f"from {Path(__file__).stem} import dispatch_digest; print(dispatch_digest())")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == dispatch_digest()


class TestMonomialEval:
    def test_examples(self):
        assert monomial_eval(SpherePoint([1, 0]), MultiIndex((2, 0)), MultiIndex((0, 0))) == 1
        assert monomial_eval(SpherePoint([0, 1]), MultiIndex((1, 0)), MultiIndex((0, 0))) == 0

    def test_equal_indices_give_unit_interval_value(self):
        batch = SphereSampler(2, 9).sample_batch(200)
        alpha = MultiIndex((2, 1))
        vals = monomial_eval(batch, alpha, alpha)
        assert np.max(np.abs(vals.imag)) <= 1e-14
        assert np.all(vals.real >= 0) and np.all(vals.real <= 1 + 1e-12)

    def test_modulus_bounded_by_one(self):
        batch = SphereSampler(3, 10).sample_batch(500)
        vals = monomial_eval(batch, MultiIndex((2, 0, 1)), MultiIndex((0, 3, 1)))
        assert np.max(np.abs(vals)) <= 1 + 1e-12

    def test_batch_matches_pointwise(self):
        batch = SphereSampler(2, 12).sample_batch(5)
        a, b = MultiIndex((1, 2)), MultiIndex((0, 1))
        vals = monomial_eval(batch, a, b)
        for i in range(5):
            assert vals[i] == pytest.approx(monomial_eval(batch[i], a, b))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            monomial_eval(SpherePoint([1, 0]), MultiIndex((1,)), MultiIndex((1,)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bits_do_not_depend_on_batch_length(self, n):
        # 40 000 rows pass 2^14 complex rows (256 KiB), where numpy starts reusing temporaries
        batch = SphereSampler(n, 40 + n).sample_batch(40_000)
        pairs = [
            (MultiIndex([2] + [0] * (n - 1)), MultiIndex([1] * n)),
            (MultiIndex([1] * n), MultiIndex([3, 0, 1, 1][:n])),
        ]
        if n > 1:
            pairs.append((MultiIndex.unit(n, 1), MultiIndex.unit(n, 0)))  # alpha = e_2, beta = e_1
        for alpha, beta in pairs:
            whole = monomial_eval(batch, alpha, beta).tobytes()
            rows = sphere._BLOCK_ROWS
            blocks = [monomial_eval(batch[i:i + rows], alpha, beta) for i in range(0, len(batch), rows)]
            assert np.concatenate(blocks).tobytes() == whole
        # each 1-D point, for the last pair
        assert np.array([monomial_eval(z, alpha, beta) for z in batch]).tobytes() == whole


class TestMeanAndStderr:
    def test_constant_batch_has_zero_stderr(self):
        mean, se = mean_and_stderr(np.ones(100))
        assert mean == 1 and se == 0

    def test_complex_stderr_combines_parts(self):
        v = np.array([1 + 0j, -1 + 0j, 0 + 1j, 0 - 1j] * 25)
        _, se = mean_and_stderr(v)
        assert se > 0
