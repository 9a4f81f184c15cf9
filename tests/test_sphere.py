import hashlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from balltrace import sphere
from balltrace.errors import DimensionMismatchError, DomainError
from balltrace.kernels import cauchy_kernel, poisson_kernel
from balltrace.multiindex import MultiIndex, graded_indices
from balltrace.polynomials import SpherePolynomial
from balltrace.sphere import (
    CHUNK_DRAWS,
    _chunk,
    _PowerTable,
    SpherePoint,
    SphereSampler,
    herm_inner,
    mean_and_stderr,
    monomial_eval,
    norm,
)
from balltrace.transforms import poisson_series_eval, radial_scan


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


def draw_ahead(monkeypatch, ahead: bool) -> None:
    """Make block streams draw ahead on a thread, or inline, whatever CPUs this process may use."""
    monkeypatch.setattr(sphere, "_spare_cpu", lambda: ahead)


PATHS = pytest.mark.parametrize("ahead", [True, False], ids=["ahead", "inline"])


class TestBlockStream:
    """sample_blocks yields sample_batch's rows in blocks, drawn a piece ahead or inline."""

    BLOCK, PIECE = sphere._BLOCK_ROWS, sphere._PIECE_ROWS
    COUNTS = [
        1, BLOCK - 1, BLOCK, BLOCK + 1,                    # around the first piece, one block
        BLOCK + PIECE - 1, BLOCK + PIECE, BLOCK + PIECE + 1,
        BLOCK + 2 * PIECE - 1, BLOCK + 2 * PIECE + 1,      # around piece multiples
        CHUNK_DRAWS - 3, CHUNK_DRAWS + 3,                  # across a chunk
    ]

    @PATHS
    @pytest.mark.parametrize("start", [5, CHUNK_DRAWS - 100])
    @pytest.mark.parametrize("dim", [1, 2, 4, 16])
    def test_blocks_are_the_batch(self, monkeypatch, dim, start, ahead):
        draw_ahead(monkeypatch, ahead)
        whole = SphereSampler(dim, 13).sample_batch(start + max(self.COUNTS) + 7)
        for count in self.COUNTS:
            s = SphereSampler(dim, 13)
            s.sample_batch(start)
            blocks = list(s.sample_blocks(count))
            assert [len(b) for b in blocks] == [min(self.BLOCK, count - i) for i in range(0, count, self.BLOCK)]
            assert np.concatenate(blocks).tobytes() == whole[start:start + count].tobytes()
            assert s.counter == start + count
            # the next request continues the stream
            assert s.sample_batch(7).tobytes() == whole[start + count:start + count + 7].tobytes()

    @PATHS
    def test_zero_rows_in_later_pieces(self, monkeypatch, ahead):
        # as in TestChunkPrefix: in n = 1 about 4 % of rows are shorter than 0.3, so the
        # pieces after the first hold some, and they are redrawn past the chunk's end
        draw_ahead(monkeypatch, ahead)
        monkeypatch.setattr(sphere, "_ZERO_NORM", 0.3)
        count = self.BLOCK + 2 * self.PIECE + 100
        raw = np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64)))
        x = raw.standard_normal((5 + count, 2))
        assert np.any(np.hypot(x[:, 0], x[:, 1])[5 + self.BLOCK + self.PIECE:] < 0.3)
        s = SphereSampler(1, 5)
        s.sample_batch(5)
        got = np.concatenate(list(s.sample_blocks(count)))
        assert np.array_equal(got, _chunk(5, 1, 0)[5:5 + count])

    @PATHS
    @pytest.mark.parametrize("taken", [0, 1, 2, 6])
    def test_a_closed_stream_continues_exactly(self, monkeypatch, ahead, taken):
        # the stream starts 5000 rows before chunk 1, so six blocks end inside it
        draw_ahead(monkeypatch, ahead)
        start = CHUNK_DRAWS - 5000
        s = SphereSampler(3, 21)
        s.sample_batch(start)
        stream = s.sample_blocks(40_000)
        got = [next(stream) for _ in range(taken)]
        stream.close()
        assert s.counter == start + taken * self.BLOCK
        got.append(s.sample_batch(10_000))
        want = SphereSampler(3, 21).sample_batch(s.counter)[start:]
        assert np.concatenate(got).tobytes() == want.tobytes()

    @PATHS
    def test_a_drawing_error_reaches_the_caller(self, monkeypatch, ahead):
        class Exhausted:
            def standard_normal(self, *args, **kwargs):
                raise MemoryError("no room for normals")

        chunk_rng = sphere._chunk_rng
        monkeypatch.setattr(sphere, "_chunk_rng", lambda seed, k: chunk_rng(seed, k) if k == 0 else Exhausted())
        draw_ahead(monkeypatch, ahead)
        before = threading.active_count()
        s = SphereSampler(2, 3)
        with pytest.raises(MemoryError):
            for _ in s.sample_blocks(CHUNK_DRAWS + 5000):
                pass
        assert threading.active_count() == before
        assert s.counter == CHUNK_DRAWS  # chunk 0 ends on a block boundary

    def test_concurrent_streams_under_fast_switching(self, monkeypatch):
        # four samplers, one per thread, each with its drawer: eight threads on the cores,
        # switching the interpreter lock every microsecond; every stream keeps its bits
        draw_ahead(monkeypatch, True)
        count = self.BLOCK + 3 * self.PIECE + 11
        want = {seed: SphereSampler(2, seed).sample_batch(count) for seed in range(4)}
        got = {}

        def stream(seed):
            got[seed] = np.concatenate(list(SphereSampler(2, seed).sample_blocks(count)))

        workers = [threading.Thread(target=stream, args=(seed,)) for seed in want]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert all(got[seed].tobytes() == want[seed].tobytes() for seed in want)

    def test_negative_count_is_refused(self):
        s = SphereSampler(2, 1)
        with pytest.raises(ValueError, match="count must be >= 0"):
            s.sample_blocks(-3)
        assert s.counter == 0

    def test_no_request_while_a_stream_is_open(self):
        s = SphereSampler(2, 4)
        stream = s.sample_blocks(3 * self.BLOCK)
        next(stream)
        with pytest.raises(RuntimeError):
            s.sample_batch(1)
        with pytest.raises(RuntimeError):
            next(s.sample_blocks(1))
        stream.close()
        assert s.sample_batch(1).tobytes() == SphereSampler(2, 4).sample_batch(self.BLOCK + 1)[-1:].tobytes()


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
    """sha256 of sample_batch bytes in n = 1, 2, 3, 4, 8, 16, with norm and herm_inner on each batch,
    and of both kernel batches in n = 2, 3, 4, 7, 16."""
    h = hashlib.sha256()
    for dim in (1, 2, 3, 4, 8, 16):
        batch = SphereSampler(dim, 17).sample_batch(3000)
        h.update(batch.tobytes())
        h.update(norm(batch + batch[::-1]).tobytes())  # rows off the sphere too
        h.update(np.array([herm_inner(z, w) for z, w in zip(batch[:500], batch[::-1])]).tobytes())
    for dim in (2, 3, 4, 7, 16):
        batch = SphereSampler(dim, 23).sample_batch(3000)
        z = batch[0].copy()
        z.view(np.float64)[...] *= 0.7  # a real product: |z| = 0.7 with the same bits everywhere
        h.update(poisson_kernel(z, batch[1:]).tobytes())
        h.update(cauchy_kernel(z, batch[1:]).tobytes())
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


class TestOnePowerTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_conj_monomial_is_the_conjugate_table_monomial(self, n):
        Z = SphereSampler(n, 60 + n).sample_batch(1000)
        table, conj_table = _PowerTable(Z), _PowerTable(np.conj(Z))
        for nu in graded_indices(n, 6):  # nu = 0 included: the shared ones keep their +0 imaginary part
            assert table.conj_monomial(nu).tobytes() == conj_table.monomial(nu).tobytes()

    def test_one_table_per_evaluation(self, monkeypatch):
        built, init = [], _PowerTable.__init__

        def spy(table, z):
            built.append(z.shape)
            init(table, z)

        monkeypatch.setattr(_PowerTable, "__init__", spy)
        f = SpherePolynomial(2, {((1, 1), (1, 0)): 1, ((0, 2), (0, 0)): 2})  # H(2,1), H(1,0), H(2,0)
        batch = SphereSampler(2, 5).sample_batch(50)
        calls = [
            lambda: f.eval(batch),
            lambda: monomial_eval(batch, MultiIndex((2, 1)), MultiIndex((0, 1))),
            lambda: poisson_series_eval(f, 0.5 * batch, 4),
            lambda: radial_scan(f, 2.0, [0.5, 0.9], SphereSampler(2, 6), 50),
        ]
        for call in calls:
            built.clear()
            call()
            assert built == [(50, 2)]


class TestMeanAndStderr:
    def test_constant_batch_has_zero_stderr(self):
        mean, se = mean_and_stderr(np.ones(100))
        assert mean == 1 and se == 0

    def test_complex_stderr_combines_parts(self):
        v = np.array([1 + 0j, -1 + 0j, 0 + 1j, 0 - 1j] * 25)
        _, se = mean_and_stderr(v)
        assert se > 0
