"""Points of C^n, the unit sphere, and reproducible uniform sampling.

Points are 1-D complex128 numpy arrays; sample batches are (N, n) arrays
whose rows are unit vectors.  Uniform sampling w.r.t. the normalized
surface measure draws 2n independent standard Gaussians per point and
normalizes: the Gaussian vector is rotation invariant, so its direction is
uniform on the sphere for every dimension.

Reproducibility contract: the sample stream of a sampler is a concatenation
of fixed-size chunks (CHUNK_DRAWS points each); chunk k is generated by a
Philox counter-based generator keyed with the 128-bit key (seed, k).  The
stream therefore depends only on (seed, dimension), never on how callers
slice their batch requests, and disjoint chunks can be generated in
parallel and merged in chunk order.  A draw is Philox normals made a unit
vector by an einsum of squares, sqrt and real products: each gives the same
bits on every SIMD level numpy dispatches to, so the stream does too.  A
sampler only draws forward: its counter is read-only, it starts a chunk's
Philox generator when the counter enters the chunk, and every later request
continues it.  Philox fills the draws row by row, so successive draws equal
one whole draw, and a request generates only the rows it reaches.
Estimators stream the sampler in fixed blocks of rows (sample_blocks) and
fold each block into a running mean and sum of squared deviations
(fold_mean_and_stderr), so their memory is one block whatever the sample
count; mean_and_stderr folds a whole batch in the same blocks, so it gives
the streamed estimate's bits.  A block stream draws its Gaussians in pieces
that never cross a chunk, a piece ahead, on one thread that only draws into
a ring of reused buffers; the caller's thread makes them unit rows as
sample_batch does, so the bits do not depend on the thread.  Every float
length (_norm_sq), Hermitian product (_pair_inner), unit vector and power
table of the package is computed here.  An evaluator builds one _PowerTable per batch: IEEE products
round sign-symmetrically, so conj(z)^nu is the conjugate of z^nu bit for bit.
"""

from __future__ import annotations

import math
import os
import queue
import threading

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .multiindex import MultiIndex

RENORMALIZE_TOL = 1e-8      # construction renormalizes within this drift
CHUNK_DRAWS = 1 << 16       # points per RNG chunk; part of the stream format

_MASK64 = (1 << 64) - 1
# Points per Monte-Carlo block, the batch an integrand sees.  A block's arrays
# stay in cache, and they are small enough that malloc reuses their memory
# from block to block: with 8192-point blocks it returned the memory to the
# system and faulted fresh pages each block (about 5000 minor faults per 10^5
# points, a quarter of the time in n = 2..4).  The Gaussians behind the
# blocks are drawn into reused piece buffers (_PIECE_ROWS), not per block.
_BLOCK_ROWS = 2048
# A block stream draws its Gaussians in pieces of this many rows (the first
# piece is one block), on a thread of its own, into a ring of _RING reused
# float buffers.  Few large pieces keep the drawer's trips through the GIL to
# about a dozen per 10^5 points; 2048-row pieces gained half as often.
_PIECE_ROWS = 4 * _BLOCK_ROWS
_RING = 3
_ZERO_NORM = 1e-150         # Gaussian rows shorter than this are redrawn


def as_point(coords) -> np.ndarray:
    """Coerce to a finite 1-D complex128 array."""
    z = np.asarray(coords, dtype=np.complex128)
    if z.ndim != 1 or z.size == 0:
        raise ValueError(f"a point must be a non-empty 1-D coordinate array, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("point coordinates must be finite")
    return z


def herm_inner(z, w) -> complex:
    """Hermitian inner product <z, w> = sum_k z_k * conj(w_k) of two points."""
    inner, batched = _pair_inner(_coords(z), w)
    if batched:
        raise ValueError("herm_inner takes single points")
    return complex(inner[0])


def norm(z):
    """Euclidean length |z| = <z, z>^(1/2) of a point, or the (N,) lengths of an (N, n) batch's rows."""
    rows, batched = _rows(z)
    lengths = np.sqrt(_norm_sq(rows))
    return lengths if batched else float(lengths[0])


class SpherePoint:
    """A point on the unit sphere; coordinates are renormalized on construction.

    Accepts drift up to RENORMALIZE_TOL and renormalizes; farther off the
    sphere is an error.  The stored array is read-only.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        z = as_point(coords)
        r = norm(z)
        if abs(r - 1.0) > RENORMALIZE_TOL:
            raise DomainError(f"not a sphere point: |coords| = {r}")
        if abs(r - 1.0) > 1e-16:
            z = z / r
        z.setflags(write=False)
        object.__setattr__(self, "coords", z)

    def __setattr__(self, name, value):
        raise AttributeError("SpherePoint is immutable")

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    def __repr__(self) -> str:
        return f"SpherePoint({self.coords.tolist()})"


def _coords(zeta) -> np.ndarray:
    """A SpherePoint's coordinates, else the argument as a complex128 array (a point or a batch)."""
    return zeta.coords if isinstance(zeta, SpherePoint) else np.asarray(zeta, dtype=np.complex128)


def _rows(zeta, *dims: int) -> tuple[np.ndarray, bool]:
    """(N, n) rows of a SpherePoint, a 1-D point (one row) or a batch, and whether it was a batch.

    The float evaluators' one point entry; n must equal every given dimension.
    """
    z = _coords(zeta)
    if any(dim != z.shape[-1] for dim in dims):
        raise DimensionMismatchError(f"dimensions {dims} do not match point dimension {z.shape[-1]}")
    return (z, True) if z.ndim == 2 else (z[None, :], False)


def _norm_sq(rows: np.ndarray) -> np.ndarray:
    """|w|^2 of each complex row w: an einsum of its squared float parts, the same bits at every SIMD level."""
    v = np.ascontiguousarray(rows).view(np.float64)
    return np.einsum("ij,ij->i", v, v)


def _pair_inner(z: np.ndarray, w):
    """(<z, w_i> for each row w_i of a point or a batch, whether w was a batch); einsum calls no BLAS."""
    if z.ndim != 1:
        raise ValueError("first argument must be a single point")
    rows, batched = _rows(w, z.shape[0])
    return np.einsum("ij,j->i", np.conj(rows), z), batched


class _PowerTable:
    """Per-coordinate power cache of an (N, n) batch: its monomials in z, and by conjugation in conj(z)."""

    def __init__(self, z: np.ndarray):
        self.z = z
        one = np.ones(z.shape[:-1], dtype=np.complex128)  # every coordinate's zeroth power
        self._pows: list[list] = [[one] for _ in range(z.shape[-1])]

    def power(self, k: int, t: int):
        tab = self._pows[k]
        while len(tab) <= t:
            tab.append(tab[-1] * self.z[..., k])
        return tab[t]

    def monomial(self, idx: MultiIndex):
        out = self.power(0, idx[0])
        for k in range(1, len(idx)):
            if idx[k]:
                out = out * self.power(k, idx[k])
        return out

    def conj_monomial(self, idx: MultiIndex):
        """conj(z)^idx; the shared ones at idx = 0, whose imaginary zero conjugation would negate."""
        return np.conj(self.monomial(idx)) if idx.degree else self._pows[0][0]


def monomial_eval(zeta, alpha: MultiIndex, beta: MultiIndex):
    """zeta^alpha * conj(zeta)^beta, pointwise or batched.

    Accepts a SpherePoint, a 1-D point, or an (N, n) batch; returns a complex
    scalar or an (N,) array accordingly.  |result| <= 1 on the sphere since
    every coordinate has modulus <= 1.
    """
    z, batched = _rows(zeta, alpha.dim, beta.dim)
    # A ufunc call, so the factors multiply in this order at every batch length:
    # numpy reuses a large temporary right operand of * as the output, swapping
    # the operands, and complex products round differently in the two orders.
    table = _PowerTable(z)
    out = np.multiply(table.monomial(alpha), table.conj_monomial(beta))
    return out if batched else complex(out[0])


def _chunk_rng(seed: int, k: int) -> np.random.Generator:
    """The Philox generator of chunk k of a seed's stream, at its start."""
    key = np.array([seed & _MASK64, k & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _fill_rows(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Fill the (rows, dim) complex array z from the (rows, 2 dim) Gaussians x; return the rows' norms.

    Each row takes 2 dim draws: the real parts, then the imaginary parts.  A
    norm is the square root of the row's _norm_sq; callers scale the rows by
    1/norm as real products of their float parts.  Philox normals, an einsum
    of squares, sqrt and real products give the same bits on every SIMD level.
    """
    dim = z.shape[1]
    z.real = x[:, :dim]
    z.imag = x[:, dim:]
    return np.sqrt(_norm_sq(z))


def _chunk(seed: int, dim: int, k: int) -> np.ndarray:
    """Chunk k of the (seed, dim) stream: (CHUNK_DRAWS, dim) unit rows.

    An exactly-zero Gaussian row (probability 0) is redrawn from the stream
    past the chunk's end.
    """
    rng = _chunk_rng(seed, k)
    z = np.empty((CHUNK_DRAWS, dim), dtype=np.complex128)
    norms = _fill_rows(rng.standard_normal((CHUNK_DRAWS, 2 * dim)), z)
    bad = norms < _ZERO_NORM
    while np.any(bad):
        y = np.empty((int(np.count_nonzero(bad)), dim), dtype=np.complex128)
        norms[bad] = _fill_rows(rng.standard_normal((y.shape[0], 2 * dim)), y)
        z[bad] = y
        bad = norms < _ZERO_NORM
    z.view(np.float64)[...] *= (1.0 / norms)[:, None]
    return z


def _spare_cpu() -> bool:
    """Whether this process may run on more than one CPU, so that a drawer thread runs beside it."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _draw_inline(plan, ring):
    """The planned pieces, each drawn on the caller's thread into ring[0]: (chunk, row, Gaussians)."""
    for rng, k, off, rows in plan:
        x = ring[0][:rows]
        rng.standard_normal(out=x)
        yield k, off, x


def _draw_ahead(plan, ring):
    """The planned pieces, drawn ahead on a thread of their own into the ring's free buffers in turn.

    The thread does nothing but draw, so the caller evaluates one piece while
    the next is drawn: numpy draws normals without holding the GIL.  What the
    thread raises is raised here; closing this generator stops the thread and
    joins it.
    """
    free, ready, stop = queue.SimpleQueue(), queue.SimpleQueue(), threading.Event()
    for buf in ring:
        free.put(buf)

    def draw():
        try:
            for rng, k, off, rows in plan:
                buf = free.get()
                if stop.is_set():
                    return
                rng.standard_normal(out=buf[:rows])
                ready.put((k, off, buf, rows))
            ready.put(None)
        except BaseException as exc:  # raised again in the caller, which would wait forever without it
            ready.put(exc)

    drawer = threading.Thread(target=draw, name="balltrace-sphere-drawer", daemon=True)
    drawer.start()
    try:
        while (item := ready.get()) is not None:
            if isinstance(item, BaseException):
                raise item
            k, off, buf, rows = item
            yield k, off, buf[:rows]
            free.put(buf)
    finally:
        stop.set()
        free.put(None)  # wakes a drawer that waits for a buffer
        drawer.join()


class SphereSampler:
    """Deterministic uniform sampler on the unit sphere of C^dim.

    Two samplers with equal (seed, dim) produce identical streams regardless
    of batch sizes.  The read-only draw counter tracks the stream position.
    A sampler is not shared across threads, and it takes no request while
    one of its block streams is open.
    """

    def __init__(self, dim: int, seed: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = int(dim)
        self.seed = int(seed)
        self._counter = 0
        self._rng = None    # generator of the counter's chunk, standing at the counter, or None
        self._streaming = False

    @property
    def counter(self) -> int:
        """Draws taken so far: the stream position of the next draw."""
        return self._counter

    def _check_request(self, count: int) -> None:
        if count < 0:
            raise ValueError("count must be >= 0")
        if self._streaming:
            raise RuntimeError("the sampler's block stream is still open")

    def _generator(self, k: int, off: int) -> np.random.Generator:
        """The generator of chunk k standing at its row off, the stream position of the next draw.

        A block stream closed early has drawn past its counter and left
        self._rng None: the chunk's generator restarts and draws past the rows
        already taken, so the stream continues exactly.
        """
        if off == 0 or self._rng is None:
            self._rng = _chunk_rng(self.seed, k)
            for start in range(0, off, _PIECE_ROWS):
                self._rng.standard_normal((min(_PIECE_ROWS, off - start), 2 * self.dim))
        return self._rng

    def _unit(self, x: np.ndarray, z: np.ndarray, k: int, off: int) -> None:
        """Make z the unit rows of the Gaussians x, drawn from row off of chunk k on.

        If x holds a zero row, z takes its rows from _chunk, which redraws that
        row past the chunk's end, where the generator never reaches.
        """
        norms = _fill_rows(x, z)
        if np.any(norms < _ZERO_NORM):
            z[...] = _chunk(self.seed, self.dim, k)[off:off + z.shape[0]]
        else:
            z.view(np.float64)[...] *= (1.0 / norms)[:, None]

    def sample_batch(self, count: int) -> np.ndarray:
        """Next `count` draws as an (count, dim) array of unit rows."""
        self._check_request(count)
        out = np.empty((count, self.dim), dtype=np.complex128)
        done = 0
        while done < count:
            k, off = divmod(self._counter, CHUNK_DRAWS)
            take = min(count - done, CHUNK_DRAWS - off)
            x = self._generator(k, off).standard_normal((take, 2 * self.dim))
            self._unit(x, out[done:done + take], k, off)
            done += take
            self._counter += take
        return out

    def sample_blocks(self, count: int):
        """Next `count` draws as successive (rows, dim) blocks of _BLOCK_ROWS rows, the last one shorter.

        The blocks are sample_batch(count) bit for bit, and the counter counts
        the rows yielded.  The Gaussians are drawn in pieces (_plan); past the
        first piece a thread draws them a piece ahead (_draw_ahead), unless
        this process may run on one CPU only.  Close a stream left early
        (contextlib.closing): that stops its thread.
        """
        self._check_request(count)
        return self._blocks(count)

    def _plan(self, pos: int, end: int):
        """Draws pos .. end - 1 as pieces in stream order: (generator at the piece, chunk, row, rows).

        The first piece is one block and the others _PIECE_ROWS rows; none
        crosses a chunk.  Run on the drawer's thread, it moves self._rng along.
        """
        size = _BLOCK_ROWS
        while pos < end:
            k, off = divmod(pos, CHUNK_DRAWS)
            rows = min(size, end - pos, CHUNK_DRAWS - off)
            yield self._generator(k, off), k, off, rows
            pos += rows
            size = _PIECE_ROWS

    def _blocks(self, count: int):
        self._check_request(count)  # another stream may have opened since this one was made
        end = self._counter + count
        ahead = count > _BLOCK_ROWS and _spare_cpu()
        # one allocation: glibc returns separate piece buffers past its mmap threshold
        # to the system after every call, and they fault in afresh on the next
        ring = np.empty((_RING if ahead else 1, min(count, _PIECE_ROWS), 2 * self.dim))
        pieces = (_draw_ahead if ahead else _draw_inline)(self._plan(self._counter, end), ring)
        block, filled = None, 0
        self._streaming = True
        try:
            for k, off, x in pieces:
                done = 0
                while done < x.shape[0]:
                    if block is None:
                        rows = min(_BLOCK_ROWS, end - self._counter)
                        block = np.empty((rows, self.dim), dtype=np.complex128)
                    take = min(x.shape[0] - done, block.shape[0] - filled)
                    self._unit(x[done:done + take], block[filled:filled + take], k, off + done)
                    done += take
                    filled += take
                    if filled == block.shape[0]:
                        self._counter += filled
                        yield block
                        block, filled = None, 0
        finally:
            pieces.close()
            self._streaming = False
            if self._counter != end:
                self._rng = None    # the pieces went past the rows yielded

    def sample(self) -> SpherePoint:
        """One draw, advancing the counter."""
        return SpherePoint(self.sample_batch(1)[0])


def mean_and_stderr(values: np.ndarray):
    """Sample mean and standard error of a 1-D batch of evaluations.

    For complex batches the standard error combines both components:
    sqrt((Var Re + Var Im) / N), the scale against which |mean - truth| is
    compared in the 4-sigma checks.  N = 1 yields stderr = inf (no variance
    information), N with zero variance yields 0.  The batch is folded in
    blocks of _BLOCK_ROWS, the blocks an estimator streams, so a streamed
    estimate equals this one on its whole batch bit for bit.
    """
    v = np.asarray(values)
    blocks = (v[start:start + _BLOCK_ROWS] for start in range(0, v.shape[0], _BLOCK_ROWS))
    return fold_mean_and_stderr(blocks)


def fold_mean_and_stderr(blocks):
    """mean_and_stderr of the concatenation of 1-D blocks, holding one block at a time.

    Each block's mean and sum of squared deviations fold into running ones by
    Chan's pairwise update; the squares are summed by np.sum, never by BLAS.
    """
    mean, m2, n = 0j, 0.0, 0
    for block in blocks:
        rows = block.shape[0]
        block_mean = complex(np.mean(block))
        delta = block_mean - mean
        n += rows
        mean += delta * (rows / n)
        dev_sq = float(np.sum(np.square((block - block_mean).view(np.float64))))
        m2 += dev_sq + (delta.real * delta.real + delta.imag * delta.imag) * (rows * (n - rows) / n)
    if n == 0:
        raise ValueError("empty sample batch")
    stderr = math.inf if n == 1 else math.sqrt(m2 / (n - 1) / n)
    return mean, stderr
