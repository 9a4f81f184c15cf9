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
parallel and merged in chunk order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .multiindex import MultiIndex

UNIT_NORM_TOL = 1e-12       # |norm - 1| accepted as "on the sphere"
RENORMALIZE_TOL = 1e-8      # construction renormalizes within this drift
CHUNK_DRAWS = 1 << 16       # points per RNG chunk; part of the stream format

_MASK64 = (1 << 64) - 1


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
    z = np.asarray(z, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    if z.ndim != 1 or w.ndim != 1:
        raise ValueError("herm_inner takes single points")
    if z.shape[0] != w.shape[0]:
        raise DimensionMismatchError(f"point dimensions differ: {z.shape[0]} vs {w.shape[0]}")
    return complex(np.sum(z * np.conj(w)))


def norm(z) -> float:
    """Euclidean length |z| = <z, z>^(1/2) of a single point."""
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim != 1:
        raise ValueError("norm takes a single point")
    return float(np.linalg.norm(z))


class SpherePoint:
    """A point on the unit sphere; coordinates are renormalized on construction.

    Accepts drift up to RENORMALIZE_TOL and renormalizes; farther off the
    sphere is an error.  The stored array is read-only.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        z = as_point(coords)
        r = float(np.linalg.norm(z))
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


def monomial_eval(zeta, alpha: MultiIndex, beta: MultiIndex):
    """zeta^alpha * conj(zeta)^beta, pointwise or batched.

    Accepts a SpherePoint, a 1-D point, or an (N, n) batch; returns a complex
    scalar or an (N,) array accordingly.  |result| <= 1 on the sphere since
    every coordinate has modulus <= 1.
    """
    z = zeta.coords if isinstance(zeta, SpherePoint) else np.asarray(zeta, dtype=np.complex128)
    batched = z.ndim == 2
    n = z.shape[-1]
    if alpha.dim != n or beta.dim != n:
        raise DimensionMismatchError(
            f"index dimension {alpha.dim}/{beta.dim} does not match point dimension {n}"
        )
    out = np.ones(z.shape[0] if batched else (), dtype=np.complex128)
    for k in range(n):
        if alpha[k]:
            out = out * z[..., k] ** alpha[k]
        if beta[k]:
            out = out * np.conj(z[..., k]) ** beta[k]
    return out if batched else complex(out)


def _chunk(seed: int, dim: int, k: int) -> np.ndarray:
    """Generate chunk k of the (seed, dim) stream: (CHUNK_DRAWS, dim) unit rows."""
    key = np.array([seed & _MASK64, k & _MASK64], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    x = rng.standard_normal((CHUNK_DRAWS, 2 * dim))
    z = x[:, :dim] + 1j * x[:, dim:]
    norms = np.linalg.norm(z, axis=1)
    # an exactly-zero Gaussian vector has probability 0; redraw just in case
    bad = norms < 1e-150
    while np.any(bad):
        m = int(np.count_nonzero(bad))
        y = rng.standard_normal((m, 2 * dim))
        z[bad] = y[:, :dim] + 1j * y[:, dim:]
        norms[bad] = np.linalg.norm(z[bad], axis=1)
        bad = norms < 1e-150
    return z / norms[:, None]


class SphereSampler:
    """Deterministic uniform sampler on the unit sphere of C^dim.

    Two samplers with equal (seed, dim) produce identical streams regardless
    of batch sizes.  The draw counter tracks the stream position.
    """

    def __init__(self, dim: int, seed: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = int(dim)
        self.seed = int(seed)
        self.counter = 0
        self._cache_idx = -1
        self._cache = None

    def _chunk_cached(self, k: int) -> np.ndarray:
        if k != self._cache_idx:
            self._cache = _chunk(self.seed, self.dim, k)
            self._cache_idx = k
        return self._cache

    def sample_batch(self, count: int) -> np.ndarray:
        """Next `count` draws as an (count, dim) array of unit rows."""
        if count < 0:
            raise ValueError("count must be >= 0")
        pieces = []
        pos = self.counter
        remaining = count
        while remaining > 0:
            k, off = divmod(pos, CHUNK_DRAWS)
            take = min(remaining, CHUNK_DRAWS - off)
            pieces.append(self._chunk_cached(k)[off:off + take])
            pos += take
            remaining -= take
        self.counter = pos
        if not pieces:
            return np.empty((0, self.dim), dtype=np.complex128)
        return pieces[0].copy() if len(pieces) == 1 else np.concatenate(pieces)

    def sample(self) -> SpherePoint:
        """One draw, advancing the counter."""
        return SpherePoint(self.sample_batch(1)[0])


def mean_and_stderr(values: np.ndarray, expect_real: bool = False):
    """Sample mean and standard error of a 1-D batch of evaluations.

    For complex batches the standard error combines both components:
    sqrt((Var Re + Var Im) / N), the scale against which |mean - truth| is
    compared in the 4-sigma checks.  N = 1 yields stderr = inf (no variance
    information), N with zero variance yields 0.
    """
    v = np.asarray(values)
    n = v.shape[0]
    if n == 0:
        raise ValueError("empty sample batch")
    mean = complex(np.mean(v))
    if n == 1:
        return (mean.real if expect_real else mean), math.inf
    var = float(np.var(v.real, ddof=1))
    if np.iscomplexobj(v):
        var += float(np.var(v.imag, ddof=1))
    stderr = math.sqrt(var / n)
    return (mean.real if expect_real else mean), stderr
